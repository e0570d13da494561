//! # copra-wallbench — the wall-clock benchmark for copra
//!
//! One closed-loop client drives one workload through copra's public API
//! and times it from outside: `archive` (PFTool archive and verify),
//! `recall` (the stager's recall loop with interleaved migrates) and
//! `policy` (the nightly ILM cycle). A run repeats whole passes, each on a
//! freshly set-up system, until its timed phases add up to `--seconds`.
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) alternates untraced and traced passes and reports the
//! per-layer metrics. `design.json` next to this crate records why each
//! workload exists and which end-to-end metric each layer metric moves.

pub mod archive;
pub mod layers;
pub mod policy;
pub mod probe;
pub mod recall;
pub mod stats;

use copra_trace::Tracer;
use layers::SpanTimes;
use probe::Probe;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run at least, so `setup_s` is a median of several.
pub const MIN_SETUPS: usize = 3;

/// Span capacity of a traced pass: large enough that no span is dropped.
const SPAN_CAPACITY: usize = 1 << 28;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one pass of a workload produced.
pub struct Pass {
    pub probe: Probe,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed correctness checks.
    pub check_failures: Vec<String>,
    /// Digest of the pass's simulated results.
    pub digest: u64,
    /// Obs counters at the end of the pass, plus `simtime.device_ops`.
    pub counters: BTreeMap<String, u64>,
    /// The self times of the pass's spans, on a traced pass.
    pub spans: Option<SpanTimes>,
}

impl Pass {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The end-to-end results of a workload: the benchmark's metrics plus the
/// lines that print them under the workload's own names and units.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

pub trait Workload {
    type State;
    fn name(&self) -> &'static str;
    /// The workload's sizes, for the provenance line.
    fn sizes(&self) -> String;
    /// Build the system, generate the inputs from the seed and populate or
    /// migrate them: everything up to the first timed call.
    fn setup(&self, probe: &mut Probe) -> Self::State;
    /// Run the timed phase once on a set-up system.
    fn pass(&self, state: Self::State, probe: Probe) -> Pass;
    /// Whether these passes hold enough samples for every percentile the
    /// workload reports.
    fn enough(&self, passes: &[&Pass]) -> bool;
    /// Whether every pass must reproduce the same simulated digest.
    fn deterministic(&self) -> bool;
    /// The end-to-end metrics other than `setup_s` and `peak_rss_mb`.
    fn end_to_end(&self, passes: &[&Pass]) -> EndToEnd;
}

/// The result of one run, before printing.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

/// Set up and run one pass; returns it with its set-up seconds.
pub fn one_pass<W: Workload>(w: &W, traced: bool, seed: u64) -> (Pass, f64) {
    let tracer =
        if traced { Tracer::armed_with_capacity(seed, SPAN_CAPACITY) } else { Tracer::disabled() };
    let mut probe = Probe::new(tracer);
    let t0 = Instant::now();
    let state = w.setup(&mut probe);
    let setup_s = t0.elapsed().as_secs_f64();
    (w.pass(state, probe), setup_s)
}

/// Run `w` for `seconds` of timed phase. Untraced, the metrics are the
/// end-to-end ones; traced, the per-layer ones.
pub fn run<W: Workload>(w: &W, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut timed = 0.0;
    let mut peak_rss = 0.0;
    loop {
        // A traced run alternates untraced and traced passes of the same
        // work, so the pair gives the tracing overhead.
        let traced = trace && passes.len() % 2 == 1;
        let (pass, setup_s) = one_pass(w, traced, seed);
        timed += pass.timed_s;
        if !traced {
            setups.push(setup_s);
        }
        passes.push(pass);
        if passes.len() == 1 {
            // The peak of one set-up and pass: later passes only add
            // allocator churn, and their number depends on the host's speed.
            peak_rss = peak_rss_mb();
        }
        let measured: Vec<&Pass> = passes.iter().filter(|p| p.probe.traced() == trace).collect();
        let pairs_done = !trace || passes.len().is_multiple_of(2);
        let min_passes = if w.deterministic() { 2 } else { 1 };
        if timed >= seconds && passes.len() >= min_passes && pairs_done && w.enough(&measured) {
            break;
        }
    }
    if !trace {
        while setups.len() < MIN_SETUPS {
            let mut probe = Probe::new(Tracer::disabled());
            let t0 = Instant::now();
            drop(w.setup(&mut probe));
            setups.push(t0.elapsed().as_secs_f64());
        }
    }

    let mut lines = Vec::new();
    let mut correct = true;
    for (i, p) in passes.iter().enumerate() {
        for f in &p.check_failures {
            lines.push(format!("check failed (pass {i}): {f}"));
            correct = false;
        }
    }
    let digests: Vec<String> = passes.iter().map(|p| format!("{:016x}", p.digest)).collect();
    let agree = passes.iter().all(|p| p.digest == passes[0].digest);
    lines.push(format!(
        "simulated digest per pass: {} ({})",
        digests.join(" "),
        match (agree, w.deterministic()) {
            (true, _) => "identical",
            (false, true) => "DIFFER: simulated results are not repeatable",
            (false, false) => "recorded, not gated: known nondeterminism",
        }
    ));
    if !agree && w.deterministic() {
        correct = false;
    }
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();

    let metrics = if trace {
        let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) =
            passes.iter().partition(|p| p.probe.traced());
        let seconds = |ps: &[&Pass]| ps.iter().map(|p| p.timed_s).sum::<f64>();
        let ratio = seconds(&traced) / seconds(&untraced);
        let (metrics, notes) = layers::per_layer(&traced, ratio);
        lines.extend(notes);
        metrics
    } else {
        let all: Vec<&Pass> = passes.iter().collect();
        let e2e = w.end_to_end(&all);
        lines.extend(e2e.lines);
        let setup_s = stats::median(&setups).expect("at least one set-up");
        lines.push(format!("setup_s = {setup_s:.4} s (median of {} set-ups)", setups.len()));
        lines.push(format!("peak_rss_mb = {peak_rss:.2} MB (after the first pass)"));
        let mut metrics =
            vec![Metric::new("setup_s", setup_s, "s"), Metric::new("peak_rss_mb", peak_rss, "MB")];
        metrics.extend(e2e.metrics);
        metrics
    };
    lines.push(format!(
        "passes: {} ({}), timed {:.3} s, error_rate = {}/{} = {:.6}",
        passes.len(),
        if trace { "untraced and traced alternating" } else { "untraced" },
        timed,
        failed,
        attempted,
        failed as f64 / (attempted as f64).max(1.0)
    ));
    RunResult { correct, attempted, failed, metrics, lines }
}

/// Median over passes of a per-pass value: a pass that ran while the host
/// was briefly faster or slower moves it less than a pooled figure.
pub fn pass_median(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().map(|p| f(p)).collect();
    stats::median(&values).expect("at least one pass")
}

/// The seed of a workload's `k`th campaign: `seed` itself for the first.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Cores this process may run on.
pub fn usable_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Format the result line: one JSON object with the metrics by name.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
