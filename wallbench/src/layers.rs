//! Per-layer metrics from traced passes. Three sources:
//!
//! - **T**: the wall time of each call the benchmark makes into a layer
//!   (`call.*` samples, taken by [`crate::probe::Probe::call`]);
//! - **S**: span self time, the span's duration minus the union of its
//!   children, over the program's own spans;
//! - **C**: the obs counters and device-timeline operation counts of the
//!   system's snapshot.
//!
//! Every workload reports every metric; a layer the workload never calls
//! reads zero.

use crate::stats::{percentile, self_time};
use crate::{Metric, Pass};
use copra_core::SystemSnapshot;
use copra_trace::TraceReport;
use std::collections::{BTreeMap, HashMap};

/// The counters a pass keeps from its final snapshot.
pub fn counters(snap: &SystemSnapshot) -> BTreeMap<String, u64> {
    let mut out = snap.metrics.counters.clone();
    out.insert("simtime.device_ops".to_string(), snap.devices.iter().map(|d| d.ops).sum());
    out
}

/// What a traced pass keeps of its spans: self time per span name, and
/// how many spans the tracer dropped.
#[derive(Debug, Default)]
pub struct SpanTimes {
    /// Per span name: (total self ns, span count).
    pub self_ns: BTreeMap<&'static str, (f64, u64)>,
    pub dropped: u64,
}

impl SpanTimes {
    pub fn of(report: &TraceReport) -> Self {
        let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &report.spans {
            if let Some(parent) = s.parent {
                kids.entry(parent.0).or_default().push((s.wall_start_ns, s.wall_end_ns));
            }
        }
        let mut self_ns: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in &report.spans {
            let children = kids.get(&s.id.0).map_or(&[][..], |v| v.as_slice());
            let e = self_ns.entry(s.name).or_default();
            e.0 += self_time(s.wall_start_ns, s.wall_end_ns, children) as f64;
            e.1 += 1;
        }
        SpanTimes { self_ns, dropped: report.dropped }
    }
}

/// Self time per span name over the passes: (total ns, span count).
fn self_times(passes: &[&Pass]) -> (BTreeMap<&'static str, (f64, u64)>, u64) {
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let mut dropped = 0;
    for spans in passes.iter().filter_map(|p| p.spans.as_ref()) {
        dropped += spans.dropped;
        for (name, (ns, n)) in &spans.self_ns {
            let e = out.entry(name).or_default();
            e.0 += ns;
            e.1 += n;
        }
    }
    (out, dropped)
}

struct Evidence<'a> {
    passes: &'a [&'a Pass],
    calls: BTreeMap<&'static str, Vec<f64>>,
    selfs: BTreeMap<&'static str, (f64, u64)>,
    notes: Vec<String>,
}

impl Evidence<'_> {
    /// Percentile of a call's wall time in `scale` ns units; zero when the
    /// workload never made the call.
    fn call_pct(&mut self, name: &str, q: f64, scale: f64) -> f64 {
        let Some(v) = self.calls.get(name) else {
            return 0.0;
        };
        match percentile(v, q) {
            Some(x) => x / scale,
            None => {
                self.notes.push(format!(
                    "{name}: {} samples, too few for p{}; reported as 0",
                    v.len(),
                    q * 100.0
                ));
                0.0
            }
        }
    }

    fn call_total(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Mean self time per span of the names matching `pred`, in `scale`
    /// ns units.
    fn mean_self(&self, pred: impl Fn(&str) -> bool, scale: f64) -> f64 {
        let (total, count) = self
            .selfs
            .iter()
            .filter(|(n, _)| pred(n))
            .fold((0.0, 0), |(t, c), (_, &(st, sc))| (t + st, c + sc));
        if count == 0 {
            0.0
        } else {
            total / count as f64 / scale
        }
    }

    /// Total self time of the names matching `pred` per `per`, in `scale`
    /// ns units.
    fn self_per(&self, pred: impl Fn(&str) -> bool, per: f64, scale: f64) -> f64 {
        let total: f64 = self.selfs.iter().filter(|(n, _)| pred(n)).map(|(_, &(st, _))| st).sum();
        if per == 0.0 {
            0.0
        } else {
            total / per / scale
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.passes.iter().map(|p| p.counter(name) as f64).sum()
    }

    fn total(&self, name: &str) -> f64 {
        self.passes.iter().map(|p| p.probe.total(name)).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// The per-layer metrics of a traced run, plus notes for the human-readable
/// output.
pub fn per_layer(passes: &[&Pass], overhead_ratio: f64) -> (Vec<Metric>, Vec<String>) {
    let (selfs, dropped) = self_times(passes);
    let mut calls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (name, v) in &p.probe.samples {
            if name.starts_with("call.") {
                calls.entry(name).or_default().extend(v);
            }
        }
    }
    let mut e = Evidence { passes, calls, selfs, notes: Vec::new() };
    let is = |want: &'static str| move |n: &str| n == want;
    let scans = e.calls.get("call.pfs.run_policy").map_or(0, |v| v.len()) as f64;
    let recalls = e.total("requests");
    let per_1k_recalls = |c: f64| ratio(c * 1000.0, recalls);
    let (small_ns, small_files) = (e.total("small_job_ns"), e.total("small_job_files"));
    let (large_ns, large_files) = (e.total("large_job_ns"), e.total("large_job_files"));
    let cache_lookups = e.counter("stager.cache.hits")
        + e.counter("stager.cache.misses")
        + e.counter("stager.cache.bypass");
    let sort_merge = |n: &str| n == "policy.assemble" || n == "scan.sort_merge";
    let walk = |n: &str| n.ends_with(".shard.walk");
    let snapshot = |n: &str| n.ends_with(".shard.snapshot");
    let idle = e.counter("pftool.worker_idle_transitions");
    let round = "call.stager.dispatch_round";
    let drains = e.calls.get("call.stager.drain").map_or(0, |v| v.len()) as f64;
    let drain_ms = ratio(e.call_total("call.stager.drain") / MS, drains);
    let empty = ratio(e.total("empty_rounds"), e.total("rounds"));
    let hits = ratio(e.counter("stager.cache.hits"), cache_lookups);
    let intent = |n: &str| n.starts_with("journal.intent.");
    let migrate = e.call_pct("call.core.migrate_candidates", 0.5, MS);
    let purge = e.call_pct("call.core.syncdel_purge", 0.5, MS);
    let per_op = ratio(e.counter("simtime.device_ops"), e.total("ops"));
    let mounts = per_1k_recalls(e.counter("tape.mounts"));
    let locates = per_1k_recalls(e.counter("tape.locates"));
    let backhitches = per_1k_recalls(e.counter("tape.backhitches"));
    let rows = [
        // vfs
        ("vfs.create_us.p50", e.call_pct("call.vfs.create", 0.5, US), "us"),
        ("vfs.unlink_us.p50", e.call_pct("call.vfs.unlink", 0.5, US), "us"),
        // pfs
        ("pfs.run_policy_ms.p50", e.call_pct("call.pfs.run_policy", 0.5, MS), "ms"),
        ("pfs.matched_ratio", ratio(e.total("matched"), e.total("scanned")), "ratio"),
        ("pfs.scan.sort_merge_ms", e.self_per(sort_merge, scans, MS), "ms"),
        ("pfs.scan.shard_walk_ms", e.self_per(walk, scans, MS), "ms"),
        ("pfs.scan.shard_snapshot_ms", e.self_per(snapshot, scans, MS), "ms"),
        // pftool / mpirt
        ("pftool.pfcp_ms.p50", e.call_pct("call.pftool.pfcp", 0.5, MS), "ms"),
        ("pftool.pfcm_ms.p50", e.call_pct("call.pftool.pfcm", 0.5, MS), "ms"),
        ("pftool.run_overhead_ms", e.mean_self(is("pftool.run"), MS), "ms"),
        ("pftool.us_per_file.small", ratio(small_ns / US, small_files), "us"),
        ("pftool.us_per_file.large", ratio(large_ns / US, large_files), "us"),
        ("pftool.copy_us", e.mean_self(is("pftool.copy"), US), "us"),
        ("pftool.stat_us", e.mean_self(is("pftool.stat"), US), "us"),
        ("pftool.compare_us", e.mean_self(is("pftool.compare"), US), "us"),
        ("pftool.stolen_jobs", e.total("stolen_jobs"), "count"),
        ("pftool.worker_idle_transitions", idle, "count"),
        // stager
        ("stager.submit_us.p50", e.call_pct("call.stager.submit", 0.5, US), "us"),
        ("stager.submit_us.p99", e.call_pct("call.stager.submit", 0.99, US), "us"),
        ("stager.dispatch_round_us.p50", e.call_pct(round, 0.5, US), "us"),
        ("stager.dispatch_round_us.p99", e.call_pct(round, 0.99, US), "us"),
        ("stager.drain_ms", drain_ms, "ms"),
        ("stager.empty_round_ratio", empty, "ratio"),
        ("stager.cache_hit_ratio", hits, "ratio"),
        ("stager.cache_evictions", e.counter("stager.cache.evictions"), "count"),
        ("stager.shed", e.counter("stager.shed"), "count"),
        // hsm
        ("hsm.migrate_us.p50", e.call_pct("call.hsm.migrate", 0.5, US), "us"),
        ("hsm.recall_us", e.mean_self(is("hsm.recall"), US), "us"),
        ("hsm.agent_store_us", e.mean_self(is("hsm.agent.store"), US), "us"),
        ("hsm.agent_fetch_us", e.mean_self(is("hsm.agent.fetch"), US), "us"),
        ("hsm.pfs_read_us", e.mean_self(is("hsm.pfs.read"), US), "us"),
        ("hsm.migrate_ops", e.counter("hsm.migrate_ops"), "count"),
        ("hsm.recall_ops", e.counter("hsm.recall_ops"), "count"),
        // journal
        ("journal.intent_us", e.mean_self(intent, US), "us"),
        ("journal.sealed", e.counter("journal.sealed"), "count"),
        // core
        ("core.migrate_candidates_ms.p50", migrate, "ms"),
        ("core.syncdel_purge_ms.p50", purge, "ms"),
        // metadb
        ("metadb.export_ms.p50", e.call_pct("call.metadb.export", 0.5, MS), "ms"),
        ("metadb.rows_exported", e.total("rows_exported"), "count"),
        // simtime
        ("simtime.reservations_per_op", per_op, "ratio"),
        // tape: simulated work, which a wall-clock change leaves unchanged
        ("tape.mounts_per_1k_recalls", mounts, "count"),
        ("tape.locates_per_1k_recalls", locates, "count"),
        ("tape.backhitches_per_1k_recalls", backhitches, "count"),
        // trace: validity of the numbers above
        ("trace.overhead_ratio", overhead_ratio, "ratio"),
        ("trace.dropped_spans", dropped as f64, "count"),
    ];
    let m: Vec<Metric> =
        rows.into_iter().map(|(name, value, unit)| Metric::new(name, value, unit)).collect();
    let mut notes = e.notes;
    for metric in &m {
        notes.push(format!("{} = {:.4} {}", metric.name, metric.value, metric.unit));
    }
    (m, notes)
}
