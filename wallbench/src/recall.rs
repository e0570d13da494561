//! `recall`: a CASTOR-style Zipf user community recalling a migrated file
//! set through the fair-share stager, with freshly created files migrated
//! between arrivals so writes share the drives with reads.

use crate::probe::Probe;
use crate::stats::{percentile, Digest};
use crate::{pass_median, sub_seed, EndToEnd, Metric, Pass, Workload};
use copra_core::{ArchiveSystem, SystemConfig};
use copra_simtime::SimInstant;
use copra_stager::{Admission, MigrateRequest, Priority, RecallRequest, Stager, StagerConfig};
use copra_vfs::Content;
use copra_workloads::{StagerCampaign, StagerCampaignSpec, StagerRequestSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const CAMP_ROOT: &str = "/camp";
const FRESH_ROOT: &str = "/fresh";

pub struct Recall {
    pub seed: u64,
    pub spec: StagerCampaignSpec,
    /// Campaigns per pass, each on a system of its own. Campaign `k` is
    /// generated from `sub_seed(seed, k)`; every pass drives the same
    /// campaigns. A step's wall cost depends on the campaign drawn,
    /// so several campaigns per pass keep one draw from setting the figures.
    pub campaigns: usize,
    /// One freshly created file is migrated after every this many arrivals.
    pub migrate_every: usize,
}

impl Recall {
    /// The benchmark's size: the `castor_scale` campaign that `tbl_stager`
    /// runs, with its arrival spacing, burst gap and 250 requests per
    /// burst, over a larger file set and more bursts. Twelve bursts of this
    /// many requests would overflow the queue's high watermark and shed.
    pub fn standard(seed: u64) -> Self {
        Recall {
            seed,
            spec: StagerCampaignSpec {
                files: 2_000,
                file_size_mean: 256 << 20,
                requests: 16_000,
                bursts: 64,
                ..StagerCampaignSpec::castor_scale()
            },
            campaigns: 8,
            migrate_every: 50,
        }
    }
}

/// One campaign and the system it runs on.
pub struct Campaign {
    sys: ArchiveSystem,
    stager: Arc<Stager>,
    campaign: StagerCampaign,
    t0: SimInstant,
}

pub struct State {
    campaigns: Vec<Campaign>,
}

/// What the campaigns of one pass did, beyond the probe's samples.
#[derive(Default)]
struct Tally {
    failures: Vec<String>,
    requests: u64,
    migrates: u64,
    failed: u64,
    shed: u64,
    queued: u64,
    max_depth: usize,
    timed_ns: f64,
    digest: Digest,
    counters: BTreeMap<String, u64>,
}

fn priority_of(level: u8) -> Priority {
    match level {
        0 => Priority::Batch,
        1 => Priority::Normal,
        2 => Priority::High,
        _ => Priority::Urgent,
    }
}

impl Recall {
    fn setup_campaign(&self, k: usize, probe: &mut Probe) -> Campaign {
        let campaign = StagerCampaign::generate(self.spec.clone(), sub_seed(self.seed, k));
        let mut config = SystemConfig::test_small().with_stager(StagerConfig::default());
        config.drives = 8;
        config.tapes = 128;
        if probe.traced() {
            config = config.with_tracer(probe.tracer().clone());
        }
        let sys = ArchiveSystem::new(config);
        let stager = sys.stager().expect("stager configured").clone();
        sys.archive().mkdir_p(CAMP_ROOT).expect("mkdir campaign root");
        sys.archive().mkdir_p(FRESH_ROOT).expect("mkdir fresh root");
        // Create and migrate the file set in file order, holes punched, so
        // every first recall goes to tape.
        let mut cursor = SimInstant::EPOCH;
        for (i, &bytes) in campaign.file_sizes.iter().enumerate() {
            let path = StagerCampaign::file_path(CAMP_ROOT, i as u32);
            probe.call("call.vfs.create", || {
                sys.archive()
                    .create_file(&path, 0, Content::synthetic(i as u64, bytes))
                    .expect("create campaign file")
            });
            cursor = sys
                .migrate(&MigrateRequest::new(path).punch(true), cursor)
                .expect("migrate campaign file");
        }
        Campaign { sys, stager, campaign, t0: cursor }
    }

    /// Drive one campaign through its stager and check its completions.
    fn drive(&self, c: Campaign, probe: &mut Probe, t: &mut Tally) {
        let Campaign { sys, stager, campaign, t0 } = c;
        let (mut shed, mut rounds, mut empty_rounds) = (0u64, 0u64, 0u64);
        let at_of = |spec: &StagerRequestSpec| t0 + spec.at.saturating_since(SimInstant::EPOCH);
        for (i, spec) in campaign.requests.iter().enumerate() {
            let at = at_of(spec);
            // One step: the dispatch rounds due before this arrival, then
            // its submit.
            let t_step = Instant::now();
            let mut now = at;
            loop {
                let report = probe.call("call.stager.dispatch_round", || {
                    stager.dispatch_round(now).expect("dispatch round")
                });
                rounds += 1;
                if report.dispatched + report.coalesced > 0 {
                    continue;
                }
                empty_rounds += 1;
                match report.next_completion {
                    Some(nc) if nc <= at && stager.queue_depth() > 0 => now = nc,
                    _ => break,
                }
            }
            let req = RecallRequest::new(StagerCampaign::file_path(CAMP_ROOT, spec.file))
                .user(spec.user)
                .group(spec.group)
                .priority(priority_of(spec.priority_level))
                .pin(spec.pin);
            let verdict = probe.call("call.stager.submit", || stager.submit(req, at));
            let step_ns = t_step.elapsed().as_nanos() as f64;
            t.timed_ns += step_ns;
            probe.push("step_ns", step_ns);
            match verdict {
                Ok(Admission::Shed { .. }) => shed += 1,
                Ok(Admission::Queued { depth }) => {
                    t.queued += 1;
                    t.max_depth = t.max_depth.max(depth);
                }
                Ok(Admission::Accepted) => {}
                Err(e) => {
                    t.failed += 1;
                    t.failures.push(format!("submit {i}: {e}"));
                }
            }
            if i % self.migrate_every == self.migrate_every - 1 {
                // A fresh file, sized like a campaign file, written and
                // migrated at this arrival.
                let k = i / self.migrate_every;
                let bytes = campaign.file_sizes[k % campaign.file_sizes.len()];
                let path = format!("{FRESH_ROOT}/n{k:06}.dat");
                let t_mig = Instant::now();
                probe.call("call.vfs.create", || {
                    sys.archive()
                        .create_file(&path, 0, Content::synthetic(!(k as u64), bytes))
                        .expect("create fresh file")
                });
                let t_migrate = Instant::now();
                let res = probe.call("call.hsm.migrate", || {
                    sys.migrate(&MigrateRequest::new(path).punch(true), at)
                });
                probe.push("migrate_ns", t_migrate.elapsed().as_nanos() as f64);
                t.timed_ns += t_mig.elapsed().as_nanos() as f64;
                t.migrates += 1;
                if let Err(e) = res {
                    t.failed += 1;
                    t.failures.push(format!("migrate {k}: {e}"));
                }
            }
        }
        let last = campaign.requests.last().map_or(t0, at_of);
        let (end, drain_ns) =
            Probe::step(|| probe.call("call.stager.drain", || stager.drain(last)));
        t.timed_ns += drain_ns;
        let end = end.expect("drain");

        let completions = stager.take_completions();
        let requests = campaign.requests.len() as u64;
        let lost = requests.abs_diff(completions.len() as u64 + shed);
        if lost != 0 {
            t.failures.push(format!(
                "{} completions + {shed} shed != {requests} requests",
                completions.len()
            ));
        }
        t.failed += shed + lost;
        t.shed += shed;
        t.requests += requests;
        for c in &completions {
            for v in [
                c.seq_no,
                c.user as u64,
                c.bytes,
                c.submitted.as_nanos(),
                c.completed.as_nanos(),
                c.cache_hit as u64,
            ] {
                t.digest.mix(v);
            }
        }
        t.digest.mix(end.as_nanos());
        probe.add("requests", requests as f64);
        probe.add("completed", completions.len() as f64);
        probe.add("rounds", rounds as f64);
        probe.add("empty_rounds", empty_rounds as f64);
        probe.push("sim_end_ns", end.as_nanos() as f64);
        let (hits, _, _, evictions) = stager.cache_stats();
        probe.add("cache_hits", hits as f64);
        probe.add("cache_evictions", evictions as f64);
        for (name, v) in crate::layers::counters(&sys.snapshot()) {
            *t.counters.entry(name).or_default() += v;
        }
    }
}

impl Workload for Recall {
    type State = State;

    fn name(&self) -> &'static str {
        "recall"
    }

    fn sizes(&self) -> String {
        format!(
            "{} campaigns per pass, each {} files of {} MB mean behind a 64 GB stager pool, {} requests in {} bursts ({} ms spacing, {} s gaps), one migrate per {} arrivals",
            self.campaigns,
            self.spec.files,
            self.spec.file_size_mean >> 20,
            self.spec.requests,
            self.spec.bursts,
            self.spec.burst_spacing.as_nanos() / 1_000_000,
            self.spec.burst_gap.as_nanos() / 1_000_000_000,
            self.migrate_every
        )
    }

    fn setup(&self, probe: &mut Probe) -> State {
        State { campaigns: (0..self.campaigns).map(|k| self.setup_campaign(k, probe)).collect() }
    }

    fn pass(&self, st: State, mut probe: Probe) -> Pass {
        let mut t = Tally::default();
        for c in st.campaigns {
            self.drive(c, &mut probe, &mut t);
        }
        probe.add("queued", t.queued as f64);
        probe.add("max_queue_depth", t.max_depth as f64);
        probe.add("shed", t.shed as f64);
        let attempted = t.requests + t.migrates;
        probe.add("ops", attempted as f64);
        let spans = probe.finish_trace();
        Pass {
            timed_s: t.timed_ns / 1e9,
            attempted,
            failed: t.failed,
            check_failures: t.failures,
            digest: t.digest.value(),
            counters: t.counters,
            spans,
            probe,
        }
    }

    fn enough(&self, _passes: &[&Pass]) -> bool {
        // Every pass holds enough steps and migrates for its own
        // percentiles.
        true
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn end_to_end(&self, passes: &[&Pass]) -> EndToEnd {
        // Every pass repeats the same work, so the percentiles pool the
        // samples of all passes.
        let pooled_us = |series: &str| -> Vec<f64> {
            passes.iter().flat_map(|p| p.probe.samples[series].iter().map(|ns| ns / 1e3)).collect()
        };
        let steps = pooled_us("step_ns");
        let migrate = pooled_us("migrate_ns");
        let rps = pass_median(passes, |p| p.probe.total("completed") / p.timed_s);
        let p50 = percentile(&steps, 0.5).expect("a pass holds enough steps");
        let p99 = percentile(&steps, 0.99).expect("a pass holds enough steps");
        let mig = percentile(&migrate, 0.5).expect("a pass holds enough migrates");
        let (n, nm) = (steps.len(), migrate.len());
        let beyond = n - (0.99 * n as f64).ceil() as usize;
        let first = &passes[0].probe;
        let sim_end: Vec<String> =
            first.samples["sim_end_ns"].iter().map(|ns| ns.to_string()).collect();
        let of = format!("{} passes", passes.len());
        EndToEnd {
            metrics: vec![
                Metric::new("throughput_per_s", rps, "1/s"),
                Metric::new("op_p50_ms", p50 / 1e3, "ms"),
                Metric::new("op_tail_ms", p99 / 1e3, "ms"),
                Metric::new("write_op_us", mig, "us"),
            ],
            lines: vec![
                format!("recall.requests_per_s = {rps:.1} req/s (median of {of})"),
                format!("recall.step_p50_us = {p50:.3} us (n={n} steps over {of})"),
                format!("recall.step_p99_us = {p99:.3} us (n={n} steps over {of}, {beyond} beyond)"),
                format!("recall.migrate_p50_us = {mig:.3} us (n={nm} migrates over {of})"),
                format!("recall simulated end per campaign = {} ns", sim_end.join(" ")),
                format!(
                    "recall admission per pass of {} campaigns: {} queued (max depth {}), {} shed; pool {} hits, {} evictions",
                    self.campaigns,
                    first.total("queued"),
                    first.total("max_queue_depth"),
                    first.total("shed"),
                    first.total("cache_hits"),
                    first.total("cache_evictions")
                ),
            ],
        }
    }
}
