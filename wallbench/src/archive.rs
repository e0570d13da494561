//! `archive`: the Open Science campaign through PFTool. Each job is a
//! `pfcp` of its scratch tree into the archive followed by a `pfcm` that
//! verifies it; the trees are populated during set-up.

use crate::probe::Probe;
use crate::stats::{percentile, Digest};
use crate::{sub_seed, usable_cores, EndToEnd, Metric, Pass, Workload};
use copra_core::{ArchiveSystem, SystemConfig};
use copra_pftool::PftoolConfig;
use copra_vfs::Content;
use copra_workloads::{CampaignSpec, FileSpec, JobSpec, OpenScienceTrace};
use std::collections::BTreeMap;
use std::time::Instant;

/// Jobs at or above this many files count as large.
const LARGE_JOB_FILES: u64 = 500;

/// A job's time is its fastest in this many passes, and every archive
/// time figure derives from those times. A small job lasts a few
/// milliseconds across a dozen rank threads, so one preemption of the
/// host's CPUs can double it; the fastest of a fixed number of runs on
/// identical fresh systems leaves that out, and being fixed, it does not
/// depend on how many passes fit in --seconds.
const JOB_REPEATS: usize = 3;

pub struct Archive {
    pub seed: u64,
    /// Campaigns per pass, each generated from `sub_seed(seed, k)` and
    /// archived on a system of its own; every pass drives the same ones.
    /// A system slows down as it accumulates jobs, so a pass spreads its
    /// jobs over several systems rather than driving more on one.
    pub campaigns: usize,
    /// Jobs driven per campaign.
    pub jobs: usize,
    /// A generated campaign holds this many times `jobs`, and the campaign
    /// drives a systematic sample of it by size. The larger the generated
    /// campaign, the less the sample's job-size mix depends on the seed.
    pub oversample: usize,
    /// A job materializes one file per this many of its files, so the
    /// campaign's job-size shape survives: most jobs small, a tail large.
    pub file_scale: u64,
    /// Cap on materialized files per job.
    pub file_cap: u64,
    /// PFTool worker ranks.
    pub workers: usize,
}

impl Archive {
    /// The benchmark's size.
    pub fn standard(seed: u64) -> Self {
        Archive {
            seed,
            campaigns: 2,
            jobs: 120,
            oversample: 100,
            file_scale: 200,
            file_cap: 600,
            workers: usable_cores().min(2),
        }
    }

    /// Files a job materializes.
    fn files_of(&self, job: &JobSpec) -> u64 {
        (job.files / self.file_scale).clamp(1, self.file_cap)
    }

    fn pftool(&self) -> PftoolConfig {
        PftoolConfig {
            workers: self.workers,
            readdir_procs: 1,
            tape_procs: 0,
            ..PftoolConfig::default()
        }
    }
}

/// One campaign's job sample and the system it is archived on.
pub struct Campaign {
    sys: ArchiveSystem,
    jobs: Vec<(JobSpec, Vec<FileSpec>)>,
}

pub struct State {
    campaigns: Vec<Campaign>,
}

/// What the campaigns of one pass did, beyond the probe's samples.
#[derive(Default)]
struct Tally {
    timed_s: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    stolen: u64,
    digest: Digest,
    counters: BTreeMap<String, u64>,
}

impl Archive {
    fn setup_campaign(&self, k: usize, probe: &mut Probe) -> Campaign {
        let spec = CampaignSpec { jobs: self.jobs * self.oversample, ..CampaignSpec::roadrunner() };
        let mut generated = OpenScienceTrace::generate(spec, sub_seed(self.seed, k)).jobs;
        // Order by materialized files, then mean file size: jobs at the
        // file cap differ in their mean size, which sets how many chunked
        // copies they make.
        generated.sort_by_key(|j| (self.files_of(j), j.bytes / j.files, j.id));
        // The middle job of every stratum of `oversample` jobs.
        let mut sample: Vec<JobSpec> =
            generated.into_iter().skip(self.oversample / 2).step_by(self.oversample).collect();
        sample.sort_by_key(|j| (j.submitted, j.id));
        let mut config = SystemConfig::roadrunner();
        if probe.traced() {
            config = config.with_tracer(probe.tracer().clone());
        }
        let sys = ArchiveSystem::new(config);
        let jobs: Vec<(JobSpec, Vec<FileSpec>)> = sample
            .into_iter()
            .map(|j| {
                let files = j.materialize(self.files_of(&j));
                (j, files)
            })
            .collect();
        for (job, files) in &jobs {
            sys.scratch().mkdir_p(&format!("/scratch/job{:03}", job.id)).expect("mkdir job root");
            for f in files {
                let path = format!("/scratch/{}", f.rel_path);
                probe.call("call.vfs.create", || {
                    sys.scratch()
                        .create_file(&path, f.uid, Content::synthetic(f.seed, f.size))
                        .expect("create scratch file")
                });
            }
        }
        Campaign { sys, jobs }
    }

    /// Archive and verify one campaign's jobs in submission order.
    fn drive(&self, c: Campaign, probe: &mut Probe, t: &mut Tally) {
        let Campaign { sys, jobs } = c;
        let config = self.pftool();
        let t0 = Instant::now();
        for (job, files) in &jobs {
            sys.clock().advance_to(job.submitted);
            let src = format!("/scratch/job{:03}", job.id);
            let dst = format!("/archive/job{:03}", job.id);
            let (cp, cp_ns) = Probe::step(|| {
                probe.call("call.pftool.pfcp", || sys.archive_tree(&src, &dst, &config))
            });
            let (cm, cm_ns) = Probe::step(|| {
                probe.call("call.pftool.pfcm", || sys.verify_tree(&src, &dst, &config))
            });
            let n = files.len() as u64;
            let bytes: u64 = files.iter().map(|f| f.size).sum();
            t.attempted += 2;
            let mut job_failures = Vec::new();
            if !cp.stats.ok() {
                job_failures.push(format!("pfcp errors {:?}", cp.stats.errors));
            }
            if cp.stats.files != n || cp.stats.bytes != bytes {
                job_failures.push(format!(
                    "pfcp copied {} files / {} B, spec is {n} / {bytes}",
                    cp.stats.files, cp.stats.bytes
                ));
            }
            if !cp.stats.ok() || cp.stats.files != n || cp.stats.bytes != bytes {
                t.failed += 1;
            }
            if !cm.stats.ok() || !cm.identical() {
                t.failed += 1;
                job_failures.push(format!("pfcm mismatches {:?}", cm.mismatches));
            }
            for f in job_failures {
                t.failures.push(format!("job {}: {f}", job.id));
            }
            t.stolen += cp.stats.stolen_jobs + cm.stats.stolen_jobs;
            for v in [n, bytes, cp.stats.sim_end.as_nanos(), cm.stats.sim_end.as_nanos()] {
                t.digest.mix(v);
            }
            let job_ns = cp_ns + cm_ns;
            probe.push("job_ns", job_ns);
            probe.add("files", n as f64);
            probe.push("pfcp_ns", cp_ns);
            if n >= LARGE_JOB_FILES {
                probe.add("large_job_ns", job_ns);
                probe.add("large_job_files", n as f64);
            } else {
                probe.add("small_job_ns", job_ns);
                probe.add("small_job_files", n as f64);
            }
        }
        t.timed_s += t0.elapsed().as_secs_f64();
        let snap = sys.snapshot();
        t.digest.mix(snap.sim_now_ns);
        for (name, v) in crate::layers::counters(&snap) {
            *t.counters.entry(name).or_default() += v;
        }
    }
}

impl Workload for Archive {
    type State = State;

    fn name(&self) -> &'static str {
        "archive"
    }

    fn sizes(&self) -> String {
        format!(
            "{} campaigns per pass, each {} Open Science jobs sampled by size from {} generated, each job materializing 1/{} of its files (at least 1, at most {}), PFTool workers={} readdir_procs=1 tape_procs=0",
            self.campaigns,
            self.jobs,
            self.jobs * self.oversample,
            self.file_scale,
            self.file_cap,
            self.workers
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
        probe.add("ops", t.attempted as f64);
        probe.add("stolen_jobs", t.stolen as f64);
        let spans = probe.finish_trace();
        Pass {
            timed_s: t.timed_s,
            attempted: t.attempted,
            failed: t.failed,
            check_failures: t.failures,
            digest: t.digest.value(),
            counters: t.counters,
            spans,
            probe,
        }
    }

    fn enough(&self, passes: &[&Pass]) -> bool {
        passes.len() >= JOB_REPEATS
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn end_to_end(&self, passes: &[&Pass]) -> EndToEnd {
        // Every pass drives the same jobs in the same order.
        let repeats = &passes[..JOB_REPEATS];
        let n = repeats[0].probe.samples["job_ns"].len();
        let fastest = |series: &str| -> Vec<f64> {
            (0..n)
                .map(|j| {
                    repeats.iter().map(|p| p.probe.samples[series][j]).fold(f64::MAX, f64::min)
                })
                .collect()
        };
        let job_ns = fastest("job_ns");
        let jobs_ms: Vec<f64> = job_ns.iter().map(|ns| ns / 1e6).collect();
        let p50 = percentile(&jobs_ms, 0.5).expect("a pass holds enough jobs");
        let p90 = percentile(&jobs_ms, 0.9).expect("a pass holds enough jobs");
        let files = repeats[0].probe.total("files");
        let files_per_s = files / (job_ns.iter().sum::<f64>() / 1e9);
        let pfcp_us = fastest("pfcp_ns").iter().sum::<f64>() / 1e3 / files;
        let beyond = n - (0.9 * n as f64).ceil() as usize;
        let of = format!("each job's fastest of {JOB_REPEATS} passes; n={n} jobs");
        EndToEnd {
            metrics: vec![
                Metric::new("throughput_per_s", files_per_s, "1/s"),
                Metric::new("op_p50_ms", p50, "ms"),
                Metric::new("op_tail_ms", p90, "ms"),
                Metric::new("write_op_us", pfcp_us, "us"),
            ],
            lines: vec![
                format!("archive.files_per_s = {files_per_s:.2} files/s ({of})"),
                format!("archive.job_p50_ms = {p50:.3} ms ({of})"),
                format!("archive.job_p90_ms = {p90:.3} ms ({of}, {beyond} beyond)"),
                format!("archive.pfcp_us_per_file = {pfcp_us:.2} us ({of})"),
            ],
        }
    }
}
