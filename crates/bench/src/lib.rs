//! # copra-bench — the experiment harness
//!
//! One binary per paper table/figure (see `DESIGN.md` §3 for the index):
//!
//! | binary | experiment |
//! |---|---|
//! | `fig08_11` | Figures 8–11: the 62-job Open Science campaign |
//! | `tbl_small_file` | §6.1 small-file tape collapse + aggregation fix |
//! | `tbl_thrash` | §6.2 recall scatter vs tape affinity |
//! | `tbl_order` | §4.1.2-2 tape-ordered vs unordered restore |
//! | `tbl_chunk` | §4.1.2-3 single-large-file N-way chunked copy |
//! | `tbl_fuse` | §4.1.2-4 ArchiveFUSE N-to-1 → N-to-N migration |
//! | `tbl_migrator` | §4.2.4 size-balanced vs naive migration |
//! | `tbl_scale` | §4.2.1 million-inode policy scan and its thread scaling |
//! | `tbl_lanfree` | §4.2.2 LAN vs LAN-free data movement |
//! | `tbl_syncdel` | §4.2.6 synchronous delete vs reconcile |
//! | `tbl_restart` | §4.5 restartable transfer chunk marking |
//! | `tbl_faults` | retrieval goodput under injected drive/media/mover failures |
//! | `tbl_stager` | fair-share stager vs unscheduled FIFO recall (T-STAGER) |
//!
//! Each binary prints an aligned table and writes the same rows as JSON to
//! `target/experiments/<name>.json`; `EXPERIMENTS.md` quotes these runs.
//! Criterion benches (in `benches/`) measure the *real* wall-time of the
//! hot machinery.

use copra_cluster::FtaCluster;
use copra_core::{ArchiveSystem, DeviceUtilization, SystemConfig, SystemSnapshot};
use copra_hsm::{Hsm, TsmServer};
use copra_pfs::Pfs;
use copra_simtime::{achieved_rate, DataSize, SimInstant};
use copra_trace::Tracer;
use serde::Serialize;
use std::fmt::Display;
use std::path::PathBuf;

/// Pretty-print an aligned table.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let cols: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", cols.join("  "));
    };
    line(&headers);
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rows {
        line(row);
    }
}

/// Summary statistics of a series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Summary {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let n = values.len().max(1) as f64;
    Summary {
        min: values.iter().cloned().fold(f64::INFINITY, f64::min),
        max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        mean: values.iter().sum::<f64>() / n,
    }
}

/// Where experiment JSON dumps land.
pub fn experiments_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Dump a serializable result set next to the human-readable output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    std::fs::write(&path, json).expect("write experiment json");
    println!("  [json] {}", path.display());
}

/// Fixed seed used across experiment binaries (reproducibility).
pub const EXPERIMENT_SEED: u64 = 0x0000_C075_2010;

/// Achieved MB/s for `bytes` moved over the simulated interval
/// `[start, end]`, through the shared [`achieved_rate`] helper (zero for
/// an empty interval) — the one rate formula every binary reports with.
pub fn mb_per_sec(bytes: u64, start: SimInstant, end: SimInstant) -> f64 {
    achieved_rate(DataSize::from_bytes(bytes), end.saturating_since(start)).as_mb_per_sec_f64()
}

/// The CLI surface every experiment binary shares: `--quick` (shrunken
/// smoke-test workload), `--metrics-out <path>` and `--trace-out <path>`.
/// Parse it at the top of `main`, build every rig through it (so rigs
/// record into its tracer), and hand the rig to [`BenchCli::finish`] at
/// the bottom.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// `--quick`: run the smoke-test-sized version of the experiment.
    pub quick: bool,
    /// `--metrics-out <path>`: dump the finished rig's metrics snapshot.
    pub metrics_out: Option<PathBuf>,
    /// `--trace-out <path>`: arm the tracer, dump Chrome JSON.
    pub trace_out: Option<PathBuf>,
    /// Armed (seeded with [`EXPERIMENT_SEED`]) iff `--trace-out` was
    /// given; every rig built through this CLI shares its span store.
    tracer: Tracer,
}

impl BenchCli {
    /// Parse the process arguments. A bad flag prints the error and exits
    /// with code 2 before any work runs.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parse `args` (program name excluded). `--metrics-out` and
    /// `--trace-out` take a value (`--flag <path>` or `--flag=<path>`),
    /// and the path is created up front so an unwritable one fails now
    /// rather than after the experiment has run. Other arguments are
    /// ignored.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut quick = false;
        let mut metrics_out = None;
        let mut trace_out = None;
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                None => (arg, None),
            };
            let slot = match flag.as_str() {
                "--quick" => {
                    quick = true;
                    continue;
                }
                "--metrics-out" => &mut metrics_out,
                "--trace-out" => &mut trace_out,
                _ => continue,
            };
            let value = inline
                .or_else(|| args.next_if(|next| !next.starts_with("--")))
                .filter(|v| !v.is_empty())
                .ok_or(format!("{flag} needs a path"))?;
            let path = PathBuf::from(value);
            std::fs::File::create(&path).map_err(|e| format!("{flag} {}: {e}", path.display()))?;
            *slot = Some(path);
        }
        let tracer = if trace_out.is_some() {
            Tracer::armed(EXPERIMENT_SEED)
        } else {
            Tracer::disabled()
        };
        Ok(BenchCli {
            quick,
            metrics_out,
            trace_out,
            tracer,
        })
    }

    /// The run's tracer (disabled unless `--trace-out` was given).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Build a full system from `config`, recording into the run's tracer.
    pub fn rig(&self, config: SystemConfig) -> ArchiveSystem {
        ArchiveSystem::new(config.with_tracer(self.tracer.clone()))
    }

    /// Build an HSM-only rig (binaries that drive `Hsm` directly, without
    /// the full `ArchiveSystem` wiring), recording into the run's tracer.
    pub fn hsm_rig(&self, pfs: Pfs, server: TsmServer, cluster: FtaCluster) -> Hsm {
        server.obs().set_tracer(self.tracer.clone());
        pfs.arm_tracing(self.tracer.clone());
        Hsm::new(pfs, server, cluster)
    }

    /// The standard experiment epilogue: honor `--metrics-out` with a
    /// snapshot of `rig`, then `--trace-out` with everything the tracer
    /// recorded as Chrome trace-event JSON (open in `chrome://tracing` /
    /// Perfetto).
    pub fn finish(&self, rig: &impl Rig) {
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, rig.snapshot().to_json()).expect("write metrics snapshot");
            println!("  [metrics] {}", path.display());
        }
        if let (Some(path), Some(report)) = (&self.trace_out, self.tracer.report()) {
            std::fs::write(path, report.to_chrome_json()).expect("write trace json");
            println!(
                "  [trace] {} ({} spans, {} dropped, digest {:016x})",
                path.display(),
                report.spans.len(),
                report.dropped,
                report.tree_digest()
            );
        }
    }
}

/// Anything a bench drives that `--metrics-out` can snapshot.
pub trait Rig {
    fn snapshot(&self) -> SystemSnapshot;
}

impl Rig for ArchiveSystem {
    fn snapshot(&self) -> SystemSnapshot {
        ArchiveSystem::snapshot(self)
    }
}

/// An HSM-only rig still carries the registry, the server NIC and the
/// drive timelines.
impl Rig for Hsm {
    fn snapshot(&self) -> SystemSnapshot {
        let now = self.pfs().clock().now();
        let server = self.server();
        let mut devices = vec![DeviceUtilization::from_stats(
            "server.nic",
            &server.nic_stats(),
            now,
        )];
        for (i, stats) in server.library().drive_timeline_stats().iter().enumerate() {
            devices.push(DeviceUtilization::from_stats(
                format!("tape.drive{i}"),
                stats,
                now,
            ));
        }
        SystemSnapshot {
            sim_now_ns: now.as_nanos(),
            devices,
            metrics: server.obs().snapshot(),
        }
    }
}

/// A bare file system has no registry or device timelines: only its clock.
impl Rig for Pfs {
    fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot {
            sim_now_ns: self.clock().now().as_nanos(),
            devices: Vec::new(),
            metrics: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basics() {
        let s = summarize(&[1.0, 2.0, 9.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert!((s.mean - 4.0).abs() < 1e-12);
    }

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::parse_from(args.iter().map(|a| a.to_string()))
    }

    /// A path in a fresh per-test directory under the system temp dir.
    fn temp_path(test: &str, file: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("copra-bench-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(file)
    }

    #[test]
    fn rigs_build() {
        let cli = parse(&[]).unwrap();
        let rig = cli.rig(SystemConfig::test_small());
        assert!(rig.archive().pool_by_name("tape").is_some());
        assert!(!cli.tracer().is_armed());
    }

    #[test]
    fn parse_reads_every_flag_form() {
        let metrics = temp_path("forms", "m.json");
        let trace = temp_path("forms", "t.json");
        let cli = parse(&[
            "--quick",
            "--metrics-out",
            metrics.to_str().unwrap(),
            &format!("--trace-out={}", trace.display()),
        ])
        .unwrap();
        assert!(cli.quick);
        assert_eq!(cli.metrics_out.as_ref(), Some(&metrics));
        assert_eq!(cli.trace_out.as_ref(), Some(&trace));
        assert!(cli.tracer().is_armed());
        assert!(
            metrics.exists() && trace.exists(),
            "outputs created up front"
        );
    }

    #[test]
    fn parse_rejects_a_missing_value() {
        for args in [
            &["--metrics-out"][..],
            &["--trace-out", "--quick"],
            &["--metrics-out="],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("needs a path"), "{args:?}: {err}");
        }
    }

    #[test]
    fn parse_rejects_an_uncreatable_path() {
        let missing_dir = temp_path("uncreatable", "no-such-dir").join("m.json");
        let err = parse(&["--metrics-out", missing_dir.to_str().unwrap()]).unwrap_err();
        assert!(err.starts_with("--metrics-out "), "{err}");
    }

    #[test]
    fn finish_snapshots_the_rig_it_is_handed() {
        let metrics = temp_path("finish", "m.json");
        let cli = parse(&["--metrics-out", metrics.to_str().unwrap()]).unwrap();
        let rig = cli.rig(SystemConfig::test_small());
        rig.clock().advance_to(SimInstant::from_secs(5));
        cli.finish(&rig);
        let snap = SystemSnapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(snap.sim_now_ns, 5_000_000_000);
        assert!(snap.device("trunk.link0").is_some(), "full-system devices");
    }
}
