//! `policy`: the nightly ILM cycle over a migrated archive namespace —
//! churn (creates and trashcan deletes), trash purge through the
//! synchronous deleter, the migration policy scan feeding the parallel
//! migrator, and the catalog export.

use crate::probe::Probe;
use crate::stats::{percentile, Digest};
use crate::{EndToEnd, Metric, Pass, Workload};
use copra_core::{
    migrate_candidates, ArchiveSystem, MigrationPolicy, SyncDeleter, SystemConfig, Trashcan,
};
use copra_hsm::{reconcile, DataPath, ObjectKind};
use copra_simtime::{DataSize, SimDuration, SimInstant};
use copra_vfs::Content;
use copra_workloads::mixed_tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const DATA_ROOT: &str = "/data";
/// The migrator bundles files below 8 MB into 4 GB containers (§6.1).
const AGGREGATE: Option<(DataSize, DataSize)> = Some((DataSize::mb(8), DataSize::gb(4)));
const DAY: u64 = 86_400;

pub struct Policy {
    pub seed: u64,
    /// Files in the namespace built at set-up.
    pub files: usize,
    /// Mean file size of the namespace.
    pub mean_size: u64,
    /// ILM cycles per pass.
    pub cycles: usize,
    /// Files created, and files trash-deleted, per cycle, per million of
    /// the namespace.
    pub churn_ppm: usize,
}

impl Policy {
    /// The benchmark's size.
    pub fn standard(seed: u64) -> Self {
        Policy { seed, files: 200_000, mean_size: 4 << 20, cycles: 10, churn_ppm: 10_000 }
    }

    fn churn(&self) -> usize {
        (self.files * self.churn_ppm / 1_000_000).max(1)
    }
}

pub struct State {
    sys: ArchiveSystem,
    /// Live file paths outside the trash.
    live: Vec<String>,
    rng: StdRng,
}

/// What one migration-policy scan and migrator run did.
struct Migration {
    listed: usize,
    scanned: usize,
    scan_ns: f64,
    report: copra_core::MigrationReport,
}

/// Migrate whatever the migration policy lists, as the nightly migrator.
fn migrate_listed(sys: &ArchiveSystem, probe: &mut Probe) -> Migration {
    let (report, scan_ns) = Probe::step(|| {
        probe.call("call.pfs.run_policy", || {
            sys.archive().run_policy(&sys.migration_policy(SimDuration::ZERO))
        })
    });
    let listed = report.lists.get("migrate").cloned().unwrap_or_default();
    let nodes: Vec<_> = sys.cluster().nodes().collect();
    let now = sys.clock().now();
    let migrated = probe.call("call.core.migrate_candidates", || {
        migrate_candidates(
            sys.hsm(),
            &listed,
            &nodes,
            MigrationPolicy::SizeBalanced,
            DataPath::LanFree,
            now,
            true,
            AGGREGATE,
        )
    });
    Migration { listed: listed.len(), scanned: report.scanned, scan_ns, report: migrated }
}

impl Workload for Policy {
    type State = State;

    fn name(&self) -> &'static str {
        "policy"
    }

    fn sizes(&self) -> String {
        format!(
            "{} files of {} MB mean, {} cycles per pass, {} creates and {} trash deletes per cycle",
            self.files,
            self.mean_size >> 20,
            self.cycles,
            self.churn(),
            self.churn()
        )
    }

    fn setup(&self, probe: &mut Probe) -> State {
        let tree = mixed_tree(self.files, self.mean_size, 1.0, 32, self.seed);
        let mut config = SystemConfig::test_small();
        if probe.traced() {
            config = config.with_tracer(probe.tracer().clone());
        }
        let sys = ArchiveSystem::new(config);
        let mut live = Vec::with_capacity(tree.files.len());
        let mut last_dir = String::new();
        for f in &tree.files {
            let path = format!("{DATA_ROOT}/{}", f.rel_path);
            let (dir, _) = copra_vfs::parent_and_name(&path).expect("file path has a parent");
            if dir != last_dir {
                sys.archive().mkdir_p(&dir).expect("mkdir");
                last_dir = dir;
            }
            probe.call("call.vfs.create", || {
                sys.archive()
                    .create_file(&path, f.uid, Content::synthetic(f.seed, f.size))
                    .expect("create namespace file")
            });
            live.push(path);
        }
        sys.clock().advance_to(SimInstant::from_secs(DAY));
        let m = migrate_listed(&sys, probe);
        assert_eq!(m.report.files, m.listed, "set-up migration");
        sys.export_catalog();
        State { sys, live, rng: StdRng::seed_from_u64(self.seed ^ 0x5eed_cafe) }
    }

    fn pass(&self, st: State, mut probe: Probe) -> Pass {
        let State { sys, mut live, mut rng } = st;
        let trash = Trashcan::new(sys.fuse().clone());
        let deleter = SyncDeleter::new(sys.hsm().clone(), sys.catalog().clone());
        let churn = self.churn();
        let mut failures = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut digest = Digest::default();
        let mut timed_ns = 0.0;
        for cycle in 0..self.cycles {
            sys.clock().advance_to(SimInstant::from_secs(DAY * (cycle as u64 + 2)));
            let t_cycle = Instant::now();

            // 1. Churn: trash deletes of existing files, then new files
            // under a per-cycle directory.
            let (trashed, delete_ns) = Probe::step(|| {
                let mut trashed = 0u64;
                for _ in 0..churn {
                    let victim = live.swap_remove(rng.gen_range(0..live.len()));
                    let (res, ns) =
                        Probe::step(|| probe.call("call.vfs.unlink", || trash.delete(&victim)));
                    probe.push("churn_op_ns", ns);
                    if res.is_ok() {
                        trashed += 1;
                    }
                }
                trashed
            });

            let dir = format!("{DATA_ROOT}/new{cycle:03}");
            let ((), create_ns) = Probe::step(|| {
                sys.archive().mkdir_p(&dir).expect("mkdir cycle dir");
                for j in 0..churn {
                    let path = format!("{dir}/f{j:06}.dat");
                    let size = rng.gen_range(1..2 * self.mean_size);
                    let seed = rng.gen();
                    let ((), ns) = Probe::step(|| {
                        probe.call("call.vfs.create", || {
                            sys.archive()
                                .create_file(
                                    &path,
                                    1000 + (j % 7) as u32,
                                    Content::synthetic(seed, size),
                                )
                                .expect("create churn file");
                        })
                    });
                    probe.push("churn_op_ns", ns);
                    live.push(path);
                }
            });

            // 2. Purge the trash through the synchronous deleter. The scan
            // is `Trashcan::purge_candidates` run directly, so its report
            // gives the inodes it visited.
            let (purge_scan, purge_scan_ns) = Probe::step(|| {
                probe.call("call.pfs.run_policy", || {
                    sys.archive().run_policy(&Trashcan::purge_policy(SimDuration::ZERO, 0))
                })
            });
            let candidates = purge_scan.lists.get("purge").cloned().unwrap_or_default();
            let now = sys.clock().now();
            let (purged, purge_ns) = Probe::step(|| {
                probe.call("call.core.syncdel_purge", || deleter.purge(&candidates, now))
            });

            // 3. Migration policy scan into the parallel migrator.
            let m = migrate_listed(&sys, &mut probe);

            // 4. Catalog export.
            let rows = probe.call("call.metadb.export", || sys.export_catalog());
            let cycle_ns = t_cycle.elapsed().as_nanos() as f64;

            // Checks, outside the timed cycle.
            let ops = 2 * churn as u64 + candidates.len() as u64 + m.listed as u64 + 3;
            attempted += ops;
            let mut cycle_failures = Vec::new();
            if trashed != churn as u64 {
                cycle_failures.push(format!("trashed {trashed} of {churn}"));
            }
            if purged.files_deleted as u64 != trashed
                || !purged.errors.is_empty()
                || purged.aborted.is_some()
            {
                cycle_failures.push(format!(
                    "purged {} of {trashed}: {:?} {:?}",
                    purged.files_deleted, purged.errors, purged.aborted
                ));
            }
            if m.listed != churn || m.report.files != churn || !m.report.errors.is_empty() {
                cycle_failures.push(format!(
                    "migrated {} of {} listed, {churn} created: {:?}",
                    m.report.files, m.listed, m.report.errors
                ));
            }
            if m.scanned != live.len() {
                cycle_failures.push(format!("scan saw {} files, {} live", m.scanned, live.len()));
            }
            let mut server_ids: Vec<u64> = sys
                .hsm()
                .server()
                .objects()
                .into_iter()
                .filter(|o| !matches!(o.kind, ObjectKind::Container { .. }))
                .map(|o| o.objid)
                .collect();
            let mut catalog_ids: Vec<u64> =
                sys.catalog().dump().into_iter().map(|r| r.objid).collect();
            server_ids.sort_unstable();
            catalog_ids.sort_unstable();
            if server_ids != catalog_ids {
                cycle_failures.push(format!(
                    "catalog holds {} rows, server {} objects",
                    catalog_ids.len(),
                    server_ids.len()
                ));
            }
            failed += cycle_failures.len() as u64;
            failures.extend(cycle_failures.into_iter().map(|f| format!("cycle {cycle}: {f}")));

            for v in [
                trashed,
                purged.files_deleted as u64,
                purged.bytes,
                purged.end.as_nanos(),
                m.report.files as u64,
                m.report.bytes,
                m.report.makespan.as_nanos(),
                rows as u64,
                m.scanned as u64,
            ] {
                digest.mix(v);
            }
            timed_ns += cycle_ns;
            probe.push("cycle_ns", cycle_ns);
            probe.add("scan_ns", purge_scan_ns + m.scan_ns);
            probe.add("scanned", (purge_scan.scanned + m.scanned) as f64);
            probe.add("matched", (candidates.len() + m.listed) as f64);
            probe.add("churn_ns", create_ns + delete_ns + purge_ns);
            probe.add("churn_ops", (2 * churn) as f64 + purged.files_deleted as f64);
            probe.add("rows_exported", rows as f64);
        }
        // Orphans are permanent, so one reconcile after the last purge
        // finds any purge left behind. It runs after the timed cycles
        // because it charges the server simulated time.
        let orphans = match reconcile(sys.archive(), sys.hsm().server(), sys.clock().now(), false) {
            Ok(r) if r.orphans.is_empty() => None,
            Ok(r) => Some(format!("{} orphans after the purges", r.orphans.len())),
            Err(e) => Some(format!("reconcile: {e}")),
        };
        if let Some(f) = orphans {
            failures.push(f);
            failed += 1;
        }
        probe.add("ops", attempted as f64);
        let snap = sys.snapshot();
        digest.mix(snap.sim_now_ns);
        let spans = probe.finish_trace();
        Pass {
            timed_s: timed_ns / 1e9,
            attempted,
            failed,
            check_failures: failures,
            digest: digest.value(),
            counters: crate::layers::counters(&snap),
            spans,
            probe,
        }
    }

    fn enough(&self, passes: &[&Pass]) -> bool {
        let cycles: usize = passes.iter().map(|p| p.probe.samples["cycle_ns"].len()).sum();
        cycles >= crate::stats::min_samples(0.5)
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn end_to_end(&self, passes: &[&Pass]) -> EndToEnd {
        let cycles_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.probe.samples["cycle_ns"].iter().map(|ns| ns / 1e6))
            .collect();
        let sum = |name: &str| passes.iter().map(|p| p.probe.total(name)).sum::<f64>();
        let p50 = percentile(&cycles_ms, 0.5).expect("enough cycles for p50");
        let ops_us: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.probe.samples["churn_op_ns"].iter().map(|ns| ns / 1e3))
            .collect();
        let p99 = percentile(&ops_us, 0.99).expect("enough churn ops for p99");
        let inodes_per_s = sum("scanned") / (sum("scan_ns") / 1e9);
        let churn_per_s = sum("churn_ops") / (sum("churn_ns") / 1e9);
        let n = cycles_ms.len();
        EndToEnd {
            metrics: vec![
                Metric::new("throughput_per_s", inodes_per_s, "1/s"),
                Metric::new("op_p50_ms", p50, "ms"),
                Metric::new("op_tail_ms", p99 / 1e3, "ms"),
                Metric::new("write_op_us", 1e6 / churn_per_s, "us"),
            ],
            lines: vec![
                format!("policy.cycle_p50_ms = {p50:.3} ms (n={n})"),
                format!("policy.inodes_per_s = {inodes_per_s:.0} inodes/s"),
                format!("policy.churn_ops_per_s = {churn_per_s:.0} ops/s"),
                format!(
                    "policy.namespace_op_p99_us = {p99:.3} us (creates and trash deletes, n={})",
                    ops_us.len()
                ),
            ],
        }
    }
}
