//! Tiny-size passes of every workload: each passes its correctness checks
//! on two seeds, and the deterministic ones reproduce their simulated
//! digest, traced or not.

use copra_wallbench::archive::Archive;
use copra_wallbench::policy::Policy;
use copra_wallbench::recall::Recall;
use copra_wallbench::{layers, one_pass, Pass, Workload};
use copra_workloads::StagerCampaignSpec;

const SEEDS: [u64; 2] = [11, 29];

fn assert_clean(p: &Pass, what: &str) {
    assert!(p.check_failures.is_empty(), "{what}: {:?}", p.check_failures);
    assert_eq!(p.failed, 0, "{what}: failed operations");
    assert!(p.attempted > 0, "{what}: no operations");
    assert!(p.timed_s > 0.0, "{what}: no timed phase");
}

fn tiny_archive(seed: u64) -> Archive {
    Archive {
        seed,
        campaigns: 2,
        jobs: 12,
        oversample: 2,
        file_scale: 5_000,
        file_cap: 40,
        workers: 2,
    }
}

fn tiny_recall(seed: u64) -> Recall {
    Recall {
        seed,
        spec: StagerCampaignSpec {
            files: 60,
            file_size_mean: 64 << 20,
            requests: 400,
            bursts: 4,
            ..StagerCampaignSpec::castor_scale()
        },
        campaigns: 2,
        migrate_every: 10,
    }
}

fn tiny_policy(seed: u64) -> Policy {
    Policy { seed, files: 3_000, mean_size: 4 << 20, cycles: 3, churn_ppm: 10_000 }
}

#[test]
fn archive_passes_its_checks_on_two_seeds() {
    for seed in SEEDS {
        let w = tiny_archive(seed);
        let (p, _) = one_pass(&w, false, seed);
        assert_clean(&p, &format!("archive seed {seed}"));
        assert_eq!(p.probe.samples["job_ns"].len(), 24);
    }
}

#[test]
fn recall_passes_its_checks_and_repeats_on_two_seeds() {
    for seed in SEEDS {
        let w = tiny_recall(seed);
        let (a, _) = one_pass(&w, false, seed);
        let (b, _) = one_pass(&w, true, seed);
        assert_clean(&a, &format!("recall seed {seed}"));
        assert_clean(&b, &format!("recall seed {seed}, traced"));
        assert_eq!(a.digest, b.digest, "recall seed {seed}: tracing changed results");
        assert_eq!(a.probe.total("completed"), 800.0);
        assert_eq!(a.probe.samples["migrate_ns"].len(), 80);
    }
}

#[test]
fn policy_passes_its_checks_and_repeats_on_two_seeds() {
    for seed in SEEDS {
        let w = tiny_policy(seed);
        let (a, _) = one_pass(&w, false, seed);
        let (b, _) = one_pass(&w, true, seed);
        assert_clean(&a, &format!("policy seed {seed}"));
        assert_clean(&b, &format!("policy seed {seed}, traced"));
        assert_eq!(a.digest, b.digest, "policy seed {seed}: tracing changed results");
        assert_eq!(a.probe.samples["cycle_ns"].len(), 3);
    }
    // Different seeds build different namespaces.
    let (a, _) = one_pass(&tiny_policy(SEEDS[0]), false, SEEDS[0]);
    let (b, _) = one_pass(&tiny_policy(SEEDS[1]), false, SEEDS[1]);
    assert_ne!(a.digest, b.digest);
}

#[test]
fn traced_pass_yields_layer_metrics_without_dropped_spans() {
    let w = tiny_archive(SEEDS[0]);
    let (p, _) = one_pass(&w, true, SEEDS[0]);
    assert_clean(&p, "traced archive");
    let (metrics, _) = layers::per_layer(&[&p], 1.0);
    let get = |name: &str| {
        metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name} missing")).value
    };
    assert_eq!(get("trace.dropped_spans"), 0.0);
    assert!(get("pftool.copy_us") > 0.0);
    assert!(get("pftool.run_overhead_ms") > 0.0);
    // The archive workload never calls the stager.
    assert_eq!(get("stager.submit_us.p50"), 0.0);
    let _ = w.name();
}
