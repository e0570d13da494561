//! `copra-wallbench --workload <archive|recall|policy> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints provenance, the workload's metrics under their own names, and
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end untraced, per-layer traced). Exits 1 when a
//! correctness check fails and 2 on bad arguments.

use copra_wallbench::archive::Archive;
use copra_wallbench::policy::Policy;
use copra_wallbench::recall::Recall;
use copra_wallbench::{result_json, run, usable_cores, RunResult, Workload};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The git revision when run from a git checkout, else `unknown`.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn go<W: Workload>(w: W, args: &Args) -> RunResult {
    println!(
        "provenance: rev={} usable_cores={} profile={} workload={} seed={} seconds={} trace={}",
        git_rev(),
        usable_cores(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("sizes: {}", w.sizes());
    run(&w, args.seed, args.seconds, args.trace)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: copra-wallbench --workload <archive|recall|policy> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "archive" => go(Archive::standard(args.seed), &args),
        "recall" => go(Recall::standard(args.seed), &args),
        "policy" => go(Policy::standard(args.seed), &args),
        other => {
            eprintln!("error: unknown workload {other} (archive, recall, policy)");
            return ExitCode::from(2);
        }
    };
    for line in &result.lines {
        println!("{line}");
    }
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
