//! Wall-clock benchmark of the MedLedger gateway. See `README.md`.
//!
//! ```text
//! perfbench --workload <ward|wide-fanout|durable-recover|all> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the environment stamp, the correctness checks and a metric
//! table, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Exits non-zero
//! when a check fails.

mod drive;
mod env;
mod layers;
mod stats;
mod workloads;
mod world;

use std::process::ExitCode;
use std::time::Duration;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run that has not finished by then has hung: it fails.
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(1.0..=60.0).contains(&seconds) {
        return Err("`--seconds` must be between 1 and 60".into());
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                workloads::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // Left detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("perfbench: run exceeded {DEADLINE:?}; a hang counts as a failed run");
        std::process::exit(3);
    });
    let cfg = workloads::RunCfg {
        seed: format!("perfbench-{}", args.seed),
        seconds: args.seconds,
        trace: args.trace,
        tmp: std::path::PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id())),
    };
    let ref_us = env::ref_sha256_block_us(Duration::from_millis(150));
    println!("env {}", env::stamp());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match workloads::run(&args.workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut metrics = outcome.metrics;
    if args.trace {
        metrics.push(Metric {
            name: "bench.ref_sha256_block_us".into(),
            value: ref_us,
            unit: "us",
        });
    }
    let correct = outcome.checks.0.iter().all(|(_, ok)| *ok);
    for (what, ok) in &outcome.checks.0 {
        if !ok {
            println!("CHECK FAILED: {what}");
        }
    }
    println!(
        "checks: {} passed, {} failed",
        outcome.checks.0.iter().filter(|(_, ok)| *ok).count(),
        outcome.checks.0.iter().filter(|(_, ok)| !ok).count()
    );
    for f in &outcome.failures {
        println!("failed submissions: {f}");
    }
    print!("{}", outcome.text);
    println!(
        "failed_ratio {:.6} ({} of {} submissions)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("bench.ref_sha256_block_us {ref_us:.5} us");
    for m in &metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                env::json_str(&m.name),
                json_number(m.value),
                env::json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A JSON number; a value that could not be measured is reported as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Runs every workload in turn, each in its own process, and exits
/// non-zero if any of them failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for w in workloads::WORKLOADS {
        println!("=== {w} ===");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                println!("=== {w} FAILED: {other:?} ===");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
