//! `radio-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all three in turn) and prints every metric by
//! name with its unit, then, as the last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad
//! arguments and 1 when the harness itself cannot run.

use radio_benchmark::check::Checks;
use radio_benchmark::hygiene::Snapshot;
use radio_benchmark::stats::Metrics;
use radio_benchmark::{host, pins, run_workload, Mode, WORKLOADS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => Mode::Plain,
                    "1" => Mode::Traced,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload]
    } else {
        return Err(format!(
            "unknown workload {workload} (one of {} or all)",
            WORKLOADS.join(", ")
        ));
    };
    Ok(Args {
        workloads,
        seed: seed.unwrap_or(pins::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        mode: trace.unwrap_or(Mode::Plain),
    })
}

/// Print one workload's metrics and notes.
fn print_metrics(workload: &str, m: &Metrics, checks: &Checks) {
    for line in m.lines() {
        println!("{workload}: {line}");
    }
    for line in m.notes() {
        println!("{workload}: {line}");
    }
    let frac = checks.failed() as f64 / checks.attempted().max(1) as f64;
    println!(
        "{workload}: failed_frac = {frac} ratio ({} of {} trials)",
        checks.failed(),
        checks.attempted()
    );
    for note in checks.notes() {
        println!("{workload}: FAILED {note}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("radio-benchmark: {e}");
            eprintln!(
                "usage: radio-benchmark --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = host::nproc();
    // Load comes from this one process and never from more than nproc
    // threads: cap the trial fan-out before any thread exists (engine
    // threads are passed explicitly). An inherited value is overridden,
    // so every run fans out the same way.
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    println!("{}", host::descriptor());

    let root = pins::repo_root();
    let target = std::env::var_os("CARGO_TARGET_DIR").map(|t| root.join(PathBuf::from(t)));
    let tmp = root
        .join(".bench_tmp")
        .join(format!("run-{}", std::process::id()));
    let before = Snapshot::take(&root, target.as_deref());

    let mut total = Checks::new();
    let mut last = Metrics::default();
    for workload in &args.workloads {
        let mut checks = Checks::new();
        if let Err(e) = std::fs::create_dir_all(&tmp) {
            eprintln!("radio-benchmark: cannot create {}: {e}", tmp.display());
            return ExitCode::from(1);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_workload(
                workload,
                &tmp,
                args.seed,
                args.seconds,
                args.mode,
                &mut checks,
            )
        }));
        let _ = std::fs::remove_dir_all(&tmp);
        let m = match outcome {
            Ok(Some(m)) => m,
            Ok(None) => unreachable!("workload names are checked when parsing"),
            Err(_) => {
                eprintln!("radio-benchmark: workload {workload} aborted");
                return ExitCode::from(1);
            }
        };
        print_metrics(workload, &m, &checks);
        total.attempt_n(checks.attempted());
        if checks.failed() > 0 {
            total.fail_n(checks.failed(), "trial failures");
        }
        total.require(checks.correct(), &format!("{workload} incorrect"));
        last = m;
    }
    let _ = std::fs::remove_dir(root.join(".bench_tmp"));

    let changed = before.changes(&Snapshot::take(&root, target.as_deref()));
    for p in changed.iter().take(10) {
        println!("FAILED hygiene: {} changed during the run", p.display());
    }
    total.require(
        changed.is_empty(),
        "files outside the temporary directory changed",
    );
    total.require(!tmp.exists(), "temporary directory left behind");

    if args.workloads.len() > 1 {
        // `all` is for reading; the result line carries the last
        // workload's metrics.
        println!("all: correct = {}", total.correct());
    }
    println!(
        "{}",
        last.result_line(total.correct(), total.attempted(), total.failed())
    );
    ExitCode::SUCCESS
}
