//! The repository's benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline-ref|ipam-churn|serve-mixed> [--seed N] [--seconds S] [--trace 0|1]
//!     [--repeat K]
//! ```
//!
//! A run prints notes and `figure <name> <value> <unit>` lines, then one
//! JSON line: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of the traced run (`--trace 1`).
//! It exits 0 when every output check held, 1 when one failed, and 2 on
//! a usage error. `--repeat K` runs the workload K times, each in its own
//! process with seeds N, N+1, ..., and prints each metric's median,
//! quartiles and spread relative to its bound.

mod churn;
mod pipeline;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use report::{Outcome, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["pipeline-ref", "ipam-churn", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<u32>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--repeat K]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2020,
        seconds: 10,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--repeat" => args.repeat = Some(number()?.clamp(1, 100) as u32),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    if let Some(k) = args.repeat {
        return repeat(&args, k);
    }
    let outcome: Outcome = match args.workload.as_str() {
        "pipeline-ref" => pipeline::run(args.seconds, args.trace),
        "ipam-churn" => churn::run(args.seed, args.seconds, args.trace),
        _ => serve_mixed::run(args.seed, args.seconds, args.trace),
    };
    for line in &outcome.summary {
        println!("{line}");
    }
    for (name, value, unit) in &outcome.figures {
        println!("figure {name} {value} {unit}");
    }
    for e in &outcome.ledger.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let catalogue = if args.trace {
        PER_LAYER.to_vec()
    } else {
        report::end_to_end()
    };
    println!("{}", outcome.json(&catalogue));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run the workload `k` times, one process each, and report every
/// metric's median, quartiles and spread (interquartile range over the
/// median) beside its bound.
fn repeat(args: &Args, k: u32) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot find own executable: {e}")),
    };
    let mut samples: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut failures = 0;
    for i in 0..u64::from(k) {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => return usage(&format!("cannot run {}: {e}", exe.display())),
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let verdict = report::parse_verdict(last);
        let metrics = report::parse_metrics(last);
        let (Some((true, 0)), Some(metrics), true) = (verdict, metrics, out.status.success())
        else {
            failures += 1;
            eprintln!(
                "run {i} (seed {seed}) failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            continue;
        };
        for (name, unit, _) in END_TO_END {
            if let Some(v) = metrics.get(name) {
                let entry = samples
                    .entry(name.to_string())
                    .or_insert((unit.to_string(), Vec::new()));
                entry.1.push(*v);
            }
        }
        for line in stdout.lines() {
            let mut parts = line.split(' ');
            if let (Some("figure"), Some(name), Some(v), Some(unit)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            {
                if let Ok(v) = v.parse() {
                    let entry = samples
                        .entry(name.to_string())
                        .or_insert((unit.to_string(), Vec::new()));
                    entry.1.push(v);
                }
            }
        }
        println!("run {i}: seed {seed}: {last}");
    }
    println!(
        "\n{} over {} runs of {} s ({} failed):",
        args.workload, k, args.seconds, failures
    );
    println!(
        "{:<16} {:>6} {:>14} {:>14} {:>14} {:>8} {:>6} {:>10}",
        "metric", "unit", "q1", "median", "q3", "spread", "bound", "spr/bound"
    );
    for (name, (unit, values)) in &samples {
        let bound = END_TO_END
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, b)| *b);
        let Some((q1, q2, q3)) = stats::quartiles(values) else {
            continue;
        };
        let spread = (q3 - q1) / q2.abs().max(1e-12);
        let (bound_text, ratio) = match bound {
            Some(b) => (format!("{b}"), format!("{:.3}", spread / b)),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{name:<16} {unit:>6} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>8.4} {bound_text:>6} {ratio:>10}",
        );
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
