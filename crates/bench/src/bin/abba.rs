//! ABBA comparison of two perfbench builds.
//!
//! ```text
//! cargo run --release -p defi-bench --bin abba -- BASE CHANGE --workload W --pairs N \
//!     [--seconds S] [--seed K] [--trace 0|1]
//! ```
//!
//! `BASE` and `CHANGE` are perfbench binaries, each built from its own
//! checkout (`cargo build --release --manifest-path perfbench/Cargo.toml`
//! leaves it at `perfbench/target/release/perfbench`). `abba` runs
//! them one at a time in ABBA order: pair 0 runs BASE then CHANGE, pair 1
//! CHANGE then BASE, and so on. Each run is `--workload W --seed K
//! --seconds S --trace T` (defaults: seed 1, 20 s, untraced). Progress goes
//! to standard error. Standard output gets the counters the two builds
//! disagree on, one line per metric (both sides' median, quartiles and
//! minimum, the median gap and the pairs in which CHANGE reads lower), the
//! `bench host` line and a `BENCH_baseline.json` fragment. A run that
//! fails to start or exits non-zero stops the comparison with status 1; bad
//! arguments exit 2.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

use defi_bench::abba::{
    baseline_fragment, compare, counter_diffs, counters_repeat, pair_order, parse_run, RunOutput,
    Side, Summary,
};

struct Args {
    base: String,
    change: String,
    workload: String,
    pairs: usize,
    seconds: String,
    seed: u64,
    trace: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: abba BASE CHANGE --workload W --pairs N [--seconds S] [--seed K] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut binaries = Vec::new();
    let (mut workload, mut pairs) = (None, None);
    let (mut seconds, mut seed, mut trace) = ("20".to_string(), 1, "0".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = Some(args.next()?),
            "--pairs" => pairs = Some(args.next()?.parse().ok().filter(|&n| n > 0)?),
            "--seconds" => {
                let value = args.next()?;
                value.parse::<f64>().ok().filter(|s| *s >= 0.0)?;
                seconds = value;
            }
            "--seed" => seed = args.next()?.parse().ok()?,
            "--trace" => {
                trace = args.next().filter(|t| t == "0" || t == "1")?;
            }
            flag if flag.starts_with("--") => return None,
            _ => binaries.push(arg),
        }
    }
    let [base, change]: [String; 2] = binaries.try_into().ok()?;
    Some(Args {
        base,
        change,
        workload: workload?,
        pairs: pairs?,
        seconds,
        seed,
        trace,
    })
}

/// Run one perfbench binary and parse its output.
fn run(binary: &str, args: &Args) -> Result<RunOutput, String> {
    let seed = args.seed.to_string();
    let output = Command::new(binary)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(["--seconds", &args.seconds, "--trace", &args.trace])
        .output()
        .map_err(|error| format!("{binary}: {error}"))?;
    if !output.status.success() {
        return Err(format!(
            "{binary} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(parse_run(&String::from_utf8_lossy(&output.stdout)))
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let mut pairs: Vec<(RunOutput, RunOutput)> = Vec::with_capacity(args.pairs);
    for pair in 0..args.pairs {
        let (mut base, mut change) = (None, None);
        for side in pair_order(pair) {
            let (binary, slot, label) = match side {
                Side::Base => (&args.base, &mut base, "base"),
                Side::Change => (&args.change, &mut change, "change"),
            };
            match run(binary, &args) {
                Ok(output) => {
                    let run_s = output
                        .metrics
                        .iter()
                        .find(|(name, _, _)| name == "run_s")
                        .map_or(String::from("-"), |(_, value, _)| value.to_string());
                    eprintln!("pair {}/{} {label}: run_s {run_s}", pair + 1, args.pairs);
                    *slot = Some(output);
                }
                Err(error) => {
                    eprintln!("abba: {error}");
                    return ExitCode::from(1);
                }
            }
        }
        if let (Some(base), Some(change)) = (base, change) {
            pairs.push((base, change));
        }
    }

    println!(
        "workload {} seed {} seconds {} trace {}: {} ABBA pairs",
        args.workload, args.seed, args.seconds, args.trace, args.pairs
    );
    let Some((first_base, first_change)) = pairs.first() else {
        return usage();
    };
    let diffs = counter_diffs(first_base, first_change);
    println!(
        "counters: {} lines, {} differ; each side repeats its counters on every pair: {}",
        first_base.counters.len(),
        diffs.len(),
        counters_repeat(pairs.iter().map(|(base, _)| base))
            && counters_repeat(pairs.iter().map(|(_, change)| change)),
    );
    for diff in &diffs {
        println!(
            "counter {} base {} change {}",
            diff.name,
            diff.base.as_deref().unwrap_or("-"),
            diff.change.as_deref().unwrap_or("-"),
        );
    }
    let failed = |side: fn(&(RunOutput, RunOutput)) -> &RunOutput| -> u64 {
        pairs.iter().filter_map(|pair| side(pair).failed).sum()
    };
    println!(
        "failed checks: base {}, change {}",
        failed(|p| &p.0),
        failed(|p| &p.1)
    );
    let comparisons = compare(&pairs);
    for comparison in &comparisons {
        let (base, change) = (
            Summary::of(&comparison.base),
            Summary::of(&comparison.change),
        );
        println!(
            "metric {} {}: base median {} [q1 {}, q3 {}] min {} | change median {} [q1 {}, q3 {}] \
             min {} | {:+.1}% | change lower in {}/{} | gap > base IQR: {}",
            comparison.name,
            comparison.unit,
            base.median,
            base.q1,
            base.q3,
            base.min,
            change.median,
            change.q1,
            change.q3,
            change.min,
            comparison.median_change_pct(),
            comparison.change_lower(),
            pairs.len(),
            comparison.gap_exceeds_base_iqr(),
        );
    }
    println!(
        "{}",
        first_base
            .host
            .as_deref()
            .unwrap_or("bench host: unknown (not printed)")
    );
    println!(
        "{}",
        baseline_fragment(&args.workload, args.seed, &pairs, &comparisons)
    );
    ExitCode::SUCCESS
}
