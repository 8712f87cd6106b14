//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a run header, the requests of one round, human-readable metric
//! lines, and as its last line the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`.  Exits non-zero
//! without a result when the arguments are malformed or set-up fails.

use perfbench::bench::{self, Options};
use perfbench::report::result_line;
use perfbench::sys;
use perfbench::workload::{generate, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload cold_mix|cold_large|warm_mix|trajectory_mix --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{USAGE}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1\n{USAGE}")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn print_header(options: &Options) {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let memory = sys::total_memory_bytes().map_or("unknown".to_owned(), |b| {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    });
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_owned());
    println!(
        "# perfbench workload {} seed {} seconds {} trace {}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    println!(
        "# cores {cores} memory {memory} RAYON_NUM_THREADS {rayon} {}",
        env!("PERFBENCH_RUSTC")
    );
    let requests = generate(options.workload, options.seed);
    println!(
        "# requests per round {} (id name fingerprint backend shots)",
        requests.len()
    );
    for r in &requests {
        println!(
            "# request {} {} {:016x}{:016x} {} {}",
            r.id,
            r.name,
            r.fingerprint[0],
            r.fingerprint[1],
            r.backend_label(),
            r.shots
        );
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.out_dir) {
        eprintln!("cannot create {}: {e}", options.out_dir.display());
        return ExitCode::FAILURE;
    }
    print_header(&options);
    let outcome = if options.trace {
        bench::run_traced(&options)
    } else {
        bench::run(&options)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# check failed: {problem}");
    }
    for m in &outcome.metrics {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && finite;
    let metrics: Vec<_> = outcome
        .metrics
        .into_iter()
        .map(|mut m| {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
            m
        })
        .collect();
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}
