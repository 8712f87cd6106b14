//! Regenerates Table I of the paper: runtime and memory for error-free
//! sampling of bitstrings with the vector-based and the DD-based method.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin table1 [-- OPTIONS]
//!
//!   --scale smoke|reduced|full   benchmark set (default: reduced)
//!   --shots N                    samples per benchmark (default: 1000000)
//!   --budget-gib G               memory budget for the dense backend
//!                                (default: 32, the paper's machine)
//!   --dd-node-budget N           cap live DD nodes for the DD backend;
//!                                exceeding it prints an `MO` cell
//!   --dd-timeout-secs S          per-row wall-clock deadline for the DD
//!                                backend; exceeding it prints a `TO` cell
//!   --validate                   additionally run a chi-square check of the
//!                                DD samples against the exact distribution
//! ```
//!
//! The exit code is 1 when a row fails to run, or when `--validate` rejects
//! a row's samples or cannot compute its exact distribution, so the
//! validated smoke table can gate CI.  A malformed or missing value, an
//! unknown scale or an unknown argument prints a usage error and exits 2.
//!
//! The vector-based column reports `MO` when the dense amplitude array would
//! not fit the budget, mirroring the paper's presentation.  With a DD budget
//! or deadline configured, governed DD aborts likewise become `MO`/`TO`
//! cells instead of aborting the whole table.

use statevector::MemoryBudget;
use std::process::ExitCode;
use std::time::Duration;
use weaksim::experiment::{format_table, run_table1_row, table1_benchmarks, BenchmarkScale};
use weaksim::stats::chi_square_test;
use weaksim::{Backend, Governor, WeakSimulator};

struct Options {
    scale: BenchmarkScale,
    shots: u64,
    budget: MemoryBudget,
    dd_governor: Governor,
    validate: bool,
}

const USAGE: &str = "usage: table1 [--scale smoke|reduced|full] [--shots N] [--budget-gib G] \
                     [--dd-node-budget N] [--dd-timeout-secs S] [--validate]";

/// Parses the value that follows `flag`; `Err` names the flag when the value
/// is missing or malformed.
fn value<T: std::str::FromStr>(flag: &str, arg: Option<String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let arg = arg.ok_or_else(|| format!("{flag} expects a value"))?;
    arg.parse().map_err(|e| format!("{flag} `{arg}`: {e}"))
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        scale: BenchmarkScale::Reduced,
        shots: 1_000_000,
        budget: MemoryBudget::from_gib(32),
        dd_governor: Governor::unlimited(),
        validate: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                options.scale = match value::<String>("--scale", args.next())?.as_str() {
                    "smoke" => BenchmarkScale::Smoke,
                    "reduced" => BenchmarkScale::Reduced,
                    "full" => BenchmarkScale::Full,
                    other => {
                        return Err(format!(
                            "unknown scale `{other}` (want smoke, reduced or full)"
                        ))
                    }
                }
            }
            "--shots" => options.shots = value("--shots", args.next())?,
            "--budget-gib" => {
                options.budget = MemoryBudget::from_gib(value("--budget-gib", args.next())?);
            }
            "--dd-node-budget" => {
                let nodes = value("--dd-node-budget", args.next())?;
                options.dd_governor = options.dd_governor.clone().with_node_budget(nodes);
            }
            "--dd-timeout-secs" => {
                let secs: f64 = value("--dd-timeout-secs", args.next())?;
                let timeout = Duration::try_from_secs_f64(secs)
                    .map_err(|e| format!("--dd-timeout-secs `{secs}`: {e}"))?;
                options.dd_governor = options.dd_governor.clone().with_timeout(timeout);
            }
            "--validate" => options.validate = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_options(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("table1: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let instances = table1_benchmarks(options.scale);
    println!(
        "Table I reproduction: {} benchmarks, {} samples each, dense budget {} GiB",
        instances.len(),
        options.shots,
        options.budget.bytes() / (1 << 30)
    );
    println!();

    let mut rows = Vec::new();
    let mut failed = false;
    for instance in &instances {
        eprintln!(
            "running {} ({} qubits)...",
            instance.name,
            instance.circuit.num_qubits()
        );
        match run_table1_row(
            instance,
            options.shots,
            options.budget,
            &options.dd_governor,
            2020,
        ) {
            Ok(row) => {
                if let Some(cell) = row.dd_failure_cell() {
                    eprintln!("  DD backend for {}: {cell}", instance.name);
                } else if options.validate {
                    if let Err(message) = validate(instance, options.shots.min(200_000)) {
                        eprintln!("  validation of {} failed: {message}", instance.name);
                        failed = true;
                    }
                }
                rows.push(row);
            }
            Err(e) => {
                eprintln!("  skipped {}: {e}", instance.name);
                failed = true;
            }
        }
    }

    println!("{}", format_table(&rows));
    println!("(vector `t` = prefix-sum construction + sampling; DD `t` = downstream precomputation + sampling;");
    println!(
        " `MO`/`TO` = memory budget exceeded / deadline hit for that backend, as in the paper)"
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Checks `shots` DD samples of `instance` against its exact distribution
/// with a chi-square test; `Err` when the samples are rejected or a
/// simulation fails.
fn validate(instance: &weaksim::experiment::BenchmarkInstance, shots: u64) -> Result<(), String> {
    // Exact probabilities are only affordable for moderate qubit counts.
    if instance.circuit.num_qubits() > 26 {
        eprintln!("  validation skipped (too many qubits for exact comparison)");
        return Ok(());
    }
    let mut sim = WeakSimulator::new(Backend::DecisionDiagram);
    let outcome = sim
        .run(&instance.circuit, shots, 77)
        .map_err(|e| format!("sampling: {e}"))?;
    let exact = sim
        .strong(&instance.circuit)
        .map_err(|e| format!("strong simulation: {e}"))?;
    let chi = chi_square_test(&outcome.histogram, |i| exact.probability(i));
    let consistent = chi.is_consistent(1e-4);
    eprintln!(
        "  validation: chi2 = {:.1}, dof = {}, p = {:.4} -> {}",
        chi.statistic,
        chi.degrees_of_freedom,
        chi.p_value,
        if consistent { "consistent" } else { "REJECTED" }
    );
    if consistent {
        Ok(())
    } else {
        Err(format!("samples rejected at p = {:.4}", chi.p_value))
    }
}
