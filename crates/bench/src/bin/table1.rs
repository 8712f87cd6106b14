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
//! The exit code is non-zero when a row fails to run, or when `--validate`
//! rejects a row's samples or cannot compute its exact distribution, so the
//! validated smoke table can gate CI.
//!
//! The vector-based column reports `MO` when the dense amplitude array would
//! not fit the budget, mirroring the paper's presentation.  With a DD budget
//! or deadline configured, governed DD aborts likewise become `MO`/`TO`
//! cells instead of aborting the whole table.

use statevector::MemoryBudget;
use std::process::ExitCode;
use weaksim::experiment::{format_table, run_table1_row, table1_benchmarks, BenchmarkScale};
use weaksim::stats::chi_square_test;
use weaksim::{Backend, RunGovernor, WeakSimulator};

struct Options {
    scale: BenchmarkScale,
    shots: u64,
    budget: MemoryBudget,
    dd_governor: RunGovernor,
    validate: bool,
}

fn parse_options() -> Options {
    let mut options = Options {
        scale: BenchmarkScale::Reduced,
        shots: 1_000_000,
        budget: MemoryBudget::from_gib(32),
        dd_governor: RunGovernor::unlimited(),
        validate: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                options.scale = match args.next().as_deref() {
                    Some("smoke") => BenchmarkScale::Smoke,
                    Some("full") => BenchmarkScale::Full,
                    Some("reduced") | None => BenchmarkScale::Reduced,
                    Some(other) => {
                        eprintln!("unknown scale '{other}', using reduced");
                        BenchmarkScale::Reduced
                    }
                }
            }
            "--shots" => {
                options.shots = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .unwrap_or(options.shots)
            }
            "--budget-gib" => {
                if let Some(gib) = args.next().and_then(|a| a.parse().ok()) {
                    options.budget = MemoryBudget::from_gib(gib);
                }
            }
            "--dd-node-budget" => {
                if let Some(nodes) = args.next().and_then(|a| a.parse().ok()) {
                    options.dd_governor = options.dd_governor.clone().with_node_budget(nodes);
                }
            }
            "--dd-timeout-secs" => {
                if let Some(secs) = args.next().and_then(|a| a.parse().ok()) {
                    options.dd_governor = options
                        .dd_governor
                        .clone()
                        .with_timeout(std::time::Duration::from_secs_f64(secs));
                }
            }
            "--validate" => options.validate = true,
            other => eprintln!("ignoring unknown argument '{other}'"),
        }
    }
    options
}

fn main() -> ExitCode {
    let options = parse_options();
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
