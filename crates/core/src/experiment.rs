//! The experiment harness that regenerates the paper's evaluation (Table I)
//! and supporting figures.
//!
//! Table I of the paper reports, for 17 benchmark circuits, the size of the
//! sampled representation and the time to draw one million samples with the
//! vector-based and the DD-based method.  [`table1_benchmarks`] builds the
//! circuit list (at three scales, so tests and CI can run a cheap subset),
//! [`run_table1_row`] measures one row, and [`format_table`] renders the
//! result in the layout of the paper.

use crate::{Backend, Governor, RunError, WeakSimulator};
use circuit::Circuit;
use statevector::MemoryBudget;
use std::fmt::Write as _;
use std::time::Duration;

/// A named benchmark circuit.
#[derive(Debug, Clone)]
pub struct BenchmarkInstance {
    /// The benchmark name as it appears in Table I (e.g. `qft_32`).
    pub name: String,
    /// The circuit itself.
    pub circuit: Circuit,
}

impl BenchmarkInstance {
    fn new(circuit: Circuit) -> Self {
        Self {
            name: circuit.name().to_string(),
            circuit,
        }
    }
}

/// How much of the paper's benchmark set to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkScale {
    /// A handful of very small instances; finishes in well under a second.
    /// Used by unit and integration tests.
    Smoke,
    /// Mid-sized instances from every family; finishes in minutes on a
    /// laptop.  This is the default for `cargo run -p bench --bin table1`.
    Reduced,
    /// The full 17-benchmark set of Table I (qft_48, grover_35,
    /// supremacy_5x5_10, ...).  Needs a beefy machine and patience, exactly
    /// like the original evaluation.
    Full,
}

/// Builds the benchmark circuits of Table I at the requested scale.
///
/// # Examples
///
/// ```
/// use weaksim::experiment::{table1_benchmarks, BenchmarkScale};
/// let smoke = table1_benchmarks(BenchmarkScale::Smoke);
/// assert!(smoke.iter().any(|b| b.name.starts_with("qft_")));
/// ```
#[must_use]
pub fn table1_benchmarks(scale: BenchmarkScale) -> Vec<BenchmarkInstance> {
    let mut out = Vec::new();
    match scale {
        BenchmarkScale::Smoke => {
            out.push(BenchmarkInstance::new(algorithms::qft(8, true)));
            out.push(BenchmarkInstance::new(algorithms::qft(12, true)));
            out.push(BenchmarkInstance::new(algorithms::grover(6, 2020)));
            out.push(BenchmarkInstance::new(algorithms::shor(15, 2).0));
            out.push(BenchmarkInstance::new(algorithms::jellium(2, 1).0));
            out.push(BenchmarkInstance::new(
                algorithms::supremacy(3, 3, 6, 2020).0,
            ));
        }
        BenchmarkScale::Reduced => {
            out.push(BenchmarkInstance::new(algorithms::qft(16, true)));
            out.push(BenchmarkInstance::new(algorithms::qft(32, true)));
            out.push(BenchmarkInstance::new(algorithms::qft(48, true)));
            out.push(BenchmarkInstance::new(algorithms::grover(16, 2020)));
            out.push(BenchmarkInstance::new(algorithms::grover(18, 2020)));
            out.push(BenchmarkInstance::new(algorithms::grover(20, 2020)));
            out.push(BenchmarkInstance::new(algorithms::shor(33, 2).0));
            out.push(BenchmarkInstance::new(algorithms::shor(55, 2).0));
            out.push(BenchmarkInstance::new(algorithms::shor(69, 4).0));
            out.push(BenchmarkInstance::new(algorithms::jellium(2, 2).0));
            out.push(BenchmarkInstance::new(algorithms::jellium(3, 2).0));
            out.push(BenchmarkInstance::new(
                algorithms::supremacy(4, 4, 10, 2020).0,
            ));
            out.push(BenchmarkInstance::new(
                algorithms::supremacy(5, 4, 10, 2020).0,
            ));
        }
        BenchmarkScale::Full => {
            out.push(BenchmarkInstance::new(algorithms::qft(16, true)));
            out.push(BenchmarkInstance::new(algorithms::qft(32, true)));
            out.push(BenchmarkInstance::new(algorithms::qft(48, true)));
            out.push(BenchmarkInstance::new(algorithms::grover(20, 2020)));
            out.push(BenchmarkInstance::new(algorithms::grover(25, 2020)));
            out.push(BenchmarkInstance::new(algorithms::grover(30, 2020)));
            out.push(BenchmarkInstance::new(algorithms::grover(35, 2020)));
            out.push(BenchmarkInstance::new(algorithms::shor(33, 2).0));
            out.push(BenchmarkInstance::new(algorithms::shor(55, 2).0));
            out.push(BenchmarkInstance::new(algorithms::shor(69, 4).0));
            out.push(BenchmarkInstance::new(algorithms::shor(221, 4).0));
            out.push(BenchmarkInstance::new(algorithms::shor(247, 4).0));
            out.push(BenchmarkInstance::new(algorithms::jellium(2, 2).0));
            out.push(BenchmarkInstance::new(algorithms::jellium(3, 2).0));
            out.push(BenchmarkInstance::new(
                algorithms::supremacy(4, 4, 10, 2020).0,
            ));
            out.push(BenchmarkInstance::new(
                algorithms::supremacy(5, 4, 10, 2020).0,
            ));
            out.push(BenchmarkInstance::new(
                algorithms::supremacy(5, 5, 10, 2020).0,
            ));
        }
    }
    out
}

/// One measured row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Number of qubits.
    pub qubits: u16,
    /// Size of the dense representation (`2^n` amplitudes), reported even
    /// when the vector-based run hits the memory budget.
    pub vector_size: u128,
    /// Prefix-sum construction plus sampling time for the vector-based
    /// method, or `None` on memory-out ("MO" in the paper).
    pub vector_time: Option<Duration>,
    /// Number of nodes of the final state decision diagram, or `None` when
    /// the governed DD run was aborted (see [`dd_failure`](Self::dd_failure)).
    pub dd_size: Option<u128>,
    /// Sampler-compilation (flat-arena + downstream-probability) plus
    /// sampling time for the DD-based method; `None` on a governed abort.
    pub dd_time: Option<Duration>,
    /// Strong-simulation time for the DD backend (not part of Table I, but
    /// reported for transparency); `None` on a governed abort.
    pub dd_strong_time: Option<Duration>,
    /// The governed failure that aborted the DD run, if any: memory-out
    /// ("MO"), deadline ("TO") or cancellation ("CA").  Mirrors how the
    /// paper reports vector-backend memory-outs — a cell, not an error.
    pub dd_failure: Option<RunError>,
    /// Number of samples drawn.
    pub shots: u64,
    /// Package table statistics of the DD run: unique-table sharing rate and
    /// compute-cache hit/miss/eviction counters (see [`dd::DdStats`]).
    pub dd_stats: Option<dd::DdStats>,
}

impl Table1Row {
    /// `log2` of the DD size, matching the `~ 2^x` annotation of the paper;
    /// `None` when the governed DD run was aborted.
    #[must_use]
    pub fn dd_size_log2(&self) -> Option<f64> {
        self.dd_size.map(|size| (size as f64).log2())
    }

    /// The Table I cell reporting the aborted DD run: `"MO"` for a
    /// node/byte budget abort, `"TO"` for a deadline abort, `"CA"` for a
    /// cancellation; `None` when the run completed.
    #[must_use]
    pub fn dd_failure_cell(&self) -> Option<&'static str> {
        match self.dd_failure {
            Some(RunError::DdMemoryOut(_)) => Some("MO"),
            Some(RunError::Deadline(_)) => Some("TO"),
            Some(RunError::Cancelled(_)) => Some("CA"),
            _ => None,
        }
    }
}

/// Measures one benchmark with both samplers.
///
/// The DD-based run is governed by `dd_governor` (armed fresh for this row):
/// a benchmark whose diagram blows the node/byte budget or whose
/// construction outlives the timeout is reported as an "MO"/"TO" cell —
/// exactly how the paper reports vector-backend memory-outs — instead of
/// aborting the whole table.
///
/// # Errors
///
/// Returns an error only if the circuit itself is invalid; a vector-backend
/// memory-out and a governed DD abort are both reported in the row, not as
/// errors.
pub fn run_table1_row(
    instance: &BenchmarkInstance,
    shots: u64,
    budget: MemoryBudget,
    dd_governor: &Governor,
    seed: u64,
) -> Result<Table1Row, RunError> {
    let qubits = instance.circuit.num_qubits();

    // DD-based run; under a limited governor it can abort with MO/TO/CA,
    // which becomes a reported cell rather than a fatal error.
    let (dd_size, dd_time, dd_strong_time, dd_stats, dd_failure) =
        match WeakSimulator::new(Backend::DecisionDiagram)
            .with_governor(dd_governor.clone())
            .run(&instance.circuit, shots, seed)
        {
            Ok(outcome) => (
                Some(outcome.representation_size),
                Some(outcome.weak_time()),
                Some(outcome.strong_time),
                outcome.dd_stats,
                None,
            ),
            Err(
                failure @ (RunError::DdMemoryOut(_)
                | RunError::Deadline(_)
                | RunError::Cancelled(_)),
            ) => (None, None, None, None, Some(failure)),
            Err(other) => return Err(other),
        };

    // Vector-based run, which may hit the memory budget.
    let vector_time = match WeakSimulator::new(Backend::StateVector)
        .with_memory_budget(budget)
        .run(&instance.circuit, shots, seed)
    {
        Ok(outcome) => Some(outcome.weak_time()),
        Err(RunError::MemoryOut { .. }) => None,
        Err(other) => return Err(other),
    };

    Ok(Table1Row {
        name: instance.name.clone(),
        qubits,
        vector_size: 1u128 << qubits,
        vector_time,
        dd_size,
        dd_time,
        dd_strong_time,
        dd_failure,
        shots,
        dd_stats,
    })
}

/// Renders measured rows in the layout of Table I, extended with the DD
/// package's table statistics (node-sharing and compute-cache hit rates of
/// the construction phase).
#[must_use]
pub fn format_table(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>6} | {:>14} {:>12} | {:>12} {:>10} {:>12} {:>8} {:>8}",
        "benchmark",
        "qubits",
        "vec size",
        "vec t [s]",
        "DD size",
        "DD t [s]",
        "DD strong [s]",
        "uniq%",
        "cache%"
    );
    let _ = writeln!(out, "{}", "-".repeat(118));
    for row in rows {
        let vector_time = match row.vector_time {
            Some(t) => format!("{:.2}", t.as_secs_f64()),
            None => "MO".to_string(),
        };
        let (unique_rate, cache_rate) = match &row.dd_stats {
            Some(stats) => (
                format!("{:.1}", 100.0 * stats.vector_unique_hit_rate()),
                format!("{:.1}", 100.0 * stats.compute_hit_rate()),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        // A governed DD abort renders as its MO/TO/CA cell in the time
        // column, mirroring the paper's treatment of vector memory-outs.
        let (dd_size, dd_time, dd_strong) = match (row.dd_size, row.dd_time, row.dd_strong_time) {
            (Some(size), Some(time), Some(strong)) => (
                format!("{} ~2^{:.1}", size, (size as f64).log2()),
                format!("{:.2}", time.as_secs_f64()),
                format!("{:.2}", strong.as_secs_f64()),
            ),
            _ => (
                "-".to_string(),
                row.dd_failure_cell().unwrap_or("-").to_string(),
                "-".to_string(),
            ),
        };
        let _ = writeln!(
            out,
            "{:<22} {:>6} | {:>14} {:>12} | {:>12} {:>10} {:>12} {:>8} {:>8}",
            row.name,
            row.qubits,
            format!("2^{}", row.qubits),
            vector_time,
            dd_size,
            dd_time,
            dd_strong,
            unique_rate,
            cache_rate,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_benchmarks_cover_every_family() {
        let names: Vec<String> = table1_benchmarks(BenchmarkScale::Smoke)
            .into_iter()
            .map(|b| b.name)
            .collect();
        for prefix in ["qft_", "grover_", "shor_", "jellium_", "supremacy_"] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "missing family {prefix} in {names:?}"
            );
        }
    }

    #[test]
    fn full_benchmark_set_matches_the_paper() {
        let names: Vec<String> = table1_benchmarks(BenchmarkScale::Full)
            .into_iter()
            .map(|b| b.name)
            .collect();
        assert_eq!(names.len(), 17);
        for expected in [
            "qft_16",
            "qft_32",
            "qft_48",
            "grover_20",
            "grover_25",
            "grover_30",
            "grover_35",
            "shor_33_2",
            "shor_55_2",
            "shor_69_4",
            "shor_221_4",
            "shor_247_4",
            "jellium_2x2",
            "jellium_3x3",
            "supremacy_4x4_10",
            "supremacy_5x4_10",
            "supremacy_5x5_10",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn running_a_smoke_row_produces_sensible_numbers() {
        let instance = BenchmarkInstance {
            name: "qft_8".into(),
            circuit: algorithms::qft(8, true),
        };
        let row = run_table1_row(
            &instance,
            2_000,
            MemoryBudget::unlimited(),
            &Governor::unlimited(),
            1,
        )
        .expect("row runs");
        assert_eq!(row.qubits, 8);
        assert_eq!(row.vector_size, 256);
        assert_eq!(row.dd_size, Some(8)); // product state
        assert!(row.vector_time.is_some());
        assert!(row.dd_failure.is_none());
        assert_eq!(row.shots, 2_000);
        let log2 = row.dd_size_log2().expect("dd column present");
        assert!((log2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn memory_out_is_reported_not_fatal() {
        let instance = BenchmarkInstance {
            name: "qft_16".into(),
            circuit: algorithms::qft(16, true),
        };
        let row = run_table1_row(
            &instance,
            100,
            MemoryBudget::from_bytes(64),
            &Governor::unlimited(),
            1,
        )
        .expect("row");
        assert!(row.vector_time.is_none());
        assert!(row.dd_size.expect("dd column present") > 0);
        let table = format_table(&[row]);
        assert!(table.contains("MO"));
    }

    #[test]
    fn dd_budget_abort_renders_as_mo_cell() {
        let instance = BenchmarkInstance {
            name: "qft_12".into(),
            circuit: algorithms::qft(12, true),
        };
        let governor = Governor::unlimited().with_node_budget(4);
        let row = run_table1_row(&instance, 100, MemoryBudget::unlimited(), &governor, 1)
            .expect("governed abort becomes row data, not an error");
        assert!(row.dd_size.is_none());
        assert!(row.dd_time.is_none());
        assert_eq!(row.dd_failure_cell(), Some("MO"));
        assert!(matches!(row.dd_failure, Some(RunError::DdMemoryOut(_))));
        let table = format_table(&[row]);
        assert!(
            table.contains("MO"),
            "table should print the MO cell:\n{table}"
        );
    }

    #[test]
    fn format_table_lists_every_row() {
        let instance = BenchmarkInstance {
            name: "ghz_4".into(),
            circuit: algorithms::ghz(4),
        };
        let row = run_table1_row(
            &instance,
            100,
            MemoryBudget::unlimited(),
            &Governor::unlimited(),
            0,
        )
        .unwrap();
        let text = format_table(&[row.clone(), row]);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("ghz_4"));
        assert!(text.contains("benchmark"));
    }
}
