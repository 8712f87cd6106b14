//! Sampling supremacy-style random circuits and validating that the output
//! is statistically indistinguishable from the exact distribution.
//!
//! Random grid circuits are the hardest workload in the paper's evaluation
//! (their states have little structure to compress).  This example runs a
//! moderate instance with both backends, compares the empirical histograms
//! against the exact output distribution with a chi-square test, and prints
//! the cross-entropy style statistics used to benchmark real devices.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example supremacy_sampling -- 4 4 8
//! ```

use weaksim::stats;
use weaksim::{Backend, WeakSimulator};

fn main() -> Result<(), weaksim::RunError> {
    let mut args = std::env::args().skip(1);
    let rows: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let cols: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let depth: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let (circuit, spec) = algorithms::supremacy(rows, cols, depth, 2020);
    println!(
        "{}: {} qubits, {} gates, depth {}",
        circuit.name(),
        spec.qubits,
        circuit.len(),
        circuit.stats().depth
    );

    let shots = 200_000;
    let dd = WeakSimulator::new(Backend::DecisionDiagram).run(&circuit, shots, 99)?;
    println!(
        "DD-based:     {:>9} nodes,      strong {:.2} s, sampling {:.2} s",
        dd.representation_size,
        dd.strong_time.as_secs_f64(),
        dd.weak_time().as_secs_f64()
    );
    let sv = WeakSimulator::new(Backend::StateVector).run(&circuit, shots, 99)?;
    println!(
        "vector-based: {:>9} amplitudes, strong {:.2} s, sampling {:.2} s",
        sv.representation_size,
        sv.strong_time.as_secs_f64(),
        sv.weak_time().as_secs_f64()
    );

    // Validate statistical indistinguishability against the exact
    // distribution (available from either strong simulation; the dense one
    // is the cheaper of the two here).
    let exact = WeakSimulator::new(Backend::StateVector).strong(&circuit)?;
    for outcome in [&dd, &sv] {
        let chi = stats::chi_square_test(&outcome.histogram, |index| exact.probability(index));
        let tvd =
            stats::total_variation_distance(&outcome.histogram, |index| exact.probability(index));
        println!(
            "{}: chi-square = {:.1} (dof {}), p = {:.3}, TVD = {:.4} -> {}",
            outcome.backend,
            chi.statistic,
            chi.degrees_of_freedom,
            chi.p_value,
            tvd,
            if chi.is_consistent(0.01) {
                "consistent with the ideal quantum computer"
            } else {
                "REJECTED"
            }
        );
    }
    Ok(())
}
