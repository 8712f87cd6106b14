//! Thousand-qubit Clifford circuits through the Clifford router.
//!
//! Fully-Clifford circuits do not need a dense backend at all: the router
//! recognizes them (every operation lowers through `tableau::lower`) and
//! executes them on the polynomial-time stabilizer-tableau engine, where a
//! 1000-qubit GHZ state is prepared and sampled 100 000 times in well
//! under a second — a register size for which a dense state vector could
//! not even be allocated (`2^1000` amplitudes).  The example also runs a
//! repetition-code syndrome-extraction cycle — a *dynamic* Clifford
//! circuit (mid-circuit resets) — shot by shot on the tableau, and prints
//! which engine executed each run.
//!
//! The example checks its own results: the GHZ and logical read-outs must
//! be all-zeros or all-ones, and from a hundred qubits on, building the
//! GHZ state's sampler (one GF(2) elimination of the stabilizer
//! generators) must take no longer than simulating the circuit on the
//! tableau.  That last check compares two phases of one run, so it holds
//! on a slow machine as well as a fast one; a sampler build that is cubic
//! in the register width fails it at a thousand qubits.  (Below a hundred
//! qubits both phases take microseconds, too few to compare.)
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example clifford_router -- 1000 100000
//! ```

use std::time::Instant;
use weaksim::{Backend, WeakSimulator};

fn main() -> Result<(), weaksim::RunError> {
    let mut args = std::env::args().skip(1);
    let n: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let shots: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);

    let mut sim = WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();

    // A GHZ state across the whole register: static, fully Clifford.
    let start = Instant::now();
    let ghz = algorithms::ghz(n);
    let outcome = sim.run(&ghz, shots, 7)?;
    let elapsed = start.elapsed();
    println!(
        "{}: route {}, {} generators, {} shots in {:.3} s",
        ghz.name(),
        outcome.route,
        outcome.representation_size,
        outcome.histogram.shots(),
        elapsed.as_secs_f64()
    );
    // Only the all-zeros and all-ones strings (of the low 64 qubits) occur.
    let all_ones = if n >= 64 { u64::MAX } else { (1 << n) - 1 };
    assert!(outcome
        .histogram
        .counts()
        .keys()
        .all(|&k| k == 0 || k == all_ones));
    println!(
        "  P(0...0) = {:.4}, P(1...1) = {:.4}",
        outcome.histogram.frequency(0),
        outcome.histogram.frequency(all_ones)
    );
    println!(
        "  tableau simulation {:.3} ms, sampler build {:.3} ms",
        outcome.strong_time.as_secs_f64() * 1e3,
        outcome.precompute_time.as_secs_f64() * 1e3
    );
    assert!(
        n < 100 || outcome.precompute_time <= outcome.strong_time,
        "the sampler build took longer than the tableau simulation"
    );

    // Repetition-code syndrome extraction: dynamic (resets), still fully
    // Clifford, so every trajectory runs on the tableau.
    let data = n / 2 + 1;
    let cycle = algorithms::stabilizer_cycle(data, 2);
    let cycle_shots = shots.min(100);
    let start = Instant::now();
    let outcome = sim.run(&cycle, cycle_shots, 11)?;
    let elapsed = start.elapsed();
    println!(
        "{}: {} qubits, route {}, {} shots in {:.3} s",
        cycle.name(),
        cycle.num_qubits(),
        outcome.route,
        outcome.histogram.shots(),
        elapsed.as_secs_f64()
    );
    let readout_ones = if data >= 64 {
        u64::MAX
    } else {
        (1 << data) - 1
    };
    assert!(outcome
        .histogram
        .counts()
        .keys()
        .all(|&k| k == 0 || k == readout_ones));
    println!(
        "  logical readout: P(0_L) = {:.3}, P(1_L) = {:.3}",
        outcome.histogram.frequency(0),
        outcome.histogram.frequency(readout_ones)
    );
    Ok(())
}
