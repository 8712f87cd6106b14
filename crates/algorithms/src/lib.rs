//! Benchmark circuit generators for the weak-simulation evaluation.
//!
//! The reproduced paper evaluates its samplers on five circuit families
//! (Section V); this crate generates all of them, plus a few extra
//! entangled-state preparations used by examples and tests:
//!
//! * [`qft`](fn@qft) — the Quantum Fourier Transform (`qft_A` benchmarks),
//! * [`grover`](fn@grover) — Grover's search with a random oracle (`grover_A`),
//! * [`shor`](fn@shor) — Shor's order-finding circuit for factoring (`shor_A_B`),
//! * [`jellium`](fn@jellium) — Trotterized uniform-electron-gas circuits
//!   (`jellium_AxA`; see `DESIGN.md` for the substitution notes),
//! * [`supremacy`](fn@supremacy) — random grid circuits in the style of the Google
//!   quantum-supremacy benchmarks (`supremacy_AxB_C`),
//! * [`ghz`], [`w_state`], [`random_circuit`] — auxiliary workloads,
//! * [`teleportation`] — the dynamic-circuit (mid-circuit measurement)
//!   reference workload,
//! * [`ipe`](fn@ipe) — single-ancilla iterative phase estimation, the
//!   classically-controlled (`if (c==k)`) qubit-reuse reference workload,
//! * [`stabilizer_cycle`] — repetition-code syndrome-extraction rounds,
//!   the fully-Clifford dynamic workload for the stabilizer-tableau
//!   engine (scales to thousands of qubits),
//! * [`hardware_noise`], [`teleportation_noise_sweep`], [`ipe_noise_sweep`]
//!   — reference noise models and error-rate sweeps for noisy-hardware
//!   emulation through the trajectory engine.
//!
//! Every generator is deterministic given its parameters (and seed, where
//! randomness is involved), so experiments are reproducible.
//!
//! # Examples
//!
//! ```
//! let qft = algorithms::qft(8, true);
//! assert_eq!(qft.num_qubits(), 8);
//! assert!(qft.validate().is_ok());
//!
//! let grover = algorithms::grover(6, 42);
//! assert_eq!(grover.num_qubits(), 7); // 6 search qubits + 1 ancilla
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamic;
mod entangle;
mod grover;
mod ipe;
mod jellium;
mod noisy;
mod qft;
mod random;
mod shor;
mod stabilizer;
mod supremacy;

pub use dynamic::teleportation;
pub use entangle::{bell_pair, ghz, w_state};
pub use grover::{grover, grover_with_iterations, GroverSpec};
pub use ipe::ipe;
pub use jellium::{jellium, JelliumSpec};
pub use noisy::{hardware_noise, ipe_noise_sweep, teleportation_noise_sweep};
pub use qft::{inverse_qft, qft};
pub use random::random_circuit;
pub use shor::{shor, ShorSpec};
pub use stabilizer::stabilizer_cycle;
pub use supremacy::{supremacy, SupremacySpec};

/// Returns the running example of the paper (Figs. 2–4): a 3-qubit circuit
/// whose final state has amplitudes
/// `[0, -0.612i, 0, -0.612i, 0.354, 0, 0, 0.354]` and therefore measurement
/// probabilities `[0, 3/8, 0, 3/8, 1/8, 0, 0, 1/8]`.
///
/// # Examples
///
/// ```
/// let c = algorithms::running_example();
/// assert_eq!(c.num_qubits(), 3);
/// ```
#[must_use]
pub fn running_example() -> circuit::Circuit {
    use circuit::Qubit;
    use mathkit::Angle;
    let mut c = circuit::Circuit::with_name(3, "running_example");
    c.rx(Angle::Radians(2.0 * std::f64::consts::PI / 3.0), Qubit(2));
    c.x(Qubit(2));
    c.h(Qubit(1));
    c.ccx(Qubit(2), Qubit(1), Qubit(0));
    c.x(Qubit(0));
    c.cx(Qubit(2), Qubit(0));
    c
}

#[cfg(test)]
mod tests {
    #[test]
    fn running_example_is_valid() {
        let c = super::running_example();
        assert!(c.validate().is_ok());
        assert_eq!(c.len(), 6);
        assert_eq!(c.name(), "running_example");
    }
}
