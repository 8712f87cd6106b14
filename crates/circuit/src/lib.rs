//! Quantum circuit intermediate representation.
//!
//! This crate defines the circuit format consumed by both simulation engines
//! of the workspace (the decision-diagram engine in `dd` and the dense
//! statevector engine in `statevector`):
//!
//! * [`Qubit`] — a typed index of a wire in a circuit.
//! * [`OneQubitGate`] — the single-qubit gate alphabet with exact 2×2
//!   matrices.
//! * [`Operation`] — the lowered operation set every engine must support:
//!   (multi-)controlled single-qubit unitaries, (controlled) swaps and
//!   (controlled) basis-state permutations on a register, plus the dynamic
//!   operations: measurements, resets and classically-conditioned gates
//!   (a [`Condition`]-guarded unitary, QASM `if (c==k)`).  Permutations are
//!   what keeps Shor's modular-exponentiation circuits self-contained (see
//!   `DESIGN.md`).
//! * [`Circuit`] — an ordered list of operations with convenience builder
//!   methods (`h`, `cx`, `mcx`, `cp`, …) and validation.
//! * [`Circuit::fingerprint`] / [`NoiseModel::fingerprint`] — canonical
//!   128-bit hashes of the IR (gate angles as exact `f64` bit patterns,
//!   names excluded), used as artifact-cache keys by the `weaksim` crate.
//! * [`qasm`] — an OpenQASM 2.0 subset writer and parser so circuits can be
//!   exchanged with other toolchains.
//! * [`NoiseModel`] / [`NoiseChannel`] — descriptions of stochastic noise
//!   (depolarizing, bit/phase flip, amplitude damping) attached to gate
//!   sites, qubits and read-outs, realized per shot by the trajectory
//!   engine for noisy-hardware emulation.
//! * [`CircuitStats`] — gate counts and depth, used by reports.
//!
//! # Examples
//!
//! Building the Bell-state preparation circuit:
//!
//! ```
//! use circuit::{Circuit, Qubit};
//!
//! let mut bell = Circuit::new(2);
//! bell.h(Qubit(0));
//! bell.cx(Qubit(0), Qubit(1));
//! assert_eq!(bell.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod fingerprint;
mod gate;
mod noise;
mod op;
pub mod qasm;
mod stats;

pub use crate::circuit::{Circuit, ValidateCircuitError};
pub use gate::OneQubitGate;
pub use noise::{NoiseChannel, NoiseModel, NoiseModelError};
pub use op::{Condition, Operation, Permutation};
pub use stats::CircuitStats;

/// A qubit index within a circuit.
///
/// Qubit 0 is, by the convention of the reproduced paper, the **least
/// significant** bit of a measured bitstring: basis state index
/// `i = sum_k b_k 2^k` where `b_k` is the measurement outcome of `Qubit(k)`.
///
/// # Examples
///
/// ```
/// use circuit::Qubit;
/// let q = Qubit(3);
/// assert_eq!(q.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Qubit(pub u16);

impl Qubit {
    /// The raw index of the qubit.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl From<u16> for Qubit {
    fn from(i: u16) -> Self {
        Qubit(i)
    }
}

impl From<Qubit> for usize {
    fn from(q: Qubit) -> Self {
        q.index()
    }
}

impl std::fmt::Display for Qubit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q[{}]", self.0)
    }
}
