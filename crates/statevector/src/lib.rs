//! Dense statevector simulation and prefix-sum sampling.
//!
//! This crate implements the *baseline* of the reproduced paper (Section
//! III): strong simulation into an explicit array of `2^n` amplitudes,
//! followed by weak simulation with a precomputed **prefix-sum array** and a
//! **binary search** per sample (`O(n)` per sample after an `O(2^n)`
//! precomputation).
//!
//! The memory wall that motivates the paper's decision-diagram sampler is
//! modelled by [`MemoryBudget`]: it sizes the amplitude and prefix arrays
//! up front, so a caller can report a *memory-out* for a simulation that
//! would exceed the budget instead of thrashing the host machine.
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, Qubit};
//! use statevector::{simulate, PrefixSampler};
//! use rand::SeedableRng;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(Qubit(0));
//! bell.cx(Qubit(0), Qubit(1));
//!
//! let state = simulate(&bell)?;
//! let sampler = PrefixSampler::new(&state);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let sample = sampler.sample(&mut rng);
//! assert!(sample == 0 || sample == 3); // |00> or |11>
//! # Ok::<(), statevector::SimulateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod memory;
mod prefix;
mod state;

pub use apply::{apply_circuit, apply_operation, simulate, SimulateError};
pub use memory::MemoryBudget;
pub use prefix::PrefixSampler;
pub use state::StateVector;
