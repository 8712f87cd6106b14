//! Edge-weighted decision diagrams for quantum-circuit simulation and the
//! weak-simulation sampler of Hillmich, Markov and Wille (DAC 2020).
//!
//! # Overview
//!
//! A quantum state over `n` qubits is a vector of `2^n` complex amplitudes.
//! Decision diagrams (DDs) exploit redundancy in that vector: the vector is
//! split recursively into halves (one split per qubit), equal sub-vectors are
//! shared, and common factors are pulled out into complex *edge weights*.
//! The amplitude of a basis state is the product of the edge weights along
//! the corresponding root-to-terminal path.
//!
//! This crate provides
//!
//! * [`DdPackage`] — the arena that owns all nodes, the canonical
//!   complex-value table, the unique tables (for node sharing) and the
//!   compute tables (for memoized operations);
//! * [`StateDd`] — a state (vector) decision diagram rooted at a
//!   [`VectorEdge`];
//! * [`OperatorDd`] — an operator (matrix) decision diagram used to apply
//!   gates by matrix–vector multiplication;
//! * [`apply_circuit`]/[`simulate`] — strong simulation of a
//!   [`circuit::Circuit`] into a [`StateDd`], with gate-DD memoization
//!   keyed on (gate, target/control layout) in the package;
//!   [`apply_circuit_until`] is the unchecked loop beneath them, with a
//!   stop rule ([`Until::Incompressible`]) for callers that validated the
//!   circuit themselves and finish a diagram which stopped compressing on
//!   a dense vector;
//! * [`CompiledSampler`] — the production sampling hot path: the paper's
//!   single-path weak simulation compiled into a flat arena for several-fold
//!   higher shot throughput, plus deterministic parallel shot batching
//!   (the interpreted reference samplers `DdSampler`/`NormalizedSampler`
//!   are behind the `comparison-samplers` feature, enabled only by the
//!   bench crate);
//! * [`Normalization`] — the standard left-most normalization and the
//!   paper's proposed 2-norm normalization, under which the probability of
//!   each branch can be read directly off the local edge weights.
//!
//! # The compiled-arena layout
//!
//! State diagrams built by this crate are **level-complete**: the root
//! decides qubit `n - 1`, and every non-zero edge out of a node on qubit `v`
//! leads to a node on qubit `v - 1`, or to the terminal when `v = 0`.  So
//! every root-to-terminal path visits exactly one node per qubit, most
//! significant first.  [`CompiledSampler::new`] relies on this (and panics
//! on a diagram that skips a level), and
//! [`CompiledSampler::decode_snapshot`] rejects payloads that break it.
//!
//! [`CompiledSampler::new`] flattens the subgraph reachable from the root
//! into one contiguous array of packed 16-byte node records, indexed by a
//! compact `u32` node id assigned in breadth-first discovery order (the root
//! is id 0, and the arena is sorted by level).  Each record holds:
//!
//! | field      | type       | meaning                                        |
//! |------------|------------|------------------------------------------------|
//! | `p_zero`   | `f64`      | probability of branching to the 0-successor, with each child's downstream probability mass already folded in |
//! | `children` | `[u32; 2]` | compact ids of the 0/1 successors; `u32::MAX` below qubit 0 and on zero branches |
//!
//! No record stores its qubit: level completeness means the `l`-th step of
//! a walk is on qubit `n - 1 - l`, so a shot shifts its bits in, most
//! significant first (`index = index << 1 | bit`).  The packing matters: a
//! traversal's node visits are data-dependent random accesses, so on
//! million-node diagrams the walk is cache-miss-bound and one 16-byte record
//! costs a single cache line where parallel arrays would cost two.  The
//! batched draw loops walk eight shots in lockstep so that eight of those
//! misses overlap.
//!
//! Folding the downstream mass into `p_zero` at compile time makes the
//! representation normalization-agnostic: under
//! [`Normalization::TwoNorm`] the downstream factors are all 1 and under
//! [`Normalization::LeftMost`] they are not, but either way a shot reduces
//! to one uniform draw, one `f64` compare, one shift and one `u32` hop per
//! level — no hashing, no [`DdPackage`] access, no recursion, and no branch
//! on the drawn bit.
//!
//! # The parallel seeding scheme
//!
//! [`CompiledSampler::sample_many_parallel`] partitions the output into
//! fixed chunks of [`PARALLEL_CHUNK_SHOTS`] samples.  Chunk `i` is always
//! drawn from a fresh xoshiro256++ ([`rand::rngs::SmallRng`]) stream seeded
//! with `splitmix64(master_seed XOR (i + 1) * GOLDEN_GAMMA)`, and written to
//! the `i`-th output slice.  Worker threads only decide *which* chunks they
//! draw, never what the chunks contain, so for a fixed master seed the
//! output is bit-identical whether the batch runs on 1 thread or 128.
//!
//! # Examples
//!
//! ```
//! use circuit::{Circuit, Qubit};
//! use dd::{CompiledSampler, DdPackage};
//! use rand::SeedableRng;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(Qubit(0));
//! bell.cx(Qubit(0), Qubit(1));
//!
//! let mut package = DdPackage::new();
//! let state = dd::simulate(&mut package, &bell)?;
//! assert_eq!(state.node_count(&package), 3);
//!
//! let sampler = CompiledSampler::new(&package, &state)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(11);
//! let shot = sampler.sample(&mut rng);
//! assert!(shot == 0 || shot == 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Resource governance
//!
//! Every long-running phase — node construction, gate application, sampler
//! compilation — is budgeted, deadlined and cancellable through a
//! [`Governor`] installed with [`DdPackage::set_governor`]; failures surface
//! as typed [`DdError`]s rather than panics.  See the [`govern`]
//! module docs for the amortized-check scheme and the degradation policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod apply;
mod compiled;
mod edge;
mod export;
pub mod govern;
mod matrix;
mod measure;
mod node;
mod ops;
mod package;
mod sample;
mod vector;

pub use apply::{apply_circuit, apply_circuit_until, apply_operation, simulate, ApplyError, Until};
pub use compiled::{chunk_stream_seed, CompiledSampler, PARALLEL_CHUNK_SHOTS};
pub use edge::{MatrixEdge, MatrixNodeId, VectorEdge, VectorNodeId, WeightId};
pub use export::to_dot;
pub use govern::{CancelToken, DdError, Governor};
#[cfg(feature = "fault-inject")]
pub use govern::{FaultPlan, InjectedFault};
pub use matrix::OperatorDd;
pub use measure::{amplitude_damp_keep, branch_masses, collapse_qubit};
pub use node::{MatrixNode, VectorNode};
pub use ops::{add, matrix_add, matrix_vector_multiply};
pub use package::{
    CacheCounters, DdPackage, DdStats, Normalization, ADD_CACHE_ENTRIES, MADD_CACHE_ENTRIES,
    MV_CACHE_ENTRIES,
};
pub use sample::EdgeProbabilities;
#[cfg(feature = "comparison-samplers")]
pub use sample::{DdSampler, NormalizedSampler};
pub use vector::StateDd;
