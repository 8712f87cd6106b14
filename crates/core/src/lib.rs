//! Weak simulation of quantum computation — the user-facing front end of the
//! reproduction of Hillmich, Markov and Wille, *"Just Like the Real Thing:
//! Fast Weak Simulation of Quantum Computation"* (DAC 2020).
//!
//! The crate ties the substrates together:
//!
//! * [`WeakSimulator`] — run a [`circuit::Circuit`] through either backend
//!   ([`Backend::DecisionDiagram`] or [`Backend::StateVector`]) and draw
//!   measurement samples that are statistically indistinguishable from an
//!   error-free quantum computer;
//! * [`trajectory`] — per-shot simulation of *dynamic* circuits
//!   (mid-circuit measurement, reset and classically-controlled
//!   `if (c==k)` gates/measures/resets), optionally under a stochastic
//!   [`circuit::NoiseModel`] (noisy-hardware emulation by per-shot Kraus
//!   branch insertion), with decision-prefix-tree caching on the
//!   decision-diagram backend;
//! * [`router`] — the opt-in router
//!   ([`WeakSimulator::with_clifford_router`]): fully-Clifford circuits
//!   (every operation lowers through `tableau::lower`) execute on the
//!   polynomial-time stabilizer-tableau engine (`tableau` crate) at
//!   thousands of qubits, every other circuit on the dense backend, a
//!   decision-diagram build whose diagram stopped compressing finishes on
//!   a state vector, and [`RunOutcome::route`] reports which engines
//!   executed the run;
//! * [`artifact`] — the pay-once layer: [`SimArtifact`] is a self-contained,
//!   `Arc`-shared snapshot of everything a request needs *after* strong
//!   simulation (a compiled DD sampler, dense prefix sums or a tableau
//!   measurement sampler, plus route and stats), and [`ArtifactCache`] is a
//!   bounded, fingerprint-keyed store ([`circuit::Circuit::fingerprint`])
//!   that lets the [`ServiceBroker`] serve warm requests without
//!   re-simulating — same seed, bit-identical histogram;
//! * [`govern`] — run governance: attach a [`RunGovernor`] (node/byte
//!   budgets, a per-run timeout, a shareable [`dd::CancelToken`]) with
//!   [`WeakSimulator::with_governor`].  Static runs that hit a limit fail
//!   with a typed [`RunError`]; interrupted trajectory runs degrade
//!   gracefully, returning the completed shots plus an
//!   [`Interruption`] reason;
//! * [`service`] — the multi-threaded request broker around an
//!   [`ArtifactCache`]: [`ServiceBroker`] coalesces concurrent
//!   same-fingerprint cold builds single-flight, applies admission control
//!   (bounded in-flight constructions plus a deadline-aware queue; shed
//!   requests surface [`RunError::Overloaded`]) and persists the cache as
//!   a crash-safe, corruption-tolerant binary snapshot;
//! * [`ShotHistogram`] — aggregated samples with bitstring formatting;
//! * [`stats`] — chi-square goodness-of-fit and total-variation-distance
//!   checks used to validate the "statistically indistinguishable" claim;
//! * [`experiment`] — the harness that regenerates Table I of the paper
//!   (per-benchmark representation sizes and sampling times for both
//!   backends).
//!
//! # One static pipeline, one trajectory loop
//!
//! [`WeakSimulator::run`] classifies the request once
//! ([`circuit::Circuit::is_dynamic`], plus any non-trivial noise model):
//!
//! * a noise-free circuit whose only non-unitary content is a *trailing*
//!   block of `measure` operations (or none at all) is **static**.  Every
//!   static run — uncached through [`WeakSimulator::run`], or cached
//!   through [`ServiceBroker::serve`] — goes route plan → artifact →
//!   sample: the router (when enabled) picks the engine and the circuit,
//!   that engine strong-simulates once and prepares its sampler into a
//!   [`SimArtifact`], and [`SimArtifact::sample`] draws the shots, the
//!   trailing measurements reduced to a bit-relabelling of the sampled
//!   strings.  The broker only
//!   decides whether the artifact is kept, so the histogram for a seed is
//!   the same whichever way the request came in.  Exact probabilities
//!   come from [`WeakSimulator::strong`] alone;
//! * a circuit with a measurement followed by more gates, any `reset`, any
//!   classically-conditioned gate, or a non-trivial noise model runs on the
//!   **trajectory loop**: collapse at each event, evolve the suffix
//!   (resolving `if (c==k)` guards against the shot's classical record),
//!   record classical bits.  The loop is written once against a per-engine
//!   runner — decision diagrams, dense vectors, and (for routed Clifford
//!   circuits, noiseless or under Pauli noise) the stabilizer tableau's
//!   compiled sign program — and shares one worker
//!   pool, one seeding scheme and one governor with all of them.  The
//!   decision-diagram runner caches evolved states, branch masses and
//!   compiled terminal samplers per outcome prefix, so only the first shot
//!   down a given prefix pays for decision-diagram arithmetic.
//!
//! # Trajectory seeding
//!
//! Every chunked sampler in the workspace — the static
//! [`dd::CompiledSampler`] batches, the tableau's static sampler and the
//! trajectory loop — derives per-chunk RNG streams from the same scheme: shots are split into
//! fixed chunks of [`dd::PARALLEL_CHUNK_SHOTS`], and chunk `i` seeds a
//! dedicated xoshiro256++ generator with
//! [`dd::chunk_stream_seed`]`(master_seed, i)` (one SplitMix64 step over
//! the pair).  Worker threads only choose *which* chunks they run, so
//! histograms are bit-identical for a given seed on 1 thread or 128.
//!
//! # Quick start
//!
//! ```
//! use circuit::{Circuit, Qubit};
//! use weaksim::{Backend, WeakSimulator};
//!
//! let mut bell = Circuit::new(2);
//! bell.h(Qubit(0));
//! bell.cx(Qubit(0), Qubit(1));
//!
//! let mut sim = WeakSimulator::new(Backend::DecisionDiagram);
//! let outcome = sim.run(&bell, 1000, 42)?;
//! // Only |00> and |11> can ever be observed.
//! assert!(outcome.histogram.counts().keys().all(|&k| k == 0 || k == 3));
//! # Ok::<(), weaksim::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
mod backend;
pub mod experiment;
pub mod govern;
pub mod router;
pub mod service;
mod shots;
mod simulator;
pub mod stats;
pub mod trajectory;

pub use artifact::{ArtifactCache, CacheOutcome, CacheStats, PreparedSampler, SimArtifact};
pub use dd::{CancelToken, DdError};
pub use govern::{Interruption, RunGovernor};
pub use router::{EngineKind, RouteSegment, RunRoute};
pub use service::{
    RetryPolicy, ServiceBroker, ServiceConfig, ServiceStats, SnapshotLoadReport,
    SnapshotWriteReport,
};
pub use shots::ShotHistogram;
pub use simulator::{Backend, RunError, RunOutcome, StrongState, WeakSimulator};
pub use trajectory::{
    simulate_noisy_trajectories_with_threads, simulate_trajectories_with_threads,
};
