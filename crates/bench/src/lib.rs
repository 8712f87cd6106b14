//! Shared helpers for the benchmark harness that regenerates the evaluation
//! of the paper (Table I and the illustrative figures).
//!
//! The interesting entry points are the two binaries:
//!
//! * `cargo run -p bench --release --bin table1` — measures every benchmark
//!   of Table I with both samplers and prints the table;
//! * `cargo run -p bench --release --bin figures -- fig2|fig3|fig4` —
//!   regenerates the running-example figures.
//!
//! The Criterion benches under `benches/` time the individual families so
//! regressions in either sampler show up in CI.

use std::sync::Arc;
use weaksim::experiment::BenchmarkInstance;
use weaksim::{ArtifactCache, Backend, ServiceBroker, ServiceConfig, SimArtifact, WeakSimulator};

/// Number of samples used by the Criterion benches (Table I uses one
/// million; the benches default to fewer so a full run stays affordable and
/// scale linearly).
pub const BENCH_SHOTS: u64 = 100_000;

/// The seed used everywhere in the harness for reproducibility.
pub const BENCH_SEED: u64 = 2020;

/// Builds the artifact of `instance` on `backend` once, through a broker,
/// and returns it from the broker's cache, so benches can time the warm
/// draw ([`SimArtifact::sample`]) in
/// isolation — the per-request cost of a cache hit.
///
/// # Panics
///
/// Panics if the circuit cannot be simulated, which for the benchmark
/// circuits indicates a bug rather than a recoverable condition.
#[must_use]
pub fn warm_artifact(instance: &BenchmarkInstance, backend: Backend) -> Arc<SimArtifact> {
    let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let sim = WeakSimulator::new(backend);
    broker
        .serve(&sim, &instance.circuit, 1, BENCH_SEED)
        .unwrap_or_else(|e| panic!("building the artifact of {} failed: {e}", instance.name));
    broker
        .cache()
        .get(sim.request_fingerprint(&instance.circuit))
        .unwrap_or_else(|| panic!("the artifact of {} was not retained", instance.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaksim::experiment::{table1_benchmarks, BenchmarkScale};

    #[test]
    fn warm_artifacts_can_be_sampled() {
        let instances = table1_benchmarks(BenchmarkScale::Smoke);
        let instance = &instances[0];
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let histogram = warm_artifact(instance, backend).sample(100, BENCH_SEED);
            assert_eq!(histogram.shots(), 100);
        }
    }
}
