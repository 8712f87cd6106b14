//! Complexity-claim benches (experiment E6 of `DESIGN.md`): both samplers
//! draw an `n`-qubit sample in `O(n)` time after their respective
//! precomputations, and the precomputations are linear in the size of the
//! sampled representation.

use bench::{warm_artifact, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dd::{DdPackage, DdSampler};
use weaksim::experiment::BenchmarkInstance;
use weaksim::Backend;

const SHOTS: u64 = 10_000;

/// Per-sample cost as a function of the qubit count, on product states where
/// the DD has exactly `n` nodes (so the traversal length is the only thing
/// that grows).
fn bench_sample_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_sample_vs_qubits");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for n in [8u16, 16, 24, 32, 40, 48] {
        let instance = BenchmarkInstance {
            name: format!("qft_{n}"),
            circuit: algorithms::qft(n, true),
        };
        let dd_artifact = warm_artifact(&instance, Backend::DecisionDiagram);
        group.bench_with_input(BenchmarkId::new("dd", n), &dd_artifact, |b, artifact| {
            b.iter(|| artifact.sample(SHOTS, BENCH_SEED));
        });
        if n <= 20 {
            let sv_artifact = warm_artifact(&instance, Backend::StateVector);
            group.bench_with_input(
                BenchmarkId::new("vector", n),
                &sv_artifact,
                |b, artifact| {
                    b.iter(|| artifact.sample(SHOTS, BENCH_SEED));
                },
            );
        }
    }
    group.finish();
}

/// Precomputation cost (downstream probabilities) as a function of the
/// decision-diagram size, using GHZ-like states whose DD grows linearly.
fn bench_precompute_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_precompute_vs_dd_size");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for n in [8u16, 16, 32, 48] {
        let circuit = algorithms::ghz(n);
        let mut package = DdPackage::new();
        let state = dd::simulate(&mut package, &circuit).expect("valid circuit");
        group.bench_with_input(
            BenchmarkId::new("downstream_annotation", state.node_count(&package)),
            &(&package, &state),
            |b, (package, state)| b.iter(|| DdSampler::new(package, state)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sample_scaling, bench_precompute_scaling);
criterion_main!(benches);
