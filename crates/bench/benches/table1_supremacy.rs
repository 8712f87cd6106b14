//! Table I, supremacy rows: sampling time for random grid circuits
//! (`supremacy_4x4_10` with both samplers; the larger grids are run by the
//! `table1` binary, where a single measurement suffices).

use bench::{warm_artifact, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use weaksim::experiment::BenchmarkInstance;
use weaksim::Backend;

const SHOTS: u64 = 10_000;

fn instances() -> Vec<BenchmarkInstance> {
    [(3u16, 3u16, 8u16), (4, 4, 10)]
        .into_iter()
        .map(|(rows, cols, depth)| {
            let (circuit, _) = algorithms::supremacy(rows, cols, depth, BENCH_SEED);
            BenchmarkInstance {
                name: circuit.name().to_string(),
                circuit,
            }
        })
        .collect()
}

fn bench_supremacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_supremacy");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for instance in instances() {
        let dd_artifact = warm_artifact(&instance, Backend::DecisionDiagram);
        group.bench_with_input(
            BenchmarkId::new("dd_sample_10k", &instance.name),
            &dd_artifact,
            |b, artifact| b.iter(|| artifact.sample(SHOTS, BENCH_SEED)),
        );
        let sv_artifact = warm_artifact(&instance, Backend::StateVector);
        group.bench_with_input(
            BenchmarkId::new("vector_sample_10k", &instance.name),
            &sv_artifact,
            |b, artifact| b.iter(|| artifact.sample(SHOTS, BENCH_SEED)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_supremacy);
criterion_main!(benches);
