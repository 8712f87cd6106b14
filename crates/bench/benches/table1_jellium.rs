//! Table I, jellium rows: sampling time for the Trotterized electron-gas
//! circuits `jellium_2x2` and `jellium_3x3` with both samplers.

use bench::{warm_artifact, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use weaksim::experiment::BenchmarkInstance;
use weaksim::Backend;

const SHOTS: u64 = 10_000;

fn instances() -> Vec<BenchmarkInstance> {
    [2u16, 3]
        .into_iter()
        .map(|side| {
            let (circuit, _) = algorithms::jellium(side, 2);
            BenchmarkInstance {
                name: circuit.name().to_string(),
                circuit,
            }
        })
        .collect()
}

fn bench_jellium(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_jellium");
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

criterion_group!(benches, bench_jellium);
criterion_main!(benches);
