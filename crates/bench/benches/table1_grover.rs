//! Table I, Grover rows: sampling time for Grover circuits of increasing
//! size with both samplers (scaled-down search registers so the bench stays
//! affordable; the shape — DD size ~ 2 nodes per qubit, vector size 2^n —
//! matches the paper's grover_20..grover_35 rows).

use bench::{warm_artifact, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use weaksim::experiment::BenchmarkInstance;
use weaksim::Backend;

const SHOTS: u64 = 10_000;

fn instances() -> Vec<BenchmarkInstance> {
    [10u16, 13, 16]
        .into_iter()
        .map(|n| BenchmarkInstance {
            name: format!("grover_{n}"),
            circuit: algorithms::grover(n, BENCH_SEED),
        })
        .collect()
}

fn bench_grover(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_grover");
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

criterion_group!(benches, bench_grover);
criterion_main!(benches);
