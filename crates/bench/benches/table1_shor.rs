//! Table I, Shor rows: sampling time for order-finding circuits with both
//! samplers (`shor_15_2`, `shor_21_2`, `shor_33_2`; the larger moduli of the
//! paper are exercised by the `table1` binary at `--scale full`).

use bench::{warm_artifact, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use weaksim::experiment::BenchmarkInstance;
use weaksim::Backend;

const SHOTS: u64 = 10_000;

fn instances() -> Vec<BenchmarkInstance> {
    [(15u64, 2u64), (21, 2), (33, 2)]
        .into_iter()
        .map(|(modulus, base)| {
            let (circuit, _) = algorithms::shor(modulus, base);
            BenchmarkInstance {
                name: circuit.name().to_string(),
                circuit,
            }
        })
        .collect()
}

fn bench_shor(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_shor");
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

criterion_group!(benches, bench_shor);
criterion_main!(benches);
