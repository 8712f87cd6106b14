//! Table I, QFT rows: sampling time for `qft_16`, `qft_32`, `qft_48` with
//! the DD-based sampler, and for the sizes where the dense vector still
//! fits, the vector-based sampler.

use bench::{warm_artifact, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use weaksim::experiment::BenchmarkInstance;
use weaksim::Backend;

const SHOTS: u64 = 10_000;

fn instances() -> Vec<BenchmarkInstance> {
    [16u16, 32, 48]
        .into_iter()
        .map(|n| BenchmarkInstance {
            name: format!("qft_{n}"),
            circuit: algorithms::qft(n, true),
        })
        .collect()
}

fn bench_qft(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_qft");
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
        // The dense vector is only affordable for the 16-qubit instance
        // (qft_32 and qft_48 are the paper's MO rows).
        if instance.circuit.num_qubits() <= 20 {
            let sv_artifact = warm_artifact(&instance, Backend::StateVector);
            group.bench_with_input(
                BenchmarkId::new("vector_sample_10k", &instance.name),
                &sv_artifact,
                |b, artifact| b.iter(|| artifact.sample(SHOTS, BENCH_SEED)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_qft);
criterion_main!(benches);
