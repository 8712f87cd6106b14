//! Raw sampler throughput: precomputation cost and per-sample cost of every
//! sampling method, measured separately (the two phases that add up to the
//! `t [s]` columns of Table I).
//!
//! Besides the Criterion groups, this bench records the headline baseline —
//! `CompiledSampler` vs `DdSampler` on the 20-qubit supremacy state — into
//! `BENCH_sampler_throughput.json` at the workspace root.  Regenerate with:
//!
//! ```text
//! cargo bench -p bench --bench sampler_throughput
//! ```
//!
//! (`CRITERION_QUICK=1` shrinks the Criterion windows for CI smoke runs; the
//! JSON baseline always uses fixed shot counts and wall-clock timing.)

use bench::BENCH_SEED;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dd::{CompiledSampler, DdPackage, DdSampler, NormalizedSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statevector::PrefixSampler;
use std::time::Instant;
use weaksim::{
    simulate_noisy_trajectories_with_threads, simulate_trajectories_with_threads, Backend,
    WeakSimulator,
};

const SHOTS: u64 = 10_000;

/// Teleportation with mid-circuit measurement: the reference dynamic-circuit
/// workload for the trajectory engine (three events, non-trivial suffix).
fn trajectory_workload() -> circuit::Circuit {
    algorithms::teleportation(1.2)
}

/// Iterative phase estimation: the classically-controlled (`if (c==k)`)
/// reference workload — measure/reset qubit reuse plus feed-forward phase
/// corrections resolved against the per-shot classical record.
fn ipe_workload() -> circuit::Circuit {
    algorithms::ipe(3, 1.0)
}

/// The noisy reference workload: teleportation under the uniform hardware
/// model at a realistic 1% error rate (depolarizing gate noise + bit-flip
/// read-out error), realized per shot by stochastic Kraus insertion.
fn noisy_workload() -> (circuit::Circuit, circuit::NoiseModel) {
    (
        algorithms::teleportation(1.2),
        algorithms::hardware_noise(0.01),
    )
}

/// The deep-noisy workload: a supremacy-style circuit where *every* gate
/// site is a stochastic noise event, so most error shots overflow the
/// trajectory prefix cache and exercise the off-cache transient path — the
/// construction-machinery-bound regime the PR 4 follow-ups flagged as
/// "measure before optimizing".
fn deep_noisy_workload() -> (circuit::Circuit, circuit::NoiseModel) {
    (
        algorithms::supremacy(3, 3, 6, BENCH_SEED).0,
        algorithms::hardware_noise(0.005),
    )
}

fn workloads() -> Vec<circuit::Circuit> {
    vec![
        algorithms::qft(20, true),
        algorithms::supremacy(4, 4, 10, BENCH_SEED).0,
        algorithms::w_state(20),
    ]
}

fn bench_precompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("precompute");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for circuit in workloads() {
        let dense = statevector::simulate(&circuit).expect("dense simulation fits");
        group.bench_with_input(
            BenchmarkId::new("prefix_sum_construction", circuit.name()),
            &dense,
            |b, state| b.iter(|| PrefixSampler::new(state)),
        );

        let mut package = DdPackage::new();
        let state = dd::simulate(&mut package, &circuit).expect("valid circuit");
        group.bench_with_input(
            BenchmarkId::new("downstream_annotation", circuit.name()),
            &(&package, &state),
            |b, (package, state)| b.iter(|| DdSampler::new(package, state)),
        );
        group.bench_with_input(
            BenchmarkId::new("arena_compilation", circuit.name()),
            &(&package, &state),
            |b, (package, state)| b.iter(|| CompiledSampler::new(package, state)),
        );
    }
    group.finish();
}

fn bench_per_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_sample");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(SHOTS));

    for circuit in workloads() {
        let dense = statevector::simulate(&circuit).expect("dense simulation fits");
        let prefix = PrefixSampler::new(&dense);
        group.bench_with_input(
            BenchmarkId::new("binary_search", circuit.name()),
            &prefix,
            |b, sampler| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
                    (0..SHOTS).map(|_| sampler.sample(&mut rng)).sum::<u64>()
                });
            },
        );

        let mut package = DdPackage::new();
        let state = dd::simulate(&mut package, &circuit).expect("valid circuit");
        let sampler = DdSampler::new(&package, &state);
        group.bench_with_input(
            BenchmarkId::new("dd_path_traversal", circuit.name()),
            &(&package, &sampler),
            |b, (package, sampler)| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
                    (0..SHOTS)
                        .map(|_| sampler.sample(package, &mut rng))
                        .sum::<u64>()
                });
            },
        );

        let compiled = CompiledSampler::new(&package, &state).expect("compiles");
        group.bench_with_input(
            BenchmarkId::new("compiled_arena_walk", circuit.name()),
            &compiled,
            |b, sampler| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
                    (0..SHOTS).map(|_| sampler.sample(&mut rng)).sum::<u64>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_parallel_batch", circuit.name()),
            &compiled,
            |b, sampler| {
                b.iter(|| {
                    sampler
                        .sample_many_parallel(BENCH_SEED, SHOTS as usize)
                        .iter()
                        .sum::<u64>()
                });
            },
        );
    }
    group.finish();
}

/// Per-trajectory throughput of the dynamic-circuit engine on the
/// teleportation workload, so regressions in the new path show up next to
/// the static sampler numbers.
fn bench_trajectories(c: &mut Criterion) {
    let mut group = c.benchmark_group("trajectory");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(SHOTS));

    for (name, circuit) in [
        ("teleportation_shots", trajectory_workload()),
        ("ipe_shots", ipe_workload()),
    ] {
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{backend}")),
                &circuit,
                |b, circuit| {
                    b.iter(|| {
                        simulate_trajectories_with_threads(backend, circuit, SHOTS, BENCH_SEED, 1)
                            .expect("trajectory simulation succeeds")
                            .histogram
                            .shots()
                    });
                },
            );
        }
    }

    // The stochastic-noise path: every shot draws a Kraus branch per noise
    // site on top of the measurement draws.
    let (noisy_circuit, noise) = noisy_workload();
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        group.bench_with_input(
            BenchmarkId::new("noisy_teleportation_shots", format!("{backend}")),
            &(&noisy_circuit, &noise),
            |b, (circuit, noise)| {
                b.iter(|| {
                    simulate_noisy_trajectories_with_threads(
                        backend, circuit, noise, SHOTS, BENCH_SEED, 1,
                    )
                    .expect("noisy trajectory simulation succeeds")
                    .histogram
                    .shots()
                });
            },
        );
    }

    // The deep-noisy off-cache path (decision-diagram backend only: the
    // interesting cost is the DD construction machinery behind transient
    // trajectory suffixes).  Fewer shots — each one is a full supremacy
    // evolution when it falls off the prefix cache.
    let (deep_circuit, deep_noise) = deep_noisy_workload();
    group.bench_with_input(
        BenchmarkId::new("noisy_deep_supremacy_shots", "DD-based"),
        &(&deep_circuit, &deep_noise),
        |b, (circuit, noise)| {
            b.iter(|| {
                simulate_noisy_trajectories_with_threads(
                    Backend::DecisionDiagram,
                    circuit,
                    noise,
                    SHOTS / 5,
                    BENCH_SEED,
                    1,
                )
                .expect("deep noisy trajectory simulation succeeds")
                .histogram
                .shots()
            });
        },
    );
    group.finish();
}

/// Wall-clock throughput of each sampler on the 20-qubit supremacy state,
/// recorded to `BENCH_sampler_throughput.json` (the acceptance baseline:
/// compiled single-thread >= 3x `DdSampler`), together with the
/// construction phase (strong simulation into the DD package) and the
/// package's table statistics (`"construction"` / `"dd_stats"` keys — CI
/// greps for both, so construction performance cannot silently drop out of
/// the artifact), plus the Clifford-router entries (`"tableau_ghz"` /
/// `"routed_supremacy"` / `"tableau_noisy_cycle"`, also grepped by CI) and
/// the `"artifact_cache"` entry (cold-vs-warm cost of the same request
/// through an [`weaksim::ArtifactCache`], also grepped by CI).
fn record_baseline_json(_c: &mut Criterion) {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let shots: usize = if quick { 20_000 } else { 200_000 };

    let (circuit, _) = algorithms::supremacy(4, 5, 10, BENCH_SEED);
    let mut package = DdPackage::new();
    let construction_start = Instant::now();
    let state = dd::simulate(&mut package, &circuit).expect("valid circuit");
    let construction_seconds = construction_start.elapsed().as_secs_f64();
    let construction_stats = package.stats();
    let nodes = state.node_count(&package);

    let compile_start = Instant::now();
    let compiled = CompiledSampler::new(&package, &state).expect("compiles");
    let compile_seconds = compile_start.elapsed().as_secs_f64();

    let dd_sampler = DdSampler::new(&package, &state);
    let normalized = NormalizedSampler::new(&package, &state);
    // The dense baseline on the same state: prefix sums over its 2^20
    // amplitudes, searched once per shot.
    let prefix = PrefixSampler::new(&statevector::StateVector::from_amplitudes(
        state.to_amplitudes(&package),
    ));
    let threads = rayon::current_num_threads();

    let time = |f: &mut dyn FnMut() -> u64| -> f64 {
        let checksum = f(); // warm caches once
        std::hint::black_box(checksum);
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    };

    let dd_seconds = time(&mut || {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED);
        dd_sampler
            .sample_many(&package, &mut rng, shots)
            .iter()
            .sum()
    });
    let normalized_seconds = time(&mut || {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED);
        normalized
            .sample_many(&package, &mut rng, shots)
            .iter()
            .sum()
    });
    let compiled_seconds = time(&mut || {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED);
        compiled.sample_many(&mut rng, shots).iter().sum()
    });
    let parallel_seconds = time(&mut || {
        compiled
            .sample_many_parallel(BENCH_SEED, shots)
            .iter()
            .sum()
    });
    let prefix_seconds = time(&mut || {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED);
        prefix.sample_many(&mut rng, shots).iter().sum()
    });

    // The dynamic-circuit trajectory engine on the teleportation and the
    // iterative-phase-estimation (classically-controlled) workloads: one
    // single-worker run each for a machine-independent per-shot number, plus
    // a run on every available worker so multi-thread scaling is *recorded*
    // with the thread count that actually ran — not assumed from the bench
    // configuration (on a 1-CPU box the parallel entry simply repeats the
    // single-thread number with "threads": 1).
    let trajectory_entry = |circuit: &circuit::Circuit,
                            noise: Option<&circuit::NoiseModel>,
                            suffix: &str,
                            trajectory_shots: u64,
                            workers: usize|
     -> String {
        let seconds = time(&mut || {
            match noise {
                None => simulate_trajectories_with_threads(
                    Backend::DecisionDiagram,
                    circuit,
                    trajectory_shots,
                    BENCH_SEED,
                    workers,
                ),
                Some(noise) => simulate_noisy_trajectories_with_threads(
                    Backend::DecisionDiagram,
                    circuit,
                    noise,
                    trajectory_shots,
                    BENCH_SEED,
                    workers,
                ),
            }
            .expect("trajectory simulation succeeds")
            .histogram
            .shots()
        });
        let name = format!("{}{suffix}", circuit.name());
        format!(
            "{{\n    \"benchmark\": \"{name}\",\n    \"backend\": \"dd\",\n    \"shots\": {trajectory_shots},\n    \"threads\": {workers},\n    \"seconds\": {seconds:.6},\n    \"shots_per_second\": {rate:.0}\n  }}",
            rate = trajectory_shots as f64 / seconds,
        )
    };
    let trajectory_shots = shots as u64;
    let trajectory_circuit = trajectory_workload();
    let ipe_circuit = ipe_workload();
    let (noisy_circuit, noise_model) = noisy_workload();
    let (deep_circuit, deep_noise) = deep_noisy_workload();
    let trajectory_json = trajectory_entry(&trajectory_circuit, None, "", trajectory_shots, 1);
    let trajectory_parallel_json =
        trajectory_entry(&trajectory_circuit, None, "", trajectory_shots, threads);
    let ipe_json = trajectory_entry(&ipe_circuit, None, "", trajectory_shots, 1);
    let noisy_json = trajectory_entry(
        &noisy_circuit,
        Some(&noise_model),
        "_noisy",
        trajectory_shots,
        1,
    );
    // Deep noisy supremacy: each off-cache shot is a full circuit evolution,
    // so the entry runs a tenth of the shots (still thousands of transient
    // trajectories).
    let deep_json = trajectory_entry(
        &deep_circuit,
        Some(&deep_noise),
        "_noisy_deep",
        trajectory_shots / 10,
        1,
    );

    // Clifford-router entries.  `tableau_ghz` runs a thousand-qubit GHZ
    // entirely on the stabilizer-tableau engine — a register no dense
    // backend can even allocate — and `routed_supremacy` runs a dense
    // workload *through* the router, so the cost of the routing decision
    // (classify, attempt to stitch, fall back) stays visible next to the
    // unrouted numbers.  Both are static runs, which draw on the calling
    // thread, so each records one thread.
    let router_entry = |circuit: &circuit::Circuit, router_shots: u64| -> String {
        let mut sim = WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();
        let mut route = String::new();
        let seconds = time(&mut || {
            let outcome = sim
                .run(circuit, router_shots, BENCH_SEED)
                .expect("routed run succeeds");
            route = outcome.route.to_string();
            outcome.histogram.shots()
        });
        format!(
            "{{\n    \"benchmark\": \"{name}\",\n    \"route\": \"{route}\",\n    \"shots\": {router_shots},\n    \"threads\": 1,\n    \"seconds\": {seconds:.6},\n    \"shots_per_second\": {rate:.0}\n  }}",
            name = circuit.name(),
            rate = router_shots as f64 / seconds,
        )
    };
    let ghz_circuit = algorithms::ghz(1000);
    let tableau_json = router_entry(&ghz_circuit, trajectory_shots);
    let routed_json = router_entry(&deep_circuit, trajectory_shots);

    // `tableau_noisy_cycle`: the repetition-code cycle under Pauli hardware
    // noise, routed to the tableau's compiled sign program vs the unrouted
    // decision-diagram trajectory engine, both on one worker.  The DD run
    // pays per-shot noise evolution, so the entry runs a tenth of the shots.
    // Scoped so its timings do not shadow the sampler timings above.
    let noisy_cycle_json = {
        let cycle = algorithms::stabilizer_cycle(9, 3);
        let cycle_noise = algorithms::hardware_noise(0.01);
        let cycle_shots = trajectory_shots / 10;
        let cycle_workers = 1;
        let cycle_run = |router: bool| -> (String, f64) {
            let sim = WeakSimulator::new(Backend::DecisionDiagram)
                .with_noise(cycle_noise.clone())
                .with_threads(cycle_workers);
            let mut sim = if router {
                sim.with_clifford_router()
            } else {
                sim
            };
            let mut route = String::new();
            let seconds = time(&mut || {
                let outcome = sim
                    .run(&cycle, cycle_shots, BENCH_SEED)
                    .expect("noisy cycle runs");
                route = outcome.route.to_string();
                outcome.histogram.shots()
            });
            (route, seconds)
        };
        let (tableau_route, tableau_seconds) = cycle_run(true);
        let (dd_route, dd_seconds) = cycle_run(false);
        format!(
            "{{\n    \"benchmark\": \"{name}_p0.01\",\n    \"shots\": {cycle_shots},\n    \"threads\": {cycle_workers},\n    \"tableau\": {{ \"route\": \"{tableau_route}\", \"seconds\": {tableau_seconds:.6}, \"shots_per_second\": {tableau_rate:.0} }},\n    \"dd\": {{ \"route\": \"{dd_route}\", \"seconds\": {dd_seconds:.6}, \"shots_per_second\": {dd_rate:.0} }},\n    \"speedup_tableau_vs_dd\": {speedup:.2}\n  }}",
            name = cycle.name(),
            tableau_rate = cycle_shots as f64 / tableau_seconds,
            dd_rate = cycle_shots as f64 / dd_seconds,
            speedup = dd_seconds / tableau_seconds,
        )
    };

    // Artifact-cache entry: the same supremacy request served through one
    // `ServiceBroker` — four concurrent cold tenants (one builds, the rest
    // coalesce single-flight onto the in-flight construction), then a warm
    // hit (sampling only), demonstrating the pay-once contract on the
    // headline workload.  All draws use the same seed, so the histograms
    // are bit-identical — asserted here, not just claimed.  The entry also
    // times the crash-safe snapshot round trip of the populated cache.
    let artifact_cache_json = {
        use weaksim::service::{ServiceBroker, ServiceConfig};
        let broker = ServiceBroker::new(
            weaksim::ArtifactCache::unbounded(),
            ServiceConfig::default(),
        );
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        let request_shots = shots as u64;
        let cold_start = Instant::now();
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let broker = &broker;
                    let sim = &sim;
                    let circuit = &circuit;
                    scope.spawn(move || {
                        broker
                            .serve(sim, circuit, request_shots, BENCH_SEED)
                            .expect("cold serve succeeds")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("serve thread"))
                .collect()
        });
        let cold_seconds = cold_start.elapsed().as_secs_f64();
        let misses = outcomes
            .iter()
            .filter(|o| o.cache == Some(weaksim::CacheOutcome::Miss))
            .count();
        assert_eq!(misses, 1, "single-flight admits exactly one construction");
        for outcome in &outcomes[1..] {
            assert_eq!(
                outcome.histogram, outcomes[0].histogram,
                "coalesced requests must be bit-identical to the builder's"
            );
        }
        let warm_start = Instant::now();
        let warm = broker
            .serve(&sim, &circuit, request_shots, BENCH_SEED)
            .expect("warm serve succeeds");
        let warm_seconds = warm_start.elapsed().as_secs_f64();
        assert_eq!(warm.cache, Some(weaksim::CacheOutcome::Hit));
        assert_eq!(
            warm.histogram, outcomes[0].histogram,
            "warm request must be bit-identical to the cold one"
        );

        let snap = std::env::temp_dir().join(format!("weaksim-bench-{}.snap", std::process::id()));
        let write_start = Instant::now();
        broker
            .write_snapshot(&snap)
            .expect("snapshot write succeeds");
        let snapshot_write_seconds = write_start.elapsed().as_secs_f64();
        let restored = ServiceBroker::new(
            weaksim::ArtifactCache::unbounded(),
            ServiceConfig::default(),
        );
        let load_start = Instant::now();
        let report = restored
            .load_snapshot(&snap)
            .expect("snapshot load succeeds");
        let snapshot_load_seconds = load_start.elapsed().as_secs_f64();
        assert_eq!(report.loaded, 1, "the snapshot round-trips the artifact");
        std::fs::remove_file(&snap).ok();

        let stats = broker.cache().stats();
        format!(
            "{{\n    \"benchmark\": \"{name}\",\n    \"shots\": {request_shots},\n    \"cold_seconds\": {cold_seconds:.6},\n    \"warm_seconds\": {warm_seconds:.6},\n    \"warm_speedup\": {speedup:.2},\n    \"hits\": {hits},\n    \"misses\": {misses},\n    \"coalesced_builds\": {coalesced},\n    \"snapshot_write_seconds\": {snapshot_write_seconds:.6},\n    \"snapshot_load_seconds\": {snapshot_load_seconds:.6},\n    \"cached_bytes\": {bytes}\n  }}",
            name = circuit.name(),
            speedup = cold_seconds / warm_seconds,
            hits = stats.hits,
            misses = stats.misses,
            coalesced = broker.stats().coalesced,
            bytes = stats.bytes,
        )
    };

    let cache_json = |c: dd::CacheCounters| -> String {
        format!(
            "{{ \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
            c.hits, c.misses, c.evictions
        )
    };
    // `dd::simulate` is sequential; the entry keeps `threads` (always 1) so
    // every artifact in the history has the same keys.
    let construction_json = format!(
        "{{\n    \"seconds\": {construction_seconds:.6},\n    \"threads\": 1,\n    \"nodes\": {nodes},\n    \"vector_unique_hit_rate\": {vu:.4},\n    \"compute_hit_rate\": {ch:.4}\n  }}",
        vu = construction_stats.vector_unique_hit_rate(),
        ch = construction_stats.compute_hit_rate(),
    );
    let dd_stats_json = format!(
        "{{\n    \"vector_unique_hits\": {vuh},\n    \"vector_unique_misses\": {vum},\n    \"matrix_unique_hits\": {muh},\n    \"matrix_unique_misses\": {mum},\n    \"add_cache\": {add},\n    \"mv_cache\": {mv},\n    \"madd_cache\": {madd},\n    \"mm_cache\": {mm},\n    \"operator_cache\": {op},\n    \"garbage_collections\": {gcs}\n  }}",
        vuh = construction_stats.vector_unique_hits,
        vum = construction_stats.vector_unique_misses,
        muh = construction_stats.matrix_unique_hits,
        mum = construction_stats.matrix_unique_misses,
        add = cache_json(construction_stats.add_cache),
        mv = cache_json(construction_stats.mv_cache),
        madd = cache_json(construction_stats.madd_cache),
        mm = cache_json(construction_stats.mm_cache),
        op = cache_json(construction_stats.operator_cache),
        gcs = construction_stats.garbage_collections,
    );

    let rate = |seconds: f64| shots as f64 / seconds;
    let json = format!(
        "{{\n  \"benchmark\": \"{name}\",\n  \"qubits\": {qubits},\n  \"dd_nodes\": {nodes},\n  \"shots\": {shots},\n  \"threads\": {threads},\n  \"construction\": {construction_json},\n  \"dd_stats\": {dd_stats_json},\n  \"compile_seconds\": {compile_seconds:.6},\n  \"samplers\": {{\n    \"dd_sampler\": {{ \"seconds\": {dd:.6}, \"shots_per_second\": {dd_rate:.0} }},\n    \"normalized_sampler\": {{ \"seconds\": {nm:.6}, \"shots_per_second\": {nm_rate:.0} }},\n    \"compiled_sampler\": {{ \"seconds\": {cp:.6}, \"shots_per_second\": {cp_rate:.0} }},\n    \"compiled_parallel\": {{ \"seconds\": {pl:.6}, \"shots_per_second\": {pl_rate:.0}, \"threads\": {threads} }},\n    \"prefix_sampler\": {{ \"seconds\": {px:.6}, \"shots_per_second\": {px_rate:.0} }}\n  }},\n  \"trajectory\": {trajectory_json},\n  \"trajectory_parallel\": {trajectory_parallel_json},\n  \"trajectory_ipe\": {ipe_json},\n  \"trajectory_noisy\": {noisy_json},\n  \"trajectory_noisy_deep\": {deep_json},\n  \"tableau_ghz\": {tableau_json},\n  \"routed_supremacy\": {routed_json},\n  \"tableau_noisy_cycle\": {noisy_cycle_json},\n  \"artifact_cache\": {artifact_cache_json},\n  \"speedup_compiled_vs_dd_sampler\": {speedup:.2},\n  \"speedup_parallel_vs_dd_sampler\": {pspeedup:.2}\n}}\n",
        name = circuit.name(),
        qubits = circuit.num_qubits(),
        dd = dd_seconds,
        dd_rate = rate(dd_seconds),
        nm = normalized_seconds,
        nm_rate = rate(normalized_seconds),
        cp = compiled_seconds,
        cp_rate = rate(compiled_seconds),
        pl = parallel_seconds,
        pl_rate = rate(parallel_seconds),
        px = prefix_seconds,
        px_rate = rate(prefix_seconds),
        speedup = dd_seconds / compiled_seconds,
        pspeedup = dd_seconds / parallel_seconds,
    );

    // workspace root = crates/bench/../..
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../BENCH_sampler_throughput.json");
    std::fs::write(&path, &json).expect("baseline JSON is writable");
    eprintln!("\nbaseline written to {}:\n{json}", path.display());
}

criterion_group!(
    benches,
    bench_precompute,
    bench_per_sample,
    bench_trajectories,
    record_baseline_json
);
criterion_main!(benches);
