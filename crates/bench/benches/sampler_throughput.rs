//! The benchmark of record for the sampling kernels: one wall-clock run that
//! writes every measurement to `BENCH_sampler_throughput.json` at the
//! workspace root.
//!
//! The headline state is the 20-qubit supremacy circuit: its construction,
//! the precomputation of each sampler (downstream annotation, prefix sums,
//! arena compilation) and the per-shot draw of each, the two phases that
//! add up to the `t [s]` columns of Table I.  Beside it the run records the
//! 2-norm normalization ablation (Section IV-C), the per-shot draw against
//! the qubit count, the trajectory engine on both backends, the Clifford
//! router and the artifact cache.  Regenerate with:
//!
//! ```text
//! cargo bench -p bench --bench sampler_throughput
//! ```
//!
//! `CRITERION_QUICK=1` cuts the shot count from 200,000 to 20,000 for CI
//! smoke runs.

use bench::BENCH_SEED;
use dd::{CompiledSampler, DdPackage, DdSampler, Normalization, NormalizedSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statevector::PrefixSampler;
use std::time::Instant;
use weaksim::{
    simulate_noisy_trajectories_with_threads, simulate_trajectories_with_threads, Backend,
    WeakSimulator,
};

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

/// Runs `f` once and returns its value with the wall-clock seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
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
fn main() {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let shots: usize = if quick { 20_000 } else { 200_000 };

    let (circuit, _) = algorithms::supremacy(4, 5, 10, BENCH_SEED);
    let mut package = DdPackage::new();
    let (state, construction_seconds) =
        timed(|| dd::simulate(&mut package, &circuit).expect("valid circuit"));
    let construction_stats = package.stats();
    let nodes = state.node_count(&package);

    // The precomputation of each sampler: arena compilation, the downstream
    // annotation of the interpreted sampler, and the dense baseline's prefix
    // sums over the same state's 2^20 amplitudes (searched once per shot).
    let (compiled, compile_seconds) =
        timed(|| CompiledSampler::new(&package, &state).expect("compiles"));
    let (dd_sampler, downstream_seconds) = timed(|| DdSampler::new(&package, &state));
    let normalized = NormalizedSampler::new(&package, &state);
    let dense = statevector::StateVector::from_amplitudes(state.to_amplitudes(&package));
    let (prefix, prefix_sum_seconds) = timed(|| PrefixSampler::new(&dense));
    drop(dense);
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
    // single-thread number with "threads": 1).  The `_sv` entries run the
    // same loop on the dense backend.
    let trajectory_entry = |backend: Backend,
                            circuit: &circuit::Circuit,
                            noise: Option<&circuit::NoiseModel>,
                            suffix: &str,
                            trajectory_shots: u64,
                            workers: usize|
     -> String {
        let seconds = time(&mut || {
            match noise {
                None => simulate_trajectories_with_threads(
                    backend,
                    circuit,
                    trajectory_shots,
                    BENCH_SEED,
                    workers,
                ),
                Some(noise) => simulate_noisy_trajectories_with_threads(
                    backend,
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
        let backend = match backend {
            Backend::DecisionDiagram => "dd",
            Backend::StateVector => "sv",
        };
        format!(
            "{{\n    \"benchmark\": \"{name}\",\n    \"backend\": \"{backend}\",\n    \"shots\": {trajectory_shots},\n    \"threads\": {workers},\n    \"seconds\": {seconds:.6},\n    \"shots_per_second\": {rate:.0}\n  }}",
            rate = trajectory_shots as f64 / seconds,
        )
    };
    let trajectory_shots = shots as u64;
    let trajectory_circuit = trajectory_workload();
    let ipe_circuit = ipe_workload();
    let (noisy_circuit, noise_model) = noisy_workload();
    let (deep_circuit, deep_noise) = deep_noisy_workload();
    let both = [Backend::DecisionDiagram, Backend::StateVector];
    let [trajectory_json, trajectory_sv_json] = both.map(|backend| {
        trajectory_entry(backend, &trajectory_circuit, None, "", trajectory_shots, 1)
    });
    let trajectory_parallel_json = trajectory_entry(
        Backend::DecisionDiagram,
        &trajectory_circuit,
        None,
        "",
        trajectory_shots,
        threads,
    );
    let [ipe_json, ipe_sv_json] =
        both.map(|backend| trajectory_entry(backend, &ipe_circuit, None, "", trajectory_shots, 1));
    let [noisy_json, noisy_sv_json] = both.map(|backend| {
        trajectory_entry(
            backend,
            &noisy_circuit,
            Some(&noise_model),
            "_noisy",
            trajectory_shots,
            1,
        )
    });
    // Deep noisy supremacy: each off-cache shot is a full circuit evolution,
    // so the entry runs a tenth of the shots (still thousands of transient
    // trajectories).
    let deep_json = trajectory_entry(
        Backend::DecisionDiagram,
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
    // (classify, fall back to the dense backend) stays visible next to the
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

    // The normalization ablation (Section IV-C): the general downstream
    // sampler on a left-most- and on a 2-norm-normalized diagram, and the
    // `NormalizedSampler` that reads branch probabilities straight off the
    // 2-norm edge weights, each drawing a tenth of the shots.
    let ablation_shots = shots / 10;
    let ablation_rows: Vec<String> = [
        algorithms::qft(24, true),
        algorithms::grover(12, BENCH_SEED),
        algorithms::shor(33, 2).0,
        algorithms::supremacy(3, 3, 8, BENCH_SEED).0,
    ]
    .iter()
    .map(|circuit| {
        let mut leftmost = DdPackage::with_normalization(Normalization::LeftMost);
        let left_state = dd::simulate(&mut leftmost, circuit).expect("valid circuit");
        let left_sampler = DdSampler::new(&leftmost, &left_state);
        let mut two_norm = DdPackage::with_normalization(Normalization::TwoNorm);
        let norm_state = dd::simulate(&mut two_norm, circuit).expect("valid circuit");
        let norm_sampler = DdSampler::new(&two_norm, &norm_state);
        let local_sampler = NormalizedSampler::new(&two_norm, &norm_state);
        let left_seconds = time(&mut || {
            let mut rng = StdRng::seed_from_u64(BENCH_SEED);
            left_sampler
                .sample_many(&leftmost, &mut rng, ablation_shots)
                .iter()
                .sum()
        });
        let norm_seconds = time(&mut || {
            let mut rng = StdRng::seed_from_u64(BENCH_SEED);
            norm_sampler
                .sample_many(&two_norm, &mut rng, ablation_shots)
                .iter()
                .sum()
        });
        let local_seconds = time(&mut || {
            let mut rng = StdRng::seed_from_u64(BENCH_SEED);
            local_sampler
                .sample_many(&two_norm, &mut rng, ablation_shots)
                .iter()
                .sum()
        });
        format!(
            "      {{ \"benchmark\": \"{name}\", \"leftmost_dd_sampler_seconds\": {left_seconds:.6}, \"two_norm_dd_sampler_seconds\": {norm_seconds:.6}, \"normalized_sampler_seconds\": {local_seconds:.6} }}",
            name = circuit.name(),
        )
    })
    .collect();
    let ablation_json = format!(
        "{{\n    \"shots\": {ablation_shots},\n    \"circuits\": [\n{}\n    ]\n  }}",
        ablation_rows.join(",\n"),
    );

    // The O(n) per-shot draw: the compiled arena walk against the qubit
    // count on QFT states, whose diagram has one node per qubit, next to the
    // dense prefix-sum search while the vector still fits (20 qubits).
    let scaling_rows: Vec<String> = [8u16, 16, 24, 32, 40, 48]
        .into_iter()
        .map(|n| {
            let circuit = algorithms::qft(n, true);
            let mut package = DdPackage::new();
            let state = dd::simulate(&mut package, &circuit).expect("valid circuit");
            let compiled = CompiledSampler::new(&package, &state).expect("compiles");
            let ns_per_shot = |seconds: f64| seconds * 1e9 / shots as f64;
            let dd_ns = ns_per_shot(time(&mut || {
                let mut rng = StdRng::seed_from_u64(BENCH_SEED);
                compiled.sample_many(&mut rng, shots).iter().sum()
            }));
            let vector_ns = if n <= 20 {
                let dense = statevector::simulate(&circuit).expect("dense simulation fits");
                let prefix = PrefixSampler::new(&dense);
                let seconds = time(&mut || {
                    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
                    prefix.sample_many(&mut rng, shots).iter().sum()
                });
                format!("{:.1}", ns_per_shot(seconds))
            } else {
                "null".to_owned()
            };
            format!(
                "    {{ \"qubits\": {n}, \"nodes\": {nodes}, \"dd_ns_per_shot\": {dd_ns:.1}, \"vector_ns_per_shot\": {vector_ns} }}",
                nodes = state.node_count(&package),
            )
        })
        .collect();
    let scaling_json = format!("[\n{}\n  ]", scaling_rows.join(",\n"));

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
        "{{\n    \"vector_unique_hits\": {vuh},\n    \"vector_unique_misses\": {vum},\n    \"matrix_unique_hits\": {muh},\n    \"matrix_unique_misses\": {mum},\n    \"add_cache\": {add},\n    \"mv_cache\": {mv},\n    \"madd_cache\": {madd},\n    \"operator_cache\": {op},\n    \"garbage_collections\": {gcs}\n  }}",
        vuh = construction_stats.vector_unique_hits,
        vum = construction_stats.vector_unique_misses,
        muh = construction_stats.matrix_unique_hits,
        mum = construction_stats.matrix_unique_misses,
        add = cache_json(construction_stats.add_cache),
        mv = cache_json(construction_stats.mv_cache),
        madd = cache_json(construction_stats.madd_cache),
        op = cache_json(construction_stats.operator_cache),
        gcs = construction_stats.garbage_collections,
    );

    let rate = |seconds: f64| shots as f64 / seconds;
    let json = format!(
        "{{\n  \"benchmark\": \"{name}\",\n  \"qubits\": {qubits},\n  \"dd_nodes\": {nodes},\n  \"shots\": {shots},\n  \"threads\": {threads},\n  \"construction\": {construction_json},\n  \"dd_stats\": {dd_stats_json},\n  \"compile_seconds\": {compile_seconds:.6},\n  \"downstream_seconds\": {downstream_seconds:.6},\n  \"prefix_sum_seconds\": {prefix_sum_seconds:.6},\n  \"samplers\": {{\n    \"dd_sampler\": {{ \"seconds\": {dd:.6}, \"shots_per_second\": {dd_rate:.0} }},\n    \"normalized_sampler\": {{ \"seconds\": {nm:.6}, \"shots_per_second\": {nm_rate:.0} }},\n    \"compiled_sampler\": {{ \"seconds\": {cp:.6}, \"shots_per_second\": {cp_rate:.0} }},\n    \"compiled_parallel\": {{ \"seconds\": {pl:.6}, \"shots_per_second\": {pl_rate:.0}, \"threads\": {threads} }},\n    \"prefix_sampler\": {{ \"seconds\": {px:.6}, \"shots_per_second\": {px_rate:.0} }}\n  }},\n  \"trajectory\": {trajectory_json},\n  \"trajectory_sv\": {trajectory_sv_json},\n  \"trajectory_parallel\": {trajectory_parallel_json},\n  \"trajectory_ipe\": {ipe_json},\n  \"trajectory_ipe_sv\": {ipe_sv_json},\n  \"trajectory_noisy\": {noisy_json},\n  \"trajectory_noisy_sv\": {noisy_sv_json},\n  \"trajectory_noisy_deep\": {deep_json},\n  \"tableau_ghz\": {tableau_json},\n  \"routed_supremacy\": {routed_json},\n  \"tableau_noisy_cycle\": {noisy_cycle_json},\n  \"artifact_cache\": {artifact_cache_json},\n  \"normalization_ablation\": {ablation_json},\n  \"sample_scaling\": {scaling_json},\n  \"speedup_compiled_vs_dd_sampler\": {speedup:.2},\n  \"speedup_parallel_vs_dd_sampler\": {pspeedup:.2}\n}}\n",
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
