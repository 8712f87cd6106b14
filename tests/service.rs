//! Integration tests for the service broker: single-flight coalescing under
//! an 8-thread soak (exactly one construction per fingerprint, histograms
//! bit-identical to single-threaded runs), deterministic load shedding with
//! [`weaksim::RunError::Overloaded`], typed-error propagation to every
//! coalesced waiter, and crash-safe snapshot persistence with corruption
//! tolerance.  The fault-injected variants are gated behind the
//! `fault-inject` feature.

use circuit::{Circuit, NoiseChannel, NoiseModel, Qubit};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use weaksim::service::{RetryPolicy, ServiceBroker, ServiceConfig};
use weaksim::{
    ArtifactCache, Backend, CacheOutcome, CancelToken, Governor, RunError, ShotHistogram,
    WeakSimulator,
};

const SHOTS: u64 = 4_000;
const SEED: u64 = 0x5eed_cafe;

/// A unique temp path for this test binary's snapshot files.
fn snapshot_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weaksim-service-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    dir.join(name)
}

/// The mixed workload: four distinct fingerprints with different structure
/// (and therefore different artifact payload shapes in snapshots).
fn workload() -> Vec<Circuit> {
    vec![
        algorithms::ghz(6),
        algorithms::w_state(6),
        algorithms::qft(6, true),
        algorithms::random_circuit(6, 8, 3),
    ]
}

/// Single-threaded reference histograms for the workload under `SEED`.
fn references(circuits: &[Circuit]) -> Vec<ShotHistogram> {
    circuits
        .iter()
        .map(|circuit| {
            WeakSimulator::new(Backend::DecisionDiagram)
                .run(circuit, SHOTS, SEED)
                .expect("reference run")
                .histogram
        })
        .collect()
}

/// `h q[0]; t q[0]; cx q[0],q[69];` — a non-Clifford 70-qubit circuit
/// whose final read-out of every qubit does not fit a `u64` sample.
fn wide_circuit() -> Circuit {
    let mut circuit = Circuit::new(70);
    circuit.h(Qubit(0)).t(Qubit(0)).cx(Qubit(0), Qubit(69));
    circuit
}

#[test]
fn too_wide_dd_registers_fail_typed_on_both_front_doors() {
    let too_wide = Err(RunError::RegisterTooWide { num_qubits: 70 });
    let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let noise = NoiseModel::new().with_gate_noise(NoiseChannel::depolarizing(0.01));
    let ideal = WeakSimulator::new(Backend::DecisionDiagram);
    let noisy = WeakSimulator::new(Backend::DecisionDiagram).with_noise(noise);
    let mut reset_tail = wide_circuit();
    reset_tail.reset(Qubit(1));
    // Static, noisy (trajectory) and dynamic-without-measure runs all read
    // every qubit at the end.
    for (sim, circuit, label) in [
        (&ideal, wide_circuit(), "static"),
        (&noisy, wide_circuit(), "noisy"),
        (&ideal, reset_tail, "dynamic"),
    ] {
        let run = sim.clone().run(&circuit, 100, SEED).map(|_| ());
        assert_eq!(run, too_wide, "{label}: WeakSimulator::run");
        let served = broker.serve(sim, &circuit, 100, SEED).map(|_| ());
        assert_eq!(served, too_wide, "{label}: ServiceBroker::serve");
    }
    // The dense engine rejects the register for its amplitude count.
    assert!(matches!(
        WeakSimulator::new(Backend::StateVector).run(&wide_circuit(), 100, SEED),
        Err(RunError::MemoryOut { num_qubits: 70, .. })
    ));

    // A classical record of two bits fits, however wide the register.
    let mut measured = wide_circuit();
    measured.measure(Qubit(0), 0).measure(Qubit(69), 1);
    let outcome = broker.serve(&noisy, &measured, 100, SEED).unwrap();
    assert_eq!(outcome.histogram.shots(), 100);
    // The broker keeps serving after the failures.
    let bell = broker
        .serve(&ideal, &algorithms::ghz(2), SHOTS, SEED)
        .unwrap();
    assert_eq!(bell.histogram.count(0) + bell.histogram.count(3), SHOTS);
}

#[test]
fn eight_thread_soak_builds_each_fingerprint_exactly_once() {
    let circuits = workload();
    let expected = references(&circuits);
    let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let sim = WeakSimulator::new(Backend::DecisionDiagram);

    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let barrier = &barrier;
            let broker = &broker;
            let sim = &sim;
            let circuits = &circuits;
            let expected = &expected;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Stagger the first visit per worker so hot hits,
                    // coalesced waits and the cold builds all interleave.
                    for offset in 0..circuits.len() {
                        let index = (worker + round + offset) % circuits.len();
                        let outcome = broker
                            .serve(sim, &circuits[index], SHOTS, SEED)
                            .expect("soak serve");
                        assert_eq!(
                            outcome.histogram, expected[index],
                            "worker {worker} round {round} circuit {index} diverged \
                             from the single-threaded reference"
                        );
                    }
                }
            });
        }
    });

    let service = broker.stats();
    let cache = broker.cache().stats();
    let total = (THREADS * ROUNDS * circuits.len()) as u64;
    assert_eq!(
        service.builds,
        circuits.len() as u64,
        "exactly one construction per distinct fingerprint"
    );
    assert_eq!(service.build_failures, 0);
    assert_eq!(service.shed, 0, "the default queue never sheds this load");
    assert_eq!((service.inflight, service.queued), (0, 0));
    assert_eq!(cache.entries, circuits.len());
    // Counter coherence: every request probes the cache exactly once, and
    // every miss either built the artifact or coalesced onto the builder.
    assert_eq!(cache.hits + cache.misses, total);
    assert_eq!(service.builds + service.coalesced, cache.misses);
}

#[test]
fn full_slots_shed_with_overloaded_and_recover() {
    // One construction slot, zero queue: any cold request arriving while a
    // build is in flight is shed immediately.  The in-flight build is a
    // heavy random circuit held open just long enough to observe the shed,
    // then cancelled — which must surface as a typed error, not poison the
    // broker for later requests.
    let token = CancelToken::new();
    let sim = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(Governor::unlimited().with_cancel_token(token.clone()));
    let broker = ServiceBroker::new(
        ArtifactCache::unbounded(),
        ServiceConfig {
            max_inflight_builds: 1,
            queue_capacity: 0,
            retry: RetryPolicy {
                max_attempts: 1,
                backoff: Duration::ZERO,
            },
        },
    );
    let heavy = algorithms::random_circuit(16, 80, 11);
    let light = algorithms::ghz(4);

    std::thread::scope(|scope| {
        let heavy_serve = scope.spawn(|| broker.serve(&sim, &heavy, 100, 1));

        let observe_by = Instant::now() + Duration::from_secs(60);
        while broker.stats().inflight == 0 {
            assert!(
                Instant::now() < observe_by,
                "heavy build never occupied the construction slot"
            );
            std::thread::yield_now();
        }

        let shed = broker.serve(&sim, &light, 100, 1);
        match shed {
            Err(RunError::Overloaded {
                queue_depth,
                estimated_wait,
            }) => {
                assert_eq!(queue_depth, 0, "nothing was queued ahead");
                assert!(estimated_wait > Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(broker.stats().shed, 1);

        token.cancel();
        let heavy_result = heavy_serve.join().expect("heavy thread");
        assert!(
            matches!(heavy_result, Err(RunError::Cancelled(_))),
            "cancelled build must surface typed, got {heavy_result:?}"
        );
    });

    // The failed build retired its slot and released the permit: a fresh
    // simulator (the old one's token stays cancelled) serves immediately.
    let service = broker.stats();
    assert_eq!((service.inflight, service.queued), (0, 0));
    assert_eq!(service.build_failures, 1);
    let fresh = WeakSimulator::new(Backend::DecisionDiagram);
    let outcome = broker.serve(&fresh, &light, 100, 1).expect("recovered");
    assert_eq!(outcome.cache, Some(CacheOutcome::Miss));
}

#[test]
fn snapshot_restart_serves_intact_entries_warm_and_corrupted_entries_cold() {
    let circuits = workload();
    let expected = references(&circuits);
    let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    for circuit in &circuits {
        broker
            .serve(&sim, circuit, SHOTS, SEED)
            .expect("cold serve");
    }

    let path = snapshot_path("restart.snap");
    let written = broker.write_snapshot(&path).expect("write snapshot");
    assert_eq!(written.entries, circuits.len());

    // Clean restart: every entry restores, every serve is a warm hit with a
    // histogram bit-identical to the pre-restart run.
    let restarted = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let report = restarted.load_snapshot(&path).expect("load snapshot");
    assert_eq!(report.loaded, circuits.len());
    assert_eq!((report.skipped, report.torn), (0, false));
    for (circuit, reference) in circuits.iter().zip(&expected) {
        let outcome = restarted.serve(&sim, circuit, SHOTS, SEED).expect("warm");
        assert_eq!(outcome.cache, Some(CacheOutcome::Hit));
        assert_eq!(&outcome.histogram, reference);
    }
    assert_eq!(restarted.stats().builds, 0, "nothing rebuilt after restore");

    // Corrupt the *last* entry's payload (entries are LRU-ordered, so the
    // last one belongs to the most recently used circuit): its checksum
    // fails, it reloads as a reported skip, and the corrupted request
    // rebuilds cold — still bit-identical.  The intact entries stay warm.
    let mut bytes = std::fs::read(&path).expect("read snapshot back");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).expect("write corrupted snapshot");

    let corrupted = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let report = corrupted.load_snapshot(&path).expect("load corrupted");
    assert_eq!(report.loaded, circuits.len() - 1);
    assert_eq!(report.skipped, 1);
    assert!(!report.torn);
    assert!(
        report.messages.iter().any(|m| m.contains("checksum")),
        "skip must be reported: {:?}",
        report.messages
    );
    // The most recently *served* circuit in the loop above was the restarted
    // broker's warm pass... but the snapshot was written by `broker`, whose
    // most recent use was the last cold serve: the final workload circuit.
    let cold_index = circuits.len() - 1;
    for (index, (circuit, reference)) in circuits.iter().zip(&expected).enumerate() {
        let outcome = corrupted.serve(&sim, circuit, SHOTS, SEED).expect("serve");
        let want = if index == cold_index {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Hit
        };
        assert_eq!(outcome.cache, Some(want), "circuit {index}");
        assert_eq!(&outcome.histogram, reference, "circuit {index}");
    }
    assert_eq!(
        corrupted.stats().builds,
        1,
        "only the corrupted entry rebuilt"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_snapshot_is_a_reported_tear_never_a_panic() {
    let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    broker
        .serve(&sim, &algorithms::ghz(5), 500, 1)
        .expect("cold serve");
    broker
        .serve(&sim, &algorithms::w_state(5), 500, 1)
        .expect("cold serve");

    let path = snapshot_path("truncated.snap");
    broker.write_snapshot(&path).expect("write snapshot");
    let bytes = std::fs::read(&path).expect("read snapshot back");

    // Every possible truncation point must load without panicking, restore
    // only fully-intact entries, and report the tear (except the empty
    // prefix cases, which report an unusable header instead).
    for keep in 0..bytes.len() {
        std::fs::write(&path, &bytes[..keep]).expect("write truncation");
        let report = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default())
            .load_snapshot(&path)
            .expect("truncated load");
        assert!(
            report.torn || report.loaded + report.skipped == 2,
            "truncation at {keep} neither completed nor reported a tear"
        );
        assert!(report.loaded <= 2);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_of_another_format_version_loads_nothing_and_starts_cold() {
    let circuit = algorithms::ghz(5);
    let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let cold = broker
        .serve(&sim, &circuit, SHOTS, SEED)
        .expect("cold serve");

    let path = snapshot_path("other-version.snap");
    broker.write_snapshot(&path).expect("write snapshot");
    let bytes = std::fs::read(&path).expect("read snapshot back");
    // The header's format version is the u32 after the 8 magic bytes.
    let written = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    for version in [written - 1, written + 1] {
        let mut other = bytes.clone();
        other[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &other).expect("write other version");

        let restarted = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let report = restarted.load_snapshot(&path).expect("load other version");
        assert!(report.torn, "version {version}");
        assert_eq!((report.loaded, report.skipped), (0, 0), "version {version}");
        assert!(
            report
                .messages
                .iter()
                .any(|m| m.contains("unsupported snapshot version")),
            "version {version}: {:?}",
            report.messages
        );
        let rebuilt = restarted.serve(&sim, &circuit, SHOTS, SEED).expect("serve");
        assert_eq!(rebuilt.cache, Some(CacheOutcome::Miss), "version {version}");
        assert_eq!(rebuilt.histogram, cold.histogram, "version {version}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_tableau_bits_beyond_the_register_are_skipped_and_rebuilt() {
    // A routed 3-qubit basis state: its tableau sampler has no basis rows,
    // so the payload ends in the one reference word.
    let mut circuit = Circuit::with_name(3, "basis_state");
    circuit.x(Qubit(0)).x(Qubit(2));
    let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let sim = WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();
    let cold = broker
        .serve(&sim, &circuit, SHOTS, SEED)
        .expect("cold serve");
    assert_eq!(cold.histogram.count(0b101), SHOTS);

    let path = snapshot_path("beyond-register.snap");
    broker.write_snapshot(&path).expect("write snapshot");
    let mut bytes = std::fs::read(&path).expect("read snapshot back");
    // Set bit 40 of the reference word, then recompute the entry checksum
    // (FNV-1a 64 of the payload after the 16-byte file and 32-byte entry
    // headers) so that only the sampler's own validation can catch it.
    let reference = bytes.len() - 8;
    assert_eq!(bytes[reference], 0b101);
    bytes[reference + 5] |= 1;
    let checksum = bytes[48..]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        });
    bytes[40..48].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write corrupted snapshot");

    let restored = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let report = restored.load_snapshot(&path).expect("load corrupted");
    assert_eq!((report.loaded, report.skipped, report.torn), (0, 1, false));
    assert!(
        report.messages.iter().any(|m| m.contains("malformed")),
        "skip must be reported: {:?}",
        report.messages
    );
    let rebuilt = restored.serve(&sim, &circuit, SHOTS, SEED).expect("serve");
    assert_eq!(rebuilt.cache, Some(CacheOutcome::Miss));
    assert_eq!(rebuilt.histogram, cold.histogram);
    std::fs::remove_file(&path).ok();
}

#[cfg(feature = "fault-inject")]
mod fault_injected {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use weaksim::service::ServiceFaultPlan;

    #[test]
    fn transient_build_failure_retries_and_succeeds() {
        let broker = ServiceBroker::new(
            ArtifactCache::unbounded(),
            ServiceConfig {
                retry: RetryPolicy {
                    max_attempts: 3,
                    backoff: Duration::from_millis(1),
                },
                ..ServiceConfig::default()
            },
        );
        broker.set_fault_plan(ServiceFaultPlan {
            fail_builds_from: Some(1),
            fail_builds_count: 2,
            transient_faults: true,
            ..ServiceFaultPlan::default()
        });
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        let outcome = broker
            .serve(&sim, &algorithms::ghz(4), 500, 7)
            .expect("third attempt succeeds");
        assert_eq!(outcome.cache, Some(CacheOutcome::Miss));
        let stats = broker.stats();
        assert_eq!(stats.retries, 2, "two transient failures were retried");
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.build_failures, 0);
    }

    #[test]
    fn transient_failures_past_the_retry_budget_surface_typed() {
        let broker = ServiceBroker::new(
            ArtifactCache::unbounded(),
            ServiceConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    backoff: Duration::from_millis(1),
                },
                ..ServiceConfig::default()
            },
        );
        broker.set_fault_plan(ServiceFaultPlan {
            fail_builds_from: Some(1),
            fail_builds_count: 0, // every attempt fails
            transient_faults: true,
            ..ServiceFaultPlan::default()
        });
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        let result = broker.serve(&sim, &algorithms::ghz(4), 500, 7);
        assert!(
            matches!(result, Err(RunError::Deadline(_))),
            "exhausted retries surface the transient error, got {result:?}"
        );
        let stats = broker.stats();
        assert_eq!(stats.retries, 1, "one retry before the budget ran out");
        assert_eq!(stats.build_failures, 1);
        assert!(broker.cache().is_empty(), "nothing was published");
    }

    #[test]
    fn failed_build_propagates_the_same_error_to_every_waiter() {
        let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        // The only build attempt fails permanently, after a delay long
        // enough that the second thread reliably coalesces onto its slot.
        broker.set_fault_plan(ServiceFaultPlan {
            fail_builds_from: Some(1),
            fail_builds_count: 1,
            transient_faults: false,
            build_delay: Some(Duration::from_millis(300)),
            ..ServiceFaultPlan::default()
        });
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        let circuit = algorithms::ghz(4);

        let saw_cancelled = AtomicBool::new(false);
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let barrier = &barrier;
                    let broker = &broker;
                    let sim = &sim;
                    let circuit = &circuit;
                    let saw_cancelled = &saw_cancelled;
                    scope.spawn(move || {
                        barrier.wait();
                        match broker.serve(sim, circuit, 500, 7) {
                            Err(RunError::Cancelled(_)) => {
                                saw_cancelled.store(true, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected error {other}"),
                            // The loser of the admission race can arrive
                            // *after* the failed slot retired; it then owns
                            // a fresh build (attempt 2, not injected) and
                            // legitimately succeeds.
                            Ok(outcome) => {
                                assert_eq!(outcome.cache, Some(CacheOutcome::Miss));
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("waiter thread");
            }
        });
        assert!(
            saw_cancelled.load(Ordering::Relaxed),
            "the injected failure must reach at least the building request"
        );
        assert_eq!(broker.stats().build_failures, 1);

        // The poisoned slot was retired with the failure: the next request
        // starts a fresh (non-injected) build and succeeds.
        let outcome = broker.serve(&sim, &circuit, 500, 7).expect("fresh build");
        assert!(matches!(
            outcome.cache,
            Some(CacheOutcome::Miss) | Some(CacheOutcome::Hit)
        ));
        assert_eq!(outcome.histogram.shots(), 500);
    }

    #[test]
    fn injected_snapshot_write_failure_leaves_the_previous_snapshot_intact() {
        let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        broker
            .serve(&sim, &algorithms::ghz(4), 500, 7)
            .expect("cold serve");

        let path = snapshot_path("write-fault.snap");
        broker.write_snapshot(&path).expect("first write succeeds");
        let good = std::fs::read(&path).expect("read first snapshot");

        broker.set_fault_plan(ServiceFaultPlan {
            fail_snapshot_write_at: Some(2),
            ..ServiceFaultPlan::default()
        });
        let result = broker.write_snapshot(&path);
        assert!(result.is_err(), "second write must fail by injection");
        assert_eq!(
            std::fs::read(&path).expect("snapshot still readable"),
            good,
            "a failed write must not damage the existing snapshot"
        );

        // Third call (past the injection point) succeeds again.
        broker.write_snapshot(&path).expect("third write succeeds");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_snapshot_read_failure_surfaces_as_io_error() {
        let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        broker
            .serve(&sim, &algorithms::ghz(4), 500, 7)
            .expect("cold serve");
        let path = snapshot_path("read-fault.snap");
        broker.write_snapshot(&path).expect("write snapshot");

        let restarted = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        restarted.set_fault_plan(ServiceFaultPlan {
            fail_snapshot_read_at: Some(1),
            ..ServiceFaultPlan::default()
        });
        assert!(restarted.load_snapshot(&path).is_err());
        // The second load (past the injection) restores normally.
        let report = restarted.load_snapshot(&path).expect("second load");
        assert_eq!(report.loaded, 1);
        assert!(restarted.cache().stats().entries == 1);
        std::fs::remove_file(&path).ok();
    }
}
