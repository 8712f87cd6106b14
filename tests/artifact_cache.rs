//! Integration tests for the artifact layer: runs served through a
//! `ServiceBroker`'s cache must be bit-identical to uncached ones for the
//! same seed on every engine, the request fingerprint must be sensitive to
//! everything that changes the prepared sampler, shared artifacts must
//! sample correctly from many threads at once, and the byte-budgeted cache
//! must evict LRU-first and rebuild evicted artifacts transparently.  Each
//! test shares one broker, the cache's only writer.

use circuit::{Circuit, NoiseChannel, NoiseModel, OneQubitGate, Qubit};
use mathkit::Angle;
use weaksim::{ArtifactCache, Backend, CacheOutcome, ServiceBroker, ServiceConfig, WeakSimulator};

/// A broker over `cache` with the default configuration.
fn broker(cache: ArtifactCache) -> ServiceBroker {
    ServiceBroker::new(cache, ServiceConfig::default())
}

/// Bytes retained after serving `circuits` into an unbounded cache — the
/// size a byte budget must be chosen against.
fn retained_bytes(circuits: &[&Circuit]) -> u64 {
    let sizing = broker(ArtifactCache::unbounded());
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    for circuit in circuits {
        sizing.serve(&sim, circuit, 100, 1).unwrap();
    }
    assert_eq!(sizing.cache().stats().entries, circuits.len());
    sizing.cache().stats().bytes
}

/// Serves `circuit` cold and warm through a fresh broker plus once without
/// any cache, asserting that all three histograms are bit-identical and the
/// cache outcomes are reported correctly.
fn assert_cached_runs_bit_identical(mut sim: WeakSimulator, circuit: &Circuit) {
    let shots = 20_000;
    let seed = 0xfeed_5eed;
    let uncached = sim.run(circuit, shots, seed).unwrap();
    assert_eq!(uncached.cache, None);

    let broker = broker(ArtifactCache::unbounded());
    let cold = broker.serve(&sim, circuit, shots, seed).unwrap();
    assert_eq!(cold.cache, Some(CacheOutcome::Miss));
    let warm = broker.serve(&sim, circuit, shots, seed).unwrap();
    assert_eq!(warm.cache, Some(CacheOutcome::Hit));

    assert_eq!(cold.histogram, uncached.histogram, "cold != uncached");
    assert_eq!(warm.histogram, uncached.histogram, "warm != uncached");
    assert_eq!(cold.route, uncached.route, "routes must agree");
    assert_eq!(warm.route, uncached.route, "routes must agree");
}

#[test]
fn dd_cached_runs_match_uncached_bit_for_bit() {
    // Trailing measurements exercise the record-relabelling path too.
    let mut circuit = algorithms::ghz(7);
    circuit.measure(Qubit(2), 0).measure(Qubit(5), 1);
    assert_cached_runs_bit_identical(WeakSimulator::new(Backend::DecisionDiagram), &circuit);
}

#[test]
fn sv_cached_runs_match_uncached_bit_for_bit() {
    let circuit = algorithms::qft(6, true);
    assert_cached_runs_bit_identical(WeakSimulator::new(Backend::StateVector), &circuit);
}

#[test]
fn routed_tableau_cached_runs_match_uncached_bit_for_bit() {
    // GHZ is fully Clifford: under the router both the cached and uncached
    // runs must serve it from the tableau engine.
    let circuit = algorithms::ghz(24);
    let mut sim = WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();
    let probe = sim.run(&circuit, 100, 1).unwrap();
    assert!(probe.route.used_tableau(), "router must pick the tableau");
    assert_cached_runs_bit_identical(sim, &circuit);
}

#[test]
fn request_fingerprint_is_sensitive_to_the_whole_request() {
    let base = |theta: f64, clbits: u16| {
        let mut c = Circuit::new(3);
        c.set_num_clbits(clbits);
        c.h(Qubit(0));
        c.gate(OneQubitGate::Rz(Angle::Radians(theta)), Qubit(1));
        c.cx(Qubit(0), Qubit(2));
        c
    };
    let theta = 0.123_456_789_f64;
    let circuit = base(theta, 3);
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let key = sim.request_fingerprint(&circuit);

    // Stable across calls and simulator instances with equal configuration.
    assert_eq!(key, sim.request_fingerprint(&circuit));
    assert_eq!(
        key,
        WeakSimulator::new(Backend::DecisionDiagram).request_fingerprint(&circuit)
    );

    // One flipped mantissa bit in a gate angle is a different request.
    let flipped = base(f64::from_bits(theta.to_bits() ^ 1), 3);
    assert_ne!(key, sim.request_fingerprint(&flipped));

    // A different classical-register layout is a different request.
    assert_ne!(key, sim.request_fingerprint(&base(theta, 4)));

    // Backend choice and router flag are part of the key.
    assert_ne!(
        key,
        WeakSimulator::new(Backend::StateVector).request_fingerprint(&circuit)
    );
    assert_ne!(
        key,
        WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .request_fingerprint(&circuit)
    );

    // Attaching real noise changes the key; changing its parameter by one
    // bit changes it again.
    let noisy = |p: f64| {
        WeakSimulator::new(Backend::DecisionDiagram)
            .with_noise(NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(p)))
    };
    let noisy_key = noisy(0.01).request_fingerprint(&circuit);
    assert_ne!(key, noisy_key);
    assert_ne!(
        noisy_key,
        noisy(f64::from_bits(0.01f64.to_bits() ^ 1)).request_fingerprint(&circuit)
    );

    // A noise model with no non-trivial channel is the same request as no
    // noise model at all — both run the identical noise-free simulation.
    let trivial = WeakSimulator::new(Backend::DecisionDiagram)
        .with_noise(NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(0.0)));
    assert_eq!(key, trivial.request_fingerprint(&circuit));
}

#[test]
fn shared_artifacts_sample_concurrently() {
    let circuit = algorithms::w_state(6);
    let broker = broker(ArtifactCache::unbounded());
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let reference = broker.serve(&sim, &circuit, 10_000, 7).unwrap();

    let artifact = broker
        .cache()
        .get(sim.request_fingerprint(&circuit))
        .expect("the run above populated the cache");
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let artifact = std::sync::Arc::clone(&artifact);
                scope.spawn(move || {
                    // Same seed on every thread: all histograms must equal
                    // the single-threaded reference exactly.
                    let hist = artifact.sample(10_000, 7);
                    (worker, hist)
                })
            })
            .collect();
        for handle in handles {
            let (worker, hist) = handle.join().unwrap();
            assert_eq!(hist, reference.histogram, "worker {worker} diverged");
        }
    });

    // Different seeds still produce different draws from the shared arena.
    assert_ne!(artifact.sample(10_000, 8), reference.histogram);
}

#[test]
fn byte_budget_evicts_lru_and_rebuilds_transparently() {
    let a = algorithms::ghz(9);
    let b = algorithms::qft(9, false);

    // Size the budget to hold exactly one of the two artifacts.
    let both = retained_bytes(&[&a, &b]);

    let broker = broker(ArtifactCache::with_byte_budget(both - 1));
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let cold_a = broker.serve(&sim, &a, 5_000, 3).unwrap();
    assert_eq!(cold_a.cache, Some(CacheOutcome::Miss));
    let cold_b = broker.serve(&sim, &b, 5_000, 3).unwrap();
    assert_eq!(cold_b.cache, Some(CacheOutcome::Miss));

    // `b` displaced `a` (least recently used), so `a` misses and is rebuilt —
    // with a histogram identical to its first run.
    let stats = broker.cache().stats();
    assert!(stats.evictions >= 1, "budget must have forced an eviction");
    assert!(stats.bytes < both, "budget must hold after eviction");
    let rebuilt_a = broker.serve(&sim, &a, 5_000, 3).unwrap();
    assert_eq!(rebuilt_a.cache, Some(CacheOutcome::Miss));
    assert_eq!(rebuilt_a.histogram, cold_a.histogram);

    // And `a`'s rebuild in turn displaced `b`; a fresh `b` run still matches.
    let rebuilt_b = broker.serve(&sim, &b, 5_000, 3).unwrap();
    assert_eq!(rebuilt_b.cache, Some(CacheOutcome::Miss));
    assert_eq!(rebuilt_b.histogram, cold_b.histogram);
}

#[test]
fn touch_on_hit_keeps_broker_served_entries_off_the_eviction_block() {
    // Regression for the serve-path LRU ordering: every request the broker
    // serves from an entry must make that entry the most recently used, so
    // an artifact that just served traffic is never ranked by its
    // *insertion* time and evicted at the next insert.  (Coalesced waiters
    // never call `ArtifactCache::get`; the cache's own unit tests cover the
    // `touch` they use instead.)
    //
    // Three near-identical circuits (same structure, different angles) give
    // three same-sized artifacts; a budget sized to hold exactly two forces
    // every insert past the second to evict.
    let variant = |theta: f64| {
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(Qubit(q));
        }
        for q in 0..8 {
            c.cx(Qubit(q), Qubit(q + 1));
        }
        c.gate(OneQubitGate::Rz(Angle::Radians(theta)), Qubit(4));
        c
    };
    let (a, b, c) = (variant(0.25), variant(0.5), variant(0.75));
    let two = retained_bytes(&[&a, &b]);

    let broker = broker(ArtifactCache::with_byte_budget(two));
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let (key_a, key_b) = (sim.request_fingerprint(&a), sim.request_fingerprint(&b));

    // Build a then b, serve `a` warm, then build c at the full budget.
    broker.serve(&sim, &a, 100, 1).unwrap();
    broker.serve(&sim, &b, 100, 1).unwrap();
    let warm = broker.serve(&sim, &a, 100, 1).unwrap();
    assert_eq!(warm.cache, Some(CacheOutcome::Hit));
    broker.serve(&sim, &c, 100, 1).unwrap();

    // The victim must be b — the true least-recently-*used* entry — not a.
    assert!(
        broker.cache().get(key_a).is_some(),
        "served entry a must survive the eviction"
    );
    assert!(
        broker.cache().get(key_b).is_none(),
        "unserved entry b must be the eviction victim"
    );
    assert_eq!(broker.cache().stats().evictions, 1);
}

#[test]
fn noisy_and_dynamic_requests_bypass_the_cache() {
    let broker = broker(ArtifactCache::unbounded());

    let mut dynamic = algorithms::ghz(3);
    dynamic.measure(Qubit(0), 0);
    dynamic.h(Qubit(1)); // gate after measurement: dynamic
    let sim = WeakSimulator::new(Backend::DecisionDiagram);
    let outcome = broker.serve(&sim, &dynamic, 500, 1).unwrap();
    assert_eq!(outcome.cache, None);

    let noisy = WeakSimulator::new(Backend::DecisionDiagram)
        .with_noise(NoiseModel::new().with_gate_noise(NoiseChannel::depolarizing(0.02)));
    let outcome = broker.serve(&noisy, &algorithms::ghz(3), 500, 1).unwrap();
    assert_eq!(outcome.cache, None);

    let stats = broker.cache().stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 0, 0),
        "neither request may touch the cache"
    );
}
