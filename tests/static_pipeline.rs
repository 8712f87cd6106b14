//! The single static pipeline: every noise-free static request — uncached
//! through `WeakSimulator::run`, or through `ServiceBroker::serve` as a
//! miss, a hit, or a hit on a snapshot-restored broker — goes route plan →
//! artifact → `SimArtifact::sample`, so every way in must return the same
//! histogram and the same route for a seed.  Also checks the tableau's
//! trajectory runner against the decision-diagram trajectory engine,
//! noiseless and under Pauli noise.

use circuit::{Circuit, NoiseModel, Qubit};
use std::path::PathBuf;
use weaksim::service::{ServiceBroker, ServiceConfig};
use weaksim::{
    stats, ArtifactCache, Backend, CacheOutcome, EngineKind, ShotHistogram, WeakSimulator,
};

const SHOTS: u64 = 6_000;
const SEED: u64 = 0x57a7_1c0d;

/// A unique temp path for this test binary's snapshot files.
fn snapshot_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weaksim-static-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    dir.join(name)
}

/// A small non-trivial Clifford circuit touching every tableau-supported
/// gate family: H, S, Z, CX, CZ and SWAP.
fn clifford_mix() -> Circuit {
    let mut c = Circuit::with_name(4, "clifford_mix");
    c.h(Qubit(0))
        .s(Qubit(0))
        .cx(Qubit(0), Qubit(1))
        .h(Qubit(2))
        .cz(Qubit(1), Qubit(2))
        .swap(Qubit(2), Qubit(3))
        .z(Qubit(3))
        .s(Qubit(1))
        .cx(Qubit(3), Qubit(0));
    c
}

/// The request table: each circuit with the route kind the router gives it.
fn circuits() -> Vec<(Circuit, Via)> {
    let ghz = algorithms::ghz(5);

    let mut swapped = algorithms::ghz(3);
    swapped.measure(Qubit(1), 0).measure(Qubit(0), 1);

    // Clifford prefix ending in the basis state |0110>, then a T gate.
    let mut x_prefix_t = Circuit::with_name(4, "x_prefix_t");
    x_prefix_t
        .x(Qubit(1))
        .cx(Qubit(1), Qubit(2))
        .z(Qubit(0))
        .t(Qubit(2))
        .h(Qubit(0))
        .cx(Qubit(0), Qubit(3));

    vec![
        (ghz, Via::Tableau),
        (swapped, Via::Tableau),
        (x_prefix_t, Via::Dense),
        (clifford_mix(), Via::Tableau),
    ]
}

/// How the Clifford router runs a table circuit: entirely on the tableau,
/// or entirely on the dense backend.
#[derive(Clone, Copy)]
enum Via {
    Tableau,
    Dense,
}

/// Serves one request every way in, checks that each returns the uncached
/// histogram and route, and returns that histogram.
fn assert_front_doors_agree(sim: &WeakSimulator, circuit: &Circuit) -> ShotHistogram {
    let label = format!("{} on {}", circuit.name(), sim.backend());
    let uncached = sim.clone().run(circuit, SHOTS, SEED).unwrap();
    assert_eq!(uncached.cache, None, "{label}");
    let check = |door: &str, histogram: &ShotHistogram, route: &weaksim::RunRoute| {
        assert_eq!(histogram, &uncached.histogram, "{label}: {door} histogram");
        assert_eq!(route, &uncached.route, "{label}: {door} route");
    };

    let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let served = broker.serve(sim, circuit, SHOTS, SEED).unwrap();
    assert_eq!(served.cache, Some(CacheOutcome::Miss), "{label}");
    check("broker miss", &served.histogram, &served.route);
    let hit = broker.serve(sim, circuit, SHOTS, SEED).unwrap();
    assert_eq!(hit.cache, Some(CacheOutcome::Hit), "{label}");
    check("broker hit", &hit.histogram, &hit.route);

    let path = snapshot_path("front-doors.snap");
    broker.write_snapshot(&path).expect("write snapshot");
    let restored = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
    let report = restored.load_snapshot(&path).expect("load snapshot");
    assert_eq!(report.loaded, 1, "{label}");
    let warm = restored.serve(sim, circuit, SHOTS, SEED).unwrap();
    assert_eq!(warm.cache, Some(CacheOutcome::Hit), "{label}");
    check("restored broker", &warm.histogram, &warm.route);
    uncached.histogram
}

#[test]
fn every_front_door_serves_the_uncached_histogram_and_route() {
    for (circuit, via) in circuits() {
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let mut histograms = Vec::new();
            for router in [false, true] {
                let sim = WeakSimulator::new(backend);
                let sim = if router {
                    sim.with_clifford_router()
                } else {
                    sim
                };
                histograms.push(assert_front_doors_agree(&sim, &circuit));

                let route = sim.clone().run(&circuit, 10, 0).unwrap().route;
                let engines: Vec<_> = route.segments.iter().map(|s| s.engine).collect();
                let dense = EngineKind::from(backend);
                let expected = match (router, via) {
                    (true, Via::Tableau) => vec![EngineKind::Tableau],
                    (false, _) | (true, Via::Dense) => vec![dense],
                };
                assert_eq!(engines, expected, "{} on {backend}", circuit.name());
            }
            if matches!(via, Via::Dense) {
                assert_eq!(
                    histograms[0],
                    histograms[1],
                    "{} on {backend}: routing changed a dense histogram",
                    circuit.name()
                );
            }
        }
    }
}

/// Two-sample chi-square homogeneity test over the union of outcomes;
/// returns the p-value.
fn homogeneity_p_value(a: &ShotHistogram, b: &ShotHistogram) -> f64 {
    let mut outcomes: Vec<u64> = a
        .counts()
        .keys()
        .chain(b.counts().keys())
        .copied()
        .collect();
    outcomes.sort_unstable();
    outcomes.dedup();
    let (na, nb) = (a.shots() as f64, b.shots() as f64);
    let total = na + nb;
    let mut statistic = 0.0;
    for &outcome in &outcomes {
        let (ca, cb) = (a.count(outcome) as f64, b.count(outcome) as f64);
        let pooled = (ca + cb) / total;
        for (observed, n) in [(ca, na), (cb, nb)] {
            let expected = pooled * n;
            statistic += (observed - expected).powi(2) / expected;
        }
    }
    stats::chi_square_survival(statistic, (outcomes.len() - 1) as f64)
}

/// A dynamic Clifford circuit with feed-forward: `c0` is a fair coin
/// copied into `c1` by a conditioned `X`, and `q0` is reset before it
/// drives `q2`, so `c2` is always 0.
fn feed_forward() -> Circuit {
    let mut c = Circuit::with_name(3, "feed_forward");
    c.h(Qubit(0)).measure(Qubit(0), 0);
    c.conditioned_gate(1, circuit::OneQubitGate::X, Qubit(1));
    c.reset(Qubit(0))
        .cx(Qubit(0), Qubit(2))
        .measure(Qubit(1), 1)
        .measure(Qubit(2), 2);
    c
}

/// A trajectory comparison: the circuit, its noise model, and the support
/// every record must lie in (when it is known).
type TrajectoryCase<'a> = (Circuit, Option<&'a NoiseModel>, Option<&'a [u64]>);

#[test]
fn tableau_trajectories_match_the_decision_diagram_engine() {
    // The repetition-code cycle (GHZ-encoded logical |+>, parity checks with
    // ancilla resets, read-out of every data qubit) records all-zeros or
    // all-ones; the feed-forward circuit records c1 == c0 and c2 == 0.
    // Under Pauli noise (depolarizing gates, bit-flip read-out) the cycle
    // still routes to the tableau, and any record can occur.
    let noise = algorithms::hardware_noise(0.02);
    let cases: [TrajectoryCase; 3] = [
        (
            algorithms::stabilizer_cycle(6, 2),
            None,
            Some(&[0, (1 << 6) - 1]),
        ),
        (feed_forward(), None, Some(&[0b000, 0b011])),
        (algorithms::stabilizer_cycle(6, 2), Some(&noise), None),
    ];
    let shots = 8_000;
    for (circuit, noise, support) in cases {
        let name = format!("{} (noise: {})", circuit.name(), noise.is_some());
        let with_noise = |sim: WeakSimulator| match noise {
            Some(model) => sim.with_noise(model.clone()),
            None => sim,
        };
        let routed =
            with_noise(WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router())
                .run(&circuit, shots, 11)
                .unwrap();
        assert_eq!(routed.route.segments.len(), 1, "{name}");
        assert_eq!(routed.route.segments[0].engine, EngineKind::Tableau);
        assert_eq!(routed.histogram.shots(), shots, "{name}");

        let dd = with_noise(WeakSimulator::new(Backend::DecisionDiagram))
            .run(&circuit, shots, 12)
            .unwrap();
        assert!(!dd.route.used_tableau(), "{name}");
        if let Some(support) = support {
            for outcome in [&routed, &dd] {
                assert!(
                    outcome
                        .histogram
                        .counts()
                        .keys()
                        .all(|k| support.contains(k)),
                    "{name}: record outside the support"
                );
            }
        }
        let p = homogeneity_p_value(&routed.histogram, &dd.histogram);
        assert!(p > 0.001, "{name}: tableau vs DD records, p = {p}");
    }
}

/// FNV-1a over a histogram's `(outcome, count)` pairs in outcome order.
fn histogram_digest(histogram: &ShotHistogram) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (outcome, count) in histogram.sorted_counts() {
        for byte in outcome.to_le_bytes().into_iter().chain(count.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A 24-qubit static Clifford state whose support has dimension above 1
/// and misses all-zeros, so the tableau sampler's reference element is
/// not zero.
fn pinned_clifford() -> Circuit {
    let mut c = Circuit::with_name(24, "pinned_clifford");
    for q in (0..24).step_by(3) {
        c.h(Qubit(q));
    }
    for q in (0..23).filter(|q| q % 4 != 3) {
        c.cx(Qubit(q), Qubit(q + 1));
    }
    for q in (1..24).step_by(5) {
        c.s(Qubit(q)).cz(Qubit(q), Qubit((q + 7) % 24));
    }
    c.h(Qubit(7))
        .x(Qubit(2))
        .x(Qubit(11))
        .y(Qubit(20))
        .swap(Qubit(4), Qubit(19));
    c
}

/// A 100-qubit static Clifford state read out through a terminal
/// measurement mapping that takes qubits from both sides of the 64-bit
/// word boundary, out of order.
fn pinned_wide_clifford() -> Circuit {
    let mut c = Circuit::with_name(100, "pinned_wide_clifford");
    for q in [0, 30, 62, 64, 90] {
        c.h(Qubit(q));
    }
    for q in 0..99 {
        c.cx(Qubit(q), Qubit(q + 1));
    }
    c.s(Qubit(63))
        .h(Qubit(63))
        .cz(Qubit(63), Qubit(65))
        .x(Qubit(65))
        .h(Qubit(40))
        .x(Qubit(99));
    for (cbit, q) in [99, 0, 63, 64, 65, 31, 91, 50, 2, 77]
        .into_iter()
        .enumerate()
    {
        c.measure(Qubit(q), cbit as u16);
    }
    c
}

/// A dynamic Clifford circuit with mid-circuit measurements and resets.
fn pinned_dynamic() -> Circuit {
    let mut c = Circuit::with_name(5, "pinned_dynamic");
    c.h(Qubit(0))
        .cx(Qubit(0), Qubit(1))
        .s(Qubit(1))
        .h(Qubit(2))
        .cz(Qubit(1), Qubit(2))
        .measure(Qubit(1), 0)
        .reset(Qubit(0))
        .h(Qubit(0))
        .cx(Qubit(0), Qubit(3))
        .cx(Qubit(2), Qubit(4))
        .x(Qubit(4))
        .reset(Qubit(2))
        .h(Qubit(2));
    for q in [0, 2, 3, 4] {
        c.measure(Qubit(q), q);
    }
    c
}

/// A dynamic Clifford circuit with resets but no measurement: its record
/// is the terminal read-out of the compiled sign program.
fn pinned_reset_readout() -> Circuit {
    let mut c = Circuit::with_name(9, "pinned_reset_readout");
    c.h(Qubit(0));
    for q in 0..8 {
        c.cx(Qubit(q), Qubit(q + 1));
    }
    c.s(Qubit(3))
        .h(Qubit(3))
        .reset(Qubit(4))
        .cx(Qubit(3), Qubit(4))
        .h(Qubit(6))
        .cz(Qubit(6), Qubit(7))
        .x(Qubit(8))
        .reset(Qubit(1))
        .y(Qubit(5));
    c
}

/// Fixed-seed histograms pinned across sampler rewrites: the decision
/// diagram's chunked draw (several batches and a partial last chunk), the
/// dense sequential draw, the decision diagram read out through a
/// permuting terminal-measurement mapping, and the tableau behind the
/// Clifford router (a static state with a non-zero reference element, a
/// word-spanning measurement mapping, and two dynamic circuits compiled
/// to sign programs).  A changed digest means a seed no longer reproduces
/// the histograms it produced before.
#[test]
fn pinned_histogram_digests_are_stable() {
    let (supremacy, _) = algorithms::supremacy(3, 3, 8, 4);
    let mut measured = algorithms::qft(6, true);
    measured.t(Qubit(2)).h(Qubit(4));
    for q in 0..6 {
        measured.measure(Qubit(q), 5 - q);
    }
    let (clifford, wide, dynamic, reset_readout) = (
        pinned_clifford(),
        pinned_wide_clifford(),
        pinned_dynamic(),
        pinned_reset_readout(),
    );
    let dd = WeakSimulator::new(Backend::DecisionDiagram);
    let sv = WeakSimulator::new(Backend::StateVector);
    let routed = dd.clone().with_clifford_router();
    let cases = [
        ("dd", &dd, &supremacy, 150_003, 0x4f18_845d_7479_efaf_u64),
        ("sv", &sv, &supremacy, 10_007, 0xedc9_1f4c_acf9_275c),
        ("dd_mapped", &dd, &measured, 20_011, 0x98cb_81a6_e542_1532),
        ("tableau", &routed, &clifford, 20_011, 0x5695_5703_c03b_38e6),
        (
            "tableau_mapped",
            &routed,
            &wide,
            20_011,
            0xdf2d_bd5f_0b26_862c,
        ),
        (
            "tableau_dynamic",
            &routed,
            &dynamic,
            5_003,
            0x9e6d_f2a0_b397_d5c0,
        ),
        (
            "tableau_reset_readout",
            &routed,
            &reset_readout,
            5_003,
            0x938c_2ecc_8d50_8c8a,
        ),
    ];
    for (label, sim, circuit, shots, expected) in cases {
        let outcome = sim.clone().run(circuit, shots, 2026).unwrap();
        assert_eq!(outcome.histogram.shots(), shots, "{label}");
        if label.starts_with("tableau") {
            assert_eq!(
                outcome.route.segments[0].engine,
                EngineKind::Tableau,
                "{label}"
            );
        }
        if label == "tableau" {
            let histogram = &outcome.histogram;
            assert!(histogram.count(0) == 0 && histogram.counts().len() > 2);
        }
        assert_eq!(
            histogram_digest(&outcome.histogram),
            expected,
            "{label}: digest {:#018x}",
            histogram_digest(&outcome.histogram)
        );
    }
}
