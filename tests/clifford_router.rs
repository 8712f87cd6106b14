//! Cross-engine equivalence of the Clifford router: the
//! stabilizer-tableau engine, the decision-diagram backend and the dense
//! statevector backend must be statistically indistinguishable on Clifford
//! circuits, bit-identical where the distribution is deterministic, and the
//! routed path must stay seed-deterministic across thread counts.

use circuit::{Circuit, Qubit};
use weaksim::{stats, Backend, EngineKind, WeakSimulator};

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

#[test]
fn tableau_dd_and_sv_agree_on_small_clifford_circuits() {
    for circuit in [algorithms::ghz(5), clifford_mix()] {
        // Exact reference distribution from one dense strong simulation.
        let exact = WeakSimulator::new(Backend::DecisionDiagram)
            .strong(&circuit)
            .unwrap();
        let shots = 40_000;

        let routed = WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .run(&circuit, shots, 17)
            .unwrap();
        assert!(routed.route.used_tableau(), "{}", circuit.name());

        let dd = WeakSimulator::new(Backend::DecisionDiagram)
            .run(&circuit, shots, 17)
            .unwrap();
        let sv = WeakSimulator::new(Backend::StateVector)
            .run(&circuit, shots, 17)
            .unwrap();
        assert!(!dd.route.used_tableau());
        assert!(!sv.route.used_tableau());

        for (label, outcome) in [("tableau", &routed), ("dd", &dd), ("sv", &sv)] {
            let chi = stats::chi_square_test(&outcome.histogram, |index| exact.probability(index));
            assert!(
                chi.is_consistent(0.001),
                "{} via {label}: chi-square {} (p = {})",
                circuit.name(),
                chi.statistic,
                chi.p_value
            );
        }
    }
}

#[test]
fn deterministic_clifford_records_are_bit_identical_across_engines() {
    // Probability-1 (hence dyadic) record distribution: |11> prepared by
    // X + CX, read out in swapped order.  Every engine must produce the
    // exact same histogram, not merely a statistically close one.
    let mut circuit = Circuit::new(2);
    circuit
        .x(Qubit(0))
        .cx(Qubit(0), Qubit(1))
        .measure(Qubit(1), 0)
        .measure(Qubit(0), 1);
    let shots = 5000;

    let routed = WeakSimulator::new(Backend::DecisionDiagram)
        .with_clifford_router()
        .run(&circuit, shots, 5)
        .unwrap();
    assert!(routed.route.used_tableau());
    let dd = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, shots, 5)
        .unwrap();
    let sv = WeakSimulator::new(Backend::StateVector)
        .run(&circuit, shots, 5)
        .unwrap();
    assert_eq!(routed.histogram, dd.histogram);
    assert_eq!(routed.histogram, sv.histogram);
    assert_eq!(routed.histogram.count(0b11), shots);
}

#[test]
fn routed_runs_are_seed_deterministic() {
    let circuit = algorithms::stabilizer_cycle(6, 2);
    let mut sim = WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();
    let a = sim.run(&circuit, 2000, 23).unwrap();
    let b = sim.run(&circuit, 2000, 23).unwrap();
    assert!(a.route.used_tableau());
    assert_eq!(a.histogram, b.histogram, "same seed, same records");
    let c = sim.run(&circuit, 2000, 24).unwrap();
    assert_ne!(
        a.histogram, c.histogram,
        "different seed, different records"
    );
}

#[test]
fn routed_histograms_are_thread_count_invariant() {
    // The dynamic Clifford path must give bit-identical histograms whatever
    // the worker-thread configuration, like every other sampler here.
    let circuit = algorithms::stabilizer_cycle(5, 3);
    let one = WeakSimulator::new(Backend::DecisionDiagram)
        .with_clifford_router()
        .with_threads(1)
        .run(&circuit, 3000, 41)
        .unwrap();
    let many = WeakSimulator::new(Backend::DecisionDiagram)
        .with_clifford_router()
        .with_threads(8)
        .run(&circuit, 3000, 41)
        .unwrap();
    assert!(one.route.used_tableau() && many.route.used_tableau());
    assert_eq!(one.histogram, many.histogram);
}

#[test]
fn routing_never_changes_a_dense_histogram() {
    // Clifford prefix ending in the basis state |0110>, followed by a
    // non-Clifford core: the router hands the whole circuit to the dense
    // backend with the same seed, so the sampled histogram is bit-identical
    // to the unrouted run.
    let mut circuit = Circuit::new(4);
    circuit
        .x(Qubit(1))
        .cx(Qubit(1), Qubit(2))
        .z(Qubit(0))
        .t(Qubit(2))
        .h(Qubit(0))
        .cx(Qubit(0), Qubit(3));
    for backend in [Backend::DecisionDiagram, Backend::StateVector] {
        let routed = WeakSimulator::new(backend)
            .with_clifford_router()
            .run(&circuit, 8000, 13)
            .unwrap();
        assert_eq!(routed.route.segments.len(), 1, "{backend}");
        assert_eq!(routed.route.segments[0].engine, EngineKind::from(backend));
        assert_eq!(routed.route.segments[0].ops, 6);

        let dense = WeakSimulator::new(backend).run(&circuit, 8000, 13).unwrap();
        assert_eq!(dense.route.segments.len(), 1);
        assert_eq!(routed.histogram, dense.histogram, "{backend}");
    }
}

#[test]
fn thousand_qubit_ghz_routes_and_samples_instantly() {
    let build_start = std::time::Instant::now();
    let circuit = algorithms::ghz(1000);
    let outcome = WeakSimulator::new(Backend::DecisionDiagram)
        .with_clifford_router()
        .run(&circuit, 100_000, 77)
        .unwrap();
    let elapsed = build_start.elapsed();

    assert!(outcome.route.used_tableau());
    assert_eq!(outcome.histogram.shots(), 100_000);
    // 2n stabilizer/destabilizer generators, no dense state anywhere.
    assert_eq!(outcome.representation_size, 2000);
    // The histogram keys the low 64 bits: all-zeros or all-ones only.
    assert!(outcome
        .histogram
        .counts()
        .keys()
        .all(|&k| k == 0 || k == u64::MAX));
    let zero_freq = outcome.histogram.frequency(0);
    assert!((zero_freq - 0.5).abs() < 0.02, "{zero_freq}");
    // The acceptance bound holds in release builds; debug builds only
    // check completion (they run the same code an order of magnitude
    // slower).
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 1.0,
            "1000-qubit GHZ construct + 100k shots took {elapsed:?}"
        );
    }
}
