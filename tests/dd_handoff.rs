//! The dense handoff of routed decision-diagram builds: a routed static DD
//! build whose diagram stops compressing finishes on a state vector and
//! reports a `DD-based(k) -> vector-based(m - k)` route, while router-off
//! runs, compressing diagrams and registers whose dense vector does not fit
//! the memory budget stay on the diagram.

use statevector::MemoryBudget;
use weaksim::{stats, Backend, EngineKind, RunOutcome, ShotHistogram, WeakSimulator};

const SHOTS: u64 = 20_000;
const SEED: u64 = 0xd0_5e;

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

fn engines(outcome: &RunOutcome) -> Vec<EngineKind> {
    outcome.route.segments.iter().map(|s| s.engine).collect()
}

/// The bytes a dense handoff of an `n`-qubit register allocates: the
/// amplitudes plus their prefix sums.
fn dense_bytes(n: u16) -> u64 {
    u64::try_from(MemoryBudget::state_vector_bytes(n) + MemoryBudget::prefix_array_bytes(n))
        .unwrap()
}

fn routed_dd() -> WeakSimulator {
    WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router()
}

#[test]
fn an_incompressible_build_finishes_on_a_state_vector() {
    let circuit = algorithms::random_circuit(12, 10, 0);
    let outcome = routed_dd().run(&circuit, SHOTS, SEED).unwrap();
    assert_eq!(
        engines(&outcome),
        [EngineKind::DecisionDiagram, EngineKind::StateVector],
        "{}",
        outcome.route
    );
    let ops: usize = outcome.route.segments.iter().map(|s| s.ops).sum();
    assert_eq!(ops, circuit.len());
    assert!(outcome.route.segments.iter().all(|s| s.ops > 0));
    // The configured backend, the dense size, the diagram segment's counters.
    assert_eq!(outcome.backend, Backend::DecisionDiagram);
    assert_eq!(outcome.representation_size, 1 << 12);
    assert!(outcome.dd_stats.is_some_and(|s| s.vector_unique_misses > 0));

    let exact = WeakSimulator::new(Backend::StateVector)
        .strong(&circuit)
        .unwrap();
    let fit = stats::chi_square_test(&outcome.histogram, |k| exact.probability(k));
    assert!(fit.is_consistent(1e-3), "{fit:?}");

    // A budget that exactly fits the amplitudes and the prefix sums still
    // hands off, at the same gate.
    let exact_fit = routed_dd()
        .with_memory_budget(MemoryBudget::from_bytes(dense_bytes(12)))
        .run(&circuit, SHOTS, SEED)
        .unwrap();
    assert_eq!(exact_fit.route, outcome.route);
    assert_eq!(exact_fit.histogram, outcome.histogram);
}

#[test]
fn compressing_diagrams_keep_one_segment() {
    for circuit in [algorithms::grover(13, 0), algorithms::qft(20, true)] {
        let outcome = routed_dd().run(&circuit, 2_000, SEED).unwrap();
        assert_eq!(
            engines(&outcome),
            [EngineKind::DecisionDiagram],
            "{}",
            circuit.name()
        );
        assert_eq!(outcome.route.segments[0].ops, circuit.len());
    }
}

#[test]
fn router_off_and_over_budget_runs_stay_on_the_diagram() {
    let circuit = algorithms::random_circuit(12, 10, 0);
    let unrouted = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, SHOTS, SEED)
        .unwrap();
    assert_eq!(engines(&unrouted), [EngineKind::DecisionDiagram]);
    assert_eq!(unrouted.representation_size, 4095);
    let digest = histogram_digest(&unrouted.histogram);
    assert_eq!(digest, 0x660f_3ebf_2789_04ed, "digest {digest:#018x}");

    // One byte short of the amplitudes plus the prefix sums: no handoff,
    // and the run is the router-off run bit for bit.
    let tight = MemoryBudget::from_bytes(dense_bytes(12) - 1);
    let routed = routed_dd()
        .with_memory_budget(tight)
        .run(&circuit, SHOTS, SEED)
        .unwrap();
    assert_eq!(routed.route, unrouted.route);
    assert_eq!(routed.histogram, unrouted.histogram);
    assert_eq!(routed.representation_size, unrouted.representation_size);
}
