//! Structural checks of the decision-diagram sizes — the "size" column of
//! Table I is what makes DD-based weak simulation scale, so the shapes the
//! paper reports (QFT: one node per qubit, Grover: ~two nodes per qubit,
//! Shor/supremacy: large but far below 2^n) are asserted here.

use dd::{DdPackage, Normalization};

#[test]
fn qft_states_use_one_node_per_qubit() {
    // Table I: qft_16 -> 16 nodes, qft_32 -> 32, qft_48 -> 48.
    for n in [8u16, 16, 32, 48] {
        let mut package = DdPackage::new();
        let state = dd::simulate(&mut package, &algorithms::qft(n, true)).unwrap();
        assert_eq!(state.node_count(&package), usize::from(n), "qft_{n}");
        assert!((state.norm_sqr(&package) - 1.0).abs() < 1e-9);
    }
}

#[test]
fn grover_states_use_about_two_nodes_per_qubit() {
    // Table I: grover_20 -> 40 nodes, grover_25 -> 50, i.e. 2 per qubit.
    for n in [8u16, 10, 12] {
        let (circuit, _) = algorithms::grover_with_iterations(n, 3, 4);
        let mut package = DdPackage::new();
        let state = dd::simulate(&mut package, &circuit).unwrap();
        let nodes = state.node_count(&package);
        let qubits = usize::from(n) + 1;
        assert!(
            nodes >= qubits && nodes <= 3 * qubits,
            "grover_{n}: {nodes} nodes for {qubits} qubits"
        );
    }
}

#[test]
fn grover_stays_compact_for_marked_states_that_once_blew_up() {
    // Near the end of the search these seeds add many edges to the same
    // node.  Rebuilding such a sum node by node rounds the rescaled
    // children apart, which split the diagram into ~11k nodes.
    for seed in [2u64, 8, 9] {
        let circuit = algorithms::grover(13, seed);
        let mut package = DdPackage::new();
        let state = dd::simulate(&mut package, &circuit).unwrap();
        let nodes = state.node_count(&package);
        let qubits = usize::from(circuit.num_qubits());
        assert!(nodes <= 8 * qubits, "grover_13 seed {seed}: {nodes} nodes");
        assert!((state.norm_sqr(&package) - 1.0).abs() < 1e-9);
    }
}

#[test]
fn supremacy_dd_agrees_with_the_dense_state() {
    // The diagram is both small and accurate: exact same-target sums keep
    // rounding noise from splitting shared sub-vectors.
    let (circuit, _) = algorithms::supremacy(4, 4, 10, 1);
    let mut package = DdPackage::new();
    let state = dd::simulate(&mut package, &circuit).unwrap();
    let nodes = state.node_count(&package);
    assert!(nodes < 1 << 14, "{nodes} nodes");
    let dense = statevector::simulate(&circuit).unwrap();
    let overlap = state
        .to_amplitudes(&package)
        .iter()
        .zip(dense.amplitudes())
        .fold(mathkit::Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b);
    let infidelity = 1.0 - overlap.norm_sqr();
    assert!(infidelity.abs() < 1e-11, "infidelity {infidelity:e}");
}

#[test]
fn ghz_states_use_two_nodes_per_level_below_the_root() {
    for n in [4u16, 8, 16, 32] {
        let mut package = DdPackage::new();
        let state = dd::simulate(&mut package, &algorithms::ghz(n)).unwrap();
        assert_eq!(
            state.node_count(&package),
            2 * usize::from(n) - 1,
            "ghz_{n}"
        );
    }
}

#[test]
fn shor_states_are_entangled_but_far_below_the_dense_size() {
    let (circuit, spec) = algorithms::shor(33, 2);
    let mut package = DdPackage::new();
    let state = dd::simulate(&mut package, &circuit).unwrap();
    let nodes = state.node_count(&package);
    let qubits = usize::from(spec.total_qubits());
    // Genuinely entangled: well above a product state...
    assert!(nodes > 4 * qubits, "only {nodes} nodes");
    // ...but exponentially below the dense representation.
    assert!(
        (nodes as u64) < (1u64 << spec.total_qubits()) / 4,
        "{nodes} nodes"
    );
    assert!((state.norm_sqr(&package) - 1.0).abs() < 1e-6);
}

#[test]
fn supremacy_states_are_the_least_compressible() {
    let (circuit, spec) = algorithms::supremacy(4, 3, 10, 1);
    let mut package = DdPackage::new();
    let state = dd::simulate(&mut package, &circuit).unwrap();
    let nodes = state.node_count(&package);
    // Random circuits of this depth produce states whose DD is within a
    // small factor of the dense bound, exactly the regime the paper reports.
    assert!(nodes > usize::from(spec.qubits) * 8, "only {nodes} nodes");
    assert!((state.norm_sqr(&package) - 1.0).abs() < 1e-6);
}

#[test]
fn normalization_scheme_does_not_change_node_counts() {
    // Canonicity: both normalization schemes identify the same sub-vector
    // sharing, so the node counts agree.
    for circuit in [
        algorithms::qft(12, true),
        algorithms::w_state(9),
        algorithms::random_circuit(8, 4, 5),
        algorithms::shor(15, 2).0,
    ] {
        let mut left = DdPackage::with_normalization(Normalization::LeftMost);
        let mut norm = DdPackage::with_normalization(Normalization::TwoNorm);
        let a = dd::simulate(&mut left, &circuit).unwrap();
        let b = dd::simulate(&mut norm, &circuit).unwrap();
        assert_eq!(
            a.node_count(&left),
            b.node_count(&norm),
            "node counts differ for {}",
            circuit.name()
        );
    }
}

#[test]
fn garbage_collection_preserves_the_state() {
    let circuit = algorithms::random_circuit(10, 8, 13);
    let mut package = DdPackage::new();
    let state = dd::simulate(&mut package, &circuit).unwrap();
    let before: Vec<f64> = (0..1u64 << 10)
        .map(|i| state.probability(&package, i))
        .collect();
    let nodes_before = state.node_count(&package);

    let roots = package.collect_garbage(&[state.root()]);
    let state = dd::StateDd::from_root(roots[0], 10);
    assert_eq!(state.node_count(&package), nodes_before);
    assert_eq!(package.allocated_vector_nodes(), nodes_before);
    for (i, &p) in before.iter().enumerate() {
        assert!((state.probability(&package, i as u64) - p).abs() < 1e-12);
    }
}

#[test]
fn measurement_collapse_composes_with_further_gates() {
    use circuit::Qubit;
    // Collapse one qubit of a Bell pair, then apply fresh gates: the
    // trajectory engine's collapse keeps the package usable.
    let mut package = DdPackage::new();
    let state = dd::simulate(&mut package, &algorithms::bell_pair()).unwrap();
    for bit in [0u8, 1] {
        let collapsed = dd::collapse_qubit(&mut package, &state, Qubit(0), bit).unwrap();

        let mut follow_up = circuit::Circuit::new(2);
        follow_up.h(Qubit(1));
        let final_state = dd::apply_circuit(&mut package, collapsed, &follow_up).unwrap();
        assert!((final_state.norm_sqr(&package) - 1.0).abs() < 1e-10);
        // Qubit 0 stays in the measured value; qubit 1 is in superposition.
        let base = u64::from(bit);
        assert!((final_state.probability(&package, base) - 0.5).abs() < 1e-10);
        assert!((final_state.probability(&package, base | 0b10) - 0.5).abs() < 1e-10);
    }
}

#[test]
fn qft_gate_operators_are_built_in_the_gate_cone() {
    // Gate operators cost work in proportion to the levels they touch: the
    // nodes and values are exactly those of a full descent of every block
    // to level 0, but the unique-table lookups that descent repeats (122,492
    // hits on qft_48) are skipped.
    let mut package = DdPackage::new();
    let state = dd::simulate(&mut package, &algorithms::qft(48, true)).unwrap();
    assert_eq!(state.node_count(&package), 48);
    let stats = package.stats();
    assert_eq!(stats.matrix_unique_misses, 36_396);
    assert_eq!(stats.interned_values, 100);
    assert!(
        stats.matrix_unique_hits * 10 <= 122_492,
        "{} matrix unique-table hits",
        stats.matrix_unique_hits
    );
}
