//! Gate application (strong simulation) on dense state vectors.
//!
//! Each kernel visits only the amplitudes its operation changes.  Those are
//! the indices whose *fixed* bits — the target and the controls of a gate —
//! hold one value, and they come in runs of `2^p` consecutive indices, `p`
//! the lowest fixed bit; a kernel steps from run to run (one carry-add per
//! run, no per-index bit test) and works through each run in order:
//!
//! * a controlled one-qubit unitary visits the pairs `(i, i + 2^t)` with
//!   target bit `t` of `i` clear and every control bit set.  A diagonal
//!   gate scales each amplitude of a pair on its own, and a phase-only gate
//!   (diagonal with a top-left entry of 1) scales only the target-1 half.
//!   The products these bodies skip are exact zeros, so every amplitude
//!   comes out as the full 2×2 product would leave it, up to the sign of a
//!   zero: probabilities and everything sampled from them are unchanged;
//! * a controlled swap of qubits `a` and `b` visits the indices with the
//!   lower of the two bits set, the higher clear and every control bit set,
//!   and swaps each with its partner;
//! * a controlled permutation visits the indices with every control bit
//!   set, one register block (all values of the permuted register, the
//!   other bits fixed) at a time, and moves the block in place through a
//!   buffer of `2^k` amplitudes for a `k`-qubit register.

use crate::StateVector;
use circuit::{Circuit, Operation, Qubit};
use mathkit::Complex;
use std::fmt;

/// Error returned by the dense simulation entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulateError {
    /// The circuit failed validation (out-of-range qubits, overlapping
    /// controls and targets).
    InvalidCircuit(circuit::ValidateCircuitError),
    /// The circuit contains a non-unitary or classically-conditioned
    /// operation (measurement, reset or `if (c==k)` gate); strong simulation
    /// into a single state is undefined for dynamic circuits — use the
    /// trajectory engine of the `weaksim` crate.
    NonUnitaryOperation {
        /// Index of the offending operation.
        op_index: usize,
    },
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateError::InvalidCircuit(e) => write!(f, "invalid circuit: {e}"),
            SimulateError::NonUnitaryOperation { op_index } => write!(
                f,
                "operation {op_index} is non-unitary or classically conditioned (measure/reset/if); strong simulation requires a unitary circuit — use trajectory simulation"
            ),
        }
    }
}

impl std::error::Error for SimulateError {}

impl From<circuit::ValidateCircuitError> for SimulateError {
    fn from(e: circuit::ValidateCircuitError) -> Self {
        SimulateError::InvalidCircuit(e)
    }
}

/// Builds the bitmask with a 1 at every listed qubit position.
fn qubit_mask(qubits: &[Qubit]) -> usize {
    qubits.iter().fold(0usize, |m, q| m | (1usize << q.index()))
}

/// Applies a single lowered *unitary* [`Operation`] to the state in place.
///
/// # Panics
///
/// Panics if the operation references qubits outside the state (call
/// [`Circuit::validate`] — or use [`simulate`] — to get a proper error
/// instead), or on the non-unitary operations [`Operation::Measure`] and
/// [`Operation::Reset`], whose effect depends on a sampled outcome (use
/// [`StateVector::collapse_qubit`] and the trajectory engine of the
/// `weaksim` crate).
pub fn apply_operation(state: &mut StateVector, op: &Operation) {
    match op {
        Operation::Unitary {
            gate,
            target,
            controls,
        } => apply_controlled_unitary(state, gate.matrix(), *target, controls),
        Operation::Swap { a, b, controls } => apply_controlled_swap(state, *a, *b, controls),
        Operation::Permute {
            permutation,
            controls,
        } => apply_controlled_permutation(state, permutation, controls),
        Operation::Measure { .. } | Operation::Reset { .. } => {
            panic!("non-unitary operation '{op}' cannot be applied as a gate; use collapse_qubit")
        }
        Operation::Conditioned { .. } => {
            panic!("classically-conditioned operation '{op}' depends on the classical record; resolve the condition (trajectory engine) before applying")
        }
    }
}

fn apply_controlled_unitary(
    state: &mut StateVector,
    matrix: [[Complex; 2]; 2],
    target: Qubit,
    controls: &[Qubit],
) {
    let t_mask = 1usize << target.index();
    let c_mask = qubit_mask(controls);
    assert_eq!(
        c_mask & t_mask,
        0,
        "control qubits must not overlap the target"
    );
    let [[m00, m01], [m10, m11]] = matrix;
    let amps = state.amplitudes_mut();
    let len = amps.len();
    // The pairs with the target bit clear and every control bit set.
    let fixed = t_mask | c_mask;
    if !(m01.is_zero() && m10.is_zero()) {
        for_each_run(len, fixed, c_mask, |start, run| {
            for i in start..start + run {
                let (x, y) = (amps[i], amps[i | t_mask]);
                amps[i] = m00 * x + m01 * y;
                amps[i | t_mask] = m10 * x + m11 * y;
            }
        });
    } else if m00 != Complex::ONE {
        for_each_run(len, fixed, c_mask, |start, run| {
            for i in start..start + run {
                amps[i] = m00 * amps[i];
                amps[i | t_mask] = m11 * amps[i | t_mask];
            }
        });
    } else {
        for_each_run(len, fixed, c_mask, |start, run| {
            for i in start..start + run {
                amps[i | t_mask] = m11 * amps[i | t_mask];
            }
        });
    }
}

fn apply_controlled_swap(state: &mut StateVector, a: Qubit, b: Qubit, controls: &[Qubit]) {
    if a == b {
        return;
    }
    let (a_mask, b_mask) = (1usize << a.index(), 1usize << b.index());
    let swapped = a_mask | b_mask;
    let c_mask = qubit_mask(controls);
    let amps = state.amplitudes_mut();
    // Each unordered pair once: from its member with the lower swapped bit
    // set to the one with the higher bit set.
    let low = a_mask.min(b_mask);
    for_each_run(amps.len(), swapped | c_mask, low | c_mask, |start, run| {
        for i in start..start + run {
            amps.swap(i, i ^ swapped);
        }
    });
}

fn apply_controlled_permutation(
    state: &mut StateVector,
    permutation: &circuit::Permutation,
    controls: &[Qubit],
) {
    let c_mask = qubit_mask(controls);
    let qubits = permutation.qubits();
    // The index bits of a register value (`qubits[0]` least significant).
    let scatter = |value: u64| {
        qubits
            .iter()
            .enumerate()
            .filter(|&(bit, _)| value >> bit & 1 == 1)
            .fold(0usize, |m, (_, q)| m | 1usize << q.index())
    };
    let mapping = permutation.mapping();
    let from: Vec<usize> = (0..mapping.len() as u64).map(scatter).collect();
    let to: Vec<usize> = mapping.iter().map(|&value| scatter(value)).collect();
    let mut block = vec![Complex::ZERO; mapping.len()];
    let amps = state.amplitudes_mut();
    for_each_run(
        amps.len(),
        qubit_mask(qubits) | c_mask,
        c_mask,
        |start, run| {
            for base in start..start + run {
                for (slot, &offset) in block.iter_mut().zip(&from) {
                    *slot = amps[base | offset];
                }
                for (&amp, &offset) in block.iter().zip(&to) {
                    amps[base | offset] = amp;
                }
            }
        },
    );
}

/// Calls `visit(start, run)` for every run `start..start + run` of
/// consecutive indices below `len` whose bits under the mask `fixed` read
/// `value`, in increasing order.  A run spans the bits below the lowest
/// fixed bit (all of `0..len` when nothing is fixed); `fixed` must lie
/// below `len` and `value` inside `fixed`.
fn for_each_run(len: usize, fixed: usize, value: usize, mut visit: impl FnMut(usize, usize)) {
    debug_assert!(fixed < len && value & !fixed == 0);
    let run = if fixed == 0 {
        len
    } else {
        1 << fixed.trailing_zeros()
    };
    // Setting the run and fixed bits before the increment carries it into
    // the lowest free bit above the run.
    let skip = fixed | (run - 1);
    let mut free = 0usize;
    while free < len {
        visit(free | value, run);
        free = ((free | skip) + 1) & !fixed;
    }
}

/// Applies every operation of `circuit` to the state in place.
///
/// # Panics
///
/// Panics if the circuit touches qubits outside the state; validate first or
/// use [`simulate`].
pub fn apply_circuit(state: &mut StateVector, circuit: &Circuit) {
    for op in circuit.operations() {
        apply_operation(state, op);
    }
}

/// Strong-simulates `circuit` from `|0...0>`.
///
/// # Errors
///
/// Returns [`SimulateError::InvalidCircuit`] if the circuit fails validation
/// and [`SimulateError::NonUnitaryOperation`] if it contains a measurement,
/// reset or classically-conditioned gate.
pub fn simulate(circuit: &Circuit) -> Result<StateVector, SimulateError> {
    circuit.validate()?;
    if let Some(op_index) = circuit.first_non_unitary() {
        return Err(SimulateError::NonUnitaryOperation { op_index });
    }
    let mut state = StateVector::zero_state(circuit.num_qubits());
    apply_circuit(&mut state, circuit);
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::{OneQubitGate, Permutation};
    use mathkit::{Angle, SQRT1_2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-12;

    /// The index-by-index kernels the run kernels replaced, kept as their
    /// oracle: each walks all `2^n` indices and tests the fixed bits at
    /// every one, and the unitary one always does the full 2×2 product.
    mod reference {
        use super::*;

        pub(super) fn unitary(
            state: &mut StateVector,
            matrix: [[Complex; 2]; 2],
            target: Qubit,
            controls: &[Qubit],
        ) {
            let t_mask = 1usize << target.index();
            let c_mask = qubit_mask(controls);
            let amps = state.amplitudes_mut();
            for base in 0..amps.len() {
                if base & t_mask == 0 && base & c_mask == c_mask {
                    let partner = base | t_mask;
                    let a0 = amps[base];
                    let a1 = amps[partner];
                    amps[base] = matrix[0][0] * a0 + matrix[0][1] * a1;
                    amps[partner] = matrix[1][0] * a0 + matrix[1][1] * a1;
                }
            }
        }

        pub(super) fn swap(state: &mut StateVector, a: Qubit, b: Qubit, controls: &[Qubit]) {
            if a == b {
                return;
            }
            let a_mask = 1usize << a.index();
            let b_mask = 1usize << b.index();
            let c_mask = qubit_mask(controls);
            let amps = state.amplitudes_mut();
            for i in 0..amps.len() {
                if i & a_mask != 0 && i & b_mask == 0 && i & c_mask == c_mask {
                    let j = (i & !a_mask) | b_mask;
                    amps.swap(i, j);
                }
            }
        }

        pub(super) fn permutation(
            state: &mut StateVector,
            permutation: &Permutation,
            controls: &[Qubit],
        ) {
            let c_mask = qubit_mask(controls);
            let qubits = permutation.qubits();
            let mut new = vec![Complex::ZERO; state.len()];
            for (index, amp) in state.amplitudes().iter().enumerate() {
                if amp.is_zero() {
                    continue;
                }
                if index & c_mask != c_mask {
                    new[index] += *amp;
                    continue;
                }
                let mut value = 0u64;
                for (bit, q) in qubits.iter().enumerate() {
                    if index & (1usize << q.index()) != 0 {
                        value |= 1 << bit;
                    }
                }
                let mapped = permutation.apply(value);
                let mut new_index = index;
                for (bit, q) in qubits.iter().enumerate() {
                    let mask = 1usize << q.index();
                    if mapped & (1 << bit) != 0 {
                        new_index |= mask;
                    } else {
                        new_index &= !mask;
                    }
                }
                new[new_index] += *amp;
            }
            *state = StateVector::from_amplitudes(new);
        }
    }

    /// A state with random amplitudes, a share of them exact (signed)
    /// zeros, as a gate sees mid-circuit.
    fn random_state(num_qubits: u16, rng: &mut StdRng) -> StateVector {
        let amplitudes = (0..1usize << num_qubits)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => Complex::ZERO,
                1 => Complex::new(-0.0, -0.0),
                2 => Complex::new(rng.gen::<f64>() - 0.5, -0.0),
                _ => Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
            })
            .collect();
        StateVector::from_amplitudes(amplitudes)
    }

    fn random_complex(rng: &mut StdRng) -> Complex {
        Complex::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0)
    }

    /// `count` distinct qubits below `num_qubits`, none in `taken`.
    fn random_qubits(
        num_qubits: u16,
        count: usize,
        taken: &[Qubit],
        rng: &mut StdRng,
    ) -> Vec<Qubit> {
        let mut free: Vec<Qubit> = (0..num_qubits)
            .map(Qubit)
            .filter(|q| !taken.contains(q))
            .collect();
        let mut picked = Vec::with_capacity(count);
        for _ in 0..count {
            picked.push(free.swap_remove(rng.gen_range(0..free.len())));
        }
        picked
    }

    fn assert_same_state(kernel: &StateVector, oracle: &StateVector, case: &str) {
        for (i, (a, b)) in kernel
            .amplitudes()
            .iter()
            .zip(oracle.amplitudes())
            .enumerate()
        {
            assert_eq!(a, b, "{case}: amplitude {i}");
            assert_eq!(
                a.norm_sqr().to_bits(),
                b.norm_sqr().to_bits(),
                "{case}: probability {i}"
            );
        }
        assert_eq!(
            kernel.norm_sqr().to_bits(),
            oracle.norm_sqr().to_bits(),
            "{case}"
        );
    }

    #[test]
    fn unitary_kernel_matches_the_index_loop() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0001);
        let zero = Complex::ZERO;
        for n in 1..=10u16 {
            for t in 0..n {
                for num_controls in 0..=3.min(usize::from(n) - 1) {
                    let controls = random_qubits(n, num_controls, &[Qubit(t)], &mut rng);
                    let (a, b, c, d) = (
                        random_complex(&mut rng),
                        random_complex(&mut rng),
                        random_complex(&mut rng),
                        random_complex(&mut rng),
                    );
                    let matrices = [
                        ("general", [[a, b], [c, d]]),
                        ("diagonal", [[a, zero], [zero, d]]),
                        ("phase-only", [[Complex::ONE, zero], [zero, d]]),
                        ("x", OneQubitGate::X.matrix()),
                        ("h", OneQubitGate::H.matrix()),
                        ("z", OneQubitGate::Z.matrix()),
                        ("t", OneQubitGate::T.matrix()),
                        ("rz", OneQubitGate::Rz(Angle::Radians(0.7)).matrix()),
                    ];
                    for (kind, matrix) in matrices {
                        let before = random_state(n, &mut rng);
                        let mut kernel = before.clone();
                        apply_controlled_unitary(&mut kernel, matrix, Qubit(t), &controls);
                        let mut oracle = before;
                        reference::unitary(&mut oracle, matrix, Qubit(t), &controls);
                        let case = format!("{kind} n={n} target={t} controls={controls:?}");
                        assert_same_state(&kernel, &oracle, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn swap_kernel_matches_the_index_loop() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0002);
        for n in 1..=10u16 {
            for a in 0..n {
                for b in 0..n {
                    let (a, b) = (Qubit(a), Qubit(b));
                    let free = usize::from(n) - if a == b { 1 } else { 2 };
                    let controls =
                        random_qubits(n, rng.gen_range(0..=3.min(free)), &[a, b], &mut rng);
                    let before = random_state(n, &mut rng);
                    let mut kernel = before.clone();
                    apply_controlled_swap(&mut kernel, a, b, &controls);
                    let mut oracle = before;
                    reference::swap(&mut oracle, a, b, &controls);
                    let case = format!("swap n={n} {a:?} {b:?} controls={controls:?}");
                    assert_same_state(&kernel, &oracle, &case);
                }
            }
        }
    }

    #[test]
    fn permutation_kernel_matches_the_index_loop() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0003);
        for n in 1..=10u16 {
            for width in 1..=4.min(usize::from(n)) {
                for num_controls in 0..=3.min(usize::from(n) - width) {
                    let register = random_qubits(n, width, &[], &mut rng);
                    let controls = random_qubits(n, num_controls, &register, &mut rng);
                    let mut mapping: Vec<u64> = (0..1u64 << width).collect();
                    for i in (1..mapping.len()).rev() {
                        mapping.swap(i, rng.gen_range(0..=i));
                    }
                    let permutation = Permutation::new(register, mapping).unwrap();
                    let before = random_state(n, &mut rng);
                    let mut kernel = before.clone();
                    apply_controlled_permutation(&mut kernel, &permutation, &controls);
                    let mut oracle = before;
                    reference::permutation(&mut oracle, &permutation, &controls);
                    let case = format!("{permutation:?} n={n} controls={controls:?}");
                    assert_same_state(&kernel, &oracle, &case);
                }
            }
        }
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0));
        let s = simulate(&c).unwrap();
        assert!((s.probability(0) - 0.5).abs() < EPS);
        assert!((s.probability(1) - 0.5).abs() < EPS);
    }

    #[test]
    fn bell_state_from_example_2() {
        // Example 2 of the paper: H on the control, then CNOT.
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        let s = simulate(&c).unwrap();
        assert!((s.amplitude(0).re - SQRT1_2).abs() < EPS);
        assert!((s.amplitude(3).re - SQRT1_2).abs() < EPS);
        assert!(s.amplitude(1).norm() < EPS);
        assert!(s.amplitude(2).norm() < EPS);
    }

    #[test]
    fn x_gate_flips_basis_state() {
        let mut c = Circuit::new(2);
        c.x(Qubit(1));
        let s = simulate(&c).unwrap();
        assert_eq!(s.probability(2), 1.0);
    }

    #[test]
    fn controlled_gate_only_fires_when_control_set() {
        let mut c = Circuit::new(2);
        c.cx(Qubit(0), Qubit(1)); // control |0> -> no effect
        let s = simulate(&c).unwrap();
        assert_eq!(s.probability(0), 1.0);

        let mut c = Circuit::new(2);
        c.x(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        let s = simulate(&c).unwrap();
        assert_eq!(s.probability(3), 1.0);
    }

    #[test]
    fn toffoli_truth_table() {
        for input in 0u64..8 {
            let mut c = Circuit::new(3);
            for bit in 0..3 {
                if input & (1 << bit) != 0 {
                    c.x(Qubit(bit));
                }
            }
            c.ccx(Qubit(0), Qubit(1), Qubit(2));
            let s = simulate(&c).unwrap();
            let expected = if input & 0b011 == 0b011 {
                input ^ 0b100
            } else {
                input
            };
            assert!((s.probability(expected) - 1.0).abs() < EPS, "input {input}");
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.x(Qubit(0));
        c.swap(Qubit(0), Qubit(1));
        let s = simulate(&c).unwrap();
        assert_eq!(s.probability(2), 1.0);
    }

    #[test]
    fn controlled_swap_respects_control() {
        let mut c = Circuit::new(3);
        c.x(Qubit(0));
        c.cswap(Qubit(2), Qubit(0), Qubit(1)); // control q2=0: no swap
        let s = simulate(&c).unwrap();
        assert_eq!(s.probability(0b001), 1.0);

        let mut c = Circuit::new(3);
        c.x(Qubit(0));
        c.x(Qubit(2));
        c.cswap(Qubit(2), Qubit(0), Qubit(1));
        let s = simulate(&c).unwrap();
        assert_eq!(s.probability(0b110), 1.0);
    }

    #[test]
    fn permutation_shifts_basis_states() {
        // Increment modulo 4 on two qubits.
        let perm = Permutation::new(vec![Qubit(0), Qubit(1)], vec![1, 2, 3, 0]).unwrap();
        let mut c = Circuit::new(2);
        c.x(Qubit(1)); // |10> = value 2
        c.permute(perm);
        let s = simulate(&c).unwrap();
        assert_eq!(s.probability(3), 1.0);
    }

    #[test]
    fn controlled_permutation_respects_control() {
        let perm = Permutation::new(vec![Qubit(0), Qubit(1)], vec![1, 2, 3, 0]).unwrap();
        let mut c = Circuit::new(3);
        c.controlled_permute(vec![Qubit(2)], perm);
        let s = simulate(&c).unwrap();
        // Control is |0>, so the state is unchanged.
        assert_eq!(s.probability(0), 1.0);
    }

    #[test]
    fn permutation_preserves_superposition_norm() {
        let perm = Permutation::new(vec![Qubit(0), Qubit(1)], vec![3, 0, 2, 1]).unwrap();
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.h(Qubit(1));
        c.permute(perm);
        let s = simulate(&c).unwrap();
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
        for i in 0..4 {
            assert!((s.probability(i) - 0.25).abs() < EPS);
        }
    }

    #[test]
    fn running_example_of_the_paper() {
        // A circuit producing exactly the state of Fig. 4a of the paper:
        // amplitudes [0, -0.612i, 0, -0.612i, 0.354, 0, 0, 0.354] in bit
        // order q2 q1 q0 (probabilities [0, 3/8, 0, 3/8, 1/8, 0, 0, 1/8]).
        let mut c = Circuit::new(3);
        c.rx(Angle::Radians(2.0 * std::f64::consts::PI / 3.0), Qubit(2));
        c.x(Qubit(2));
        c.h(Qubit(1));
        c.ccx(Qubit(2), Qubit(1), Qubit(0));
        c.x(Qubit(0));
        c.cx(Qubit(2), Qubit(0));
        let s = simulate(&c).unwrap();
        let expected = [
            0.0,
            3.0 / 8.0,
            0.0,
            3.0 / 8.0,
            1.0 / 8.0,
            0.0,
            0.0,
            1.0 / 8.0,
        ];
        for (i, &p) in expected.iter().enumerate() {
            assert!(
                (s.probability(i as u64) - p).abs() < EPS,
                "index {i}: expected {p}, got {}",
                s.probability(i as u64)
            );
        }
        // The nonzero amplitudes match -sqrt(3)/8 i and sqrt(1/8).
        let minus_i_sqrt38 = Complex::new(0.0, -(3.0_f64 / 8.0).sqrt());
        let sqrt18 = Complex::from_real((1.0_f64 / 8.0).sqrt());
        assert!((s.amplitude(1) - minus_i_sqrt38).norm() < EPS);
        assert!((s.amplitude(3) - minus_i_sqrt38).norm() < EPS);
        assert!((s.amplitude(4) - sqrt18).norm() < EPS);
        assert!((s.amplitude(7) - sqrt18).norm() < EPS);
    }

    #[test]
    fn invalid_circuit_is_rejected() {
        let mut c = Circuit::new(1);
        c.h(Qubit(3));
        assert!(matches!(
            simulate(&c),
            Err(SimulateError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn dynamic_circuits_are_rejected_by_strong_simulation() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0)).reset(Qubit(0));
        assert_eq!(
            simulate(&c),
            Err(SimulateError::NonUnitaryOperation { op_index: 1 })
        );
    }

    #[test]
    fn diagonal_gates_only_change_phases() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0))
            .h(Qubit(1))
            .t(Qubit(0))
            .s(Qubit(1))
            .cz(Qubit(0), Qubit(1));
        let s = simulate(&c).unwrap();
        for i in 0..4 {
            assert!((s.probability(i) - 0.25).abs() < EPS);
        }
    }

    #[test]
    fn circuit_followed_by_adjoint_is_identity() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0))
            .cx(Qubit(0), Qubit(1))
            .t(Qubit(2))
            .rx(Angle::Radians(0.3), Qubit(2))
            .swap(Qubit(1), Qubit(2))
            .cp(Angle::Radians(0.9), Qubit(0), Qubit(2));
        let mut state = StateVector::zero_state(3);
        apply_circuit(&mut state, &c);
        apply_circuit(&mut state, &c.adjoint());
        assert!((state.probability(0) - 1.0).abs() < EPS);
    }
}
