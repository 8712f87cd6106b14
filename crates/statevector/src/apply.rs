//! Gate application (strong simulation) on dense state vectors.

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

/// Builds the bitmask with a 1 at every control qubit position.
fn control_mask(controls: &[Qubit]) -> usize {
    controls
        .iter()
        .fold(0usize, |m, q| m | (1usize << q.index()))
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
    let c_mask = control_mask(controls);
    assert_eq!(
        c_mask & t_mask,
        0,
        "control qubits must not overlap the target"
    );
    let amps = state.amplitudes_mut();
    let len = amps.len();
    let mut base = 0usize;
    while base < len {
        // Visit each index with target bit = 0 exactly once.
        if base & t_mask == 0 {
            if base & c_mask == c_mask {
                let partner = base | t_mask;
                let a0 = amps[base];
                let a1 = amps[partner];
                amps[base] = matrix[0][0] * a0 + matrix[0][1] * a1;
                amps[partner] = matrix[1][0] * a0 + matrix[1][1] * a1;
            }
            base += 1;
        } else {
            // Skip the whole block where the target bit is set.
            base += 1;
        }
    }
}

fn apply_controlled_swap(state: &mut StateVector, a: Qubit, b: Qubit, controls: &[Qubit]) {
    if a == b {
        return;
    }
    let a_mask = 1usize << a.index();
    let b_mask = 1usize << b.index();
    let c_mask = control_mask(controls);
    let amps = state.amplitudes_mut();
    for i in 0..amps.len() {
        // Swap amplitude pairs where qubit a is 1 and qubit b is 0 (visiting
        // each unordered pair exactly once) and all controls are set.
        if i & a_mask != 0 && i & b_mask == 0 && i & c_mask == c_mask {
            let j = (i & !a_mask) | b_mask;
            amps.swap(i, j);
        }
    }
}

fn apply_controlled_permutation(
    state: &mut StateVector,
    permutation: &circuit::Permutation,
    controls: &[Qubit],
) {
    let c_mask = control_mask(controls);
    let qubits = permutation.qubits();
    let len = state.len();
    let old = state.amplitudes().to_vec();
    let mut new = vec![Complex::ZERO; len];

    for (index, amp) in old.iter().enumerate() {
        if amp.is_zero() {
            continue;
        }
        if index & c_mask != c_mask {
            new[index] += *amp;
            continue;
        }
        // Extract the register value.
        let mut value = 0u64;
        for (bit, q) in qubits.iter().enumerate() {
            if index & (1usize << q.index()) != 0 {
                value |= 1 << bit;
            }
        }
        let mapped = permutation.apply(value);
        // Scatter the register value back into the index.
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
    state.replace_amplitudes(new);
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
    if let Some(op_index) = circuit
        .iter()
        .position(|op| op.is_non_unitary() || op.is_conditioned())
    {
        return Err(SimulateError::NonUnitaryOperation { op_index });
    }
    let mut state = StateVector::zero_state(circuit.num_qubits());
    apply_circuit(&mut state, circuit);
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Permutation;
    use mathkit::{Angle, SQRT1_2};

    const EPS: f64 = 1e-12;

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
