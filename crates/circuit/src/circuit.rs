//! The [`Circuit`] container and its builder methods.

use crate::{CircuitStats, Condition, OneQubitGate, Operation, Permutation, Qubit};
use mathkit::Angle;
use std::borrow::Cow;
use std::fmt;

/// An ordered sequence of [`Operation`]s on a fixed number of qubits.
///
/// All qubits start in `|0>`.  A circuit without explicit
/// [`Operation::Measure`] operations is followed by a computational-basis
/// measurement of every qubit (performed by the simulators, not represented
/// as an operation).  Circuits may also contain explicit measurements that
/// record into a classical register of [`num_clbits`](Self::num_clbits)
/// bits, and [`Operation::Reset`] operations; see
/// [`is_dynamic`](Self::is_dynamic) for how simulators route such circuits.
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Qubit};
///
/// let mut ghz = Circuit::with_name(3, "ghz_3");
/// ghz.h(Qubit(0));
/// ghz.cx(Qubit(0), Qubit(1));
/// ghz.cx(Qubit(1), Qubit(2));
/// assert_eq!(ghz.num_qubits(), 3);
/// assert_eq!(ghz.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    name: String,
    num_qubits: u16,
    num_clbits: u16,
    ops: Vec<Operation>,
}

/// Error returned by [`Circuit::validate`] when an operation references
/// qubits outside the circuit or overlaps controls with targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateCircuitError {
    /// An operation references a qubit index `>= num_qubits`.
    QubitOutOfRange {
        /// Index of the offending operation.
        op_index: usize,
        /// The out-of-range qubit.
        qubit: Qubit,
        /// Number of qubits in the circuit.
        num_qubits: u16,
    },
    /// An operation uses the same qubit as both control and target.
    ControlOverlapsTarget {
        /// Index of the offending operation.
        op_index: usize,
        /// The qubit that appears on both sides.
        qubit: Qubit,
    },
    /// A measurement records into a classical bit index `>= num_clbits`.
    ClbitOutOfRange {
        /// Index of the offending operation.
        op_index: usize,
        /// The out-of-range classical bit.
        cbit: u16,
        /// Number of classical bits in the circuit.
        num_clbits: u16,
    },
    /// The classical register is wider than the 64-bit records the
    /// simulators produce (`1 << cbit` must fit a `u64`).
    ClassicalRegisterTooWide {
        /// The declared classical register width.
        num_clbits: u16,
    },
    /// A classical condition compares the register against a value that does
    /// not fit in [`num_clbits`](Circuit::num_clbits) bits — the condition
    /// could never be satisfied.
    ConditionValueTooWide {
        /// Index of the offending operation.
        op_index: usize,
        /// The compared value.
        value: u64,
        /// Number of classical bits in the circuit.
        num_clbits: u16,
    },
    /// A [`Operation::Conditioned`] wraps another conditioned operation;
    /// nested classical conditions are not supported (OpenQASM 2.0 has no
    /// syntax for them either).
    NestedCondition {
        /// Index of the offending operation.
        op_index: usize,
    },
}

impl fmt::Display for ValidateCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateCircuitError::QubitOutOfRange {
                op_index,
                qubit,
                num_qubits,
            } => write!(
                f,
                "operation {op_index} references {qubit} but the circuit has only {num_qubits} qubits"
            ),
            ValidateCircuitError::ControlOverlapsTarget { op_index, qubit } => write!(
                f,
                "operation {op_index} uses {qubit} as both control and target"
            ),
            ValidateCircuitError::ClbitOutOfRange {
                op_index,
                cbit,
                num_clbits,
            } => write!(
                f,
                "operation {op_index} records into classical bit {cbit} but the circuit has only {num_clbits} classical bits"
            ),
            ValidateCircuitError::ClassicalRegisterTooWide { num_clbits } => write!(
                f,
                "classical register of {num_clbits} bits does not fit the 64-bit measurement records"
            ),
            ValidateCircuitError::ConditionValueTooWide {
                op_index,
                value,
                num_clbits,
            } => write!(
                f,
                "operation {op_index} compares the classical register against {value}, which does not fit in {num_clbits} classical bits"
            ),
            ValidateCircuitError::NestedCondition { op_index } => write!(
                f,
                "operation {op_index} nests one classical condition inside another; conditions cannot be nested"
            ),
        }
    }
}

impl std::error::Error for ValidateCircuitError {}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    #[must_use]
    pub fn new(num_qubits: u16) -> Self {
        Self::with_name(num_qubits, "circuit")
    }

    /// Creates an empty, named circuit (names show up in reports and QASM
    /// headers).
    #[must_use]
    pub fn with_name(num_qubits: u16, name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            num_qubits,
            num_clbits: 0,
            ops: Vec::new(),
        }
    }

    /// The circuit name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// The number of classical bits (the size of the classical register that
    /// [`Operation::Measure`] operations record into).
    #[must_use]
    pub fn num_clbits(&self) -> u16 {
        self.num_clbits
    }

    /// Declares the classical register size explicitly (e.g. from a QASM
    /// `creg` declaration).  The size never shrinks below what recorded
    /// measurements already use.
    pub fn set_num_clbits(&mut self, num_clbits: u16) -> &mut Self {
        self.num_clbits = self.num_clbits.max(num_clbits);
        self
    }

    /// The number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the circuit contains no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in program order.
    #[must_use]
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates over the operations in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Operation> {
        self.ops.iter()
    }

    /// Appends a raw operation.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Appends all operations of `other` (qubit and classical-bit indices
    /// are kept as-is; the classical register grows to cover `other`'s).
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        self.num_clbits = self.num_clbits.max(other.num_clbits);
        self.ops.extend_from_slice(&other.ops);
        self
    }

    /// Appends a single-qubit gate.
    pub fn gate(&mut self, gate: OneQubitGate, target: Qubit) -> &mut Self {
        self.push(Operation::Unitary {
            gate,
            target,
            controls: Vec::new(),
        })
    }

    /// Appends a controlled single-qubit gate with arbitrarily many controls.
    pub fn controlled_gate(
        &mut self,
        gate: OneQubitGate,
        controls: Vec<Qubit>,
        target: Qubit,
    ) -> &mut Self {
        self.push(Operation::Unitary {
            gate,
            target,
            controls,
        })
    }

    /// Appends a Hadamard gate.
    pub fn h(&mut self, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::H, q)
    }

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::X, q)
    }

    /// Appends a Pauli-Y gate.
    pub fn y(&mut self, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::Y, q)
    }

    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::Z, q)
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::S, q)
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::T, q)
    }

    /// Appends a phase gate `diag(1, e^{i theta})`.
    pub fn p(&mut self, theta: Angle, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::Phase(theta), q)
    }

    /// Appends an X-rotation.
    pub fn rx(&mut self, theta: Angle, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::Rx(theta), q)
    }

    /// Appends a Y-rotation.
    pub fn ry(&mut self, theta: Angle, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::Ry(theta), q)
    }

    /// Appends a Z-rotation.
    pub fn rz(&mut self, theta: Angle, q: Qubit) -> &mut Self {
        self.gate(OneQubitGate::Rz(theta), q)
    }

    /// Appends a CNOT gate.
    pub fn cx(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.controlled_gate(OneQubitGate::X, vec![control], target)
    }

    /// Appends a controlled-Z gate.
    pub fn cz(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.controlled_gate(OneQubitGate::Z, vec![control], target)
    }

    /// Appends a controlled phase gate.
    pub fn cp(&mut self, theta: Angle, control: Qubit, target: Qubit) -> &mut Self {
        self.controlled_gate(OneQubitGate::Phase(theta), vec![control], target)
    }

    /// Appends a Toffoli (CCX) gate.
    pub fn ccx(&mut self, c0: Qubit, c1: Qubit, target: Qubit) -> &mut Self {
        self.controlled_gate(OneQubitGate::X, vec![c0, c1], target)
    }

    /// Appends a multi-controlled X gate.
    pub fn mcx(&mut self, controls: Vec<Qubit>, target: Qubit) -> &mut Self {
        self.controlled_gate(OneQubitGate::X, controls, target)
    }

    /// Appends a swap of two qubits.
    pub fn swap(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Operation::Swap {
            a,
            b,
            controls: Vec::new(),
        })
    }

    /// Appends a controlled swap (Fredkin) gate.
    pub fn cswap(&mut self, control: Qubit, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Operation::Swap {
            a,
            b,
            controls: vec![control],
        })
    }

    /// Appends an uncontrolled basis-state permutation.
    pub fn permute(&mut self, permutation: Permutation) -> &mut Self {
        self.push(Operation::Permute {
            permutation,
            controls: Vec::new(),
        })
    }

    /// Appends a controlled basis-state permutation.
    pub fn controlled_permute(
        &mut self,
        controls: Vec<Qubit>,
        permutation: Permutation,
    ) -> &mut Self {
        self.push(Operation::Permute {
            permutation,
            controls,
        })
    }

    /// Appends a measurement of `qubit` into classical bit `cbit`, growing
    /// the classical register to cover `cbit` if necessary.
    pub fn measure(&mut self, qubit: Qubit, cbit: u16) -> &mut Self {
        self.num_clbits = self.num_clbits.max(cbit.saturating_add(1));
        self.push(Operation::Measure { qubit, cbit })
    }

    /// Appends a measurement of every qubit, qubit `k` into classical bit
    /// `k` (the QASM `measure q -> c;` broadcast form).
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.measure(Qubit(q), q);
        }
        self
    }

    /// Appends a reset of `qubit` to `|0>`.
    pub fn reset(&mut self, qubit: Qubit) -> &mut Self {
        self.push(Operation::Reset { qubit })
    }

    /// Appends `op` guarded by the classical condition `creg == value`
    /// (QASM `if (c==value) gate;`): during trajectory simulation the
    /// operation is applied only when the classical register currently holds
    /// `value`.  The inner operation may be a unitary gate, a
    /// [`Measure`](Operation::Measure) or a [`Reset`](Operation::Reset) —
    /// anything but another condition; see [`validate`](Self::validate).
    ///
    /// Like [`measure`](Self::measure), this grows the classical register to
    /// cover the compared value (at least one bit) and, for a conditioned
    /// measurement, its recorded classical bit — so the circuit always
    /// carries the `creg` its conditions read and write.
    pub fn conditioned(&mut self, value: u64, op: Operation) -> &mut Self {
        let width = u16::try_from(64 - value.leading_zeros())
            .expect("width is at most 64")
            .max(1);
        self.num_clbits = self.num_clbits.max(width);
        if let Operation::Measure { cbit, .. } = op {
            self.num_clbits = self.num_clbits.max(cbit.saturating_add(1));
        }
        self.push(Operation::Conditioned {
            condition: Condition::equals(value),
            op: Box::new(op),
        })
    }

    /// Appends a single-qubit gate guarded by `creg == value` — the common
    /// case of classically-conditioned corrections (e.g. the phase feedback
    /// of iterative phase estimation).
    pub fn conditioned_gate(&mut self, value: u64, gate: OneQubitGate, target: Qubit) -> &mut Self {
        self.conditioned(
            value,
            Operation::Unitary {
                gate,
                target,
                controls: Vec::new(),
            },
        )
    }

    /// Returns `true` if the circuit contains at least one
    /// [`Operation::Measure`], standalone or under a classical condition
    /// (`if (c==k) measure ...;`) — either kind writes the classical
    /// register.
    #[must_use]
    pub fn has_measurements(&self) -> bool {
        self.ops.iter().any(|op| {
            let inner = match op {
                Operation::Conditioned { op, .. } => op.as_ref(),
                other => other,
            };
            matches!(inner, Operation::Measure { .. })
        })
    }

    /// Returns `true` if the circuit needs trajectory-style (per-shot)
    /// simulation: it contains a [`Operation::Reset`] or
    /// [`Operation::Conditioned`] anywhere, or a [`Operation::Measure`] that
    /// is followed by any non-measurement operation.
    ///
    /// Circuits whose measurements all sit in one trailing block are *not*
    /// dynamic: they are equivalent to a unitary circuit followed by one
    /// terminal read-out, so simulators can route them through the fast
    /// one-pass sampling path.
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        self.terminal_measurements_start().is_none()
    }

    /// Where the trailing block of [`Operation::Measure`]s of a static
    /// circuit begins — [`len`](Self::len) for a circuit without
    /// measurements — or `None` if the circuit
    /// [`is_dynamic`](Self::is_dynamic).  One walk over the operations
    /// answers both; [`split_terminal_measurements`](Self::split_terminal_measurements)
    /// takes the start it returns.
    #[must_use]
    pub fn terminal_measurements_start(&self) -> Option<usize> {
        let mut start = None;
        for (index, op) in self.ops.iter().enumerate() {
            match op {
                Operation::Reset { .. } | Operation::Conditioned { .. } => return None,
                Operation::Measure { .. } => {
                    start.get_or_insert(index);
                }
                _ if start.is_some() => return None,
                _ => {}
            }
        }
        Some(start.unwrap_or(self.ops.len()))
    }

    /// The index of the first operation that is not unconditionally
    /// unitary — a measurement, reset or classically-conditioned gate — or
    /// `None` for a unitary circuit.  Strong simulation, which produces one
    /// final state, is defined only when this is `None`.
    #[must_use]
    pub fn first_non_unitary(&self) -> Option<usize> {
        self.ops
            .iter()
            .position(|op| op.is_non_unitary() || op.is_conditioned())
    }

    /// Splits a *non-dynamic* circuit at `start`, the value of
    /// [`terminal_measurements_start`](Self::terminal_measurements_start),
    /// into its unitary prefix and the `(qubit, cbit)` pairs of the trailing
    /// measurement block.  A circuit without measurements (`start` equal to
    /// [`len`](Self::len)) is its own prefix, borrowed, with an empty
    /// mapping.
    ///
    /// # Panics
    ///
    /// Panics if an operation from `start` on is not a measurement.
    #[must_use]
    pub fn split_terminal_measurements(
        &self,
        start: usize,
    ) -> (Cow<'_, Circuit>, Vec<(Qubit, u16)>) {
        if start == self.ops.len() {
            return (Cow::Borrowed(self), Vec::new());
        }
        let prefix = Circuit {
            name: self.name.clone(),
            num_qubits: self.num_qubits,
            num_clbits: self.num_clbits,
            ops: self.ops[..start].to_vec(),
        };
        let mapping = self.ops[start..]
            .iter()
            .map(|op| match op {
                Operation::Measure { qubit, cbit } => (*qubit, *cbit),
                other => panic!("non-measure op {other} in the terminal block"),
            })
            .collect();
        (Cow::Owned(prefix), mapping)
    }

    /// Checks that every operation only references qubits inside the circuit
    /// and never overlaps controls with targets.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, identifying the operation index.
    pub fn validate(&self) -> Result<(), ValidateCircuitError> {
        if self.num_clbits > 64 {
            return Err(ValidateCircuitError::ClassicalRegisterTooWide {
                num_clbits: self.num_clbits,
            });
        }
        for (op_index, op) in self.ops.iter().enumerate() {
            for q in op.support() {
                if q.index() >= usize::from(self.num_qubits) {
                    return Err(ValidateCircuitError::QubitOutOfRange {
                        op_index,
                        qubit: q,
                        num_qubits: self.num_qubits,
                    });
                }
            }
            let targets = op.targets();
            for c in op.controls() {
                if targets.contains(c) {
                    return Err(ValidateCircuitError::ControlOverlapsTarget {
                        op_index,
                        qubit: *c,
                    });
                }
            }
            if let Operation::Conditioned { condition, op } = op {
                if op.is_conditioned() {
                    return Err(ValidateCircuitError::NestedCondition { op_index });
                }
                // The register-width cap above guarantees the shift is in
                // range whenever num_clbits < 64; a full 64-bit register
                // admits every u64 value.
                if self.num_clbits < 64 && condition.value >> self.num_clbits != 0 {
                    return Err(ValidateCircuitError::ConditionValueTooWide {
                        op_index,
                        value: condition.value,
                        num_clbits: self.num_clbits,
                    });
                }
            }
            // Classical-bit range checks apply to measurements whether they
            // stand alone or sit under a classical guard.
            let inner = match op {
                Operation::Conditioned { op, .. } => op.as_ref(),
                other => other,
            };
            if let Operation::Measure { cbit, .. } = inner {
                if *cbit >= self.num_clbits {
                    return Err(ValidateCircuitError::ClbitOutOfRange {
                        op_index,
                        cbit: *cbit,
                        num_clbits: self.num_clbits,
                    });
                }
            }
        }
        Ok(())
    }

    /// Computes gate counts and depth.
    #[must_use]
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::of(self)
    }

    /// Returns the circuit with every operation replaced by its inverse, in
    /// reverse order (the adjoint circuit).
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains a non-unitary operation
    /// ([`Operation::Measure`] or [`Operation::Reset`]): measurements and
    /// resets have no inverse.
    #[must_use]
    pub fn adjoint(&self) -> Circuit {
        fn inverted(op: &Operation) -> Operation {
            match op {
                Operation::Unitary {
                    gate,
                    target,
                    controls,
                } => Operation::Unitary {
                    gate: gate.adjoint(),
                    target: *target,
                    controls: controls.clone(),
                },
                Operation::Swap { .. } => op.clone(),
                Operation::Permute {
                    permutation,
                    controls,
                } => Operation::Permute {
                    permutation: permutation.inverse(),
                    controls: controls.clone(),
                },
                // A condition reads only the classical register, which no
                // unitary circuit ever writes, so inverting the guarded gate
                // under the same guard inverts the conditioned operation.
                Operation::Conditioned { condition, op } => Operation::Conditioned {
                    condition: *condition,
                    op: Box::new(inverted(op)),
                },
                Operation::Measure { .. } | Operation::Reset { .. } => {
                    panic!("cannot invert the non-unitary operation '{op}'")
                }
            }
        }
        let mut out = Circuit::with_name(self.num_qubits, format!("{}_dg", self.name));
        for op in self.ops.iter().rev() {
            out.push(inverted(op));
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} qubits, {} ops)",
            self.name,
            self.num_qubits,
            self.ops.len()
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl Extend<Operation> for Circuit {
    fn extend<T: IntoIterator<Item = Operation>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_append_operations() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0))
            .x(Qubit(1))
            .cx(Qubit(0), Qubit(1))
            .ccx(Qubit(0), Qubit(1), Qubit(2))
            .swap(Qubit(0), Qubit(2))
            .cp(Angle::pi_over(2), Qubit(0), Qubit(1));
        assert_eq!(c.len(), 6);
        assert!(c.validate().is_ok());
        assert!(!c.is_empty());
    }

    #[test]
    fn validation_catches_out_of_range_qubits() {
        let mut c = Circuit::new(2);
        c.h(Qubit(5));
        assert!(matches!(
            c.validate(),
            Err(ValidateCircuitError::QubitOutOfRange {
                qubit: Qubit(5),
                ..
            })
        ));
    }

    #[test]
    fn validation_catches_control_target_overlap() {
        let mut c = Circuit::new(2);
        c.controlled_gate(OneQubitGate::X, vec![Qubit(1)], Qubit(1));
        assert!(matches!(
            c.validate(),
            Err(ValidateCircuitError::ControlOverlapsTarget {
                qubit: Qubit(1),
                ..
            })
        ));
    }

    #[test]
    fn adjoint_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).s(Qubit(1)).cx(Qubit(0), Qubit(1));
        let adj = c.adjoint();
        assert_eq!(adj.len(), 3);
        // Last op of adjoint is the inverse of the first op of the original.
        match &adj.operations()[2] {
            Operation::Unitary { gate, .. } => assert_eq!(*gate, OneQubitGate::H),
            other => panic!("unexpected op {other:?}"),
        }
        match &adj.operations()[1] {
            Operation::Unitary { gate, .. } => assert_eq!(*gate, OneQubitGate::Sdg),
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn extend_and_iterate() {
        let mut a = Circuit::new(2);
        a.h(Qubit(0));
        let mut b = Circuit::new(2);
        b.x(Qubit(1));
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().count(), 2);
        assert_eq!((&a).into_iter().count(), 2);
    }

    #[test]
    fn measure_grows_the_classical_register() {
        let mut c = Circuit::new(3);
        assert_eq!(c.num_clbits(), 0);
        c.h(Qubit(0)).measure(Qubit(0), 2);
        assert_eq!(c.num_clbits(), 3);
        c.set_num_clbits(5);
        assert_eq!(c.num_clbits(), 5);
        c.set_num_clbits(1); // never shrinks
        assert_eq!(c.num_clbits(), 5);
        assert!(c.validate().is_ok());
        assert!(c.has_measurements());
    }

    #[test]
    fn measure_all_maps_qubit_k_to_clbit_k() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0)).measure_all();
        assert_eq!(c.num_clbits(), 3);
        assert_eq!(c.len(), 4);
        match &c.operations()[2] {
            Operation::Measure { qubit, cbit } => {
                assert_eq!(*qubit, Qubit(1));
                assert_eq!(*cbit, 1);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn validation_catches_clbit_out_of_range() {
        let mut c = Circuit::new(2);
        c.push(Operation::Measure {
            qubit: Qubit(0),
            cbit: 3,
        });
        assert!(matches!(
            c.validate(),
            Err(ValidateCircuitError::ClbitOutOfRange { cbit: 3, .. })
        ));
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("classical bit 3"));
    }

    #[test]
    fn validation_rejects_classical_registers_wider_than_64_bits() {
        // Records are u64 bitstrings: `1 << cbit` must never overflow.
        let mut c = Circuit::new(1);
        c.measure(Qubit(0), 64);
        assert!(matches!(
            c.validate(),
            Err(ValidateCircuitError::ClassicalRegisterTooWide { num_clbits: 65 })
        ));
        let mut ok = Circuit::new(1);
        ok.measure(Qubit(0), 63);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn dynamic_detection_and_terminal_split() {
        // No measurements at all: static, empty mapping, full prefix.
        let mut unitary = Circuit::new(2);
        unitary.h(Qubit(0)).cx(Qubit(0), Qubit(1));
        assert!(!unitary.is_dynamic());
        assert_eq!(unitary.terminal_measurements_start(), Some(2));
        let (prefix, mapping) = unitary.split_terminal_measurements(2);
        assert!(matches!(prefix, Cow::Borrowed(_)));
        assert!(mapping.is_empty());

        // Trailing measurement block: static with a mapping.
        let mut terminal = unitary.clone();
        terminal.measure(Qubit(1), 0).measure(Qubit(0), 1);
        assert!(!terminal.is_dynamic());
        assert_eq!(terminal.terminal_measurements_start(), Some(2));
        let (prefix, mapping) = terminal.split_terminal_measurements(2);
        assert_eq!(prefix.len(), 2);
        assert_eq!(prefix.num_clbits(), 2);
        assert_eq!(mapping, vec![(Qubit(1), 0), (Qubit(0), 1)]);

        // A gate after a measurement makes the circuit dynamic.
        let mut dynamic = Circuit::new(2);
        dynamic.h(Qubit(0)).measure(Qubit(0), 0).x(Qubit(1));
        assert!(dynamic.is_dynamic());
        assert_eq!(dynamic.terminal_measurements_start(), None);

        // A reset anywhere makes the circuit dynamic.
        let mut with_reset = Circuit::new(1);
        with_reset.h(Qubit(0)).reset(Qubit(0));
        assert!(with_reset.is_dynamic());
    }

    #[test]
    fn first_non_unitary_finds_measure_reset_and_conditions() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cx(Qubit(0), Qubit(1));
        assert_eq!(c.first_non_unitary(), None);
        // A terminal measurement is not dynamic, but it is not unitary.
        c.measure(Qubit(0), 0);
        assert!(!c.is_dynamic());
        assert_eq!(c.first_non_unitary(), Some(2));
        let mut reset = Circuit::new(1);
        reset.x(Qubit(0)).reset(Qubit(0));
        assert_eq!(reset.first_non_unitary(), Some(1));
        let mut conditioned = Circuit::new(1);
        conditioned.conditioned_gate(0, OneQubitGate::X, Qubit(0));
        assert_eq!(conditioned.first_non_unitary(), Some(0));
    }

    #[test]
    fn conditioned_gates_make_circuits_dynamic_and_validate() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0))
            .measure(Qubit(0), 0)
            .conditioned_gate(1, OneQubitGate::X, Qubit(1));
        assert!(c.is_dynamic());
        assert_eq!(c.terminal_measurements_start(), None);
        assert!(c.validate().is_ok());
        assert_eq!(c.stats().counts["if x"], 1);

        // The builder grows the classical register to cover the compared
        // value (and to at least one bit), like `measure` does for its cbit.
        let mut growing = Circuit::new(1);
        growing.conditioned_gate(0, OneQubitGate::X, Qubit(0));
        assert_eq!(growing.num_clbits(), 1);
        growing.conditioned_gate(5, OneQubitGate::X, Qubit(0));
        assert_eq!(growing.num_clbits(), 3);
        assert!(growing.validate().is_ok());

        // A condition value wider than the classical register (reachable via
        // raw `push`, never via the growing builder) can never fire.
        let mut wide = Circuit::new(1);
        wide.measure(Qubit(0), 0).push(Operation::Conditioned {
            condition: Condition::equals(2),
            op: Box::new(Operation::Unitary {
                gate: OneQubitGate::X,
                target: Qubit(0),
                controls: vec![],
            }),
        });
        assert!(matches!(
            wide.validate(),
            Err(ValidateCircuitError::ConditionValueTooWide {
                value: 2,
                num_clbits: 1,
                ..
            })
        ));
        let msg = wide.validate().unwrap_err().to_string();
        assert!(msg.contains("does not fit in 1 classical bits"));

        // Conditioned qubits still go through the range check.
        let mut bad_qubit = Circuit::new(1);
        bad_qubit.conditioned_gate(0, OneQubitGate::X, Qubit(7));
        assert!(matches!(
            bad_qubit.validate(),
            Err(ValidateCircuitError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn conditioned_measure_and_reset_validate_but_nesting_is_rejected() {
        // `if (c==k) measure;` and `if (c==k) reset;` are part of the
        // OpenQASM 2.0 subset and validate fine.
        let mut c = Circuit::new(1);
        c.measure(Qubit(0), 0)
            .conditioned(
                1,
                Operation::Measure {
                    qubit: Qubit(0),
                    cbit: 1,
                },
            )
            .conditioned(0, Operation::Reset { qubit: Qubit(0) });
        assert_eq!(c.num_clbits(), 2, "conditioned measure grows the creg");
        assert!(c.validate().is_ok(), "{c}");
        assert!(c.has_measurements());
        assert_eq!(c.stats().counts["if measure"], 1);
        assert_eq!(c.stats().counts["if reset"], 1);

        // Nested conditions stay outside the subset.
        let mut nested = Circuit::new(1);
        nested.measure(Qubit(0), 0).conditioned(
            0,
            Operation::Conditioned {
                condition: Condition::equals(0),
                op: Box::new(Operation::Reset { qubit: Qubit(0) }),
            },
        );
        assert!(
            matches!(
                nested.validate(),
                Err(ValidateCircuitError::NestedCondition { op_index: 1 })
            ),
            "{nested}"
        );

        // A conditioned measurement's classical bit is still range-checked
        // (reachable via raw `push`, never via the growing builder).
        let mut wide = Circuit::new(1);
        wide.measure(Qubit(0), 0).push(Operation::Conditioned {
            condition: Condition::equals(0),
            op: Box::new(Operation::Measure {
                qubit: Qubit(0),
                cbit: 9,
            }),
        });
        assert!(matches!(
            wide.validate(),
            Err(ValidateCircuitError::ClbitOutOfRange { cbit: 9, .. })
        ));
    }

    #[test]
    fn adjoint_inverts_conditioned_gates_under_the_same_guard() {
        let mut c = Circuit::new(1);
        c.conditioned_gate(1, OneQubitGate::S, Qubit(0));
        let adj = c.adjoint();
        match &adj.operations()[0] {
            Operation::Conditioned { condition, op } => {
                assert_eq!(condition.value, 1);
                assert!(matches!(
                    op.as_ref(),
                    Operation::Unitary {
                        gate: OneQubitGate::Sdg,
                        ..
                    }
                ));
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot invert")]
    fn adjoint_rejects_measurements() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0)).measure(Qubit(0), 0);
        let _ = c.adjoint();
    }

    #[test]
    fn extend_from_merges_classical_registers() {
        let mut a = Circuit::new(2);
        a.h(Qubit(0));
        let mut b = Circuit::new(2);
        b.measure(Qubit(1), 4);
        a.extend_from(&b);
        assert_eq!(a.num_clbits(), 5);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn naming() {
        let mut c = Circuit::with_name(1, "test");
        assert_eq!(c.name(), "test");
        c.set_name("renamed");
        assert_eq!(c.name(), "renamed");
        assert!(c.to_string().contains("renamed"));
    }

    #[test]
    fn display_lists_operations() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cx(Qubit(0), Qubit(1));
        let text = c.to_string();
        assert!(text.contains("h q[0]"));
        assert!(text.contains("x q[1] ctrl[q[0]]"));
    }
}
