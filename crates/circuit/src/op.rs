//! The lowered operation set.

use crate::{OneQubitGate, Qubit};
use std::fmt;

/// A basis-state permutation acting on an ordered register of qubits.
///
/// The permutation maps the register value `v` (with `qubits[0]` as the least
/// significant bit) to `mapping[v]`.  Permutations are unitary, so they are a
/// legitimate circuit operation; they are used by the Shor benchmark
/// generator to express controlled modular multiplication without expanding
/// it into an adder network (see `DESIGN.md`, substitutions).
///
/// # Examples
///
/// ```
/// use circuit::{Permutation, Qubit};
///
/// // A 2-qubit cyclic increment: |v> -> |v+1 mod 4>.
/// let perm = Permutation::new(vec![Qubit(0), Qubit(1)], vec![1, 2, 3, 0]).unwrap();
/// assert_eq!(perm.apply(3), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    qubits: Vec<Qubit>,
    mapping: Vec<u64>,
}

/// Error returned when a [`Permutation`] description is not a bijection of
/// the right size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildPermutationError {
    /// The mapping length is not `2^k` for `k` register qubits.
    WrongLength {
        /// Number of qubits in the register.
        qubits: usize,
        /// Length of the provided mapping.
        len: usize,
    },
    /// The mapping is not a bijection on `0..2^k`.
    NotBijective,
    /// The register mentions the same qubit twice.
    DuplicateQubit(Qubit),
}

impl fmt::Display for BuildPermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPermutationError::WrongLength { qubits, len } => write!(
                f,
                "permutation over {qubits} qubits must have 2^{qubits} entries, got {len}"
            ),
            BuildPermutationError::NotBijective => {
                write!(f, "permutation mapping is not a bijection")
            }
            BuildPermutationError::DuplicateQubit(q) => {
                write!(f, "duplicate qubit {q} in permutation register")
            }
        }
    }
}

impl std::error::Error for BuildPermutationError {}

impl Permutation {
    /// Creates a permutation over the given register.
    ///
    /// # Errors
    ///
    /// Returns an error if the mapping length is not `2^qubits.len()`, the
    /// mapping is not a bijection, or the register repeats a qubit.
    pub fn new(qubits: Vec<Qubit>, mapping: Vec<u64>) -> Result<Self, BuildPermutationError> {
        let expected = 1usize
            .checked_shl(u32::try_from(qubits.len()).unwrap_or(u32::MAX))
            .unwrap_or(0);
        if expected == 0 || mapping.len() != expected {
            return Err(BuildPermutationError::WrongLength {
                qubits: qubits.len(),
                len: mapping.len(),
            });
        }
        let mut seen_qubits = std::collections::HashSet::new();
        for &q in &qubits {
            if !seen_qubits.insert(q) {
                return Err(BuildPermutationError::DuplicateQubit(q));
            }
        }
        let mut seen = vec![false; mapping.len()];
        for &m in &mapping {
            let idx = usize::try_from(m).ok().filter(|&i| i < mapping.len());
            match idx {
                Some(i) if !seen[i] => seen[i] = true,
                _ => return Err(BuildPermutationError::NotBijective),
            }
        }
        Ok(Self { qubits, mapping })
    }

    /// The register the permutation acts on (least-significant qubit first).
    #[must_use]
    pub fn qubits(&self) -> &[Qubit] {
        &self.qubits
    }

    /// The full mapping table.
    #[must_use]
    pub fn mapping(&self) -> &[u64] {
        &self.mapping
    }

    /// Applies the permutation to a register value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `0..2^k`.
    #[must_use]
    pub fn apply(&self, value: u64) -> u64 {
        self.mapping[usize::try_from(value).expect("register value out of range")]
    }

    /// The inverse permutation.
    #[must_use]
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u64; self.mapping.len()];
        for (src, &dst) in self.mapping.iter().enumerate() {
            inv[usize::try_from(dst).expect("bijection checked at construction")] = src as u64;
        }
        Permutation {
            qubits: self.qubits.clone(),
            mapping: inv,
        }
    }
}

/// A classical equality condition guarding an operation: the full classical
/// register compared against a constant, the semantics of OpenQASM 2.0
/// `if (c==k) ...` statements.
///
/// # Examples
///
/// ```
/// use circuit::Condition;
///
/// let cond = Condition::equals(0b101);
/// assert!(cond.is_satisfied_by(0b101));
/// assert!(!cond.is_satisfied_by(0b001));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Condition {
    /// The value the classical register must equal for the guarded operation
    /// to fire.
    pub value: u64,
}

impl Condition {
    /// Creates the condition `creg == value`.
    #[must_use]
    pub fn equals(value: u64) -> Self {
        Self { value }
    }

    /// Evaluates the condition against a classical-register record.
    #[must_use]
    pub fn is_satisfied_by(self, record: u64) -> bool {
        record == self.value
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c=={}", self.value)
    }
}

/// A lowered circuit operation.
///
/// Every unitary operation optionally carries *positive controls*: the
/// operation is applied to the targets only on the subspace where all
/// control qubits are in state `|1>`.
///
/// [`Measure`](Operation::Measure) and [`Reset`](Operation::Reset) are the
/// two *non-unitary* members of the alphabet.  They make circuits *dynamic*:
/// the state evolution after one of them depends on a sampled outcome, so
/// such circuits are simulated trajectory-by-trajectory (see the `weaksim`
/// crate) instead of by a single strong-simulation pass.
///
/// [`Conditioned`](Operation::Conditioned) wraps an operation in a classical
/// [`Condition`]: the inner operation is applied only when the classical
/// register currently equals the compared value.  The inner operation may be
/// a unitary gate or one of the non-unitary operations (`if (c==k) measure`
/// and `if (c==k) reset` are legal OpenQASM 2.0), but never another
/// condition.  Conditioned operations also make a circuit dynamic — which
/// operations fire depends on earlier measurement outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// A (multi-)controlled single-qubit unitary.
    Unitary {
        /// The single-qubit gate to apply.
        gate: OneQubitGate,
        /// The target qubit.
        target: Qubit,
        /// Positive control qubits (may be empty).
        controls: Vec<Qubit>,
    },
    /// A (multi-)controlled swap of two qubits.
    Swap {
        /// First swapped qubit.
        a: Qubit,
        /// Second swapped qubit.
        b: Qubit,
        /// Positive control qubits (may be empty).
        controls: Vec<Qubit>,
    },
    /// A (multi-)controlled basis-state permutation of a register.
    Permute {
        /// The permutation to apply.
        permutation: Permutation,
        /// Positive control qubits (may be empty).
        controls: Vec<Qubit>,
    },
    /// A computational-basis measurement of one qubit, recording the outcome
    /// into a classical bit and collapsing the state.
    Measure {
        /// The measured qubit.
        qubit: Qubit,
        /// Index of the classical bit receiving the outcome.
        cbit: u16,
    },
    /// A reset of one qubit to `|0>` (measure, then flip on outcome `1`).
    Reset {
        /// The qubit forced back to `|0>`.
        qubit: Qubit,
    },
    /// A classically-conditioned operation (QASM `if (c==k) gate;`, `if
    /// (c==k) measure ...;` or `if (c==k) reset ...;`): `op` is applied only
    /// when the classical register equals `condition.value`.  The inner
    /// operation may be any non-conditioned operation;
    /// [`Circuit::validate`](crate::Circuit::validate) rejects nested
    /// conditions.
    Conditioned {
        /// The classical guard.
        condition: Condition,
        /// The guarded operation (never itself conditioned).
        op: Box<Operation>,
    },
}

impl Operation {
    /// The qubits written by this operation (targets, not controls).
    #[must_use]
    pub fn targets(&self) -> Vec<Qubit> {
        match self {
            Operation::Unitary { target, .. } => vec![*target],
            Operation::Swap { a, b, .. } => vec![*a, *b],
            Operation::Permute { permutation, .. } => permutation.qubits().to_vec(),
            Operation::Measure { qubit, .. } | Operation::Reset { qubit } => vec![*qubit],
            Operation::Conditioned { op, .. } => op.targets(),
        }
    }

    /// The control qubits of this operation.
    #[must_use]
    pub fn controls(&self) -> &[Qubit] {
        match self {
            Operation::Unitary { controls, .. }
            | Operation::Swap { controls, .. }
            | Operation::Permute { controls, .. } => controls,
            Operation::Measure { .. } | Operation::Reset { .. } => &[],
            Operation::Conditioned { op, .. } => op.controls(),
        }
    }

    /// Returns `true` for the non-unitary operations ([`Measure`] and
    /// [`Reset`]) that require trajectory-style simulation.
    ///
    /// [`Measure`]: Operation::Measure
    /// [`Reset`]: Operation::Reset
    #[must_use]
    pub fn is_non_unitary(&self) -> bool {
        matches!(self, Operation::Measure { .. } | Operation::Reset { .. })
    }

    /// Returns `true` for [`Conditioned`](Operation::Conditioned) operations,
    /// whose effect depends on the classical register and which therefore
    /// require trajectory-style simulation (like the non-unitary operations,
    /// they have no meaning in a single strong-simulation pass).
    #[must_use]
    pub fn is_conditioned(&self) -> bool {
        matches!(self, Operation::Conditioned { .. })
    }

    /// The classical guard of a [`Conditioned`](Operation::Conditioned)
    /// operation, or `None` for unconditioned operations.
    #[must_use]
    pub fn condition(&self) -> Option<Condition> {
        match self {
            Operation::Conditioned { condition, .. } => Some(*condition),
            _ => None,
        }
    }

    /// All qubits touched by this operation (controls and targets).
    #[must_use]
    pub fn support(&self) -> Vec<Qubit> {
        let mut qs = self.targets();
        qs.extend_from_slice(self.controls());
        qs
    }

    /// The highest qubit index touched, or `None` for an operation on an
    /// empty register.
    #[must_use]
    pub fn max_qubit(&self) -> Option<Qubit> {
        self.support().into_iter().max()
    }

    /// Returns `true` if the operation has at least one control.
    #[must_use]
    pub fn is_controlled(&self) -> bool {
        !self.controls().is_empty()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let controls = |cs: &[Qubit]| -> String {
            if cs.is_empty() {
                String::new()
            } else {
                let list: Vec<String> = cs.iter().map(|q| q.to_string()).collect();
                format!(" ctrl[{}]", list.join(","))
            }
        };
        match self {
            Operation::Unitary {
                gate,
                target,
                controls: cs,
            } => write!(f, "{gate} {target}{}", controls(cs)),
            Operation::Swap { a, b, controls: cs } => {
                write!(f, "swap {a},{b}{}", controls(cs))
            }
            Operation::Permute {
                permutation,
                controls: cs,
            } => write!(
                f,
                "permute[{} qubits]{}",
                permutation.qubits().len(),
                controls(cs)
            ),
            Operation::Measure { qubit, cbit } => write!(f, "measure {qubit} -> c[{cbit}]"),
            Operation::Reset { qubit } => write!(f, "reset {qubit}"),
            Operation::Conditioned { condition, op } => write!(f, "if ({condition}) {op}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_validation() {
        assert!(Permutation::new(vec![Qubit(0)], vec![1, 0]).is_ok());
        assert!(matches!(
            Permutation::new(vec![Qubit(0)], vec![0, 1, 2]),
            Err(BuildPermutationError::WrongLength { .. })
        ));
        assert!(matches!(
            Permutation::new(vec![Qubit(0)], vec![0, 0]),
            Err(BuildPermutationError::NotBijective)
        ));
        assert!(matches!(
            Permutation::new(vec![Qubit(0), Qubit(0)], vec![0, 1, 2, 3]),
            Err(BuildPermutationError::DuplicateQubit(_))
        ));
        assert!(matches!(
            Permutation::new(vec![Qubit(0)], vec![0, 5]),
            Err(BuildPermutationError::NotBijective)
        ));
    }

    #[test]
    fn permutation_apply_and_inverse() {
        let p = Permutation::new(vec![Qubit(0), Qubit(1)], vec![2, 3, 0, 1]).unwrap();
        assert_eq!(p.apply(0), 2);
        assert_eq!(p.apply(2), 0);
        let inv = p.inverse();
        for v in 0..4 {
            assert_eq!(inv.apply(p.apply(v)), v);
        }
    }

    #[test]
    fn operation_accessors() {
        let op = Operation::Unitary {
            gate: OneQubitGate::X,
            target: Qubit(2),
            controls: vec![Qubit(0), Qubit(1)],
        };
        assert_eq!(op.targets(), vec![Qubit(2)]);
        assert_eq!(op.controls(), &[Qubit(0), Qubit(1)]);
        assert_eq!(op.max_qubit(), Some(Qubit(2)));
        assert!(op.is_controlled());

        let swap = Operation::Swap {
            a: Qubit(4),
            b: Qubit(1),
            controls: vec![],
        };
        assert_eq!(swap.targets(), vec![Qubit(4), Qubit(1)]);
        assert_eq!(swap.max_qubit(), Some(Qubit(4)));
        assert!(!swap.is_controlled());
    }

    #[test]
    fn measure_and_reset_accessors() {
        let m = Operation::Measure {
            qubit: Qubit(3),
            cbit: 1,
        };
        assert_eq!(m.targets(), vec![Qubit(3)]);
        assert!(m.controls().is_empty());
        assert!(m.is_non_unitary());
        assert!(!m.is_controlled());
        assert_eq!(m.max_qubit(), Some(Qubit(3)));
        assert_eq!(m.to_string(), "measure q[3] -> c[1]");

        let r = Operation::Reset { qubit: Qubit(0) };
        assert_eq!(r.targets(), vec![Qubit(0)]);
        assert!(r.is_non_unitary());
        assert_eq!(r.to_string(), "reset q[0]");

        let u = Operation::Unitary {
            gate: OneQubitGate::H,
            target: Qubit(0),
            controls: vec![],
        };
        assert!(!u.is_non_unitary());
    }

    #[test]
    fn conditioned_accessors_delegate_to_the_inner_operation() {
        let op = Operation::Conditioned {
            condition: Condition::equals(3),
            op: Box::new(Operation::Unitary {
                gate: OneQubitGate::X,
                target: Qubit(2),
                controls: vec![Qubit(0)],
            }),
        };
        assert_eq!(op.targets(), vec![Qubit(2)]);
        assert_eq!(op.controls(), &[Qubit(0)]);
        assert_eq!(op.max_qubit(), Some(Qubit(2)));
        assert!(op.is_conditioned());
        assert!(!op.is_non_unitary());
        assert_eq!(op.condition(), Some(Condition::equals(3)));
        assert_eq!(op.to_string(), "if (c==3) x q[2] ctrl[q[0]]");

        let plain = Operation::Reset { qubit: Qubit(0) };
        assert!(!plain.is_conditioned());
        assert_eq!(plain.condition(), None);
    }

    #[test]
    fn condition_evaluates_whole_register_equality() {
        let cond = Condition::equals(0b10);
        assert!(cond.is_satisfied_by(0b10));
        assert!(!cond.is_satisfied_by(0b11));
        assert!(!cond.is_satisfied_by(0));
        assert_eq!(cond.to_string(), "c==2");
    }

    #[test]
    fn display_of_operations() {
        let op = Operation::Unitary {
            gate: OneQubitGate::H,
            target: Qubit(0),
            controls: vec![Qubit(3)],
        };
        assert_eq!(op.to_string(), "h q[0] ctrl[q[3]]");
        let p = Permutation::new(vec![Qubit(0)], vec![1, 0]).unwrap();
        let op = Operation::Permute {
            permutation: p,
            controls: vec![],
        };
        assert_eq!(op.to_string(), "permute[1 qubits]");
    }
}
