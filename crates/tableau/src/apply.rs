//! Lowering [`circuit::Operation`]s onto the tableau primitives.
//!
//! Named Clifford gates map directly onto [`Tableau`] methods.  Everything
//! else — `sqrt(X)`-family gates, parametric rotations, generic `U` gates —
//! is resolved by **matrix matching**: the gate's 2×2 unitary is
//! canonicalized up to global phase and looked up in a table of the 24
//! single-qubit Clifford classes, built once by breadth-first closure of
//! the `{H, S}` generators.  Controlled gates are matched against the
//! sixteen matrices `i^k P` (`k` in `0..4`, `P` a Pauli); the phase becomes
//! an `S^k` on the control and the Pauli a `CX`/`CY`/`CZ`.  Both matches
//! compare the matrix entry by entry within [`mathkit::DEFAULT_TOLERANCE`]
//! (the table's quantized key only finds the candidate class), so the
//! lowering never silently rounds a near-Clifford gate onto a Clifford.

use crate::state::{Gate, Pauli, Tableau};
use circuit::{Circuit, Condition, Operation};
use mathkit::{Complex, DEFAULT_TOLERANCE};
use rand::RngCore;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Error lowering an operation onto the stabilizer formalism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableauError {
    /// The operation is outside the Clifford gate set the tableau engine
    /// implements (see the crate docs for the exact alphabet).
    NotClifford {
        /// Position of the operation in the circuit (0 for single-operation
        /// application).
        op_index: usize,
        /// Rendered form of the offending operation.
        op: String,
    },
    /// The operation cannot be compiled into a
    /// [`SignProgram`](crate::SignProgram): a classically-conditioned
    /// operation that is not a Pauli (whether it fires would change the
    /// tableau's X/Z bits from shot to shot), or a measurement or reset
    /// inside a unitary segment.
    NotSignCompilable {
        /// Position of the operation in the compiled segment.
        op_index: usize,
        /// Rendered form of the offending operation.
        op: String,
    },
    /// The operation addresses a qubit beyond the tableau register.
    QubitOutOfRange {
        /// Position of the operation in the circuit.
        op_index: usize,
        /// The out-of-range qubit index.
        qubit: usize,
        /// The tableau register width.
        num_qubits: usize,
    },
}

impl fmt::Display for TableauError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableauError::NotClifford { op_index, op } => {
                write!(f, "operation {op_index} (`{op}`) is not Clifford")
            }
            TableauError::NotSignCompilable { op_index, op } => write!(
                f,
                "operation {op_index} (`{op}`) changes the tableau structure per shot and cannot join a sign program"
            ),
            TableauError::QubitOutOfRange {
                op_index,
                qubit,
                num_qubits,
            } => write!(
                f,
                "operation {op_index} addresses qubit {qubit} of a {num_qubits}-qubit tableau"
            ),
        }
    }
}

impl std::error::Error for TableauError {}

/// The tableau primitives a single-qubit Clifford class lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prim {
    H,
    S,
}

/// How a single-qubit Clifford class is realized on the tableau: the four
/// Pauli classes as sign-only updates, the rest as `{H, S}` words.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Class {
    Pauli(Pauli),
    Word(Vec<Prim>),
}

/// A 2×2 unitary with its global phase removed: every entry rotated by
/// the conjugate phase of the first entry of non-negligible magnitude,
/// which becomes real positive.
fn canonical(m: &[[Complex; 2]; 2]) -> Option<[Complex; 4]> {
    let flat = [m[0][0], m[0][1], m[1][0], m[1][1]];
    let lead = flat.iter().find(|c| c.norm() > 0.25)?;
    let rot = lead.conj() * (1.0 / lead.norm());
    Some(flat.map(|c| c * rot))
}

/// The lookup key of the Clifford class table: the canonical form
/// quantized at 1e-6 (entries of canonicalized Cliffords are separated by
/// ~0.2).
fn canonical_key(canon: &[Complex; 4]) -> [i64; 8] {
    let mut key = [0i64; 8];
    for (i, c) in canon.iter().enumerate() {
        // `f64 as i64` saturates; entries are in [-1, 1] so this is exact.
        #[allow(clippy::cast_possible_truncation)]
        {
            key[2 * i] = (c.re * 1e6).round() as i64;
            key[2 * i + 1] = (c.im * 1e6).round() as i64;
        }
    }
    key
}

fn mat_mul(a: &[[Complex; 2]; 2], b: &[[Complex; 2]; 2]) -> [[Complex; 2]; 2] {
    let mut out = [[Complex::ZERO; 2]; 2];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, entry) in row.iter_mut().enumerate() {
            *entry = a[r][0] * b[0][c] + a[r][1] * b[1][c];
        }
    }
    out
}

/// A Clifford class: its realization and the canonical form of its
/// representative matrix.
type ClassEntry = (Class, [Complex; 4]);

/// The 24 single-qubit Clifford classes as canonical keys, each mapped to
/// its realization — the Pauli for the four Pauli classes (so a gate equal
/// to a Pauli up to phase, like `Rz(pi)`, changes signs only), otherwise a
/// shortest `{H, S}` word (applied left-to-right in time) — and its
/// representative.
fn clifford_table() -> &'static HashMap<[i64; 8], ClassEntry> {
    static TABLE: OnceLock<HashMap<[i64; 8], ClassEntry>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let h_mat = circuit::OneQubitGate::H.matrix();
        let s_mat = circuit::OneQubitGate::S.matrix();
        let identity = circuit::OneQubitGate::I.matrix();
        let mut table = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((identity, Vec::new()));
        // BFS over left-multiplication: appending a primitive to the word
        // applies it after the existing ones, i.e. multiplies on the left.
        // First-in-first-out order guarantees each class gets a shortest word.
        while let Some((mat, word)) = queue.pop_front() {
            let Some(canon) = canonical(&mat) else {
                continue;
            };
            if let std::collections::hash_map::Entry::Vacant(entry) =
                table.entry(canonical_key(&canon))
            {
                entry.insert((Class::Word(word.clone()), canon));
                for (prim, gen) in [(Prim::H, &h_mat), (Prim::S, &s_mat)] {
                    let mut next_word = word.clone();
                    next_word.push(prim);
                    queue.push_back((mat_mul(gen, &mat), next_word));
                }
            }
        }
        // A Pauli conjugates the generators exactly like its {H, S} word
        // (e.g. X = H S S H), so the tableau is the same either way.
        for (gate, pauli) in [
            (circuit::OneQubitGate::I, Pauli::I),
            (circuit::OneQubitGate::X, Pauli::X),
            (circuit::OneQubitGate::Y, Pauli::Y),
            (circuit::OneQubitGate::Z, Pauli::Z),
        ] {
            if let Some(canon) = canonical(&gate.matrix()) {
                table.insert(canonical_key(&canon), (Class::Pauli(pauli), canon));
            }
        }
        table
    })
}

/// Lowers an uncontrolled single-qubit gate, or reports `None` if it is
/// outside the Clifford group: its matrix must equal its class
/// representative up to global phase, entry by entry within
/// [`DEFAULT_TOLERANCE`].
fn lower_one_qubit(gate: &circuit::OneQubitGate, q: usize) -> Option<Vec<Gate>> {
    use circuit::OneQubitGate as G;
    // Fast path: named gates with a dedicated tableau update.
    let class = match gate {
        G::H => return Some(vec![Gate::H(q)]),
        G::S => return Some(vec![Gate::S(q)]),
        G::Sdg => return Some(vec![Gate::Sdg(q)]),
        G::T | G::Tdg => return None,
        _ => match Pauli::from_gate(gate) {
            Some(pauli) => Class::Pauli(pauli),
            None => {
                let canon = canonical(&gate.matrix())?;
                let (class, representative) = clifford_table().get(&canonical_key(&canon))?;
                let exact = canon
                    .iter()
                    .zip(representative)
                    .all(|(entry, rep)| entry.approx_eq(rep, DEFAULT_TOLERANCE));
                if !exact {
                    return None;
                }
                class.clone()
            }
        },
    };
    Some(match class {
        Class::Pauli(Pauli::I) => Vec::new(),
        Class::Pauli(pauli) => vec![Gate::Pauli(q, pauli)],
        Class::Word(word) => word
            .iter()
            .map(|prim| match prim {
                Prim::H => Gate::H(q),
                Prim::S => Gate::S(q),
            })
            .collect(),
    })
}

/// Matches `m` exactly (not up to phase — the phase of the base matrix is
/// observable under control) against `i^k P` and returns `(k, P)`.
fn as_phased_pauli(m: &[[Complex; 2]; 2]) -> Option<(u32, circuit::OneQubitGate)> {
    use circuit::OneQubitGate as G;
    for pauli in [G::I, G::X, G::Y, G::Z] {
        let p = pauli.matrix();
        for k in 0u32..4 {
            let phase = match k {
                0 => Complex::ONE,
                1 => Complex::I,
                2 => -Complex::ONE,
                _ => -Complex::I,
            };
            let matches = (0..2)
                .all(|r| (0..2).all(|c| (p[r][c] * phase).approx_eq(&m[r][c], DEFAULT_TOLERANCE)));
            if matches {
                return Some((k, pauli));
            }
        }
    }
    None
}

/// Lowers a singly-controlled gate whose base matrix is `i^k P`.
fn lower_controlled(
    gate: &circuit::OneQubitGate,
    control: usize,
    target: usize,
) -> Option<Vec<Gate>> {
    use circuit::OneQubitGate as G;
    let (k, pauli) = as_phased_pauli(&gate.matrix())?;
    let mut gates = Vec::new();
    // The i^k phase of the base gate acts as S^k on the control.
    match k {
        0 => {}
        1 => gates.push(Gate::S(control)),
        2 => gates.push(Gate::Pauli(control, Pauli::Z)),
        _ => gates.push(Gate::Sdg(control)),
    }
    match pauli {
        G::I => {}
        G::X => gates.push(Gate::Cx(control, target)),
        G::Z => gates.push(Gate::Cz(control, target)),
        // C-Y = (I (x) S) C-X (I (x) S†): conjugating the target by S
        // turns X into Y.
        G::Y => gates.extend([
            Gate::Sdg(target),
            Gate::Cx(control, target),
            Gate::S(target),
        ]),
        _ => return None,
    }
    Some(gates)
}

fn check_range(op: &Operation, op_index: usize, num_qubits: usize) -> Result<(), TableauError> {
    for q in op.support() {
        if q.index() >= num_qubits {
            return Err(TableauError::QubitOutOfRange {
                op_index,
                qubit: q.index(),
                num_qubits,
            });
        }
    }
    Ok(())
}

/// An operation lowered onto tableau primitives by [`lower`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lowered {
    /// A unitary: the gate updates, in time order.
    Gates(Vec<Gate>),
    /// Measure `qubit` into classical bit `cbit`.
    Measure {
        /// The measured qubit.
        qubit: usize,
        /// The classical bit written.
        cbit: u16,
    },
    /// Reset `qubit` to `|0>`.
    Reset {
        /// The reset qubit.
        qubit: usize,
    },
    /// An operation that fires only when the classical record satisfies
    /// `condition`.
    Conditioned {
        /// The classical guard.
        condition: Condition,
        /// The guarded operation.
        op: Box<Lowered>,
    },
}

impl Lowered {
    /// Whether the operation changes the tableau's X/Z bits the same way on
    /// every shot.  Gates, measurements and resets do (see the crate docs'
    /// sign-program section); a conditioned operation does only when it
    /// changes signs alone — a Pauli — because otherwise whether the X/Z
    /// bits change depends on the shot's classical record.
    #[must_use]
    pub fn fixes_structure(&self) -> bool {
        match self {
            Lowered::Conditioned { op, .. } => op.pauli_gates().is_some(),
            _ => true,
        }
    }

    /// The `(qubit, Pauli)` updates of a unitary made of Paulis only.
    pub(crate) fn pauli_gates(&self) -> Option<Vec<(usize, Pauli)>> {
        let Lowered::Gates(gates) = self else {
            return None;
        };
        gates
            .iter()
            .map(|gate| match *gate {
                Gate::Pauli(q, pauli) => Some((q, pauli)),
                _ => None,
            })
            .collect()
    }
}

/// Lowers one operation onto the tableau primitives: the single lowering
/// pass behind [`apply_operation`], the `weaksim` router's dry run and the
/// [sign-program compiler](crate::SignCompiler).  `op_index` is only used
/// in error reports.
///
/// # Errors
///
/// [`TableauError::NotClifford`] if the operation (or, for a conditioned
/// operation, the guarded one) is outside the stabilizer alphabet,
/// [`TableauError::QubitOutOfRange`] if it addresses a qubit beyond
/// `num_qubits`.
pub fn lower(op: &Operation, op_index: usize, num_qubits: usize) -> Result<Lowered, TableauError> {
    check_range(op, op_index, num_qubits)?;
    let not_clifford = || TableauError::NotClifford {
        op_index,
        op: op.to_string(),
    };
    Ok(match op {
        Operation::Unitary {
            gate,
            target,
            controls,
        } => Lowered::Gates(
            match controls.as_slice() {
                [] => lower_one_qubit(gate, target.index()),
                [control] => lower_controlled(gate, control.index(), target.index()),
                _ => None,
            }
            .ok_or_else(not_clifford)?,
        ),
        Operation::Swap { a, b, controls } if controls.is_empty() => {
            Lowered::Gates(vec![Gate::Swap(a.index(), b.index())])
        }
        Operation::Swap { .. } | Operation::Permute { .. } => return Err(not_clifford()),
        Operation::Measure { qubit, cbit } => Lowered::Measure {
            qubit: qubit.index(),
            cbit: *cbit,
        },
        Operation::Reset { qubit } => Lowered::Reset {
            qubit: qubit.index(),
        },
        // The guarded operation is classified even when a shot skips it, so
        // acceptance never depends on the record.
        Operation::Conditioned { condition, op } => Lowered::Conditioned {
            condition: *condition,
            op: Box::new(lower(op, op_index, num_qubits).map_err(|_| not_clifford())?),
        },
    })
}

/// Applies a lowered operation, updating the classical `record` for
/// measurements and reading it for conditioned operations.
fn apply_lowered<R: RngCore + ?Sized>(
    tab: &mut Tableau,
    lowered: &Lowered,
    record: &mut u64,
    rng: &mut R,
) {
    match lowered {
        Lowered::Gates(gates) => {
            for &gate in gates {
                tab.apply_gate(gate);
            }
        }
        Lowered::Measure { qubit, cbit } => {
            let outcome = tab.measure(*qubit, rng);
            *record = (*record & !(1u64 << cbit)) | (u64::from(outcome) << cbit);
        }
        Lowered::Reset { qubit } => tab.reset(*qubit, rng),
        Lowered::Conditioned { condition, op } => {
            if condition.is_satisfied_by(*record) {
                apply_lowered(tab, op, record, rng);
            }
        }
    }
}

/// Applies one operation to the tableau, updating the classical `record`
/// for measurements and reading it for conditioned operations.  `op_index`
/// is only used in error reports.
///
/// # Errors
///
/// [`TableauError::NotClifford`] if the operation is outside the stabilizer
/// alphabet, [`TableauError::QubitOutOfRange`] if it addresses a qubit the
/// tableau does not have.
pub fn apply_operation<R: RngCore + ?Sized>(
    tab: &mut Tableau,
    op: &Operation,
    op_index: usize,
    record: &mut u64,
    rng: &mut R,
) -> Result<(), TableauError> {
    let lowered = lower(op, op_index, tab.num_qubits())?;
    apply_lowered(tab, &lowered, record, rng);
    Ok(())
}

/// Applies every operation of `circuit` to `tab` in order, starting from
/// classical record `0`, and returns the final record.
///
/// # Errors
///
/// The first [`TableauError`] encountered; the tableau is left in the state
/// reached so far.
pub fn apply_circuit<R: RngCore + ?Sized>(
    tab: &mut Tableau,
    circuit: &Circuit,
    rng: &mut R,
) -> Result<u64, TableauError> {
    let mut record = 0u64;
    for (op_index, op) in circuit.iter().enumerate() {
        apply_operation(tab, op, op_index, &mut record, rng)?;
    }
    Ok(record)
}

/// Runs `circuit` from the all-zeros state and returns the final tableau
/// and classical record.
///
/// # Errors
///
/// See [`apply_circuit`].
pub fn simulate<R: RngCore + ?Sized>(
    circuit: &Circuit,
    rng: &mut R,
) -> Result<(Tableau, u64), TableauError> {
    let mut tab = Tableau::zero_state(usize::from(circuit.num_qubits()).max(1));
    let record = apply_circuit(&mut tab, circuit, rng)?;
    Ok((tab, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::{Circuit, OneQubitGate, Qubit};
    use mathkit::Angle;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn clifford_table_has_24_classes() {
        assert_eq!(clifford_table().len(), 24);
        // Longest {H, S} word needed is small (the Cayley graph of the
        // 1-qubit Clifford group over {H, S} has diameter <= 7).
        assert!(clifford_table().values().all(|(class, _)| match class {
            Class::Word(word) => word.len() <= 7,
            Class::Pauli(_) => true,
        }));
        // The four Pauli classes change signs only.
        let paulis = clifford_table()
            .values()
            .filter(|(class, _)| matches!(class, Class::Pauli(_)))
            .count();
        assert_eq!(paulis, 4);
    }

    fn adjoint(m: &[[Complex; 2]; 2]) -> [[Complex; 2]; 2] {
        [
            [m[0][0].conj(), m[1][0].conj()],
            [m[0][1].conj(), m[1][1].conj()],
        ]
    }

    /// The definition of the Clifford group: `U` is Clifford iff `U P U†`
    /// is a Pauli with a `±1` sign for both generators `P ∈ {X, Z}`.
    fn clifford_by_conjugation(g: &OneQubitGate) -> bool {
        let m = g.matrix();
        let paulis = [
            OneQubitGate::I.matrix(),
            OneQubitGate::X.matrix(),
            OneQubitGate::Y.matrix(),
            OneQubitGate::Z.matrix(),
        ];
        [OneQubitGate::X, OneQubitGate::Z].iter().all(|p| {
            let conj = mat_mul(&mat_mul(&m, &p.matrix()), &adjoint(&m));
            paulis.iter().any(|q| {
                [1.0, -1.0].iter().any(|sign| {
                    (0..2).all(|r| (0..2).all(|c| (conj[r][c] - q[r][c] * *sign).norm() < 1e-9))
                })
            })
        })
    }

    /// The 2×2 unitary of a lowered single-qubit gate sequence.
    fn lowered_matrix(gates: &[Gate]) -> [[Complex; 2]; 2] {
        gates.iter().fold(OneQubitGate::I.matrix(), |acc, gate| {
            let m = match *gate {
                Gate::H(_) => OneQubitGate::H.matrix(),
                Gate::S(_) => OneQubitGate::S.matrix(),
                Gate::Sdg(_) => OneQubitGate::Sdg.matrix(),
                Gate::Pauli(_, Pauli::I) => OneQubitGate::I.matrix(),
                Gate::Pauli(_, Pauli::X) => OneQubitGate::X.matrix(),
                Gate::Pauli(_, Pauli::Y) => OneQubitGate::Y.matrix(),
                Gate::Pauli(_, Pauli::Z) => OneQubitGate::Z.matrix(),
                _ => panic!("{gate:?} is not a single-qubit gate"),
            };
            mat_mul(&m, &acc)
        })
    }

    /// `lower` accepts a single-qubit gate exactly when the conjugation
    /// oracle calls it Clifford, and what it accepts runs the gate itself
    /// up to global phase.
    fn assert_lowering_matches_the_oracle(g: OneQubitGate) {
        let clifford = clifford_by_conjugation(&g);
        match lower_one_qubit(&g, 0) {
            Some(gates) => {
                assert!(clifford, "{g} lowered but is not Clifford");
                let got = canonical(&lowered_matrix(&gates)).unwrap();
                let want = canonical(&g.matrix()).unwrap();
                assert!(
                    got.iter().zip(&want).all(|(a, b)| a.approx_eq(b, 1e-9)),
                    "{g} lowered to {gates:?}"
                );
            }
            None => assert!(!clifford, "{g} is Clifford but was rejected"),
        }
    }

    #[test]
    fn lowering_accepts_exactly_the_clifford_group() {
        for g in [
            OneQubitGate::I,
            OneQubitGate::X,
            OneQubitGate::Y,
            OneQubitGate::Z,
            OneQubitGate::H,
            OneQubitGate::S,
            OneQubitGate::Sdg,
            OneQubitGate::SqrtX,
            OneQubitGate::SqrtXdg,
            OneQubitGate::SqrtY,
            OneQubitGate::SqrtYdg,
            OneQubitGate::T,
            OneQubitGate::Tdg,
        ] {
            assert_lowering_matches_the_oracle(g);
        }
        // Rotations at k·pi/2 are Clifford, off-grid ones are not — as
        // exact dyadic angles and as floating-point radians.
        let grid =
            (-4i64..=4).map(|k| Angle::radians_value(k as f64 * std::f64::consts::FRAC_PI_2));
        let off_grid = [0.3, std::f64::consts::FRAC_PI_4, 2.0].map(Angle::radians_value);
        let dyadic = [Angle::pi_over(1), Angle::pi_over(2), Angle::pi_over(4)];
        for angle in grid.chain(off_grid).chain(dyadic) {
            for g in [
                OneQubitGate::Phase(angle),
                OneQubitGate::Rx(angle),
                OneQubitGate::Ry(angle),
                OneQubitGate::Rz(angle),
            ] {
                assert_lowering_matches_the_oracle(g);
            }
        }
        // U on and off the pi/2 grid, and off-grid angles that cancel into
        // a Clifford: u(0, pi/4, pi/4) = S up to phase.
        let u = |theta, phi, lambda| OneQubitGate::U { theta, phi, lambda };
        let half = Angle::pi_over(2);
        for g in [
            u(half, Angle::ZERO, Angle::pi_over(1)),
            u(half, Angle::pi_over(1), half),
            u(half, Angle::ZERO, Angle::pi_over(4)),
            u(Angle::radians_value(0.5), Angle::ZERO, Angle::ZERO),
            u(Angle::ZERO, Angle::pi_over(4), Angle::pi_over(4)),
        ] {
            assert_lowering_matches_the_oracle(g);
        }
        assert_eq!(
            lower_one_qubit(&u(Angle::ZERO, Angle::pi_over(4), Angle::pi_over(4)), 0),
            lower_one_qubit(&OneQubitGate::S, 0)
        );
    }

    #[test]
    fn controlled_gates_lower_only_for_phased_paulis() {
        let controlled = |gate, controls: Vec<Qubit>| Operation::Unitary {
            gate,
            target: Qubit(0),
            controls,
        };
        // CX, CY, CZ and the phase-equivalents C-Rz(pi) = C-(-iZ) and
        // C-u(0, pi/2, pi/2) = C-Z are Clifford.
        for gate in [
            OneQubitGate::X,
            OneQubitGate::Y,
            OneQubitGate::Z,
            OneQubitGate::Rz(Angle::pi_over(1)),
            OneQubitGate::Phase(Angle::pi_over(1)),
            OneQubitGate::U {
                theta: Angle::ZERO,
                phi: Angle::pi_over(2),
                lambda: Angle::pi_over(2),
            },
        ] {
            let op = controlled(gate, vec![Qubit(1)]);
            assert!(lower(&op, 0, 3).is_ok(), "{op}");
        }
        let cz = lower(&controlled(OneQubitGate::Z, vec![Qubit(1)]), 0, 3);
        let cu = controlled(
            OneQubitGate::U {
                theta: Angle::ZERO,
                phi: Angle::pi_over(2),
                lambda: Angle::pi_over(2),
            },
            vec![Qubit(1)],
        );
        assert_eq!(lower(&cu, 0, 3), cz);
        // CS, CH, C-Phase(pi/2), CCX, a controlled swap and permutations
        // are not.
        let permutation = circuit::Permutation::new(vec![Qubit(0)], vec![1, 0]).unwrap();
        for op in [
            controlled(OneQubitGate::S, vec![Qubit(1)]),
            controlled(OneQubitGate::H, vec![Qubit(1)]),
            controlled(OneQubitGate::Phase(Angle::pi_over(2)), vec![Qubit(1)]),
            controlled(OneQubitGate::X, vec![Qubit(1), Qubit(2)]),
            Operation::Swap {
                a: Qubit(0),
                b: Qubit(1),
                controls: vec![Qubit(2)],
            },
            Operation::Permute {
                permutation,
                controls: vec![],
            },
        ] {
            assert!(
                matches!(lower(&op, 0, 3), Err(TableauError::NotClifford { .. })),
                "{op}"
            );
        }
        // An uncontrolled swap, measurements and resets are stabilizer
        // operations.
        for op in [
            Operation::Swap {
                a: Qubit(0),
                b: Qubit(1),
                controls: vec![],
            },
            Operation::Measure {
                qubit: Qubit(0),
                cbit: 0,
            },
            Operation::Reset { qubit: Qubit(0) },
        ] {
            assert!(lower(&op, 0, 3).is_ok(), "{op}");
        }
    }

    /// Applies `ops` to dense 2x2 matrices and compares (up to global
    /// phase) against the tableau lowering, by checking measurement
    /// statistics in the Z and X bases match on a 1-qubit register.
    fn dense_column(gate: OneQubitGate, basis: OneQubitGate) -> (f64, f64) {
        // Probability of outcome 0 after `basis`-change . gate |0>.
        let g = gate.matrix();
        let b = basis.matrix();
        let m = mat_mul(&b, &g);
        (m[0][0].norm_sqr(), m[1][0].norm_sqr())
    }

    fn tableau_outcome_probability(gate: OneQubitGate, basis: OneQubitGate) -> f64 {
        let mut zeros = 0u32;
        let shots = 2000;
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..shots {
            let mut tab = Tableau::zero_state(1);
            for g in [gate, basis] {
                for prim in lower_one_qubit(&g, 0).expect("gate must be Clifford") {
                    tab.apply_gate(prim);
                }
            }
            if !tab.measure(0, &mut rng) {
                zeros += 1;
            }
        }
        f64::from(zeros) / f64::from(shots)
    }

    #[test]
    fn matrix_matched_gates_agree_with_dense_statistics() {
        let gates = [
            OneQubitGate::SqrtX,
            OneQubitGate::SqrtXdg,
            OneQubitGate::SqrtY,
            OneQubitGate::SqrtYdg,
            OneQubitGate::Rx(Angle::pi_over(2)),
            OneQubitGate::Ry(Angle::pi_over(2)),
            OneQubitGate::Rz(Angle::pi_over(2)),
            OneQubitGate::Phase(Angle::pi_over(2)),
            OneQubitGate::Rz(Angle::radians_value(-std::f64::consts::FRAC_PI_2)),
            OneQubitGate::U {
                theta: Angle::pi_over(2),
                phi: Angle::pi_over(1),
                lambda: Angle::pi_over(2),
            },
        ];
        for gate in gates {
            for basis in [OneQubitGate::I, OneQubitGate::H] {
                let (p0, _) = dense_column(gate, basis);
                let observed = tableau_outcome_probability(gate, basis);
                assert!(
                    (observed - p0).abs() < 0.05,
                    "{gate:?} in basis {basis:?}: dense {p0}, tableau {observed}"
                );
            }
        }
    }

    #[test]
    fn non_clifford_gates_are_rejected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let near_s = |offset: f64| {
            OneQubitGate::Rz(Angle::radians_value(std::f64::consts::FRAC_PI_2 + offset))
        };
        // Near-Cliffords are rejected, not rounded onto `S`: the gate must
        // equal its class representative within the default tolerance.
        for gate in [
            OneQubitGate::T,
            OneQubitGate::Tdg,
            OneQubitGate::Rz(Angle::pi_over(4)),
            OneQubitGate::Rx(Angle::radians_value(0.3)),
            near_s(1e-9),
            near_s(-1e-9),
            near_s(1e-7),
            near_s(1e-5),
            OneQubitGate::Rx(Angle::radians_value(std::f64::consts::PI + 1e-9)),
        ] {
            let mut circ = Circuit::new(1);
            circ.gate(gate, Qubit(0));
            let err = simulate(&circ, &mut rng).unwrap_err();
            assert!(
                matches!(err, TableauError::NotClifford { op_index: 0, .. }),
                "{gate:?}: {err}"
            );
            let err = crate::SignCompiler::new(1)
                .segment(circ.operations())
                .unwrap_err();
            assert!(
                matches!(err, TableauError::NotClifford { op_index: 0, .. }),
                "{gate:?}: {err}"
            );
        }
        // Rounding noise far inside the tolerance still lowers to `S`.
        assert_eq!(
            lower_one_qubit(&near_s(1e-12), 0),
            lower_one_qubit(&OneQubitGate::S, 0)
        );
    }

    #[test]
    fn controlled_paulis_and_phase_equivalents() {
        let mut rng = SmallRng::seed_from_u64(2);
        // CX via the generic controlled path on |1, 0>: flips the target.
        let mut circ = Circuit::new(2);
        circ.x(Qubit(0));
        circ.cx(Qubit(0), Qubit(1));
        let (mut tab, _) = simulate(&circ, &mut rng).expect("clifford");
        assert_eq!(tab.as_basis_state(), Some(vec![0b11]));

        // Controlled-Rz(pi) = C-(-iZ) = S†(control) . CZ: diagonal, so
        // check it in the Hadamard frame where CZ acts as CX.
        let mut a = Circuit::new(2);
        a.x(Qubit(0));
        a.h(Qubit(1));
        a.push(Operation::Unitary {
            gate: OneQubitGate::Rz(Angle::pi_over(1)),
            target: Qubit(1),
            controls: vec![Qubit(0)],
        });
        a.h(Qubit(1));
        let (mut tab_a, _) = simulate(&a, &mut rng).expect("clifford");
        // Rz(pi) = -iZ on the target: H Z H = X flips qubit 1.
        assert_eq!(tab_a.as_basis_state(), Some(vec![0b11]));

        // CY on |1, 0>: target flips (phase is unobservable in Z basis).
        let mut c = Circuit::new(2);
        c.x(Qubit(0));
        c.push(Operation::Unitary {
            gate: OneQubitGate::Y,
            target: Qubit(1),
            controls: vec![Qubit(0)],
        });
        let (mut tab_c, _) = simulate(&c, &mut rng).expect("clifford");
        assert_eq!(tab_c.as_basis_state(), Some(vec![0b11]));

        // CS is not Clifford.
        let mut bad = Circuit::new(2);
        bad.push(Operation::Unitary {
            gate: OneQubitGate::S,
            target: Qubit(1),
            controls: vec![Qubit(0)],
        });
        assert!(matches!(
            simulate(&bad, &mut rng),
            Err(TableauError::NotClifford { .. })
        ));
    }

    #[test]
    fn cy_phase_is_observable_in_bell_interference() {
        // Verify the S^k-on-control bookkeeping: (H on control) CY
        // (H on control) distinguishes CY from S(control).CX only through
        // the relative phase; compare against dense statevector.
        use statevector::StateVector;
        let mut circ = Circuit::new(2);
        circ.h(Qubit(0));
        circ.push(Operation::Unitary {
            gate: OneQubitGate::Y,
            target: Qubit(1),
            controls: vec![Qubit(0)],
        });
        circ.h(Qubit(0));
        let mut sv = StateVector::zero_state(2);
        for op in circ.iter() {
            statevector::apply_operation(&mut sv, op);
        }
        let dense: Vec<f64> = (0..4).map(|i| sv.probability(i)).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        let shots = 4000;
        for _ in 0..shots {
            let (tab, _) = simulate(&circ, &mut rng).expect("clifford");
            counts[usize::try_from(tab.measurement_sampler().sample_u64(&mut rng))
                .expect("2-qubit outcome")] += 1;
        }
        for i in 0..4 {
            let f = f64::from(counts[i]) / f64::from(shots);
            assert!(
                (f - dense[i]).abs() < 0.04,
                "outcome {i}: dense {} tableau {f}",
                dense[i]
            );
        }
    }

    #[test]
    fn measurement_record_and_conditioning() {
        let mut rng = SmallRng::seed_from_u64(4);
        // Measure |1> into c0; conditioned X on c==1 flips qubit 1.
        let mut circ = Circuit::new(2);
        circ.x(Qubit(0));
        circ.measure(Qubit(0), 0);
        circ.push(Operation::Conditioned {
            condition: circuit::Condition::equals(1),
            op: Box::new(Operation::Unitary {
                gate: OneQubitGate::X,
                target: Qubit(1),
                controls: vec![],
            }),
        });
        circ.measure(Qubit(1), 1);
        let (_, record) = simulate(&circ, &mut rng).expect("clifford");
        assert_eq!(record, 0b11);

        // An unsatisfied condition skips the gate.
        let mut skip = Circuit::new(2);
        skip.measure(Qubit(0), 0);
        skip.push(Operation::Conditioned {
            condition: circuit::Condition::equals(1),
            op: Box::new(Operation::Unitary {
                gate: OneQubitGate::X,
                target: Qubit(1),
                controls: vec![],
            }),
        });
        skip.measure(Qubit(1), 1);
        let (_, record) = simulate(&skip, &mut rng).expect("clifford");
        assert_eq!(record, 0);

        // A skipped non-Clifford gate still fails classification.
        let mut bad = Circuit::new(1);
        bad.push(Operation::Conditioned {
            condition: circuit::Condition::equals(1),
            op: Box::new(Operation::Unitary {
                gate: OneQubitGate::T,
                target: Qubit(0),
                controls: vec![],
            }),
        });
        assert!(matches!(
            simulate(&bad, &mut rng),
            Err(TableauError::NotClifford { .. })
        ));
    }

    #[test]
    fn out_of_range_is_reported_not_panicked() {
        let mut tab = Tableau::zero_state(2);
        let op = Operation::Unitary {
            gate: OneQubitGate::H,
            target: Qubit(5),
            controls: vec![],
        };
        let mut record = 0;
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(
            apply_operation(&mut tab, &op, 3, &mut record, &mut rng),
            Err(TableauError::QubitOutOfRange {
                op_index: 3,
                qubit: 5,
                num_qubits: 2
            })
        );
    }
}
