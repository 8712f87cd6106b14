//! Operator (matrix) decision diagrams and gate constructors.
//!
//! Gate operators are built in the gate's cone.  Identity chains come from
//! one memo per [`DdPackage`], and a controlled gate's block recursion
//! stops as soon as the rest of a block is a multiple of the identity, so
//! building a gate costs work in proportion to the levels it touches rather
//! than to the register width times four.

use crate::edge::{MatrixEdge, VectorEdge};
use crate::govern::DdError;
use crate::ops::matrix_add;
use crate::DdPackage;
use circuit::{OneQubitGate, Permutation, Qubit};
use mathkit::Complex;

/// A linear operator on `n` qubits represented as a matrix decision diagram.
///
/// Operator DDs are used internally to apply gates by matrix–vector
/// multiplication, and exposed so callers can inspect gate matrices.
///
/// # Examples
///
/// ```
/// use circuit::{OneQubitGate, Qubit};
/// use dd::{DdPackage, OperatorDd};
///
/// let mut package = DdPackage::new();
/// let cnot = OperatorDd::controlled_gate(&mut package, 2, OneQubitGate::X, Qubit(1), &[Qubit(0)])
///     .unwrap();
/// // CNOT maps |01> (control q0 = 1) to |11>.
/// assert_eq!(cnot.entry(&package, 0b11, 0b01).re, 1.0);
/// assert_eq!(cnot.entry(&package, 0b01, 0b01).re, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorDd {
    root: MatrixEdge,
    num_qubits: u16,
}

impl OperatorDd {
    /// Wraps an existing root edge.
    #[must_use]
    pub fn from_root(root: MatrixEdge, num_qubits: u16) -> Self {
        Self { root, num_qubits }
    }

    /// The root edge.
    #[must_use]
    pub fn root(&self) -> MatrixEdge {
        self.root
    }

    /// The number of qubits the operator acts on.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// The identity operator on `num_qubits` qubits, read from the
    /// package's identity-chain memo.
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the package's governor interrupts the
    /// run or a node arena overflows.
    pub fn identity(package: &mut DdPackage, num_qubits: u16) -> Result<Self, DdError> {
        Ok(Self {
            root: package.identity_chain(num_qubits)?,
            num_qubits,
        })
    }

    /// Builds the operator for a (multi-)controlled single-qubit gate.
    ///
    /// Controls may lie above or below the target in the variable order; the
    /// construction handles both by building, below the target level, the
    /// combination `delta_rc * (I - P) + u_rc * P` where `P` projects onto
    /// "all lower controls are 1".
    ///
    /// The work is proportional to the levels the gate touches.  Identity
    /// chains come from the package memo, and each of the four blocks stops
    /// descending as soon as its remainder is a multiple of the identity:
    /// below the lowest control (`P = I` there, so the block is
    /// `u_rc * I`), or wherever `delta_rc = u_rc` (every block of the
    /// identity, the zero off-diagonal blocks of a diagonal gate).  Only the
    /// levels above the target still cost one node lookup each.  The
    /// shortcuts create the same nodes and intern the same values in the
    /// same order as a full descent, so the resulting diagram is
    /// bit-identical to it.
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the package's governor interrupts the
    /// run or a node arena overflows.
    ///
    /// # Panics
    ///
    /// Panics if the target coincides with a control or any qubit is out of
    /// range.
    pub fn controlled_gate(
        package: &mut DdPackage,
        num_qubits: u16,
        gate: OneQubitGate,
        target: Qubit,
        controls: &[Qubit],
    ) -> Result<Self, DdError> {
        assert!(
            target.index() < usize::from(num_qubits),
            "target {target} out of range"
        );
        assert!(
            !controls.contains(&target),
            "target {target} must not also be a control"
        );
        let mut is_control = vec![false; usize::from(num_qubits)];
        for c in controls {
            assert!(
                c.index() < usize::from(num_qubits),
                "control {c} out of range"
            );
            is_control[c.index()] = true;
        }
        let u = gate.matrix();
        let target_level = target.index() as u16;
        let lowest_control = controls.iter().map(|c| i32::from(c.0)).min();

        // The whole chain exists before the first block is built, so nodes
        // are created in the same order as by a full descent.
        package.identity_chain(num_qubits)?;

        // mixed(level, a, b) builds `a * (I - P) + b * P` over levels 0..=level,
        // where P projects onto "all controls at those levels equal 1".
        fn mixed(
            package: &mut DdPackage,
            level: i32,
            a: Complex,
            b: Complex,
            is_control: &[bool],
            lowest_control: Option<i32>,
        ) -> Result<MatrixEdge, DdError> {
            // With no control at or below this level P = I, and with a = b
            // the projector drops out: either way the block is b * I.
            if a == b || lowest_control.is_none_or(|c| c > level) {
                let identity = package.identity_chain((level + 1) as u16)?;
                return Ok(package.matrix_edge(identity.target, b));
            }
            let var = level as u16;
            let below = mixed(package, level - 1, a, b, is_control, lowest_control)?;
            if is_control[usize::from(var)] {
                let id_below = package.identity_chain(var)?;
                let zero_branch = package.scale_medge(id_below, a);
                package.make_mnode(
                    var,
                    [zero_branch, MatrixEdge::ZERO, MatrixEdge::ZERO, below],
                )
            } else {
                package.make_mnode(var, [below, MatrixEdge::ZERO, MatrixEdge::ZERO, below])
            }
        }

        // Build the target level: block (r, c) = delta_rc * (I - P) + u_rc * P.
        let mut blocks = [MatrixEdge::ZERO; 4];
        for row in 0..2usize {
            for col in 0..2usize {
                let delta = if row == col {
                    Complex::ONE
                } else {
                    Complex::ZERO
                };
                blocks[2 * row + col] = mixed(
                    package,
                    i32::from(target_level) - 1,
                    delta,
                    u[row][col],
                    &is_control,
                    lowest_control,
                )?;
            }
        }
        let mut edge = package.make_mnode(target_level, blocks)?;

        // Levels above the target: controls gate the operator, other qubits
        // pass it through diagonally.
        for var in (target_level + 1)..num_qubits {
            edge = if is_control[usize::from(var)] {
                let id_below = package.identity_chain(var)?;
                package.make_mnode(var, [id_below, MatrixEdge::ZERO, MatrixEdge::ZERO, edge])?
            } else {
                package.make_mnode(var, [edge, MatrixEdge::ZERO, MatrixEdge::ZERO, edge])?
            };
        }

        Ok(Self {
            root: edge,
            num_qubits,
        })
    }

    /// Builds the operator for a (multi-)controlled basis-state permutation.
    ///
    /// The operator maps `|v>` to `|perm(v)>` on the permutation's register
    /// when every control is `|1>`, and acts as the identity otherwise.  It
    /// is assembled as `(I - P (x) I_R) + sum_v P (x) |perm(v)><v|_R`, one
    /// simple chain DD per register value, combined with [`matrix_add`].
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the package's governor interrupts the
    /// run or a node arena overflows.
    ///
    /// # Panics
    ///
    /// Panics if register or control qubits are out of range or overlap.
    pub fn controlled_permutation(
        package: &mut DdPackage,
        num_qubits: u16,
        permutation: &Permutation,
        controls: &[Qubit],
    ) -> Result<Self, DdError> {
        let register = permutation.qubits();
        for q in register.iter().chain(controls) {
            assert!(
                q.index() < usize::from(num_qubits),
                "qubit {q} out of range"
            );
        }
        for c in controls {
            assert!(
                !register.contains(c),
                "control {c} must not be part of the permuted register"
            );
        }
        let mut is_control = vec![false; usize::from(num_qubits)];
        for c in controls {
            is_control[c.index()] = true;
        }
        let mut register_bit = vec![None; usize::from(num_qubits)];
        for (bit, q) in register.iter().enumerate() {
            register_bit[q.index()] = Some(bit);
        }

        // Every level's identity chain exists before term 1 is built, which
        // fixes the order in which nodes are created.
        package.identity_chain(num_qubits)?;

        // Term 1: identity on the subspace where not all controls are 1,
        // i.e. I - P (x) I_R.  Built with the same mixed recursion as gates:
        // a = 1 (identity part), b = 0 (controls-satisfied part), treating
        // register qubits as pass-through.
        fn not_all_controls(
            package: &mut DdPackage,
            level: i32,
            is_control: &[bool],
        ) -> Result<MatrixEdge, DdError> {
            if level < 0 {
                return Ok(MatrixEdge::ZERO);
            }
            let var = level as u16;
            let below = not_all_controls(package, level - 1, is_control)?;
            if is_control[usize::from(var)] {
                let id_below = package.identity_chain(var)?;
                package.make_mnode(var, [id_below, MatrixEdge::ZERO, MatrixEdge::ZERO, below])
            } else {
                package.make_mnode(var, [below, MatrixEdge::ZERO, MatrixEdge::ZERO, below])
            }
        }
        let mut total = not_all_controls(package, i32::from(num_qubits) - 1, &is_control)?;

        // One chain per register value v: P (x) |perm(v)><v| (x) I elsewhere.
        for (value, &mapped) in permutation.mapping().iter().enumerate() {
            let mut edge = package.matrix_terminal(Complex::ONE);
            for var in 0..num_qubits {
                let children = if let Some(bit) = register_bit[usize::from(var)] {
                    let col = (value >> bit) & 1;
                    let row = ((mapped >> bit) & 1) as usize;
                    let mut c = [MatrixEdge::ZERO; 4];
                    c[2 * row + col] = edge;
                    c
                } else if is_control[usize::from(var)] {
                    [MatrixEdge::ZERO, MatrixEdge::ZERO, MatrixEdge::ZERO, edge]
                } else {
                    [edge, MatrixEdge::ZERO, MatrixEdge::ZERO, edge]
                };
                edge = package.make_mnode(var, children)?;
            }
            total = matrix_add(package, total, edge)?;
        }

        Ok(Self {
            root: total,
            num_qubits,
        })
    }

    /// The matrix entry at (`row`, `col`), reconstructed from the path
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[must_use]
    pub fn entry(&self, package: &DdPackage, row: u64, col: u64) -> Complex {
        assert!(
            self.num_qubits == 64
                || (row < (1u64 << self.num_qubits) && col < (1u64 << self.num_qubits)),
            "matrix index out of range"
        );
        if self.root.is_zero() {
            return Complex::ZERO;
        }
        let mut value = package.weight_value(self.root.weight);
        let mut edge = self.root;
        while !edge.is_terminal() {
            let node = package.mnode(edge.target);
            let r = ((row >> node.var) & 1) as usize;
            let c = ((col >> node.var) & 1) as usize;
            edge = node.children[2 * r + c];
            if edge.is_zero() {
                return Complex::ZERO;
            }
            value *= package.weight_value(edge.weight);
        }
        value
    }

    /// Applies the operator to a state, returning the resulting state edge.
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the package's governor interrupts the
    /// run or a node arena overflows.
    pub fn apply(&self, package: &mut DdPackage, state: VectorEdge) -> Result<VectorEdge, DdError> {
        crate::ops::matrix_vector_multiply(package, self.root, state)
    }

    /// The number of matrix nodes reachable from the root.
    #[must_use]
    pub fn node_count(&self, package: &DdPackage) -> usize {
        package.reachable_matrix_nodes(self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::{Angle, SQRT1_2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The full-descent construction `controlled_gate` must reproduce bit
    /// for bit: a fresh identity chain per operator, and all four blocks
    /// recursed down to level 0.
    fn reference_controlled_gate(
        package: &mut DdPackage,
        num_qubits: u16,
        gate: OneQubitGate,
        target: Qubit,
        controls: &[Qubit],
    ) -> Result<MatrixEdge, DdError> {
        let mut is_control = vec![false; usize::from(num_qubits)];
        for c in controls {
            is_control[c.index()] = true;
        }
        let u = gate.matrix();
        let target_level = target.index() as u16;

        let mut identity_chain = Vec::with_capacity(usize::from(num_qubits) + 1);
        identity_chain.push(package.matrix_terminal(Complex::ONE));
        for var in 0..num_qubits {
            let below = identity_chain[usize::from(var)];
            identity_chain
                .push(package.make_mnode(var, [below, MatrixEdge::ZERO, MatrixEdge::ZERO, below])?);
        }

        fn mixed(
            package: &mut DdPackage,
            level: i32,
            a: Complex,
            b: Complex,
            is_control: &[bool],
            identity_chain: &[MatrixEdge],
        ) -> Result<MatrixEdge, DdError> {
            if level < 0 {
                return Ok(package.matrix_terminal(b));
            }
            let var = level as u16;
            let below = mixed(package, level - 1, a, b, is_control, identity_chain)?;
            if is_control[level as usize] {
                let id_below = identity_chain[level as usize];
                let zero_branch = package.scale_medge(id_below, a);
                package.make_mnode(
                    var,
                    [zero_branch, MatrixEdge::ZERO, MatrixEdge::ZERO, below],
                )
            } else {
                package.make_mnode(var, [below, MatrixEdge::ZERO, MatrixEdge::ZERO, below])
            }
        }

        let mut blocks = [MatrixEdge::ZERO; 4];
        for row in 0..2usize {
            for col in 0..2usize {
                let delta = if row == col {
                    Complex::ONE
                } else {
                    Complex::ZERO
                };
                blocks[2 * row + col] = mixed(
                    package,
                    i32::from(target_level) - 1,
                    delta,
                    u[row][col],
                    &is_control,
                    &identity_chain,
                )?;
            }
        }
        let mut edge = package.make_mnode(target_level, blocks)?;
        for var in (target_level + 1)..num_qubits {
            edge = if is_control[usize::from(var)] {
                let id_below = identity_chain[usize::from(var)];
                package.make_mnode(var, [id_below, MatrixEdge::ZERO, MatrixEdge::ZERO, edge])?
            } else {
                package.make_mnode(var, [edge, MatrixEdge::ZERO, MatrixEdge::ZERO, edge])?
            };
        }
        Ok(edge)
    }

    /// Every `OneQubitGate` variant; the parameterized ones with a dyadic
    /// angle (as in the QFT) and a random one.
    fn gate_catalogue(rng: &mut StdRng) -> Vec<OneQubitGate> {
        use OneQubitGate::*;
        let mut angle = || Angle::Radians(rng.gen_range(-4.0..4.0));
        let dyadic = Angle::DyadicPi {
            numerator: 1,
            power: 3,
        };
        vec![
            I,
            X,
            Y,
            Z,
            H,
            S,
            Sdg,
            T,
            Tdg,
            SqrtX,
            SqrtXdg,
            SqrtY,
            SqrtYdg,
            Phase(dyadic),
            Phase(angle()),
            Rx(dyadic),
            Rx(angle()),
            Ry(angle()),
            Rz(dyadic),
            Rz(angle()),
            U {
                theta: angle(),
                phi: angle(),
                lambda: angle(),
            },
        ]
    }

    #[test]
    fn controlled_gate_is_bit_identical_to_the_full_descent() {
        let mut rng = StdRng::seed_from_u64(0x1d_c4a1);
        // `fast` and `full` see the same build sequence, one builder each:
        // equal edges and counters after every build mean the same nodes
        // were created and the same values interned, in the same order.
        let mut fast = DdPackage::new();
        let mut full = DdPackage::new();
        // `shared` interleaves both builders on one package: whichever runs
        // second must find every node and value already in place.
        let mut shared = DdPackage::new();
        let mut placements = [0usize; 3];
        for round in 0..1500 {
            let n = rng.gen_range(1..=12u16);
            let catalogue = gate_catalogue(&mut rng);
            let gate = catalogue[rng.gen_range(0..catalogue.len())];
            let target = Qubit(rng.gen_range(0..n));
            let mut others: Vec<Qubit> = (0..n).map(Qubit).filter(|&q| q != target).collect();
            let mut controls = Vec::new();
            for _ in 0..rng.gen_range(0..=3usize).min(others.len()) {
                controls.push(others.swap_remove(rng.gen_range(0..others.len())));
            }
            let below = controls.iter().any(|c| c.0 < target.0);
            let above = controls.iter().any(|c| c.0 > target.0);
            match (below, above) {
                (true, false) => placements[0] += 1,
                (false, true) => placements[1] += 1,
                (true, true) => placements[2] += 1,
                (false, false) => {}
            }
            let label =
                format!("round {round}: {gate:?} on {target} of {n}, controls {controls:?}");

            let expected =
                reference_controlled_gate(&mut full, n, gate, target, &controls).unwrap();
            let got = OperatorDd::controlled_gate(&mut fast, n, gate, target, &controls).unwrap();
            assert_eq!(got.root(), expected, "{label}");
            let (f, r) = (fast.stats(), full.stats());
            assert_eq!(f.matrix_unique_misses, r.matrix_unique_misses, "{label}");
            assert_eq!(f.interned_values, r.interned_values, "{label}");

            let reference_first = round % 2 == 0;
            let first = if reference_first {
                reference_controlled_gate(&mut shared, n, gate, target, &controls).unwrap()
            } else {
                OperatorDd::controlled_gate(&mut shared, n, gate, target, &controls)
                    .unwrap()
                    .root()
            };
            let before = shared.stats();
            let second = if reference_first {
                OperatorDd::controlled_gate(&mut shared, n, gate, target, &controls)
                    .unwrap()
                    .root()
            } else {
                reference_controlled_gate(&mut shared, n, gate, target, &controls).unwrap()
            };
            let after = shared.stats();
            assert_eq!(first, second, "{label} (shared package)");
            assert_eq!(
                before.matrix_unique_misses, after.matrix_unique_misses,
                "{label} (shared package)"
            );
            assert_eq!(
                before.interned_values, after.interned_values,
                "{label} (shared package)"
            );

            if rng.gen_bool(0.05) {
                for package in [&mut fast, &mut full, &mut shared] {
                    package.collect_garbage(&[]);
                }
            }
        }
        assert!(
            placements.iter().all(|&count| count > 50),
            "controls below / above / both sides: {placements:?}"
        );
    }

    fn assert_matrix_eq(
        package: &DdPackage,
        op: &OperatorDd,
        expected: &[Vec<Complex>],
        context: &str,
    ) {
        let dim = expected.len();
        #[allow(clippy::needless_range_loop)] // row/col double as matrix indices
        for row in 0..dim {
            for col in 0..dim {
                let got = op.entry(package, row as u64, col as u64);
                assert!(
                    (got - expected[row][col]).norm() < 1e-10,
                    "{context}: entry ({row}, {col}) = {got}, expected {}",
                    expected[row][col]
                );
            }
        }
    }

    #[test]
    fn identity_has_one_node_per_level() {
        let mut p = DdPackage::new();
        let id = OperatorDd::identity(&mut p, 4).unwrap();
        assert_eq!(id.node_count(&p), 4);
        for i in 0..16u64 {
            for j in 0..16u64 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((id.entry(&p, i, j).re - expected).abs() < 1e-12);
            }
        }
        // The package memo serves shorter chains as prefixes, and garbage
        // collection drops it with the matrix arena.
        let nodes = p.allocated_matrix_nodes();
        assert_eq!(OperatorDd::identity(&mut p, 2).unwrap().node_count(&p), 2);
        assert_eq!(p.allocated_matrix_nodes(), nodes);
        p.collect_garbage(&[]);
        assert_eq!(OperatorDd::identity(&mut p, 4).unwrap(), id);
        assert_eq!(p.allocated_matrix_nodes(), 4);
    }

    #[test]
    fn single_qubit_gate_on_one_qubit() {
        let mut p = DdPackage::new();
        let h = OperatorDd::controlled_gate(&mut p, 1, OneQubitGate::H, Qubit(0), &[]).unwrap();
        let s = Complex::from_real(SQRT1_2);
        assert_matrix_eq(&p, &h, &[vec![s, s], vec![s, -s]], "H");
    }

    #[test]
    fn uncontrolled_gate_embeds_in_larger_register() {
        let mut p = DdPackage::new();
        // X on qubit 1 of a 2-qubit register: |ab> -> |a XOR 1, b> with qubit 1 as MSB.
        let x1 = OperatorDd::controlled_gate(&mut p, 2, OneQubitGate::X, Qubit(1), &[]).unwrap();
        for col in 0..4u64 {
            let row = col ^ 0b10;
            assert!((x1.entry(&p, row, col).re - 1.0).abs() < 1e-12);
            assert!(x1.entry(&p, col, col).norm() < 1e-12);
        }
    }

    #[test]
    fn cnot_with_control_below_target() {
        let mut p = DdPackage::new();
        // Control on qubit 0, target on qubit 1.
        let cnot =
            OperatorDd::controlled_gate(&mut p, 2, OneQubitGate::X, Qubit(1), &[Qubit(0)]).unwrap();
        let one = Complex::ONE;
        let zero = Complex::ZERO;
        // Basis order |q1 q0>: 00, 01, 10, 11 -> indices 0..3.
        let expected = vec![
            vec![one, zero, zero, zero],
            vec![zero, zero, zero, one],
            vec![zero, zero, one, zero],
            vec![zero, one, zero, zero],
        ];
        assert_matrix_eq(&p, &cnot, &expected, "CNOT control below target");
    }

    #[test]
    fn cnot_with_control_above_target() {
        let mut p = DdPackage::new();
        // Control on qubit 1, target on qubit 0.
        let cnot =
            OperatorDd::controlled_gate(&mut p, 2, OneQubitGate::X, Qubit(0), &[Qubit(1)]).unwrap();
        let one = Complex::ONE;
        let zero = Complex::ZERO;
        let expected = vec![
            vec![one, zero, zero, zero],
            vec![zero, one, zero, zero],
            vec![zero, zero, zero, one],
            vec![zero, zero, one, zero],
        ];
        assert_matrix_eq(&p, &cnot, &expected, "CNOT control above target");
    }

    #[test]
    fn toffoli_matrix_is_a_permutation() {
        let mut p = DdPackage::new();
        let ccx = OperatorDd::controlled_gate(
            &mut p,
            3,
            OneQubitGate::X,
            Qubit(2),
            &[Qubit(0), Qubit(1)],
        )
        .unwrap();
        for col in 0..8u64 {
            let row = if col & 0b011 == 0b011 {
                col ^ 0b100
            } else {
                col
            };
            assert!(
                (ccx.entry(&p, row, col).re - 1.0).abs() < 1e-12,
                "column {col}"
            );
        }
    }

    #[test]
    fn controlled_phase_is_diagonal() {
        let mut p = DdPackage::new();
        let theta = std::f64::consts::FRAC_PI_4;
        let cp = OperatorDd::controlled_gate(
            &mut p,
            2,
            OneQubitGate::Phase(mathkit::Angle::Radians(theta)),
            Qubit(1),
            &[Qubit(0)],
        )
        .unwrap();
        for col in 0..4u64 {
            let expected = if col == 3 {
                Complex::phase(theta)
            } else {
                Complex::ONE
            };
            assert!((cp.entry(&p, col, col) - expected).norm() < 1e-12);
            assert!(cp.entry(&p, col, col ^ 1).norm() < 1e-12);
        }
    }

    #[test]
    fn permutation_operator_without_controls() {
        let mut p = DdPackage::new();
        // Increment modulo 4 on qubits 0..1.
        let perm = Permutation::new(vec![Qubit(0), Qubit(1)], vec![1, 2, 3, 0]).unwrap();
        let op = OperatorDd::controlled_permutation(&mut p, 2, &perm, &[]).unwrap();
        for col in 0..4u64 {
            let row = (col + 1) % 4;
            assert!((op.entry(&p, row, col).re - 1.0).abs() < 1e-12, "col {col}");
            for other in 0..4u64 {
                if other != row {
                    assert!(op.entry(&p, other, col).norm() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn controlled_permutation_acts_only_when_control_is_one() {
        let mut p = DdPackage::new();
        let perm = Permutation::new(vec![Qubit(0), Qubit(1)], vec![1, 2, 3, 0]).unwrap();
        let op = OperatorDd::controlled_permutation(&mut p, 3, &perm, &[Qubit(2)]).unwrap();
        // Control q2 = 0: identity on the low bits.
        for col in 0..4u64 {
            assert!((op.entry(&p, col, col).re - 1.0).abs() < 1e-12);
        }
        // Control q2 = 1: increment on the low bits.
        for col in 0..4u64 {
            let row = 4 + (col + 1) % 4;
            assert!((op.entry(&p, row, 4 + col).re - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn permutation_on_non_contiguous_register() {
        let mut p = DdPackage::new();
        // Swap the values of qubits 0 and 2 expressed as a permutation of the
        // register [q0, q2]: value bits (b0, b1) -> (b1, b0).
        let perm = Permutation::new(vec![Qubit(0), Qubit(2)], vec![0, 2, 1, 3]).unwrap();
        let op = OperatorDd::controlled_permutation(&mut p, 3, &perm, &[]).unwrap();
        for col in 0..8u64 {
            let b0 = col & 1;
            let b2 = (col >> 2) & 1;
            let row = (col & 0b010) | (b0 << 2) | b2;
            assert!(
                (op.entry(&p, row, col).re - 1.0).abs() < 1e-12,
                "col {col} expected row {row}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must not also be a control")]
    fn control_equal_to_target_panics() {
        let mut p = DdPackage::new();
        let _ = OperatorDd::controlled_gate(&mut p, 2, OneQubitGate::X, Qubit(0), &[Qubit(0)]);
    }
}
