//! State (vector) decision diagrams.

use crate::edge::{VectorEdge, VectorNodeId};
use crate::govern::DdError;
use crate::DdPackage;
use mathkit::{Complex, KahanSum};

/// The widest state [`StateDd::to_amplitudes`] materialises.
pub(crate) const MAX_AMPLITUDE_QUBITS: u16 = 30;

/// A quantum state represented as an edge-weighted decision diagram.
///
/// A `StateDd` is a lightweight handle (root edge + qubit count) into a
/// [`DdPackage`], which owns the actual nodes.
///
/// # Examples
///
/// ```
/// use dd::{DdPackage, StateDd};
///
/// let mut package = DdPackage::new();
/// let state = StateDd::basis_state(&mut package, 3, 0b101).unwrap();
/// assert_eq!(state.amplitude(&package, 0b101).re, 1.0);
/// assert_eq!(state.amplitude(&package, 0b000).re, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateDd {
    root: VectorEdge,
    num_qubits: u16,
}

impl StateDd {
    /// Wraps an existing root edge (used internally and by advanced callers
    /// composing their own DDs).
    #[must_use]
    pub fn from_root(root: VectorEdge, num_qubits: u16) -> Self {
        Self { root, num_qubits }
    }

    /// The root edge of the diagram.
    #[must_use]
    pub fn root(&self) -> VectorEdge {
        self.root
    }

    /// The number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// Builds the all-zeros basis state `|0...0>`.
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the package's governor interrupts the
    /// run or a node arena overflows.
    pub fn zero_state(package: &mut DdPackage, num_qubits: u16) -> Result<Self, DdError> {
        Self::basis_state(package, num_qubits, 0)
    }

    /// Builds the computational basis state `|index>`.  On registers wider
    /// than 64 qubits, `index` sets the low 64 and the rest are `|0>`.
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the package's governor interrupts the
    /// run or a node arena overflows.
    ///
    /// # Panics
    ///
    /// Panics if `index` has bits above `num_qubits`.
    pub fn basis_state(
        package: &mut DdPackage,
        num_qubits: u16,
        index: u64,
    ) -> Result<Self, DdError> {
        assert!(
            num_qubits >= 64 || index < (1u64 << num_qubits),
            "basis index {index} out of range for {num_qubits} qubits"
        );
        let mut edge = package.vector_terminal(Complex::ONE);
        for var in 0..num_qubits {
            let bit = index.checked_shr(u32::from(var)).unwrap_or(0) & 1;
            edge = if bit == 0 {
                package.make_vnode(var, edge, VectorEdge::ZERO)?
            } else {
                package.make_vnode(var, VectorEdge::ZERO, edge)?
            };
        }
        Ok(Self {
            root: edge,
            num_qubits,
        })
    }

    /// Builds a decision diagram from an explicit amplitude vector (length
    /// must be a power of two).
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the package's governor interrupts the
    /// run or a node arena overflows.
    ///
    /// # Panics
    ///
    /// Panics if the length of `amplitudes` is not a power of two.
    pub fn from_amplitudes(
        package: &mut DdPackage,
        amplitudes: &[Complex],
    ) -> Result<Self, DdError> {
        assert!(
            amplitudes.len().is_power_of_two(),
            "amplitude vector length must be a power of two, got {}",
            amplitudes.len()
        );
        let num_qubits = amplitudes.len().trailing_zeros() as u16;

        fn build(package: &mut DdPackage, amps: &[Complex]) -> Result<VectorEdge, DdError> {
            if amps.len() == 1 {
                return Ok(package.vector_terminal(amps[0]));
            }
            let half = amps.len() / 2;
            let zero = build(package, &amps[..half])?;
            let one = build(package, &amps[half..])?;
            let var = (amps.len().trailing_zeros() - 1) as u16;
            package.make_vnode(var, zero, one)
        }

        let root = build(package, amplitudes)?;
        Ok(Self { root, num_qubits })
    }

    /// The amplitude of basis state `index`, reconstructed by multiplying the
    /// edge weights along the corresponding path (Example 9 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `index` has bits above `num_qubits`.
    #[must_use]
    pub fn amplitude(&self, package: &DdPackage, index: u64) -> Complex {
        assert!(
            self.num_qubits == 64 || index < (1u64 << self.num_qubits),
            "basis index {index} out of range for {} qubits",
            self.num_qubits
        );
        let mut value = package.weight_value(self.root.weight);
        let mut edge = self.root;
        while !edge.is_terminal() {
            if edge.is_zero() {
                return Complex::ZERO;
            }
            let node = package.vnode(edge.target);
            let bit = ((index >> node.var) & 1) as usize;
            edge = node.children[bit];
            if edge.is_zero() {
                return Complex::ZERO;
            }
            value *= package.weight_value(edge.weight);
        }
        if self.root.is_zero() {
            Complex::ZERO
        } else {
            value
        }
    }

    /// The measurement probability of basis state `index`.
    #[must_use]
    pub fn probability(&self, package: &DdPackage, index: u64) -> f64 {
        self.amplitude(package, index).norm_sqr()
    }

    /// Materialises the full amplitude vector (exponential in the qubit
    /// count; used by tests, small examples and the dense handoff of
    /// [`Until::Incompressible`](crate::Until::Incompressible)).
    ///
    /// # Panics
    ///
    /// Panics if the state has more than 30 qubits, to prevent accidental
    /// exponential blow-ups.
    #[must_use]
    pub fn to_amplitudes(&self, package: &DdPackage) -> Vec<Complex> {
        assert!(
            self.num_qubits <= MAX_AMPLITUDE_QUBITS,
            "refusing to materialise a {}-qubit state vector",
            self.num_qubits
        );
        let len = 1usize << self.num_qubits;
        let mut out = vec![Complex::ZERO; len];
        // Depth-first traversal accumulating the weight product is linear in
        // the output size rather than in (paths * depth).
        fn walk(
            package: &DdPackage,
            edge: VectorEdge,
            factor: Complex,
            prefix: u64,
            out: &mut [Complex],
        ) {
            if edge.is_zero() {
                return;
            }
            let factor = factor * package.weight_value(edge.weight);
            if edge.is_terminal() {
                // Infallible: the ≤30-qubit guard bounds the prefix well
                // below usize::MAX.
                #[allow(clippy::expect_used)]
                let index = usize::try_from(prefix).expect("index fits");
                out[index] = factor;
                return;
            }
            let node = package.vnode(edge.target);
            walk(package, node.children[0], factor, prefix, out);
            walk(
                package,
                node.children[1],
                factor,
                prefix | (1 << node.var),
                out,
            );
        }
        walk(package, self.root, Complex::ONE, 0, &mut out);
        out
    }

    /// The squared 2-norm of the state (1 for a valid quantum state).
    #[must_use]
    pub fn norm_sqr(&self, package: &DdPackage) -> f64 {
        fn walk(
            package: &DdPackage,
            target: VectorNodeId,
            memo: &mut mathkit::FxHashMap<VectorNodeId, f64>,
        ) -> f64 {
            if target.is_terminal() {
                return 1.0;
            }
            if let Some(&v) = memo.get(&target) {
                return v;
            }
            let node = package.vnode(target);
            let mut sum = KahanSum::new();
            for child in node.children {
                if !child.is_zero() {
                    let w = package.weight_value(child.weight).norm_sqr();
                    sum.add(w * walk(package, child.target, memo));
                }
            }
            let value = sum.value();
            memo.insert(target, value);
            value
        }
        if self.root.is_zero() {
            return 0.0;
        }
        let mut memo = mathkit::FxHashMap::default();
        package.weight_value(self.root.weight).norm_sqr()
            * walk(package, self.root.target, &mut memo)
    }

    /// The number of decision-diagram nodes reachable from the root
    /// (excluding the terminal) — the "size" column of Table I.
    #[must_use]
    pub fn node_count(&self, package: &DdPackage) -> usize {
        package.reachable_vector_nodes(self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::SQRT1_2;

    #[test]
    fn zero_state_has_one_node_per_qubit() {
        let mut p = DdPackage::new();
        let s = StateDd::zero_state(&mut p, 5).unwrap();
        assert_eq!(s.node_count(&p), 5);
        assert_eq!(s.amplitude(&p, 0), Complex::ONE);
        assert_eq!(s.amplitude(&p, 7), Complex::ZERO);
        assert!((s.norm_sqr(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn basis_state_amplitudes() {
        let mut p = DdPackage::new();
        let s = StateDd::basis_state(&mut p, 4, 0b1010).unwrap();
        for i in 0..16 {
            let expected = if i == 0b1010 { 1.0 } else { 0.0 };
            assert_eq!(s.probability(&p, i), expected, "index {i}");
        }
        // Wider than 64 qubits: the index sets the low 64, the rest are |0>.
        let wide = StateDd::basis_state(&mut p, 70, 0b101).unwrap();
        let mut edge = wide.root();
        for var in (0..70u16).rev() {
            let node = p.vnode(edge.target);
            assert_eq!(node.var, var);
            let bit = usize::from(var == 0 || var == 2);
            assert!(node.children[1 - bit].is_zero(), "qubit {var}");
            edge = node.children[bit];
        }
        assert!(edge.target.is_terminal());
    }

    #[test]
    fn from_amplitudes_round_trips() {
        let mut p = DdPackage::new();
        let amps = vec![
            Complex::new(0.1, 0.2),
            Complex::new(-0.3, 0.0),
            Complex::new(0.0, 0.5),
            Complex::new(0.4, -0.1),
            Complex::ZERO,
            Complex::new(0.2, 0.2),
            Complex::new(-0.1, -0.4),
            Complex::new(0.3, 0.3),
        ];
        let s = StateDd::from_amplitudes(&mut p, &amps).unwrap();
        let back = s.to_amplitudes(&p);
        for (got, want) in back.iter().zip(amps.iter()) {
            assert!((*got - *want).norm() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn paper_fig4_state_has_five_nodes() {
        // Fig. 4b of the paper draws 1 q2 node, 2 q1 nodes and 3 q0 nodes;
        // with full node sharing the [0,1] leaf is reused by both q1 nodes,
        // so the canonical diagram has 5 nodes.
        let mut p = DdPackage::new();
        let a = Complex::new(0.0, -(3.0_f64 / 8.0).sqrt());
        let b = Complex::from_real((1.0_f64 / 8.0).sqrt());
        let amps = vec![
            Complex::ZERO,
            a,
            Complex::ZERO,
            a,
            b,
            Complex::ZERO,
            Complex::ZERO,
            b,
        ];
        let s = StateDd::from_amplitudes(&mut p, &amps).unwrap();
        assert_eq!(s.node_count(&p), 5);
        // Example 9: the amplitude of |111> is reconstructed from the path.
        assert!((s.amplitude(&p, 0b111) - b).norm() < 1e-12);
        assert!((s.amplitude(&p, 0b001) - a).norm() < 1e-12);
        assert!((s.norm_sqr(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_states_stay_linear_in_size() {
        // A uniform superposition over n qubits is a product state and must
        // use exactly one node per qubit.
        let mut p = DdPackage::new();
        let n = 8;
        let amps: Vec<Complex> = (0..1usize << n)
            .map(|_| Complex::from_real(SQRT1_2.powi(n as i32)))
            .collect();
        let s = StateDd::from_amplitudes(&mut p, &amps).unwrap();
        assert_eq!(s.node_count(&p), n);
        assert!((s.norm_sqr(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_state_has_two_nodes_per_level_below_the_root() {
        // (|000...0> + |111...1>)/sqrt(2): the root level has one node, every
        // level below has two.
        let mut p = DdPackage::new();
        let n = 6;
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::from_real(SQRT1_2);
        amps[(1 << n) - 1] = Complex::from_real(SQRT1_2);
        let s = StateDd::from_amplitudes(&mut p, &amps).unwrap();
        assert_eq!(s.node_count(&p), 2 * n - 1);
    }

    #[test]
    fn zero_vector_is_the_zero_edge() {
        let mut p = DdPackage::new();
        let s = StateDd::from_amplitudes(&mut p, &[Complex::ZERO; 4]).unwrap();
        assert!(s.root().is_zero());
        assert_eq!(s.norm_sqr(&p), 0.0);
        assert_eq!(s.node_count(&p), 0);
        assert_eq!(s.amplitude(&p, 3), Complex::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn amplitude_index_out_of_range_panics() {
        let mut p = DdPackage::new();
        let s = StateDd::zero_state(&mut p, 2).unwrap();
        let _ = s.amplitude(&p, 4);
    }

    #[test]
    fn normalization_schemes_agree_on_amplitudes() {
        use crate::Normalization;
        let amps = vec![
            Complex::new(0.5, 0.0),
            Complex::new(0.0, 0.5),
            Complex::new(-0.5, 0.0),
            Complex::new(0.0, -0.5),
        ];
        let mut left = DdPackage::with_normalization(Normalization::LeftMost);
        let mut norm = DdPackage::with_normalization(Normalization::TwoNorm);
        let a = StateDd::from_amplitudes(&mut left, &amps).unwrap();
        let b = StateDd::from_amplitudes(&mut norm, &amps).unwrap();
        for i in 0..4 {
            assert!(
                (a.amplitude(&left, i) - b.amplitude(&norm, i)).norm() < 1e-12,
                "index {i}"
            );
        }
    }
}
