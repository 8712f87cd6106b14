//! Memoized decision-diagram operations: vector addition, matrix addition
//! and matrix–vector multiplication.

use crate::edge::{MatrixEdge, VectorEdge};
use crate::govern::DdError;
use crate::DdPackage;

/// Adds two state DDs (`a + b`), sharing structure through the package's
/// compute table.
///
/// Both edges must be rooted at the same variable level (or be terminal /
/// zero edges); this is always the case for DDs built over the same number
/// of qubits.
///
/// # Errors
///
/// Fails with a [`DdError`] when the package's governor interrupts the run
/// or a node arena overflows.
pub fn add(package: &mut DdPackage, a: VectorEdge, b: VectorEdge) -> Result<VectorEdge, DdError> {
    if a.is_zero() {
        return Ok(b);
    }
    if b.is_zero() {
        return Ok(a);
    }
    // Same target (terminal pairs included): `wa·v + wb·v = (wa + wb)·v`.
    // One weight addition replaces a recursion that would rebuild `v` node
    // by node, and the exact sum carries no rounding from rescaled children.
    if a.target == b.target {
        let value = package.weight_value(a.weight) + package.weight_value(b.weight);
        return Ok(package.vector_edge(a.target, value));
    }

    // Addition is commutative; canonicalize the key order to double the
    // compute-table hit rate.
    let key = if (a.target, a.weight) <= (b.target, b.weight) {
        (a, b)
    } else {
        (b, a)
    };
    if let Some(cached) = package.add_cache.lookup(key) {
        return Ok(cached);
    }

    // The targets differ, and both DDs span the same levels, so neither
    // edge is terminal.
    debug_assert!(
        !a.is_terminal() && !b.is_terminal(),
        "added DDs must be over the same variable level"
    );
    let a_node = *package.vnode(a.target);
    let b_node = *package.vnode(b.target);
    debug_assert_eq!(
        a_node.var, b_node.var,
        "added DDs must be over the same variable level"
    );
    let var = a_node.var;
    let wa = package.weight_value(a.weight);
    let wb = package.weight_value(b.weight);

    let mut children = [VectorEdge::ZERO; 2];
    for (bit, child) in children.iter_mut().enumerate() {
        let left = package.scale_vedge(a_node.children[bit], wa);
        let right = package.scale_vedge(b_node.children[bit], wb);
        *child = add(package, left, right)?;
    }
    let result = package.make_vnode(var, children[0], children[1])?;
    package.add_cache.insert(key, result);
    Ok(result)
}

/// Adds two operator DDs (`a + b`).
///
/// # Errors
///
/// Fails with a [`DdError`] when the package's governor interrupts the run
/// or a node arena overflows.
pub fn matrix_add(
    package: &mut DdPackage,
    a: MatrixEdge,
    b: MatrixEdge,
) -> Result<MatrixEdge, DdError> {
    if a.is_zero() {
        return Ok(b);
    }
    if b.is_zero() {
        return Ok(a);
    }
    // Same target: `wa·M + wb·M = (wa + wb)·M`, as in `add`.
    if a.target == b.target {
        let value = package.weight_value(a.weight) + package.weight_value(b.weight);
        return Ok(package.matrix_edge(a.target, value));
    }

    let key = if (a.target, a.weight) <= (b.target, b.weight) {
        (a, b)
    } else {
        (b, a)
    };
    if let Some(cached) = package.madd_cache.lookup(key) {
        return Ok(cached);
    }

    let a_node = *package.mnode(a.target);
    let b_node = *package.mnode(b.target);
    debug_assert_eq!(a_node.var, b_node.var);
    let wa = package.weight_value(a.weight);
    let wb = package.weight_value(b.weight);

    let mut children = [MatrixEdge::ZERO; 4];
    for (i, child) in children.iter_mut().enumerate() {
        let left = package.scale_medge(a_node.children[i], wa);
        let right = package.scale_medge(b_node.children[i], wb);
        *child = matrix_add(package, left, right)?;
    }
    let result = package.make_mnode(a_node.var, children)?;
    package.madd_cache.insert(key, result);
    Ok(result)
}

/// Multiplies an operator DD by a state DD (`m * v`), the core of
/// DD-based strong simulation.
///
/// The result weights are factored out of the recursion so the compute table
/// can be keyed on node identities alone.
///
/// # Errors
///
/// Fails with a [`DdError`] when the package's governor interrupts the run
/// or a node arena overflows.
pub fn matrix_vector_multiply(
    package: &mut DdPackage,
    m: MatrixEdge,
    v: VectorEdge,
) -> Result<VectorEdge, DdError> {
    if m.is_zero() || v.is_zero() {
        return Ok(VectorEdge::ZERO);
    }
    let factor = package.weight_value(m.weight) * package.weight_value(v.weight);
    let normalized = multiply_nodes(package, m, v)?;
    Ok(package.scale_vedge(normalized, factor))
}

/// Multiplies the sub-diagrams below `m.target` and `v.target`, ignoring the
/// incoming weights (they are applied by the caller).
fn multiply_nodes(
    package: &mut DdPackage,
    m: MatrixEdge,
    v: VectorEdge,
) -> Result<VectorEdge, DdError> {
    if m.is_terminal() && v.is_terminal() {
        return Ok(VectorEdge::ONE);
    }
    debug_assert!(
        !m.is_terminal() && !v.is_terminal(),
        "operator and state DDs must span the same qubits"
    );

    // Identity shortcut: gate operators are identity chains everywhere
    // outside the gate cone, so most of a multiply recursion would just
    // reconstruct `v` node by node.  Returning the sub-vector directly
    // removes that entire region from the compute working set.
    if package.is_identity_mnode(m.target) {
        return Ok(VectorEdge {
            target: v.target,
            weight: crate::edge::WeightId::ONE,
        });
    }

    let key = (m.target, v.target);
    if let Some(cached) = package.mv_cache.lookup(key) {
        return Ok(cached);
    }

    let m_node = *package.mnode(m.target);
    let v_node = *package.vnode(v.target);
    debug_assert_eq!(
        m_node.var, v_node.var,
        "operator level {} does not match state level {}",
        m_node.var, v_node.var
    );

    let mut children = [VectorEdge::ZERO; 2];
    #[allow(clippy::needless_range_loop)] // row also indexes m_node via 2*row+col
    for row in 0..2 {
        let mut acc = VectorEdge::ZERO;
        for col in 0..2 {
            let m_child = m_node.children[2 * row + col];
            let v_child = v_node.children[col];
            if m_child.is_zero() || v_child.is_zero() {
                continue;
            }
            let sub = multiply_nodes(package, m_child, v_child)?;
            let factor =
                package.weight_value(m_child.weight) * package.weight_value(v_child.weight);
            let term = package.scale_vedge(sub, factor);
            acc = add(package, acc, term)?;
        }
        children[row] = acc;
    }
    let result = package.make_vnode(m_node.var, children[0], children[1])?;
    package.mv_cache.insert(key, result);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateDd;
    use mathkit::Complex;

    fn from_amps(package: &mut DdPackage, amps: &[Complex]) -> VectorEdge {
        StateDd::from_amplitudes(package, amps).unwrap().root()
    }

    fn to_amps(package: &DdPackage, edge: VectorEdge, n: u16) -> Vec<Complex> {
        StateDd::from_root(edge, n).to_amplitudes(package)
    }

    #[test]
    fn add_is_elementwise() {
        let mut p = DdPackage::new();
        let a = from_amps(
            &mut p,
            &[
                Complex::from_real(1.0),
                Complex::ZERO,
                Complex::from_real(2.0),
                Complex::new(0.0, 1.0),
            ],
        );
        let b = from_amps(
            &mut p,
            &[
                Complex::from_real(0.5),
                Complex::from_real(3.0),
                Complex::from_real(-2.0),
                Complex::new(0.0, -1.0),
            ],
        );
        let sum = add(&mut p, a, b).unwrap();
        let amps = to_amps(&p, sum, 2);
        let expected = [
            Complex::from_real(1.5),
            Complex::from_real(3.0),
            Complex::ZERO,
            Complex::ZERO,
        ];
        for (got, want) in amps.iter().zip(expected.iter()) {
            assert!((*got - *want).norm() < 1e-12, "{got} != {want}");
        }
    }

    #[test]
    fn add_with_zero_is_identity() {
        let mut p = DdPackage::new();
        let a = from_amps(&mut p, &[Complex::ONE, Complex::ZERO]);
        assert_eq!(add(&mut p, a, VectorEdge::ZERO).unwrap(), a);
        assert_eq!(add(&mut p, VectorEdge::ZERO, a).unwrap(), a);
    }

    #[test]
    fn add_is_commutative_via_cache_key() {
        let mut p = DdPackage::new();
        let a = from_amps(&mut p, &[Complex::ONE, Complex::from_real(2.0)]);
        let b = from_amps(&mut p, &[Complex::from_real(3.0), Complex::from_real(-1.0)]);
        let ab = add(&mut p, a, b).unwrap();
        let ba = add(&mut p, b, a).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn add_of_one_target_sums_the_weights_without_building_nodes() {
        let mut p = DdPackage::new();
        let amps = [
            Complex::from_real(0.6),
            Complex::ZERO,
            Complex::new(0.0, 0.8),
            Complex::ZERO,
        ];
        let v = from_amps(&mut p, &amps);
        let a = p.scale_vedge(v, Complex::new(0.25, 0.5));
        let b = p.scale_vedge(v, Complex::new(-1.0, 0.25));
        let nodes = p.allocated_vector_nodes();
        let sum = add(&mut p, a, b).unwrap();
        assert_eq!(p.allocated_vector_nodes(), nodes);
        assert_eq!(sum.target, v.target);
        let expected = p.weight_value(v.weight) * Complex::new(-0.75, 0.75);
        assert!((p.weight_value(sum.weight) - expected).norm() < 1e-12);
        assert_eq!(p.stats().add_cache, Default::default());

        // Opposite weights cancel to the canonical zero edge.
        let minus = p.scale_vedge(a, -Complex::ONE);
        assert_eq!(add(&mut p, a, minus).unwrap(), VectorEdge::ZERO);
    }

    #[test]
    fn matrix_add_of_one_target_sums_the_weights() {
        let mut p = DdPackage::new();
        let h = crate::OperatorDd::controlled_gate(
            &mut p,
            2,
            circuit::OneQubitGate::H,
            circuit::Qubit(1),
            &[],
        )
        .unwrap()
        .root();
        let half = p.scale_medge(h, Complex::from_real(0.5));
        let nodes = p.allocated_matrix_nodes();
        let sum = matrix_add(&mut p, half, half).unwrap();
        assert_eq!(p.allocated_matrix_nodes(), nodes);
        assert_eq!(sum, h);
        let minus = p.scale_medge(half, -Complex::ONE);
        assert_eq!(matrix_add(&mut p, half, minus).unwrap(), MatrixEdge::ZERO);
    }

    #[test]
    fn identity_matrix_multiplication_preserves_state() {
        let mut p = DdPackage::new();
        let identity = crate::OperatorDd::identity(&mut p, 2).unwrap();
        let amps = [
            Complex::from_real(0.5),
            Complex::new(0.0, 0.5),
            Complex::from_real(-0.5),
            Complex::new(0.0, -0.5),
        ];
        let v = from_amps(&mut p, &amps);
        let result = matrix_vector_multiply(&mut p, identity.root(), v).unwrap();
        let out = to_amps(&p, result, 2);
        for (got, want) in out.iter().zip(amps.iter()) {
            assert!((*got - *want).norm() < 1e-12);
        }
    }

    #[test]
    fn matrix_add_builds_sums() {
        let mut p = DdPackage::new();
        // |0><0| + |1><1| over one qubit equals the identity.
        let one = p.matrix_terminal(Complex::ONE);
        let proj0 = p
            .make_mnode(
                0,
                [one, MatrixEdge::ZERO, MatrixEdge::ZERO, MatrixEdge::ZERO],
            )
            .unwrap();
        let proj1 = p
            .make_mnode(
                0,
                [MatrixEdge::ZERO, MatrixEdge::ZERO, MatrixEdge::ZERO, one],
            )
            .unwrap();
        let sum = matrix_add(&mut p, proj0, proj1).unwrap();
        let identity = crate::OperatorDd::identity(&mut p, 1).unwrap().root();
        assert_eq!(sum, identity);
    }
}
