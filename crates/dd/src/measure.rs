//! Destructive measurement (state collapse) on decision diagrams.
//!
//! Weak simulation of *static* circuits never needs collapse — sampling is a
//! read-only operation that can be repeated (Section IV-B of the paper).
//! Collapse is the primitive behind trajectory simulation of *dynamic*
//! circuits (mid-circuit [`circuit::Operation::Measure`] /
//! [`circuit::Operation::Reset`], e.g. iterative phase estimation,
//! teleportation or error-correction experiments): the trajectory engine in
//! the `weaksim` crate draws an outcome from [`branch_masses`] and collapses
//! with [`collapse_qubit`].

use crate::edge::MatrixEdge;
use crate::govern::DdError;
use crate::ops::matrix_vector_multiply;
use crate::package::OperatorKey;
use crate::{DdPackage, StateDd};
use circuit::Qubit;
use mathkit::Complex;

/// The absolute probability masses of the two measurement outcomes of
/// `qubit`: `[<psi|P_0|psi>, <psi|P_1|psi>]`, computed from the projected
/// subspaces.
///
/// The masses are *not* normalized by the state's norm — callers drawing an
/// outcome must divide by `masses[0] + masses[1]`, which keeps the draw
/// correct even when the state's norm has drifted from 1.0 through
/// floating-point error accumulated over many gates.
///
/// # Errors
///
/// Fails with a [`DdError`] when the package's governor interrupts the run
/// or a node arena overflows.
///
/// # Panics
///
/// Panics if `qubit` is outside the state.
pub fn branch_masses(
    package: &mut DdPackage,
    state: &StateDd,
    qubit: Qubit,
) -> Result<[f64; 2], DdError> {
    assert!(
        qubit.index() < usize::from(state.num_qubits()),
        "qubit {qubit} outside the {}-qubit state",
        state.num_qubits()
    );
    let zero = project(package, state, qubit, 0)?;
    let one = project(package, state, qubit, 1)?;
    Ok([zero.norm_sqr(package), one.norm_sqr(package)])
}

/// Projects the state onto `qubit = outcome` and renormalizes the projection
/// to unit norm (the post-measurement state of that outcome).
///
/// # Errors
///
/// Fails with a [`DdError`] when the package's governor interrupts the run
/// or a node arena overflows.
///
/// # Panics
///
/// Panics if `qubit` is outside the state or the projected subspace carries
/// no probability mass (the outcome is impossible).
pub fn collapse_qubit(
    package: &mut DdPackage,
    state: &StateDd,
    qubit: Qubit,
    outcome: u8,
) -> Result<StateDd, DdError> {
    assert!(
        qubit.index() < usize::from(state.num_qubits()),
        "qubit {qubit} outside the {}-qubit state",
        state.num_qubits()
    );
    let projected = project(package, state, qubit, outcome)?;
    let mass = projected.norm_sqr(package);
    assert!(
        mass > 0.0,
        "measurement produced an outcome of probability zero"
    );
    let renormalized = package.scale_vedge(projected.root(), Complex::from_real(1.0 / mass.sqrt()));
    Ok(StateDd::from_root(renormalized, state.num_qubits()))
}

/// Applies the amplitude-damping *no-decay* Kraus operator
/// `K0 = diag(1, sqrt(1 - gamma))` to `qubit` and renormalizes the result to
/// unit norm — the post-channel state of the branch in which the qubit did
/// **not** relax.
///
/// The decay branch (`K1 = sqrt(gamma) |0><1|`) needs no primitive of its
/// own: up to normalization it is [`collapse_qubit`] to outcome `1` followed
/// by an `X` flip, exactly the trajectory engine's reset.  The trajectory engine
/// draws the branch from `gamma * P(qubit = 1)` (via [`branch_masses`]) and
/// realizes it with these two primitives.
///
/// # Errors
///
/// Fails with a [`DdError`] when the package's governor interrupts the run
/// or a node arena overflows.
///
/// # Panics
///
/// Panics if `qubit` is outside the state, `gamma` is not a probability, or
/// the no-decay branch carries no mass (only possible for `gamma = 1` on a
/// pure `|1>` qubit — a branch the engine then never draws).
pub fn amplitude_damp_keep(
    package: &mut DdPackage,
    state: &StateDd,
    qubit: Qubit,
    gamma: f64,
) -> Result<StateDd, DdError> {
    assert!(
        qubit.index() < usize::from(state.num_qubits()),
        "qubit {qubit} outside the {}-qubit state",
        state.num_qubits()
    );
    assert!(
        (0.0..=1.0).contains(&gamma),
        "damping parameter {gamma} is not a probability"
    );
    let n = state.num_qubits();
    // Build diag(1, sqrt(1-gamma)) on `qubit`, identity elsewhere (same
    // bottom-up construction as the measurement projector below), memoized
    // per (qubit, gamma) — trajectory replays reuse the operator.
    let edge = package.cached_operator(OperatorKey::damp_keep(n, qubit, gamma), |package| {
        let keep = Complex::from_real((1.0 - gamma).sqrt());
        let mut edge = package.matrix_terminal(Complex::ONE);
        for var in 0..n {
            let children = if usize::from(var) == qubit.index() {
                let damped_one = package.scale_medge(edge, keep);
                [edge, MatrixEdge::ZERO, MatrixEdge::ZERO, damped_one]
            } else {
                [edge, MatrixEdge::ZERO, MatrixEdge::ZERO, edge]
            };
            edge = package.make_mnode(var, children)?;
        }
        Ok(edge)
    })?;
    let damped = StateDd::from_root(matrix_vector_multiply(package, edge, state.root())?, n);
    let mass = damped.norm_sqr(package);
    assert!(
        mass > 0.0,
        "amplitude-damping no-decay branch has zero mass"
    );
    let renormalized = package.scale_vedge(damped.root(), Complex::from_real(1.0 / mass.sqrt()));
    Ok(StateDd::from_root(renormalized, n))
}

/// Projects the state onto the subspace where `qubit` has value `bit`
/// (without renormalizing).
fn project(
    package: &mut DdPackage,
    state: &StateDd,
    qubit: Qubit,
    bit: u8,
) -> Result<StateDd, DdError> {
    let n = state.num_qubits();
    // The diagonal projector |bit><bit| on `qubit`, identity elsewhere —
    // memoized per (qubit, bit): branch-mass queries and collapses in
    // trajectory loops hit the same projectors over and over.
    let edge = package.cached_operator(OperatorKey::projector(n, qubit, bit), |package| {
        let mut edge = package.matrix_terminal(Complex::ONE);
        for var in 0..n {
            let children = if usize::from(var) == qubit.index() {
                let mut c = [MatrixEdge::ZERO; 4];
                c[usize::from(2 * bit + bit)] = edge;
                c
            } else {
                [edge, MatrixEdge::ZERO, MatrixEdge::ZERO, edge]
            };
            edge = package.make_mnode(var, children)?;
        }
        Ok(edge)
    })?;
    Ok(StateDd::from_root(
        matrix_vector_multiply(package, edge, state.root())?,
        n,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One measurement the way the trajectory engine draws it: `P(1)` from
    /// the normalized branch masses, outcome `r < P(1)`, then collapse.
    fn measure(
        p: &mut DdPackage,
        state: &StateDd,
        qubit: Qubit,
        rng: &mut StdRng,
    ) -> (u8, StateDd) {
        let [zero, one] = branch_masses(p, state, qubit).unwrap();
        let bit = u8::from(rng.gen::<f64>() < one / (zero + one));
        (bit, collapse_qubit(p, state, qubit, bit).unwrap())
    }

    #[test]
    fn measuring_a_basis_state_is_deterministic() {
        let mut p = DdPackage::new();
        let state = StateDd::basis_state(&mut p, 4, 0b1010).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for q in 0..4u16 {
            let (bit, post) = measure(&mut p, &state, Qubit(q), &mut rng);
            assert_eq!(u64::from(bit), (0b1010 >> q) & 1);
            assert!((post.norm_sqr(&p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn measuring_one_ghz_qubit_collapses_the_rest() {
        let mut p = DdPackage::new();
        let circuit = {
            let mut c = circuit::Circuit::new(4);
            c.h(Qubit(0));
            c.cx(Qubit(0), Qubit(1));
            c.cx(Qubit(1), Qubit(2));
            c.cx(Qubit(2), Qubit(3));
            c
        };
        let state = crate::simulate(&mut p, &circuit).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw = [false, false];
        for _ in 0..20 {
            let (bit, post) = measure(&mut p, &state, Qubit(2), &mut rng);
            saw[usize::from(bit)] = true;
            // After measuring one qubit of a GHZ state all qubits agree.
            let expected = if bit == 1 { 0b1111 } else { 0 };
            assert!((post.probability(&p, expected) - 1.0).abs() < 1e-10);
            assert!((post.norm_sqr(&p) - 1.0).abs() < 1e-10);
        }
        assert!(saw[0] && saw[1], "both outcomes should occur in 20 tries");
    }

    #[test]
    fn drifted_norm_states_measure_with_normalized_probabilities() {
        // A state of squared norm 0.25: both outcomes carry equal *relative*
        // probability, so the draw must behave exactly like the unit-norm
        // state.  (Regression: the 0-branch used to be renormalized with
        // `1 - p_one` where `p_one` was an absolute, unnormalized mass.)
        let mut p = DdPackage::new();
        let a = Complex::from_real(0.5 * mathkit::SQRT1_2);
        let state = StateDd::from_amplitudes(&mut p, &[a, a]).unwrap();
        assert!((state.norm_sqr(&p) - 0.25).abs() < 1e-12);

        let masses = branch_masses(&mut p, &state, Qubit(0)).unwrap();
        assert!((masses[0] - 0.125).abs() < 1e-12);
        assert!((masses[1] - 0.125).abs() < 1e-12);

        let mut rng = StdRng::seed_from_u64(13);
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            let (bit, post) = measure(&mut p, &state, Qubit(0), &mut rng);
            counts[usize::from(bit)] += 1;
            // Either branch renormalizes to exactly unit norm.
            assert!((post.norm_sqr(&p) - 1.0).abs() < 1e-12);
        }
        for &c in &counts {
            assert!(
                (f64::from(c) / 2000.0 - 0.5).abs() < 0.05,
                "outcome frequencies must be 50/50, got {counts:?}"
            );
        }
    }

    #[test]
    fn collapse_qubit_projects_and_renormalizes() {
        let mut p = DdPackage::new();
        let circuit = algorithms::ghz(3);
        let state = crate::simulate(&mut p, &circuit).unwrap();
        for outcome in [0u8, 1u8] {
            let post = collapse_qubit(&mut p, &state, Qubit(1), outcome).unwrap();
            let expected = if outcome == 1 { 0b111 } else { 0 };
            assert!((post.probability(&p, expected) - 1.0).abs() < 1e-12);
            assert!((post.norm_sqr(&p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "probability zero")]
    fn collapsing_to_an_impossible_outcome_panics() {
        let mut p = DdPackage::new();
        let state = StateDd::basis_state(&mut p, 2, 0b00).unwrap();
        let _ = collapse_qubit(&mut p, &state, Qubit(0), 1);
    }

    #[test]
    fn amplitude_damp_keep_scales_the_one_branch() {
        // On (|0> + |1>)/sqrt(2) with gamma = 0.36, K0 gives
        // (|0> + 0.8 |1>)/sqrt(1.64): P(1) = 0.64/1.64.
        let mut p = DdPackage::new();
        let a = Complex::from_real(mathkit::SQRT1_2);
        let state = StateDd::from_amplitudes(&mut p, &[a, a]).unwrap();
        let kept = amplitude_damp_keep(&mut p, &state, Qubit(0), 0.36).unwrap();
        assert!((kept.norm_sqr(&p) - 1.0).abs() < 1e-12);
        assert!((kept.probability(&p, 1) - 0.64 / 1.64).abs() < 1e-12);
        assert!((kept.probability(&p, 0) - 1.0 / 1.64).abs() < 1e-12);

        // gamma = 0 is the identity; a |0> qubit never changes.
        let zero = StateDd::basis_state(&mut p, 2, 0b00).unwrap();
        let kept = amplitude_damp_keep(&mut p, &zero, Qubit(1), 0.9).unwrap();
        assert!((kept.probability(&p, 0b00) - 1.0).abs() < 1e-12);

        // Entangled case: damping qubit 0 of a Bell pair reweights the
        // correlated |11> component.
        let h = Complex::from_real(mathkit::SQRT1_2);
        let bell = StateDd::from_amplitudes(&mut p, &[h, Complex::ZERO, Complex::ZERO, h]).unwrap();
        let kept = amplitude_damp_keep(&mut p, &bell, Qubit(0), 0.5).unwrap();
        // Masses: |00> keeps 1/2, |11> keeps (1-0.5)/2 = 1/4; renormalized.
        assert!((kept.probability(&p, 0b00) - (0.5 / 0.75)).abs() < 1e-12);
        assert!((kept.probability(&p, 0b11) - (0.25 / 0.75)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero mass")]
    fn fully_damping_a_pure_one_keep_branch_panics() {
        let mut p = DdPackage::new();
        let state = StateDd::basis_state(&mut p, 1, 1).unwrap();
        let _ = amplitude_damp_keep(&mut p, &state, Qubit(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn measuring_a_missing_qubit_panics() {
        let mut p = DdPackage::new();
        let state = StateDd::zero_state(&mut p, 2).unwrap();
        let _ = branch_masses(&mut p, &state, Qubit(5));
    }
}
