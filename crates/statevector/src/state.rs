//! The dense state vector.

use mathkit::{Complex, KahanSum};
use std::fmt;

/// A dense array of `2^n` complex amplitudes describing an `n`-qubit pure
/// state.
///
/// Qubit `k` is the `k`-th least significant bit of a basis-state index, so
/// basis state `|q_{n-1} ... q_1 q_0>` lives at index
/// `sum_k q_k * 2^k`.
///
/// # Examples
///
/// ```
/// use statevector::StateVector;
///
/// let state = StateVector::zero_state(2);
/// assert_eq!(state.amplitude(0).re, 1.0);
/// assert_eq!(state.probability(3), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: u16,
    amplitudes: Vec<Complex>,
}

impl StateVector {
    /// Creates the all-zeros computational basis state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `2^num_qubits` entries do not fit in memory addressable by
    /// `usize` (i.e. `num_qubits >= 64` on 64-bit targets).
    #[must_use]
    pub fn zero_state(num_qubits: u16) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// Creates the computational basis state `|index>`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits` or the vector does not fit in
    /// addressable memory.
    #[must_use]
    pub fn basis_state(num_qubits: u16, index: u64) -> Self {
        let len = 1usize
            .checked_shl(u32::from(num_qubits))
            .expect("state vector too large for address space");
        assert!(
            (index as u128) < (1u128 << num_qubits),
            "basis state index {index} out of range for {num_qubits} qubits"
        );
        let mut amplitudes = vec![Complex::ZERO; len];
        amplitudes[usize::try_from(index).expect("index checked against range")] = Complex::ONE;
        Self {
            num_qubits,
            amplitudes,
        }
    }

    /// Creates a state from an explicit amplitude vector.
    ///
    /// # Panics
    ///
    /// Panics if the length of `amplitudes` is not a power of two.
    #[must_use]
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        assert!(
            amplitudes.len().is_power_of_two(),
            "amplitude vector length must be a power of two, got {}",
            amplitudes.len()
        );
        let num_qubits = amplitudes.len().trailing_zeros() as u16;
        Self {
            num_qubits,
            amplitudes,
        }
    }

    /// The number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// The number of amplitudes (`2^n`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.amplitudes.len()
    }

    /// Returns `true` for the (degenerate) zero-qubit state of length 1.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    #[must_use]
    pub fn amplitude(&self, index: u64) -> Complex {
        self.amplitudes[usize::try_from(index).expect("index out of range")]
    }

    /// The measurement probability of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    #[must_use]
    pub fn probability(&self, index: u64) -> f64 {
        self.amplitude(index).norm_sqr()
    }

    /// A view of all amplitudes.
    #[must_use]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// A mutable view of all amplitudes (used by gate application).
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amplitudes
    }

    /// The squared 2-norm of the state (1 for a valid quantum state).
    #[must_use]
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes
            .iter()
            .map(Complex::norm_sqr)
            .collect::<KahanSum>()
            .value()
    }

    /// Rescales the state to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is exactly zero.
    pub fn normalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        assert!(norm > 0.0, "cannot normalize the zero vector");
        for amp in &mut self.amplitudes {
            *amp = *amp / norm;
        }
    }

    /// The inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts.
    #[must_use]
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "inner product requires equal qubit counts"
        );
        self.amplitudes
            .iter()
            .zip(&other.amplitudes)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// The fidelity `|<self|other>|^2`.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts.
    #[must_use]
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// The probability vector `p_i = |alpha_i|^2` as a fresh allocation.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(Complex::norm_sqr).collect()
    }

    /// The marginal probability of measuring `1` on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[must_use]
    pub fn marginal_one_probability(&self, qubit: u16) -> f64 {
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        let mask = 1usize << qubit;
        let mut sum = KahanSum::new();
        for (i, amp) in self.amplitudes.iter().enumerate() {
            if i & mask != 0 {
                sum.add(amp.norm_sqr());
            }
        }
        sum.value()
    }

    /// Overwrites this state with the contents of `other`, reusing the
    /// existing allocation (the per-shot reset of trajectory simulation,
    /// which would otherwise allocate a fresh `2^n` vector per shot).
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts.
    pub fn copy_from(&mut self, other: &StateVector) {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "copy_from requires equal qubit counts"
        );
        self.amplitudes.copy_from_slice(&other.amplitudes);
    }

    /// Collapses `qubit` to `outcome` in place: zeroes the amplitudes of the
    /// other subspace and renormalizes the surviving projection to unit norm
    /// (the post-measurement state).
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range or the projected subspace carries
    /// no probability mass (the outcome is impossible).
    pub fn collapse_qubit(&mut self, qubit: u16, outcome: u8) {
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        let mask = 1usize << qubit;
        let keep_set = outcome != 0;
        let mut mass = KahanSum::new();
        for (i, amp) in self.amplitudes.iter_mut().enumerate() {
            if (i & mask != 0) == keep_set {
                mass.add(amp.norm_sqr());
            } else {
                *amp = Complex::ZERO;
            }
        }
        let mass = mass.value();
        assert!(
            mass > 0.0,
            "measurement produced an outcome of probability zero"
        );
        let scale = 1.0 / mass.sqrt();
        for amp in &mut self.amplitudes {
            *amp = *amp * scale;
        }
    }

    /// Applies the amplitude-damping *no-decay* Kraus operator
    /// `K0 = diag(1, sqrt(1 - gamma))` to `qubit` in place and renormalizes
    /// to unit norm — the post-channel state of the branch in which the
    /// qubit did not relax.  (The decay branch is
    /// [`collapse_qubit`](Self::collapse_qubit) to `1` followed by an `X`
    /// flip.)
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range, `gamma` is not a probability, or
    /// the no-decay branch carries no mass.
    pub fn damp_qubit_keep(&mut self, qubit: u16, gamma: f64) {
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        assert!(
            (0.0..=1.0).contains(&gamma),
            "damping parameter {gamma} is not a probability"
        );
        let mask = 1usize << qubit;
        let keep = (1.0 - gamma).sqrt();
        let mut mass = KahanSum::new();
        for (i, amp) in self.amplitudes.iter_mut().enumerate() {
            if i & mask != 0 {
                *amp = *amp * keep;
            }
            mass.add(amp.norm_sqr());
        }
        let mass = mass.value();
        assert!(
            mass > 0.0,
            "amplitude-damping no-decay branch has zero mass"
        );
        let scale = 1.0 / mass.sqrt();
        for amp in &mut self.amplitudes {
            *amp = *amp * scale;
        }
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "StateVector({} qubits)", self.num_qubits)?;
        for (i, amp) in self.amplitudes.iter().enumerate() {
            if amp.norm_sqr() > 1e-18 {
                writeln!(
                    f,
                    "  |{:0width$b}> : {amp}",
                    i,
                    width = usize::from(self.num_qubits)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_is_normalized_basis_zero() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.len(), 8);
        assert_eq!(s.num_qubits(), 3);
        assert_eq!(s.amplitude(0), Complex::ONE);
        assert_eq!(s.probability(5), 0.0);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn basis_state_places_amplitude() {
        let s = StateVector::basis_state(3, 5);
        assert_eq!(s.amplitude(5), Complex::ONE);
        assert_eq!(s.probability(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_state_index_out_of_range_panics() {
        let _ = StateVector::basis_state(2, 4);
    }

    #[test]
    fn from_amplitudes_infers_qubits() {
        let h = mathkit::SQRT1_2;
        let s = StateVector::from_amplitudes(vec![
            Complex::from_real(h),
            Complex::ZERO,
            Complex::ZERO,
            Complex::from_real(h),
        ]);
        assert_eq!(s.num_qubits(), 2);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_non_power_of_two() {
        let _ = StateVector::from_amplitudes(vec![Complex::ONE; 3]);
    }

    #[test]
    fn normalize_rescales() {
        let mut s =
            StateVector::from_amplitudes(vec![Complex::new(3.0, 0.0), Complex::new(0.0, 4.0)]);
        s.normalize();
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
        assert!((s.probability(0) - 0.36).abs() < 1e-12);
        assert!((s.probability(1) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn inner_product_and_fidelity() {
        let a = StateVector::basis_state(2, 1);
        let b = StateVector::basis_state(2, 1);
        let c = StateVector::basis_state(2, 2);
        assert_eq!(a.inner_product(&b), Complex::ONE);
        assert_eq!(a.fidelity(&c), 0.0);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn marginal_probability() {
        let h = mathkit::SQRT1_2;
        // (|00> + |11>)/sqrt(2): each qubit is 1 with probability 1/2.
        let s = StateVector::from_amplitudes(vec![
            Complex::from_real(h),
            Complex::ZERO,
            Complex::ZERO,
            Complex::from_real(h),
        ]);
        assert!((s.marginal_one_probability(0) - 0.5).abs() < 1e-12);
        assert!((s.marginal_one_probability(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn collapse_qubit_projects_and_renormalizes() {
        let h = mathkit::SQRT1_2;
        // Bell pair: collapsing either qubit collapses its partner.
        for outcome in [0u8, 1u8] {
            let mut s = StateVector::from_amplitudes(vec![
                Complex::from_real(h),
                Complex::ZERO,
                Complex::ZERO,
                Complex::from_real(h),
            ]);
            s.collapse_qubit(0, outcome);
            let expected = if outcome == 1 { 3 } else { 0 };
            assert!((s.probability(expected) - 1.0).abs() < 1e-12);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn collapse_renormalizes_drifted_norm_states() {
        // Squared norm 0.25; collapse must still give a unit-norm state.
        let mut s =
            StateVector::from_amplitudes(vec![Complex::from_real(0.3), Complex::from_real(0.4)]);
        s.collapse_qubit(0, 1);
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability zero")]
    fn collapsing_to_an_impossible_outcome_panics() {
        let mut s = StateVector::basis_state(2, 0);
        s.collapse_qubit(1, 1);
    }

    #[test]
    fn damp_qubit_keep_scales_the_one_branch_and_renormalizes() {
        let h = mathkit::SQRT1_2;
        // (|0> + |1>)/sqrt(2), gamma = 0.36: K0 -> (|0> + 0.8|1>)/sqrt(1.64).
        let mut s =
            StateVector::from_amplitudes(vec![Complex::from_real(h), Complex::from_real(h)]);
        s.damp_qubit_keep(0, 0.36);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((s.probability(1) - 0.64 / 1.64).abs() < 1e-12);

        // Entangled case mirrors the decision-diagram primitive.
        let mut bell = StateVector::from_amplitudes(vec![
            Complex::from_real(h),
            Complex::ZERO,
            Complex::ZERO,
            Complex::from_real(h),
        ]);
        bell.damp_qubit_keep(0, 0.5);
        assert!((bell.probability(0b00) - 0.5 / 0.75).abs() < 1e-12);
        assert!((bell.probability(0b11) - 0.25 / 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero mass")]
    fn fully_damping_a_pure_one_keep_branch_panics() {
        let mut s = StateVector::basis_state(1, 1);
        s.damp_qubit_keep(0, 1.0);
    }

    #[test]
    fn display_shows_nonzero_amplitudes() {
        let s = StateVector::basis_state(2, 2);
        let text = s.to_string();
        assert!(text.contains("|10>"));
        assert!(!text.contains("|01>"));
    }

    #[test]
    fn probabilities_vector() {
        let s = StateVector::basis_state(2, 3);
        assert_eq!(s.probabilities(), vec![0.0, 0.0, 0.0, 1.0]);
    }
}
