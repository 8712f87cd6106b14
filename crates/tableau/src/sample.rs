//! Terminal full-register sampling from a stabilizer state.

use crate::Tableau;
use rand::RngCore;

/// A prepared sampler for full-register computational-basis measurements of
/// a stabilizer state.
///
/// The support of an `n`-qubit stabilizer state in the computational basis
/// is an affine subspace `c XOR span(B)` of `GF(2)^n`, where `B` is any
/// basis of the row space of the X-parts of the stabilizer generators
/// (each generator with X-part `v` maps a support element `|b>` to
/// `|b XOR v>` up to phase), and the outcome distribution is **uniform**
/// over that subspace.  Construction therefore does the expensive work
/// once — a forced-zero CHP measurement sweep on a clone to obtain the
/// reference element `c`, and a Gaussian elimination to obtain `B` — after
/// which every shot is `|B|` coin flips and `|B|` word-XORs, independent of
/// circuit depth and of how many shots are drawn.
///
/// # Examples
///
/// ```
/// use tableau::Tableau;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut tab = Tableau::zero_state(2);
/// tab.h(0);
/// tab.cx(0, 1);
/// let sampler = tab.measurement_sampler();
/// let mut rng = SmallRng::seed_from_u64(3);
/// for _ in 0..32 {
///     let shot = sampler.sample_u64(&mut rng);
///     assert!(shot == 0b00 || shot == 0b11);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MeasurementSampler {
    num_qubits: usize,
    words: usize,
    /// One support element `c`, packed little-endian.
    reference: Vec<u64>,
    /// Independent XOR offsets spanning the support, row-reduced.
    basis: Vec<Vec<u64>>,
}

impl MeasurementSampler {
    /// Builds the sampler from a tableau (which is cloned, not modified).
    #[must_use]
    pub(crate) fn new(tab: &Tableau) -> Self {
        let num_qubits = tab.num_qubits();
        let words = tab.words_per_row();

        // Reference support element: collapse a clone with all random
        // outcomes forced to 0.  The result is a valid (maximum-likelihood-
        // equivalent, since the distribution is uniform) outcome.
        let mut probe = tab.clone();
        let mut reference = vec![0u64; words];
        for q in 0..num_qubits {
            if probe.measure_forced(q, false) {
                reference[q / 64] |= 1 << (q % 64);
            }
        }

        // Basis of the X-row space of the stabilizer generators, by Gaussian
        // elimination over GF(2).
        let mut basis: Vec<Vec<u64>> = Vec::new();
        let mut pivots: Vec<usize> = Vec::new();
        for i in 0..num_qubits {
            let mut row = tab.stabilizer_x_row(i).to_vec();
            for (vec, &p) in basis.iter().zip(&pivots) {
                if row[p / 64] >> (p % 64) & 1 == 1 {
                    for (r, v) in row.iter_mut().zip(vec) {
                        *r ^= v;
                    }
                }
            }
            if let Some(p) = first_set_bit(&row) {
                basis.push(row);
                pivots.push(p);
            }
        }

        Self {
            num_qubits,
            words,
            reference,
            basis,
        }
    }

    /// The register width in qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The dimension of the support subspace — the number of random bits
    /// each shot consumes.
    #[must_use]
    pub fn support_dimension(&self) -> usize {
        self.basis.len()
    }

    /// Heap bytes held by the reference element and the basis rows — what
    /// an artifact cache charges against its byte budget for a retained
    /// sampler.  Polynomial: at most `(n + 1) * ceil(n/64)` words.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        (1 + self.basis.len()) * self.words * std::mem::size_of::<u64>()
    }

    /// Draws one full-register shot as `ceil(n/64)` packed little-endian
    /// words (qubit `q` at word `q / 64`, bit `q % 64`).
    #[must_use]
    pub fn sample_words<R: RngCore + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        let mut out = self.reference.clone();
        self.sample_into(&mut out, rng);
        out
    }

    /// Draws one shot into `out` (reused across calls to avoid allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the packed width.
    pub fn sample_into<R: RngCore + ?Sized>(&self, out: &mut [u64], rng: &mut R) {
        assert_eq!(out.len(), self.words, "output buffer has the wrong width");
        out.copy_from_slice(&self.reference);
        self.draw_into(out, rng);
    }

    /// The support element every shot starts from.
    pub(crate) fn reference(&self) -> &[u64] {
        &self.reference
    }

    /// XORs a uniformly drawn element of the basis span into `out`, which
    /// holds a support element: the random half of a shot.
    pub(crate) fn draw_into<R: RngCore + ?Sized>(&self, out: &mut [u64], rng: &mut R) {
        // One RNG word covers 64 inclusion coins; refill as needed.
        let mut coins = 0u64;
        let mut left = 0u32;
        for vec in &self.basis {
            if left == 0 {
                coins = rng.next_u64();
                left = 64;
            }
            if coins & 1 == 1 {
                for (o, v) in out.iter_mut().zip(vec) {
                    *o ^= v;
                }
            }
            coins >>= 1;
            left -= 1;
        }
    }

    /// Draws one shot and returns its low 64 bits — the full outcome when
    /// `num_qubits <= 64`, and the documented truncation the router's
    /// `u64`-keyed histograms use beyond that.
    ///
    /// Consumes the same coins as [`sample_words`](Self::sample_words) but
    /// XORs only word 0, and allocates nothing.
    #[must_use]
    pub fn sample_u64<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut low = [self.reference[0]];
        self.draw_into(&mut low, rng);
        low[0]
    }

    /// Serializes the reference element and basis rows into `out` as
    /// little-endian plain data — the payload format of the `weaksim`
    /// artifact-cache snapshot.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.num_qubits as u64).to_le_bytes());
        out.extend_from_slice(&(self.basis.len() as u64).to_le_bytes());
        for word in &self.reference {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for row in &self.basis {
            for word in row {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }

    /// Reconstructs a sampler from [`encode_snapshot`](Self::encode_snapshot)
    /// bytes, validating the packed-width invariants the draw loop relies on
    /// (at least one reference word, a basis of at most `num_qubits` rows,
    /// and an exact payload length).  Returns `None` for any truncated or
    /// inconsistent payload — a corrupted snapshot section must never panic
    /// a loader.
    #[must_use]
    pub fn decode_snapshot(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 16 {
            return None;
        }
        let num_qubits = usize::try_from(u64::from_le_bytes(bytes[..8].try_into().ok()?)).ok()?;
        let rows = usize::try_from(u64::from_le_bytes(bytes[8..16].try_into().ok()?)).ok()?;
        if num_qubits == 0 || rows > num_qubits {
            return None;
        }
        let words = num_qubits.div_ceil(64);
        let expected = rows.checked_add(1)?.checked_mul(words)?.checked_mul(8)?;
        if bytes.len() - 16 != expected {
            return None;
        }
        let mut read_words = bytes[16..]
            .chunks_exact(8)
            .map(|chunk| chunk.try_into().map(u64::from_le_bytes));
        let mut next_row = |count: usize| -> Option<Vec<u64>> {
            (0..count)
                .map(|_| read_words.next()?.ok())
                .collect::<Option<Vec<u64>>>()
        };
        let reference = next_row(words)?;
        let basis = (0..rows)
            .map(|_| next_row(words))
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            num_qubits,
            words,
            reference,
            basis,
        })
    }
}

fn first_set_bit(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn basis_state_has_zero_dimensional_support() {
        let mut tab = Tableau::zero_state(3);
        tab.x(1);
        let sampler = tab.measurement_sampler();
        assert_eq!(sampler.support_dimension(), 0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(sampler.sample_u64(&mut rng), 0b010);
        }
    }

    #[test]
    fn uniform_superposition_covers_all_outcomes() {
        let mut tab = Tableau::zero_state(3);
        for q in 0..3 {
            tab.h(q);
        }
        let sampler = tab.measurement_sampler();
        assert_eq!(sampler.support_dimension(), 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0u32; 8];
        let shots = 8000;
        for _ in 0..shots {
            counts[sampler.sample_u64(&mut rng) as usize] += 1;
        }
        for (outcome, &c) in counts.iter().enumerate() {
            let f = f64::from(c) / f64::from(shots);
            assert!((f - 0.125).abs() < 0.02, "outcome {outcome}: {f}");
        }
    }

    #[test]
    fn ghz_support_is_one_dimensional() {
        let mut tab = Tableau::zero_state(4);
        tab.h(0);
        for q in 1..4 {
            tab.cx(q - 1, q);
        }
        let sampler = tab.measurement_sampler();
        assert_eq!(sampler.support_dimension(), 1);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ones = 0u32;
        for _ in 0..2000 {
            let shot = sampler.sample_u64(&mut rng);
            assert!(shot == 0 || shot == 0b1111, "shot {shot:b}");
            if shot != 0 {
                ones += 1;
            }
        }
        assert!((700..=1300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn sampler_matches_chp_measurement_distribution() {
        // A state with both deterministic and correlated-random qubits:
        // q0 in |1>, Bell pair on (q1, q2).
        let build = || {
            let mut tab = Tableau::zero_state(3);
            tab.x(0);
            tab.h(1);
            tab.cx(1, 2);
            tab
        };
        let sampler = build().measurement_sampler();
        let mut rng = SmallRng::seed_from_u64(4);
        let shots = 4000;
        let mut fast = [0u32; 8];
        for _ in 0..shots {
            fast[sampler.sample_u64(&mut rng) as usize] += 1;
        }
        let mut slow = [0u32; 8];
        for _ in 0..shots {
            let mut tab = build();
            let mut shot = 0usize;
            for q in 0..3 {
                shot |= usize::from(tab.measure(q, &mut rng)) << q;
            }
            slow[shot] += 1;
        }
        for outcome in 0..8 {
            let f = f64::from(fast[outcome]) / f64::from(shots);
            let s = f64::from(slow[outcome]) / f64::from(shots);
            assert!((f - s).abs() < 0.04, "outcome {outcome}: fast {f} slow {s}");
        }
        // Support: q0 fixed to 1, (q1, q2) correlated => outcomes 0b001, 0b111.
        assert_eq!(fast[0b001] + fast[0b111], shots);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut tab = Tableau::zero_state(70); // two packed words
        tab.h(0);
        for q in 1..70 {
            tab.cx(q - 1, q);
        }
        tab.x(69);
        let sampler = tab.measurement_sampler();
        let mut bytes = Vec::new();
        sampler.encode_snapshot(&mut bytes);
        let decoded = MeasurementSampler::decode_snapshot(&bytes).expect("round trip");
        assert_eq!(decoded.num_qubits(), sampler.num_qubits());
        assert_eq!(decoded.support_dimension(), sampler.support_dimension());
        let mut a = SmallRng::seed_from_u64(6);
        let mut b = SmallRng::seed_from_u64(6);
        for _ in 0..200 {
            assert_eq!(sampler.sample_words(&mut a), decoded.sample_words(&mut b));
        }
    }

    #[test]
    fn snapshot_decode_rejects_corruption_without_panicking() {
        let mut tab = Tableau::zero_state(5);
        tab.h(0);
        tab.cx(0, 1);
        let sampler = tab.measurement_sampler();
        let mut bytes = Vec::new();
        sampler.encode_snapshot(&mut bytes);
        assert!(MeasurementSampler::decode_snapshot(&bytes).is_some());
        for len in 0..bytes.len() {
            assert!(MeasurementSampler::decode_snapshot(&bytes[..len]).is_none());
        }
        // A basis larger than the register is structurally impossible.
        let mut bad_rows = bytes;
        bad_rows[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(MeasurementSampler::decode_snapshot(&bad_rows).is_none());
    }

    #[test]
    fn sample_u64_is_word_zero_of_sample_words_with_the_same_coins() {
        // 150 qubits (three words) with a 100-row basis, so a shot needs two
        // RNG words of coins, and rows past qubit 64 are correlated with
        // rows below it through the CXs.
        let mut tab = Tableau::zero_state(150);
        for q in 0..100 {
            tab.h(q);
        }
        for q in 0..50 {
            tab.cx(q, q + 100);
            tab.cx(q + 60, q);
        }
        tab.x(3);
        tab.x(120);
        let sampler = tab.measurement_sampler();
        assert_eq!(sampler.support_dimension(), 100);
        let mut a = SmallRng::seed_from_u64(8);
        let mut b = SmallRng::seed_from_u64(8);
        for _ in 0..500 {
            assert_eq!(sampler.sample_u64(&mut a), sampler.sample_words(&mut b)[0]);
            // Both consumed exactly the same number of RNG words.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn sample_into_reuses_buffers_across_word_boundaries() {
        let mut tab = Tableau::zero_state(100);
        tab.h(0);
        for q in 1..100 {
            tab.cx(q - 1, q);
        }
        let sampler = tab.measurement_sampler();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut buf = vec![0u64; 2];
        for _ in 0..50 {
            sampler.sample_into(&mut buf, &mut rng);
            let all_zeros = buf == [0, 0];
            let all_ones = buf == [u64::MAX, (1u64 << 36) - 1];
            assert!(all_zeros || all_ones, "{buf:?}");
        }
    }
}
