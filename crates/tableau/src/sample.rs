//! Terminal full-register sampling from a stabilizer state.

use crate::Tableau;
use mathkit::SnapshotReader;
use rand::RngCore;

/// A prepared sampler for full-register computational-basis measurements of
/// a stabilizer state.
///
/// The support of an `n`-qubit stabilizer state in the computational basis
/// is an affine subspace `c XOR span(B)` of `GF(2)^n`, where `B` is any
/// basis of the row space of the X-parts of the stabilizer generators
/// (each generator with X-part `v` maps a support element `|b>` to
/// `|b XOR v>` up to phase), and the outcome distribution is **uniform**
/// over that subspace (Van den Nest, arXiv:0811.0898).  Construction
/// therefore does the expensive work once — one Gaussian elimination of
/// the generators over GF(2) on a clone — after which every shot is `|B|`
/// coin flips and `|B|` word-XORs, independent of circuit depth and of how
/// many shots are drawn.
///
/// The elimination reduces the generators' X parts to echelon form, which
/// gives `B`; the generators whose X part vanishes are `(-1)^r Z^z`, so
/// every support element `b` satisfies `z·b = r`, and back substitution
/// finds one.  The reference element `c` is the support element that is 0
/// at every pivot of `B`: the lexicographically smallest one, read from
/// qubit 0, which is what a CHP sweep measuring qubits `0, 1, ...` with
/// every random outcome forced to 0 would return.
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
        Self::eliminate(tab, false).0
    }

    /// Builds the sampler together with its reference element's dependence
    /// on the stabilizer signs of `tab`: `(qubit, mask)` pairs, where the
    /// qubit's reference bit flips when the parity of the masked signs is
    /// odd.  Qubits whose reference bit does not depend on the signs are
    /// left out.
    pub(crate) fn with_sign_parities(tab: &Tableau) -> (Self, Vec<(usize, Vec<u64>)>) {
        let (sampler, forms) = Self::eliminate(tab, true);
        let parities = forms
            .chunks_exact(sampler.words)
            .enumerate()
            .filter(|(_, form)| form.iter().any(|&w| w != 0))
            .map(|(q, form)| (q, form.to_vec()))
            .collect();
        (sampler, parities)
    }

    /// The elimination (see the type docs) on a clone of `tab`.
    ///
    /// With `track_signs`, every stabilizer sign is carried along as a
    /// GF(2) form over the signs of `tab` (row `i` of a flat `n x words`
    /// array), and the second value holds, in row `q`, the form of
    /// reference bit `q`; without, it is empty.
    fn eliminate(tab: &Tableau, track_signs: bool) -> (Self, Vec<u64>) {
        let num_qubits = tab.num_qubits();
        let words = tab.words_per_row();
        let mut work = tab.clone();
        let mut forms = Vec::new();
        if track_signs {
            forms = vec![0u64; num_qubits * words];
            for i in 0..num_qubits {
                forms[i * words + i / 64] |= 1 << (i % 64);
            }
        }

        // 1. Reduce each stabilizer's X part against the earlier rows with
        // an X pivot; the rows left without one are Z products, which are
        // reduced against each other the same way.  Each multiplication
        // clears its pivot bit and touches only higher bits, so one upward
        // scan per row leaves it zero at every earlier pivot, exactly as
        // reducing by the earlier rows in turn would.
        let mut x_pivots: Vec<(usize, usize)> = Vec::new();
        let mut z_pivots: Vec<(usize, usize)> = Vec::new();
        let mut x_row_at = vec![None; num_qubits];
        let mut z_row_at = vec![None; num_qubits];
        for i in 0..num_qubits {
            if let Some(p) = reduce(&mut work, &mut forms, i, &x_row_at, true) {
                x_row_at[p] = Some(i);
                x_pivots.push((i, p));
            } else if let Some(p) = reduce(&mut work, &mut forms, i, &z_row_at, false) {
                z_row_at[p] = Some(i);
                z_pivots.push((i, p));
            }
        }

        // 2. One support element: solve `z·b = r` by back substitution, in
        // reverse order, with every bit that is not a Z pivot set to 0.  A
        // row is zero at the pivots of the rows before it, so only its own
        // pivot is still unknown.
        let mut reference = vec![0u64; words];
        let mut bit_forms = vec![0u64; forms.len()];
        for &(i, p) in z_pivots.iter().rev() {
            let z = work.stabilizer_z_row(i);
            if work.stabilizer_sign(i) ^ parity(z, &reference) {
                reference[p / 64] |= 1 << (p % 64);
            }
            if track_signs {
                let mut form = forms[i * words..(i + 1) * words].to_vec();
                for q in set_bits(z).filter(|&q| q != p) {
                    xor(&mut form, &bit_forms[q * words..(q + 1) * words]);
                }
                bit_forms[p * words..(p + 1) * words].copy_from_slice(&form);
            }
        }

        // 3. Clear the reference at every X pivot.  A basis row is zero at
        // the pivots of the rows before it, so a cleared bit stays clear,
        // and the result is the unique support element that is 0 at every
        // pivot: the lexicographically smallest.
        let basis: Vec<Vec<u64>> = x_pivots
            .iter()
            .map(|&(i, _)| work.stabilizer_x_row(i).to_vec())
            .collect();
        for (row, &(_, p)) in basis.iter().zip(&x_pivots) {
            if reference[p / 64] >> (p % 64) & 1 == 1 {
                xor(&mut reference, row);
            }
            if track_signs {
                let pivot_form = bit_forms[p * words..(p + 1) * words].to_vec();
                if pivot_form.iter().any(|&w| w != 0) {
                    for q in set_bits(row) {
                        xor(&mut bit_forms[q * words..(q + 1) * words], &pivot_form);
                    }
                }
            }
        }

        let sampler = Self {
            num_qubits,
            words,
            reference,
            basis,
        };
        (sampler, bit_forms)
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

    /// The basis rows, in draw order.
    #[cfg(test)]
    pub(crate) fn basis(&self) -> &[Vec<u64>] {
        &self.basis
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
    /// no reference or basis bit at or above `num_qubits`, and an exact
    /// payload length).  Returns `None` for any truncated or inconsistent
    /// payload — a corrupted snapshot section must never panic a loader,
    /// nor draw outcomes outside the register.
    #[must_use]
    pub fn decode_snapshot(bytes: &[u8]) -> Option<Self> {
        let mut reader = SnapshotReader::new(bytes);
        let num_qubits = usize::try_from(reader.u64()?).ok()?;
        let rows = usize::try_from(reader.u64()?).ok()?;
        if num_qubits == 0 || rows > num_qubits {
            return None;
        }
        let words = num_qubits.div_ceil(64);
        let expected = rows.checked_add(1)?.checked_mul(words)?.checked_mul(8)?;
        if reader.remaining() != expected {
            return None;
        }
        let mut read_words = reader
            .rest()
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
        let used = num_qubits % 64;
        let beyond_register = if used == 0 { 0 } else { u64::MAX << used };
        if std::iter::once(&reference)
            .chain(&basis)
            .any(|row| row[words - 1] & beyond_register != 0)
        {
            return None;
        }
        Some(Self {
            num_qubits,
            words,
            reference,
            basis,
        })
    }
}

/// Step 1 of [`MeasurementSampler::eliminate`] for stabilizer `i`:
/// multiplies in the pivot row of every set bit of its X part (`x_part`)
/// or Z part that `row_at` maps to a row, mirroring each product on the
/// sign `forms` when they are tracked.  Returns the lowest bit left, the
/// row's own pivot, or `None` when the part vanished.
fn reduce(
    work: &mut Tableau,
    forms: &mut [u64],
    i: usize,
    row_at: &[Option<usize>],
    x_part: bool,
) -> Option<usize> {
    let words = work.words_per_row();
    let mut pivot = None;
    let mut from = 0;
    while let Some(q) = next_set_bit(
        if x_part {
            work.stabilizer_x_row(i)
        } else {
            work.stabilizer_z_row(i)
        },
        from,
    ) {
        match row_at[q] {
            None => {
                pivot.get_or_insert(q);
            }
            Some(k) => {
                work.multiply_stabilizers(i, k);
                if !forms.is_empty() {
                    for w in 0..words {
                        forms[i * words + w] ^= forms[k * words + w];
                    }
                }
            }
        }
        from = q + 1;
    }
    pivot
}

/// The lowest set bit at or above `from`.
fn next_set_bit(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = words.get(w)? & (u64::MAX << (from % 64));
    while word == 0 {
        w += 1;
        word = *words.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// XORs `mask` into `bits`.
pub(crate) fn xor(bits: &mut [u64], mask: &[u64]) {
    for (b, m) in bits.iter_mut().zip(mask) {
        *b ^= m;
    }
}

/// The parity of the bits `mask` selects from `bits`.
pub(crate) fn parity(bits: &[u64], mask: &[u64]) -> bool {
    bits.iter()
        .zip(mask)
        .fold(0, |acc, (b, m)| acc ^ (b & m).count_ones())
        & 1
        == 1
}

/// The indices of the set bits, in increasing order.
pub(crate) fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        (0..64)
            .filter(move |b| word >> b & 1 == 1)
            .map(move |b| w * 64 + b)
    })
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
    fn snapshot_decode_rejects_bits_beyond_the_register() {
        // 3 qubits (one word) and 70 qubits (the last word holds 6 bits),
        // each with a one-row basis: a bit at or above `num_qubits` in the
        // reference or the basis row would be drawn into every shot.
        for (n, last_valid) in [(3, 2), (70, 69)] {
            let mut tab = Tableau::zero_state(n);
            tab.h(0);
            tab.cx(0, n - 1);
            let sampler = tab.measurement_sampler();
            assert_eq!(sampler.support_dimension(), 1);
            let mut bytes = Vec::new();
            sampler.encode_snapshot(&mut bytes);
            let words = n.div_ceil(64);
            // Bit `b` of row `row` (0 = the reference, 1 = the basis row).
            let with_bit = |row: usize, b: usize| {
                let mut corrupt = bytes.clone();
                corrupt[16 + (row * words + b / 64) * 8 + b % 64 / 8] |= 1 << (b % 8);
                corrupt
            };
            for row in 0..2 {
                let valid = MeasurementSampler::decode_snapshot(&with_bit(row, last_valid));
                assert!(valid.is_some(), "n={n}: bit {last_valid} of row {row}");
                for b in [n, 40, words * 64 - 1].into_iter().filter(|&b| b >= n) {
                    let decoded = MeasurementSampler::decode_snapshot(&with_bit(row, b));
                    assert!(decoded.is_none(), "n={n}: bit {b} of row {row}");
                }
            }
        }
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
