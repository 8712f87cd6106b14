//! The CHP tableau: bit-packed generator rows and their gate/measurement
//! update rules.

use rand::RngCore;

/// A single-qubit Pauli operator, used for noise frame flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pauli {
    /// The identity (no flip).
    I,
    /// The bit flip `X`.
    X,
    /// The combined flip `Y`.
    Y,
    /// The phase flip `Z`.
    Z,
}

impl Pauli {
    /// The Pauli a named gate is, or `None` for any other gate (a gate that
    /// is only *equivalent* to a Pauli, like `Rz(pi)`, is matched during
    /// [lowering](crate::lower) instead).
    #[must_use]
    pub fn from_gate(gate: &circuit::OneQubitGate) -> Option<Self> {
        use circuit::OneQubitGate as G;
        match gate {
            G::I => Some(Pauli::I),
            G::X => Some(Pauli::X),
            G::Y => Some(Pauli::Y),
            G::Z => Some(Pauli::Z),
            _ => None,
        }
    }

    /// Whether conjugating by this Pauli flips the sign of a row whose
    /// entry on the qubit has X bit `x` and Z bit `z`: X flips rows holding
    /// `Z` or `Y` there, Z flips `X` or `Y`, Y flips `X` or `Z`.
    fn flips(self, x: bool, z: bool) -> bool {
        match self {
            Pauli::I => false,
            Pauli::X => z,
            Pauli::Y => x != z,
            Pauli::Z => x,
        }
    }
}

/// One tableau gate update: the primitives a Clifford operation lowers to
/// (see [`lower`](crate::lower)).  Qubits are `usize` indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Phase gate `S`.
    S(usize),
    /// Inverse phase gate `Sdg`.
    Sdg(usize),
    /// A Pauli: only row signs change.
    Pauli(usize, Pauli),
    /// CNOT `(control, target)`.
    Cx(usize, usize),
    /// Controlled-Z (symmetric).
    Cz(usize, usize),
    /// Qubit swap.
    Swap(usize, usize),
}

/// An `n`-qubit stabilizer state as an Aaronson–Gottesman tableau.
///
/// The tableau stores `2n + 1` generator rows — `n` destabilizers (rows
/// `0..n`), `n` stabilizers (rows `n..2n`) and one scratch row for
/// deterministic-measurement reconstruction — each as `ceil(n/64)` words of
/// X bits, the same of Z bits, and a sign bit.  Row `i` of the stabilizer
/// block is the Pauli string `(-1)^{r_i} prod_q X_q^{x_iq} Z_q^{z_iq}`.
///
/// All gate methods update every row in `O(n)` word operations; measurement
/// is `O(n^2)` in the worst (random-outcome) case.  Qubit arguments are
/// `usize` indices; every method panics if an index is out of range, which
/// the circuit-level driver ([`crate::apply_circuit`]) rules out up front.
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
/// let mut rng = SmallRng::seed_from_u64(1);
/// let first = tab.measure(0, &mut rng);
/// // After the first (random) outcome, the second is determined.
/// assert_eq!(tab.deterministic_outcome(1), Some(first));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tableau {
    num_qubits: usize,
    /// Words per row: `ceil(num_qubits / 64)`.
    words: usize,
    /// X bits, `(2n + 1) * words` words, row-major.
    x: Vec<u64>,
    /// Z bits, same layout.
    z: Vec<u64>,
    /// Sign bits, one per row (`true` = the generator carries `-1`).
    r: Vec<bool>,
}

impl Tableau {
    /// Creates the tableau of the all-zeros state `|0...0>`: destabilizer
    /// `i` is `X_i`, stabilizer `i` is `Z_i`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    #[must_use]
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits > 0, "a tableau needs at least one qubit");
        let words = num_qubits.div_ceil(64);
        let rows = 2 * num_qubits + 1;
        let mut tab = Self {
            num_qubits,
            words,
            x: vec![0; rows * words],
            z: vec![0; rows * words],
            r: vec![false; rows],
        };
        for q in 0..num_qubits {
            let (w, b) = (q / 64, q % 64);
            tab.x[q * words + w] |= 1 << b; // destabilizer X_q
            tab.z[(num_qubits + q) * words + w] |= 1 << b; // stabilizer Z_q
        }
        tab
    }

    /// The number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Words per packed bitstring row (`ceil(num_qubits / 64)`), the length
    /// of the buffers [`MeasurementSampler`](crate::MeasurementSampler) and
    /// [`as_basis_state`](Self::as_basis_state) produce.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// Approximate heap size of the tableau in bytes (the "representation
    /// size" a router reports for the stabilizer engine).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        2 * self.x.len() * 8 + self.r.len()
    }

    #[inline]
    fn bit(words: &[u64], row_base: usize, q: usize) -> bool {
        words[row_base + q / 64] >> (q % 64) & 1 == 1
    }

    #[inline]
    fn flip_bit(words: &mut [u64], row_base: usize, q: usize) {
        words[row_base + q / 64] ^= 1 << (q % 64);
    }

    #[inline]
    fn check(&self, q: usize) {
        assert!(
            q < self.num_qubits,
            "qubit {q} out of range for a {}-qubit tableau",
            self.num_qubits
        );
    }

    /// Total rows updated by gates (destabilizers + stabilizers, not the
    /// scratch row).
    #[inline]
    fn gate_rows(&self) -> usize {
        2 * self.num_qubits
    }

    /// Applies a Hadamard on `q`: swaps the X and Z columns and flips the
    /// sign where the row holds `Y_q`.
    pub fn h(&mut self, q: usize) {
        self.check(q);
        let (w, b) = (q / 64, q % 64);
        for row in 0..self.gate_rows() {
            let base = row * self.words;
            let xq = self.x[base + w] >> b & 1;
            let zq = self.z[base + w] >> b & 1;
            self.r[row] ^= xq & zq == 1;
            if xq != zq {
                self.x[base + w] ^= 1 << b;
                self.z[base + w] ^= 1 << b;
            }
        }
    }

    /// Applies the phase gate `S` on `q`.
    pub fn s(&mut self, q: usize) {
        self.check(q);
        let (w, b) = (q / 64, q % 64);
        for row in 0..self.gate_rows() {
            let base = row * self.words;
            let xq = self.x[base + w] >> b & 1;
            let zq = self.z[base + w] >> b & 1;
            self.r[row] ^= xq & zq == 1;
            self.z[base + w] ^= xq << b;
        }
    }

    /// Applies the inverse phase gate `Sdg` on `q`.
    pub fn sdg(&mut self, q: usize) {
        self.check(q);
        let (w, b) = (q / 64, q % 64);
        for row in 0..self.gate_rows() {
            let base = row * self.words;
            let xq = self.x[base + w] >> b & 1;
            let zq = self.z[base + w] >> b & 1;
            self.r[row] ^= xq & !zq & 1 == 1;
            self.z[base + w] ^= xq << b;
        }
    }

    /// Applies a Pauli frame flip on `q` — only row signs change, making
    /// Pauli noise `O(n)`.
    pub fn apply_pauli(&mut self, q: usize, pauli: Pauli) {
        self.check(q);
        if pauli == Pauli::I {
            return;
        }
        let (w, b) = (q / 64, q % 64);
        for row in 0..self.gate_rows() {
            let base = row * self.words;
            let xq = self.x[base + w] >> b & 1 == 1;
            let zq = self.z[base + w] >> b & 1 == 1;
            self.r[row] ^= pauli.flips(xq, zq);
        }
    }

    /// Applies `X` on `q` (alias of [`apply_pauli`](Self::apply_pauli)).
    pub fn x(&mut self, q: usize) {
        self.apply_pauli(q, Pauli::X);
    }

    /// Applies `Y` on `q`.
    pub fn y(&mut self, q: usize) {
        self.apply_pauli(q, Pauli::Y);
    }

    /// Applies `Z` on `q`.
    pub fn z(&mut self, q: usize) {
        self.apply_pauli(q, Pauli::Z);
    }

    /// Applies a CNOT with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `c == t` or either index is out of range.
    pub fn cx(&mut self, c: usize, t: usize) {
        self.check(c);
        self.check(t);
        assert!(c != t, "CX control and target must differ");
        let (wc, bc) = (c / 64, c % 64);
        let (wt, bt) = (t / 64, t % 64);
        for row in 0..self.gate_rows() {
            let base = row * self.words;
            let xc = self.x[base + wc] >> bc & 1;
            let zc = self.z[base + wc] >> bc & 1;
            let xt = self.x[base + wt] >> bt & 1;
            let zt = self.z[base + wt] >> bt & 1;
            self.r[row] ^= xc & zt & (xt ^ zc ^ 1) == 1;
            self.x[base + wt] ^= xc << bt;
            self.z[base + wc] ^= zt << bc;
        }
    }

    /// Applies a controlled-Z between `a` and `b` (symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.check(a);
        self.check(b);
        assert!(a != b, "CZ qubits must differ");
        let (wa, ba) = (a / 64, a % 64);
        let (wb, bb) = (b / 64, b % 64);
        for row in 0..self.gate_rows() {
            let base = row * self.words;
            let xa = self.x[base + wa] >> ba & 1;
            let za = self.z[base + wa] >> ba & 1;
            let xb = self.x[base + wb] >> bb & 1;
            let zb = self.z[base + wb] >> bb & 1;
            self.r[row] ^= xa & xb & (za ^ zb) == 1;
            self.z[base + wb] ^= xa << bb;
            self.z[base + wa] ^= xb << ba;
        }
    }

    /// Swaps qubits `a` and `b` (a column swap; no sign changes).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.check(a);
        self.check(b);
        if a == b {
            return;
        }
        for row in 0..self.gate_rows() {
            let base = row * self.words;
            let xa = Self::bit(&self.x, base, a);
            let xb = Self::bit(&self.x, base, b);
            if xa != xb {
                Self::flip_bit(&mut self.x, base, a);
                Self::flip_bit(&mut self.x, base, b);
            }
            let za = Self::bit(&self.z, base, a);
            let zb = Self::bit(&self.z, base, b);
            if za != zb {
                Self::flip_bit(&mut self.z, base, a);
                Self::flip_bit(&mut self.z, base, b);
            }
        }
    }

    /// Applies one lowered gate (panics under the same conditions as the
    /// gate's own method).
    pub(crate) fn apply_gate(&mut self, gate: Gate) {
        match gate {
            Gate::H(q) => self.h(q),
            Gate::S(q) => self.s(q),
            Gate::Sdg(q) => self.sdg(q),
            Gate::Pauli(q, pauli) => self.apply_pauli(q, pauli),
            Gate::Cx(c, t) => self.cx(c, t),
            Gate::Cz(a, b) => self.cz(a, b),
            Gate::Swap(a, b) => self.swap(a, b),
        }
    }

    /// Multiplies generator row `h` by generator row `i` (the CHP `rowsum`),
    /// tracking the `i^k` phase bit-parallel across the packed words.
    fn rowsum(&mut self, h: usize, i: usize) {
        let hb = h * self.words;
        let ib = i * self.words;
        // Phase exponent of i (mod 4) accumulated by the Pauli products.
        let mut plus: u32 = 0;
        let mut minus: u32 = 0;
        for w in 0..self.words {
            let x1 = self.x[ib + w];
            let z1 = self.z[ib + w];
            let x2 = self.x[hb + w];
            let z2 = self.z[hb + w];
            // g(x1, z1, x2, z2) per Aaronson–Gottesman, vectorized: masks of
            // positions contributing +1 and -1 to the exponent.
            let p = (x1 & z1 & z2 & !x2) | (x1 & !z1 & z2 & x2) | (!x1 & z1 & x2 & !z2);
            let m = (x1 & z1 & x2 & !z2) | (x1 & !z1 & z2 & !x2) | (!x1 & z1 & x2 & z2);
            plus += p.count_ones();
            minus += m.count_ones();
            self.x[hb + w] = x2 ^ x1;
            self.z[hb + w] = z2 ^ z1;
        }
        let sum = 2 * i64::from(self.r[h]) + 2 * i64::from(self.r[i]) + i64::from(plus)
            - i64::from(minus);
        // The phase is even (+1/-1) whenever rows h and i commute — always
        // true for the stabilizer and scratch rows whose signs are read.
        // A destabilizer multiplied by its paired stabilizer picks up an odd
        // i-power; destabilizer signs are never consumed, so collapsing the
        // i^1/i^3 distinction into the sign bit is harmless.
        self.r[h] = sum.rem_euclid(4) >= 2;
    }

    /// Index of a stabilizer row whose `X` bit at `q` is set, i.e. a
    /// generator anticommuting with `Z_q` — the symplectic-rank witness that
    /// a `Z_q` measurement is random.  `None` means deterministic.
    pub(crate) fn anticommuting_stabilizer(&self, q: usize) -> Option<usize> {
        (self.num_qubits..2 * self.num_qubits).find(|&row| Self::bit(&self.x, row * self.words, q))
    }

    /// Measures qubit `q` in the computational basis, drawing a fair bit
    /// from `rng` when the outcome is random, and collapses the state.
    /// Returns the outcome.
    pub fn measure<R: RngCore + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        self.check(q);
        match self.anticommuting_stabilizer(q) {
            Some(p) => {
                let outcome = rng.next_u64() & 1 == 1;
                self.collapse(q, p, outcome);
                outcome
            }
            None => self.reconstruct_deterministic(q),
        }
    }

    /// Measures qubit `q`, forcing the outcome to `forced` when it is
    /// random; deterministic outcomes are returned as-is.  The tests' CHP
    /// reference: a sweep of forced-zero measurements yields the reference
    /// element the sampler finds by elimination, and a forced replay steps
    /// a full tableau through chosen outcomes.
    #[cfg(test)]
    pub(crate) fn measure_forced(&mut self, q: usize, forced: bool) -> bool {
        self.check(q);
        match self.anticommuting_stabilizer(q) {
            Some(p) => {
                self.collapse(q, p, forced);
                forced
            }
            None => self.reconstruct_deterministic(q),
        }
    }

    /// Returns `Some(outcome)` if measuring `q` would be deterministic
    /// (i.e. `Z_q` lies in the stabilizer span), without touching the state.
    #[must_use]
    pub fn deterministic_outcome(&mut self, q: usize) -> Option<bool> {
        self.check(q);
        if self.anticommuting_stabilizer(q).is_some() {
            None
        } else {
            Some(self.reconstruct_deterministic(q))
        }
    }

    /// The random-outcome collapse: every other anticommuting row absorbs
    /// row `p`, row `p` moves to the destabilizer block, and the stabilizer
    /// slot becomes `(-1)^outcome Z_q`.
    pub(crate) fn collapse(&mut self, q: usize, p: usize, outcome: bool) {
        for row in 0..self.gate_rows() {
            if row != p && Self::bit(&self.x, row * self.words, q) {
                self.rowsum(row, p);
            }
        }
        // Row p becomes the destabilizer of the measurement.
        let dest = p - self.num_qubits;
        for w in 0..self.words {
            self.x[dest * self.words + w] = self.x[p * self.words + w];
            self.z[dest * self.words + w] = self.z[p * self.words + w];
            self.x[p * self.words + w] = 0;
            self.z[p * self.words + w] = 0;
        }
        self.r[dest] = self.r[p];
        Self::flip_bit(&mut self.z, p * self.words, q);
        self.r[p] = outcome;
    }

    /// The deterministic outcome of `Z_q`: accumulate, in the scratch row,
    /// the stabilizer rows matching the destabilizers that anticommute with
    /// `Z_q`; the resulting sign is the outcome.
    pub(crate) fn reconstruct_deterministic(&mut self, q: usize) -> bool {
        let scratch = 2 * self.num_qubits;
        let base = scratch * self.words;
        for w in 0..self.words {
            self.x[base + w] = 0;
            self.z[base + w] = 0;
        }
        self.r[scratch] = false;
        for i in 0..self.num_qubits {
            if Self::bit(&self.x, i * self.words, q) {
                self.rowsum(scratch, i + self.num_qubits);
            }
        }
        self.r[scratch]
    }

    /// Resets qubit `q` to `|0>`: measure, then flip on outcome `1`.
    pub fn reset<R: RngCore + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng) {
            self.x(q);
        }
    }

    /// Returns the basis state `|b>` the tableau represents, as
    /// `words_per_row` packed little-endian words (qubit `q` at word
    /// `q / 64`, bit `q % 64`) — or `None` if the state is in superposition
    /// (some stabilizer generator carries an X bit, so some qubit would
    /// measure randomly).
    #[must_use]
    pub fn as_basis_state(&mut self) -> Option<Vec<u64>> {
        for row in self.num_qubits..2 * self.num_qubits {
            let base = row * self.words;
            if self.x[base..base + self.words].iter().any(|&w| w != 0) {
                return None;
            }
        }
        let mut out = vec![0u64; self.words];
        for q in 0..self.num_qubits {
            if self.reconstruct_deterministic(q) {
                out[q / 64] |= 1 << (q % 64);
            }
        }
        Some(out)
    }

    /// Builds the terminal full-register sampler; see
    /// [`MeasurementSampler`](crate::MeasurementSampler).  The tableau
    /// itself is not modified (the elimination runs on a clone).
    #[must_use]
    pub fn measurement_sampler(&self) -> crate::MeasurementSampler {
        crate::MeasurementSampler::new(self)
    }

    /// Packs the stabilizer signs into `out` (bit `i` is the sign of
    /// stabilizer row `n + i`) and clears every sign bit of the tableau, so
    /// the sign-program compiler reads each step's sign change in isolation.
    pub(crate) fn take_stabilizer_signs(&mut self, out: &mut [u64]) {
        out.fill(0);
        for i in 0..self.num_qubits {
            if self.r[self.num_qubits + i] {
                out[i / 64] |= 1 << (i % 64);
            }
        }
        self.r.fill(false);
    }

    /// Packs into `out` the stabilizers `i` whose sign a `pauli` on `q`
    /// flips ([`apply_pauli`](Self::apply_pauli) without the update).
    pub(crate) fn pauli_flips(&self, q: usize, pauli: Pauli, out: &mut [u64]) {
        self.check(q);
        out.fill(0);
        for i in 0..self.num_qubits {
            let base = (self.num_qubits + i) * self.words;
            if pauli.flips(Self::bit(&self.x, base, q), Self::bit(&self.z, base, q)) {
                out[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Packs into `out` the generators `i` of one block (destabilizers for
    /// `stabilizers == false`) whose X bit at `q` is set.
    pub(crate) fn x_column(&self, q: usize, stabilizers: bool, out: &mut [u64]) {
        self.check(q);
        out.fill(0);
        let first = if stabilizers { self.num_qubits } else { 0 };
        for i in 0..self.num_qubits {
            if Self::bit(&self.x, (first + i) * self.words, q) {
                out[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// The X-bit words of stabilizer row `n + i` (used by the sampler's
    /// elimination).
    pub(crate) fn stabilizer_x_row(&self, i: usize) -> &[u64] {
        let base = (self.num_qubits + i) * self.words;
        &self.x[base..base + self.words]
    }

    /// The Z-bit words of stabilizer row `n + i`.
    pub(crate) fn stabilizer_z_row(&self, i: usize) -> &[u64] {
        let base = (self.num_qubits + i) * self.words;
        &self.z[base..base + self.words]
    }

    /// The sign of stabilizer row `n + i`.
    pub(crate) fn stabilizer_sign(&self, i: usize) -> bool {
        self.r[self.num_qubits + i]
    }

    /// Multiplies stabilizer `h` by stabilizer `i` ([`rowsum`](Self::rowsum)
    /// on rows `n + h` and `n + i`): the stabilizer group, and so the
    /// state, stays the same.
    pub(crate) fn multiply_stabilizers(&mut self, h: usize, i: usize) {
        self.rowsum(self.num_qubits + h, self.num_qubits + i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn zero_state_measures_all_zero() {
        let mut tab = Tableau::zero_state(5);
        let mut rng = rng(1);
        for q in 0..5 {
            assert_eq!(tab.deterministic_outcome(q), Some(false));
            assert!(!tab.measure(q, &mut rng));
        }
    }

    #[test]
    fn x_flips_the_measured_bit() {
        let mut tab = Tableau::zero_state(3);
        tab.x(1);
        let mut rng = rng(2);
        assert!(!tab.measure(0, &mut rng));
        assert!(tab.measure(1, &mut rng));
        assert!(!tab.measure(2, &mut rng));
    }

    #[test]
    fn hadamard_outcomes_are_random_then_stable() {
        let mut rng = rng(3);
        let mut zeros = 0;
        for trial in 0..200 {
            let mut tab = Tableau::zero_state(1);
            tab.h(0);
            assert_eq!(tab.deterministic_outcome(0), None, "H|0> is random");
            let outcome = tab.measure(0, &mut rng);
            // Re-measuring gives the same answer: the state collapsed.
            assert_eq!(tab.deterministic_outcome(0), Some(outcome), "trial {trial}");
            if !outcome {
                zeros += 1;
            }
        }
        assert!((60..=140).contains(&zeros), "zeros = {zeros}");
    }

    #[test]
    fn ghz_correlations() {
        let mut rng = rng(4);
        for _ in 0..100 {
            let mut tab = Tableau::zero_state(3);
            tab.h(0);
            tab.cx(0, 1);
            tab.cx(1, 2);
            let a = tab.measure(0, &mut rng);
            assert_eq!(tab.measure(1, &mut rng), a);
            assert_eq!(tab.measure(2, &mut rng), a);
        }
    }

    #[test]
    fn s_gate_composition_shifts_phases() {
        // H S S H |0> = H Z H |0> = X |0> = |1>.
        let mut tab = Tableau::zero_state(1);
        tab.h(0);
        tab.s(0);
        tab.s(0);
        tab.h(0);
        assert_eq!(tab.deterministic_outcome(0), Some(true));
        // S Sdg = I.
        let mut tab = Tableau::zero_state(1);
        tab.h(0);
        tab.s(0);
        tab.sdg(0);
        tab.h(0);
        assert_eq!(tab.deterministic_outcome(0), Some(false));
    }

    #[test]
    fn cz_matches_h_cx_h() {
        // Compare CZ against its H-conjugated CX decomposition on a state
        // that exercises signs: (H ⊗ H)|00> then CZ, then Bell-basis checks.
        let mut a = Tableau::zero_state(2);
        let mut b = Tableau::zero_state(2);
        for tab in [&mut a, &mut b] {
            tab.h(0);
            tab.h(1);
            tab.s(0);
            tab.s(1);
        }
        a.cz(0, 1);
        b.h(1);
        b.cx(0, 1);
        b.h(1);
        assert_eq!(a, b);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut tab = Tableau::zero_state(2);
        tab.x(0);
        tab.swap(0, 1);
        let mut rng = rng(5);
        assert!(!tab.measure(0, &mut rng));
        assert!(tab.measure(1, &mut rng));
        // Swap is equivalent to three alternating CX.
        let mut a = Tableau::zero_state(2);
        let mut b = Tableau::zero_state(2);
        for tab in [&mut a, &mut b] {
            tab.h(0);
            tab.s(0);
            tab.cx(0, 1);
        }
        a.swap(0, 1);
        b.cx(0, 1);
        b.cx(1, 0);
        b.cx(0, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn pauli_frame_flips_change_signs_only() {
        let mut tab = Tableau::zero_state(2);
        tab.h(0);
        tab.cx(0, 1);
        let before = tab.clone();
        tab.apply_pauli(0, Pauli::Z);
        assert_eq!(tab.x, before.x, "Z must not touch the X matrix");
        assert_eq!(tab.z, before.z, "Z must not touch the Z matrix");
        assert_ne!(tab.r, before.r, "Z flips signs on a Bell state");
        // Y = iXZ: applying X then Z matches Y up to (unseen) global phase.
        let mut via_y = before.clone();
        via_y.y(0);
        let mut via_xz = before.clone();
        via_xz.z(0);
        via_xz.x(0);
        assert_eq!(via_y, via_xz);
    }

    #[test]
    fn reset_forces_zero() {
        let mut rng = rng(6);
        for _ in 0..50 {
            let mut tab = Tableau::zero_state(2);
            tab.h(0);
            tab.cx(0, 1);
            tab.reset(0, &mut rng);
            assert_eq!(tab.deterministic_outcome(0), Some(false));
        }
    }

    #[test]
    fn bit_and_phase_noise_act_on_outcomes() {
        // A bit flip on |0> measures 1.
        let mut tab = Tableau::zero_state(1);
        tab.apply_pauli(0, Pauli::X);
        assert_eq!(tab.deterministic_outcome(0), Some(true));
        // A phase flip between two Hadamards flips the outcome: H Z H = X.
        let mut tab = Tableau::zero_state(1);
        tab.h(0);
        tab.apply_pauli(0, Pauli::Z);
        tab.h(0);
        assert_eq!(tab.deterministic_outcome(0), Some(true));
    }

    #[test]
    fn basis_state_extraction() {
        let mut tab = Tableau::zero_state(3);
        tab.x(0);
        tab.x(2);
        assert_eq!(tab.as_basis_state(), Some(vec![0b101]));
        // Superpositions have no basis-state form.
        tab.h(1);
        assert_eq!(tab.as_basis_state(), None);
        // Collapsing restores it.
        let bit = tab.measure(1, &mut rng(9));
        let expected = 0b101 | u64::from(bit) << 1;
        assert_eq!(tab.as_basis_state(), Some(vec![expected]));
    }

    #[test]
    fn wide_registers_cross_word_boundaries() {
        // 130 qubits = 3 words; entangle across the word boundary.
        let mut tab = Tableau::zero_state(130);
        tab.h(0);
        for q in 1..130 {
            tab.cx(q - 1, q);
        }
        let mut rng = rng(10);
        let first = tab.measure(63, &mut rng);
        assert_eq!(tab.measure(64, &mut rng), first);
        assert_eq!(tab.measure(129, &mut rng), first);
        assert_eq!(tab.measure(0, &mut rng), first);
        let words = tab.as_basis_state().unwrap();
        let expected = if first {
            vec![u64::MAX, u64::MAX, 0b11]
        } else {
            vec![0, 0, 0]
        };
        assert_eq!(words, expected);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        Tableau::zero_state(2).h(5);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cx_rejects_equal_qubits() {
        Tableau::zero_state(2).cx(1, 1);
    }
}
