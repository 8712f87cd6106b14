//! Prefix-sum construction and binary-search sampling (Section III of the
//! paper, Fig. 3).
//!
//! # The search
//!
//! The prefix array has exactly `2^n` entries, so the search for `p̂` is a
//! fixed `n`-step descent that decides one output bit per step, most
//! significant first.  The remaining range starts at `index` and holds
//! `2 · half` entries (`half = 2^(n-1-l)` at step `l`); a step probes the
//! last entry of its lower half,
//!
//! ```text
//! index += half * (prefix[index + half - 1] <= p̂)
//! ```
//!
//! (with `acc` the `l` bits decided so far, `index = acc << (n - l)` and the
//! probe is `(((acc << 1) | 1) << (n - 1 - l)) - 1`).  On a non-decreasing
//! array this returns exactly the index
//! `prefix.partition_point(|&r| r <= p̂)` does, clamped to the last entry
//! (`p̂` at or above the total mass).  The comparison result only feeds
//! address arithmetic, never a branch.  Batched draws run eight searches in
//! lockstep, so eight independent cache misses overlap per step on large
//! arrays; they draw each block's eight uniforms first, in stream order, so
//! every path consumes the RNG exactly like consecutive
//! [`PrefixSampler::sample`] calls.

use crate::StateVector;
use mathkit::{KahanSum, SnapshotReader};
use rand::Rng;

/// Searches walked in lockstep by one block of [`PrefixSampler::sample_into`].
const LANES: usize = 8;

/// A sampler that precomputes the prefix sums `r_i = sum_{k<=i} p_k` of the
/// output probability distribution and answers each sample with a binary
/// search, exactly as described in Section III of the paper.
///
/// Precomputation is `O(2^n)`; each sample costs exactly `n` comparisons
/// (see the module docs).
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Qubit};
/// use statevector::{simulate, PrefixSampler};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(1);
/// c.x(Qubit(0));
/// let sampler = PrefixSampler::new(&simulate(&c)?);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert_eq!(sampler.sample(&mut rng), 1); // the state is |1> with certainty
/// # Ok::<(), statevector::SimulateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrefixSampler {
    prefix: Vec<f64>,
    num_qubits: u16,
}

impl PrefixSampler {
    /// Builds the prefix-sum array from a state vector.
    ///
    /// The construction mirrors Fig. 3 of the paper: squared magnitudes of
    /// the amplitudes are accumulated left to right (with compensated
    /// summation so the final entry stays at 1 even for huge arrays).
    #[must_use]
    pub fn new(state: &StateVector) -> Self {
        let mut prefix = Vec::with_capacity(state.len());
        let mut running = KahanSum::new();
        for amp in state.amplitudes() {
            running.add(amp.norm_sqr());
            prefix.push(running.value());
        }
        Self {
            prefix,
            num_qubits: state.num_qubits(),
        }
    }

    /// Builds a sampler directly from a probability vector.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` is empty or its length is not a power of
    /// two.
    #[must_use]
    pub fn from_probabilities(probabilities: &[f64]) -> Self {
        assert!(
            probabilities.len().is_power_of_two(),
            "probability vector length must be a power of two"
        );
        let mut prefix = Vec::with_capacity(probabilities.len());
        let mut running = KahanSum::new();
        for &p in probabilities {
            running.add(p);
            prefix.push(running.value());
        }
        Self {
            prefix,
            num_qubits: probabilities.len().trailing_zeros() as u16,
        }
    }

    /// The number of qubits of the sampled register.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// The prefix-sum array (monotonically non-decreasing, last entry ~1).
    #[must_use]
    pub fn prefix_sums(&self) -> &[f64] {
        &self.prefix
    }

    /// The total probability mass (should be 1 for a normalized state).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.prefix.last().copied().unwrap_or(0.0)
    }

    /// Heap bytes held by the prefix-sum array — what an artifact cache
    /// charges against its byte budget for a retained sampler.  Dense: the
    /// array has `2^n` entries regardless of the state's structure.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.prefix.len() * std::mem::size_of::<f64>()
    }

    /// Draws one basis-state index using the supplied random number
    /// generator (one uniform variate plus a binary search).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let p_hat: f64 = rng.gen::<f64>() * self.total_mass();
        self.locate(p_hat)
    }

    /// Draws `shots` samples.
    #[must_use = "the samples are the result of the weak simulation"]
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<u64> {
        let mut out = vec![0u64; shots];
        self.sample_into(rng, &mut out);
        out
    }

    /// Fills `out` with consecutive samples: the same values as
    /// `out.len()` [`sample`](Self::sample) calls on `rng`, drawn eight
    /// searches at a time (see the module docs).
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        let total = self.total_mass();
        let mut blocks = out.chunks_exact_mut(LANES);
        for block in &mut blocks {
            let p_hat: [f64; LANES] = std::array::from_fn(|_| rng.gen::<f64>() * total);
            let mut index = [0usize; LANES];
            let mut half = self.prefix.len() >> 1;
            while half > 0 {
                for lane in 0..LANES {
                    index[lane] = self.step(index[lane], half, p_hat[lane]);
                }
                half >>= 1;
            }
            for (slot, index) in block.iter_mut().zip(index) {
                *slot = index as u64;
            }
        }
        for slot in blocks.into_remainder() {
            *slot = self.sample(rng);
        }
    }

    /// Locates the output index for a given cumulative probability value
    /// `p_hat` in `[0, 1)`: the smallest index whose prefix sum exceeds
    /// `p_hat`, or the last index if none does (`p_hat` at or above the
    /// total mass, which only rounding can produce).  Exposed so tests (and
    /// the figure generator) can reproduce the worked example of Fig. 3.
    #[must_use]
    pub fn locate(&self, p_hat: f64) -> u64 {
        let mut index = 0usize;
        let mut half = self.prefix.len() >> 1;
        while half > 0 {
            index = self.step(index, half, p_hat);
            half >>= 1;
        }
        index as u64
    }

    /// One step of the search: `index` is the start of a remaining range
    /// of `2 · half` entries; keep its lower half unless its last prefix
    /// sum is still `<= p_hat`.
    #[inline(always)]
    fn step(&self, index: usize, half: usize, p_hat: f64) -> usize {
        let upper = self.prefix[index + half - 1] <= p_hat;
        // A conditional move: a branch here would mispredict half the time.
        std::hint::select_unpredictable(upper, index + half, index)
    }

    /// Serializes the prefix-sum array into `out` as little-endian plain
    /// data — the payload format of the `weaksim` artifact-cache snapshot.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.num_qubits.to_le_bytes());
        out.extend_from_slice(&(self.prefix.len() as u64).to_le_bytes());
        for &value in &self.prefix {
            out.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }

    /// Reconstructs a sampler from [`encode_snapshot`](Self::encode_snapshot)
    /// bytes, validating everything [`locate`](Self::locate) relies on: the
    /// array has exactly `2^n` entries, every entry is finite and
    /// non-negative, and the sequence is monotonically non-decreasing.
    /// Returns `None` for any truncated or inconsistent payload — a
    /// corrupted snapshot section must never panic a loader.
    #[must_use]
    pub fn decode_snapshot(bytes: &[u8]) -> Option<Self> {
        let mut reader = SnapshotReader::new(bytes);
        let num_qubits = reader.u16()?;
        let len = usize::try_from(reader.u64()?).ok()?;
        let body = reader.rest();
        if num_qubits >= 48
            || len != 1usize.checked_shl(u32::from(num_qubits))?
            || body.len() != len.checked_mul(8)?
        {
            return None;
        }
        let mut prefix = Vec::with_capacity(len);
        let mut previous = 0.0f64;
        for chunk in body.chunks_exact(8) {
            let value = f64::from_bits(u64::from_le_bytes(chunk.try_into().ok()?));
            if !value.is_finite() || value < previous {
                return None;
            }
            prefix.push(value);
            previous = value;
        }
        Some(Self { prefix, num_qubits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::Complex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_example_state() -> StateVector {
        // Fig. 3 of the paper: amplitudes [0, -0.612i, 0, -0.612i, 0.354, 0, 0, 0.354].
        let a = Complex::new(0.0, -(3.0_f64 / 8.0).sqrt());
        let b = Complex::from_real((1.0_f64 / 8.0).sqrt());
        StateVector::from_amplitudes(vec![
            Complex::ZERO,
            a,
            Complex::ZERO,
            a,
            b,
            Complex::ZERO,
            Complex::ZERO,
            b,
        ])
    }

    #[test]
    fn prefix_sums_match_fig_3() {
        let sampler = PrefixSampler::new(&paper_example_state());
        let expected = [
            0.0,
            3.0 / 8.0,
            3.0 / 8.0,
            6.0 / 8.0,
            7.0 / 8.0,
            7.0 / 8.0,
            7.0 / 8.0,
            1.0,
        ];
        for (i, &e) in expected.iter().enumerate() {
            assert!(
                (sampler.prefix_sums()[i] - e).abs() < 1e-12,
                "prefix[{i}] = {} expected {e}",
                sampler.prefix_sums()[i]
            );
        }
    }

    #[test]
    fn example_8_of_the_paper() {
        // With p_hat = 1/2 the sample is |011> (index 3).
        let sampler = PrefixSampler::new(&paper_example_state());
        assert_eq!(sampler.locate(0.5), 3);
    }

    #[test]
    fn locate_edge_cases() {
        let sampler = PrefixSampler::from_probabilities(&[0.25, 0.25, 0.25, 0.25]);
        assert_eq!(sampler.locate(0.0), 0);
        assert_eq!(sampler.locate(0.24), 0);
        assert_eq!(sampler.locate(0.25), 1);
        assert_eq!(sampler.locate(0.99), 3);
        assert_eq!(sampler.locate(1.0), 3); // clamped
    }

    #[test]
    fn deterministic_state_always_samples_the_same_index() {
        let sampler = PrefixSampler::new(&StateVector::basis_state(4, 11));
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 11);
        }
    }

    #[test]
    fn samples_follow_the_distribution() {
        let sampler = PrefixSampler::new(&paper_example_state());
        let mut rng = StdRng::seed_from_u64(7);
        let shots = 200_000;
        let samples = sampler.sample_many(&mut rng, shots);
        let mut counts = [0u64; 8];
        for s in samples {
            counts[s as usize] += 1;
        }
        // Zero-probability outcomes never appear.
        for i in [0usize, 2, 5, 6] {
            assert_eq!(counts[i], 0);
        }
        // Nonzero outcomes appear with roughly the right frequency.
        let freq = |i: usize| counts[i] as f64 / shots as f64;
        assert!((freq(1) - 0.375).abs() < 0.01);
        assert!((freq(3) - 0.375).abs() < 0.01);
        assert!((freq(4) - 0.125).abs() < 0.01);
        assert!((freq(7) - 0.125).abs() < 0.01);
    }

    #[test]
    fn total_mass_is_one_for_normalized_states() {
        let sampler = PrefixSampler::new(&paper_example_state());
        assert!((sampler.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(sampler.num_qubits(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_probabilities_requires_power_of_two() {
        let _ = PrefixSampler::from_probabilities(&[0.5, 0.25, 0.25]);
    }

    /// The search the lockstep kernel replaced, kept as the reference.
    fn reference_locate(prefix: &[f64], p_hat: f64) -> u64 {
        let idx = prefix.partition_point(|&r| r <= p_hat);
        idx.min(prefix.len() - 1) as u64
    }

    /// Probability vectors with zero runs (prefix plateaus), point masses
    /// and the 0- and 1-qubit edge cases.
    fn distributions() -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(0xd15c);
        let mut out = vec![vec![1.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![0.3, 0.7]];
        for n in 2..=12 {
            let len = 1usize << n;
            out.push(
                (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.4) {
                            0.0
                        } else {
                            rng.gen::<f64>()
                        }
                    })
                    .collect(),
            );
            let mut ghz = vec![0.0; len];
            ghz[0] = 0.5;
            ghz[len - 1] = 0.5;
            out.push(ghz);
            let mut basis = vec![0.0; len];
            basis[rng.gen_range(0..len)] = 1.0;
            out.push(basis);
        }
        out
    }

    #[test]
    fn locate_matches_partition_point_at_and_around_every_prefix_value() {
        for probabilities in distributions() {
            let sampler = PrefixSampler::from_probabilities(&probabilities);
            let prefix = sampler.prefix_sums();
            let total = sampler.total_mass();
            let mut probes = vec![0.0, total, total.next_up(), 2.0 * total, f64::INFINITY];
            for &r in prefix {
                probes.extend([r, r.next_up(), r.next_down()]);
            }
            for p_hat in probes {
                assert_eq!(
                    sampler.locate(p_hat),
                    reference_locate(prefix, p_hat),
                    "p_hat {p_hat:e} over {} entries",
                    prefix.len()
                );
            }
        }
    }

    #[test]
    fn every_draw_path_matches_the_reference_and_consumes_the_rng_alike() {
        for probabilities in distributions() {
            let sampler = PrefixSampler::from_probabilities(&probabilities);
            let prefix = sampler.prefix_sums();
            for shots in [0, 1, 7, 8, 9, 17, 1023, 1024, 1025] {
                let mut ours = StdRng::seed_from_u64(shots as u64);
                let mut theirs = ours.clone();
                let expected: Vec<u64> = (0..shots)
                    .map(|_| reference_locate(prefix, theirs.gen::<f64>() * sampler.total_mass()))
                    .collect();
                assert_eq!(sampler.sample_many(&mut ours, shots), expected);
                assert_eq!(ours.gen::<u64>(), theirs.gen::<u64>(), "RNG drift");
                let mut ours = StdRng::seed_from_u64(shots as u64);
                let single: Vec<u64> = (0..shots).map(|_| sampler.sample(&mut ours)).collect();
                assert_eq!(single, expected);
            }
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let sampler = PrefixSampler::new(&paper_example_state());
        let mut bytes = Vec::new();
        sampler.encode_snapshot(&mut bytes);
        let decoded = PrefixSampler::decode_snapshot(&bytes).expect("round trip");
        assert_eq!(decoded.num_qubits(), sampler.num_qubits());
        assert_eq!(decoded.prefix_sums(), sampler.prefix_sums());
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            sampler.sample_many(&mut a, 4096),
            decoded.sample_many(&mut b, 4096)
        );
    }

    #[test]
    fn snapshot_decode_rejects_corruption_without_panicking() {
        let sampler = PrefixSampler::new(&paper_example_state());
        let mut bytes = Vec::new();
        sampler.encode_snapshot(&mut bytes);
        for len in 0..bytes.len() {
            assert!(PrefixSampler::decode_snapshot(&bytes[..len]).is_none());
        }
        // Breaking monotonicity must be rejected.
        let mut bad = bytes.clone();
        bad[10..18].copy_from_slice(&5.0f64.to_bits().to_le_bytes());
        assert!(PrefixSampler::decode_snapshot(&bad).is_none());
        // A NaN entry must be rejected.
        let mut nan = bytes;
        nan[10..18].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(PrefixSampler::decode_snapshot(&nan).is_none());
    }
}
