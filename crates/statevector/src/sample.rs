//! Linear-traversal sampling.

use crate::StateVector;
use rand::Rng;

/// A sampler that draws each sample by a linear traversal of the probability
/// array (no precomputation).
///
/// This is the paper's "direct (linear) traversal, which takes `2^(n-1)`
/// steps on average" — it exists as the slowest baseline and because it can
/// stream over amplitudes that never fit in memory all at once.
///
/// # Examples
///
/// ```
/// use statevector::{LinearSampler, StateVector};
/// use rand::SeedableRng;
///
/// let sampler = LinearSampler::new(&StateVector::basis_state(3, 6));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert_eq!(sampler.sample(&mut rng), 6);
/// ```
#[derive(Debug, Clone)]
pub struct LinearSampler {
    probabilities: Vec<f64>,
    /// Total probability mass, summed once at construction.  Recomputing it
    /// per shot would silently turn `sample_many` from `O(shots * 2^(n-1))`
    /// average work into `O(shots * 3 * 2^(n-1))`.
    total: f64,
    /// Probability-array elements touched so far (construction + scans) —
    /// the hook for the complexity regression test.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

impl LinearSampler {
    /// Builds the sampler from a state vector (stores only probabilities).
    #[must_use]
    pub fn new(state: &StateVector) -> Self {
        Self::from_probabilities(state.probabilities())
    }

    /// Builds the sampler directly from a probability vector.
    #[must_use]
    pub fn from_probabilities(probabilities: Vec<f64>) -> Self {
        let total = probabilities.iter().sum();
        #[cfg(test)]
        let construction_visits = probabilities.len() as u64;
        Self {
            probabilities,
            total,
            #[cfg(test)]
            visits: std::cell::Cell::new(construction_visits),
        }
    }

    /// Draws one sample by scanning the probability array until the running
    /// sum exceeds a uniformly drawn threshold.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let threshold: f64 = rng.gen::<f64>() * self.total;
        let mut running = 0.0;
        for (i, &p) in self.probabilities.iter().enumerate() {
            #[cfg(test)]
            self.visits.set(self.visits.get() + 1);
            running += p;
            if running > threshold {
                return i as u64;
            }
        }
        (self.probabilities.len() - 1) as u64
    }

    /// Draws `shots` samples.
    #[must_use = "the samples are the result of the weak simulation"]
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<u64> {
        (0..shots).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use circuit::{Circuit, Qubit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_sampler_matches_prefix_sampler_distribution() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        c.h(Qubit(2));
        let state = simulate(&c).unwrap();
        let linear = LinearSampler::new(&state);
        let prefix = crate::PrefixSampler::new(&state);

        let shots = 50_000;
        let mut rng = StdRng::seed_from_u64(3);
        let mut linear_counts = [0u64; 8];
        for _ in 0..shots {
            linear_counts[linear.sample(&mut rng) as usize] += 1;
        }
        let mut prefix_counts = [0u64; 8];
        for _ in 0..shots {
            prefix_counts[prefix.sample(&mut rng) as usize] += 1;
        }
        for i in 0..8 {
            let expected = state.probability(i as u64);
            let lf = linear_counts[i] as f64 / shots as f64;
            let pf = prefix_counts[i] as f64 / shots as f64;
            assert!((lf - expected).abs() < 0.02, "linear index {i}");
            assert!((pf - expected).abs() < 0.02, "prefix index {i}");
        }
    }

    #[test]
    fn linear_sampler_from_probabilities() {
        let sampler = LinearSampler::from_probabilities(vec![0.0, 0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            assert_eq!(sampler.sample(&mut rng), 2);
        }
    }

    #[test]
    fn linear_sampler_does_not_recompute_the_total_per_shot() {
        // Complexity regression: `sample_many` must do `O(2^n)` work once
        // (the constructor's total) plus an *average* of `2^(n-1)` scan
        // steps per shot.  The old behaviour — recomputing `total` inside
        // `sample` — adds a full `2^n` sweep per shot, pushing the count
        // past `shots * 2^n` and tripping the bound below.
        let len = 1u64 << 10;
        let sampler = LinearSampler::from_probabilities(vec![1.0 / len as f64; len as usize]);
        assert_eq!(sampler.visits.get(), len, "constructor sums once");

        let shots = 200u64;
        let mut rng = StdRng::seed_from_u64(17);
        let samples = sampler.sample_many(&mut rng, shots as usize);
        assert_eq!(samples.len(), shots as usize);

        let visits = sampler.visits.get();
        let budget = len + shots * (3 * len / 4);
        assert!(
            visits <= budget,
            "sample_many visited {visits} elements, budget {budget}: \
             the O(2^n) total recomputation is back in the per-shot path"
        );
    }
}
