//! Statistical validation of weak-simulation output.
//!
//! The paper's central claim is that its samplers produce output that is
//! *statistically indistinguishable* from an error-free quantum computer.
//! This module provides the machinery used by tests, examples and the
//! experiment harness to check that claim: a chi-square goodness-of-fit test
//! of the empirical histogram against the exact output distribution, and
//! the total-variation distance.

use crate::ShotHistogram;

/// The result of a chi-square goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquareResult {
    /// The chi-square statistic over the pooled outcome bins.
    pub statistic: f64,
    /// Degrees of freedom (bins - 1).
    pub degrees_of_freedom: usize,
    /// The p-value (probability of a statistic at least this large under the
    /// null hypothesis that the samples follow the exact distribution).
    pub p_value: f64,
}

impl ChiSquareResult {
    /// Returns `true` if the test does **not** reject the null hypothesis at
    /// the given significance level (i.e. the samples look like the exact
    /// distribution).
    #[must_use]
    pub fn is_consistent(&self, significance: f64) -> bool {
        self.p_value >= significance
    }
}

/// Performs a chi-square goodness-of-fit test of `histogram` against the
/// exact probabilities given by `probability(outcome)`.
///
/// Outcomes with an expected count below 5 are pooled into a single bin, the
/// standard remedy for sparse categories.  Outcomes never observed and with
/// probability zero are ignored.
///
/// # Panics
///
/// Panics if the histogram is empty.
///
/// # Examples
///
/// ```
/// use weaksim::{stats, ShotHistogram};
///
/// // A fair coin sampled fairly.
/// let hist = ShotHistogram::from_samples(1, (0..10_000).map(|i| i % 2));
/// let result = stats::chi_square_test(&hist, |o| if o < 2 { 0.5 } else { 0.0 });
/// assert!(result.is_consistent(0.01));
/// ```
pub fn chi_square_test(
    histogram: &ShotHistogram,
    probability: impl Fn(u64) -> f64,
) -> ChiSquareResult {
    assert!(histogram.shots() > 0, "cannot test an empty histogram");
    let shots = histogram.shots() as f64;

    // Collect the support: every observed outcome plus every outcome with
    // non-negligible probability that we know about from the observations.
    // (For distributions with huge support the unobserved mass is pooled.)
    let mut bins: Vec<(f64, f64)> = Vec::new(); // (observed, expected)
    let mut observed_mass = 0.0;
    for (&outcome, &count) in histogram.counts() {
        let p = probability(outcome);
        bins.push((count as f64, p * shots));
        observed_mass += p;
    }

    // Pool bins with small expected counts together with the entire
    // unobserved probability mass.  The pool boundary depends only on the
    // exact probabilities (expected < 5), never on whether an outcome
    // happened to be observed — pooling "observed but rare" outcomes
    // separately from "unobserved" outcomes would bias the statistic upward
    // for distributions with a long tail of tiny probabilities.
    let unobserved = (1.0 - observed_mass).max(0.0);
    let mut pooled: Vec<(f64, f64)> = Vec::new();
    let mut small = (0.0, unobserved * shots);
    for (obs, exp) in bins {
        if exp < 5.0 {
            small.0 += obs;
            small.1 += exp;
        } else {
            pooled.push((obs, exp));
        }
    }
    if small.1 > 0.5 {
        pooled.push(small);
    }

    let mut statistic = 0.0;
    for &(obs, exp) in &pooled {
        if exp > 0.0 {
            statistic += (obs - exp) * (obs - exp) / exp;
        }
    }
    let degrees_of_freedom = pooled.len().saturating_sub(1).max(1);
    let p_value = chi_square_survival(statistic, degrees_of_freedom as f64);
    ChiSquareResult {
        statistic,
        degrees_of_freedom,
        p_value,
    }
}

/// The total-variation distance between the empirical distribution of
/// `histogram` and the exact distribution `probability`, computed over the
/// observed support plus the unobserved remainder:
/// `TVD = 1/2 * sum |freq_i - p_i|`.
///
/// # Panics
///
/// Panics if the histogram is empty.
pub fn total_variation_distance(
    histogram: &ShotHistogram,
    probability: impl Fn(u64) -> f64,
) -> f64 {
    assert!(histogram.shots() > 0, "cannot compare an empty histogram");
    let mut distance = 0.0;
    let mut covered = 0.0;
    for &outcome in histogram.counts().keys() {
        let p = probability(outcome);
        distance += (histogram.frequency(outcome) - p).abs();
        covered += p;
    }
    // Unobserved outcomes contribute their full probability mass.
    distance += (1.0 - covered).max(0.0);
    distance / 2.0
}

/// The survival function `P(X >= x)` of a chi-square distribution with `k`
/// degrees of freedom, i.e. the regularized upper incomplete gamma function
/// `Q(k/2, x/2)`.
///
/// Uses the standard series / continued-fraction split (Numerical Recipes
/// style) which is accurate to well beyond what hypothesis testing needs.
#[must_use]
pub fn chi_square_survival(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    regularized_gamma_q(k / 2.0, x / 2.0)
}

fn regularized_gamma_q(a: f64, x: f64) -> f64 {
    if x < a + 1.0 {
        1.0 - regularized_gamma_p_series(a, x)
    } else {
        regularized_gamma_q_continued_fraction(a, x)
    }
}

fn regularized_gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn regularized_gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -f64::from(i) * (f64::from(i) - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Natural log of the gamma function (Lanczos approximation).
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_5e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut series = 1.000_000_000_190_015;
    for c in COEFFS {
        y += 1.0;
        series += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * series / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ln_gamma_matches_known_values() {
        // Gamma(5) = 24, Gamma(0.5) = sqrt(pi).
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        assert!((ln_gamma(1.0)).abs() < 1e-10);
    }

    #[test]
    fn chi_square_survival_reference_values() {
        // P(X >= 3.841) with 1 dof is about 0.05.
        assert!((chi_square_survival(3.841, 1.0) - 0.05).abs() < 0.001);
        // P(X >= 9.488) with 4 dof is about 0.05.
        assert!((chi_square_survival(9.488, 4.0) - 0.05).abs() < 0.001);
        // Degenerate inputs.
        assert_eq!(chi_square_survival(0.0, 3.0), 1.0);
        assert!(chi_square_survival(100.0, 3.0) < 1e-10);
    }

    #[test]
    fn fair_samples_pass_the_test() {
        let mut rng = StdRng::seed_from_u64(7);
        let hist = ShotHistogram::from_samples(2, (0..40_000).map(|_| rng.gen_range(0..4u64)));
        let result = chi_square_test(&hist, |_| 0.25);
        assert!(result.is_consistent(0.001), "p = {}", result.p_value);
        assert!(total_variation_distance(&hist, |_| 0.25) < 0.02);
    }

    #[test]
    fn biased_samples_fail_the_test() {
        // Claim uniform but sample heavily biased.
        let mut rng = StdRng::seed_from_u64(8);
        let hist = ShotHistogram::from_samples(
            2,
            (0..40_000).map(|_| {
                if rng.gen::<f64>() < 0.4 {
                    0
                } else {
                    rng.gen_range(0..4u64)
                }
            }),
        );
        let result = chi_square_test(&hist, |_| 0.25);
        assert!(!result.is_consistent(0.001), "p = {}", result.p_value);
        assert!(total_variation_distance(&hist, |_| 0.25) > 0.05);
    }

    #[test]
    fn tvd_of_perfect_match_is_small() {
        let hist = ShotHistogram::from_samples(1, (0..10_000).map(|i| i % 2));
        assert!(total_variation_distance(&hist, |_| 0.5) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn chi_square_of_empty_histogram_panics() {
        let hist = ShotHistogram::new(2);
        let _ = chi_square_test(&hist, |_| 0.25);
    }
}
