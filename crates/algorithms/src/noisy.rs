//! Noisy-hardware emulation workloads: reference noise models and
//! error-rate sweeps over the dynamic-circuit benchmarks.

use circuit::{Circuit, NoiseChannel, NoiseModel};

/// A uniform "hardware" noise model at error rate `p`: depolarizing noise of
/// strength `p` after every gate (on every qubit the gate touches) plus a
/// bit-flip read-out error of probability `p` before every measurement —
/// the standard first-order device model used by the noisy benchmarks.
///
/// `hardware_noise(0.0)` has no non-trivial channel, so simulating under it
/// is bit-identical to the noiseless run.
///
/// # Examples
///
/// ```
/// let model = algorithms::hardware_noise(0.01);
/// assert!(model.has_noise());
/// assert!(!algorithms::hardware_noise(0.0).has_noise());
/// ```
#[must_use]
pub fn hardware_noise(p: f64) -> NoiseModel {
    NoiseModel::new()
        .with_gate_noise(NoiseChannel::depolarizing(p))
        .with_measurement_noise(NoiseChannel::bit_flip(p))
}

/// Builds the noisy-teleportation error-rate sweep: the teleportation
/// circuit for payload angle `theta` plus `steps + 1` [`hardware_noise`]
/// models at rates linearly spaced over `[0, max_p]` (the first point is
/// the ideal device).
///
/// As `p` grows, the teleported qubit's marginal `P(c2 = 1)` drifts from the
/// ideal `sin^2(theta/2)` towards the fully mixed `1/2` — the decay curve
/// the noisy-teleportation example and tests sweep out.
///
/// # Panics
///
/// Panics if `steps` is zero or `max_p` is not a probability in `(0, 1]`.
///
/// # Examples
///
/// ```
/// let (circuit, sweep) = algorithms::teleportation_noise_sweep(1.2, 4, 0.2);
/// assert!(circuit.is_dynamic());
/// assert_eq!(sweep.len(), 5);
/// assert_eq!(sweep[0].0, 0.0);
/// assert_eq!(sweep[4].0, 0.2);
/// ```
#[must_use]
pub fn teleportation_noise_sweep(
    theta: f64,
    steps: usize,
    max_p: f64,
) -> (Circuit, Vec<(f64, NoiseModel)>) {
    (crate::teleportation(theta), noise_sweep(steps, max_p))
}

/// Builds the noisy iterative-phase-estimation error-rate sweep: the
/// `ipe(num_bits, phase)` circuit plus `steps + 1` [`hardware_noise`] models
/// at rates linearly spaced over `[0, max_p]`.
///
/// For an exact `num_bits`-bit phase the ideal device recovers the phase
/// deterministically, so the sweep directly measures how fast noise erodes
/// the recovery probability.
///
/// # Panics
///
/// Panics if `steps` is zero, `max_p` is not a probability in `(0, 1]`, or
/// `num_bits` is outside [`ipe`](fn@crate::ipe)'s supported range.
#[must_use]
pub fn ipe_noise_sweep(
    num_bits: u16,
    phase: f64,
    steps: usize,
    max_p: f64,
) -> (Circuit, Vec<(f64, NoiseModel)>) {
    (crate::ipe(num_bits, phase), noise_sweep(steps, max_p))
}

/// `steps + 1` hardware models at rates linearly spaced over `[0, max_p]`.
fn noise_sweep(steps: usize, max_p: f64) -> Vec<(f64, NoiseModel)> {
    assert!(steps > 0, "a sweep needs at least one step");
    assert!(
        max_p > 0.0 && max_p <= 1.0,
        "sweep ceiling {max_p} is not a probability in (0, 1]"
    );
    (0..=steps)
        .map(|i| {
            let p = max_p * i as f64 / steps as f64;
            (p, hardware_noise(p))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_cover_the_requested_range() {
        let (circuit, sweep) = teleportation_noise_sweep(0.7, 5, 0.1);
        assert_eq!(circuit.num_qubits(), 3);
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep[0].0, 0.0);
        assert!((sweep[5].0 - 0.1).abs() < 1e-15);
        assert!(!sweep[0].1.has_noise(), "the first point is noiseless");
        assert!(sweep[1].1.has_noise());
        for (p, model) in &sweep {
            assert!(model.validate_for(circuit.num_qubits()).is_ok(), "p = {p}");
        }

        let (ipe_circuit, ipe_sweep) = ipe_noise_sweep(3, 1.0, 2, 0.05);
        assert!(ipe_circuit.is_dynamic());
        assert_eq!(ipe_sweep.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_step_sweeps_are_rejected() {
        let _ = teleportation_noise_sweep(0.7, 0, 0.1);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn out_of_range_sweep_ceilings_are_rejected() {
        let _ = ipe_noise_sweep(3, 1.0, 2, 1.5);
    }
}
