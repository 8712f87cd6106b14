//! Stochastic noise channels and the [`NoiseModel`] describing where they
//! act in a circuit.
//!
//! Real devices are noisy: every gate, idle period and read-out perturbs the
//! state.  This module describes that noise at the circuit level so the
//! trajectory engine (the `weaksim` crate) can emulate noisy hardware by
//! *stochastic channel insertion*: each shot realizes every noise site as a
//! random Kraus branch — a Pauli error, an amplitude decay, or no error —
//! drawn from the shot's RNG stream, exactly the Monte-Carlo trajectory
//! method for mixed-state simulation.
//!
//! A [`NoiseChannel`] is one single-qubit channel; a [`NoiseModel`] attaches
//! channels to gate sites (after every unitary operation, on every qubit it
//! touches), to specific qubits, and to measurements (read-out error,
//! applied just before the qubit is read).  The model is *descriptive* —
//! realizing the channels is the simulator's job — so circuits stay exact
//! and a single circuit can be swept over many error rates.
//!
//! # Examples
//!
//! ```
//! use circuit::{NoiseChannel, NoiseModel, Qubit};
//!
//! let model = NoiseModel::new()
//!     .with_gate_noise(NoiseChannel::depolarizing(0.01))
//!     .with_qubit_noise(Qubit(2), NoiseChannel::amplitude_damping(0.05))
//!     .with_measurement_noise(NoiseChannel::bit_flip(0.02));
//! assert!(model.has_noise());
//! assert!(model.validate_for(3).is_ok());
//! ```

use crate::{OneQubitGate, Qubit};
use std::fmt;

/// A single-qubit noise channel, parameterized by its error strength.
///
/// The first three channels are *Pauli channels*: every Kraus operator is a
/// scaled Pauli, so the stochastic realization applies a Pauli error with a
/// state-independent probability.  [`AmplitudeDamping`]
/// (NoiseChannel::AmplitudeDamping) is non-unital: its branch probabilities
/// depend on the state (a qubit in `|0>` never decays), so the trajectory
/// engine draws its branch from the measured-one probability, like a
/// generalized measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseChannel {
    /// With probability `probability`, apply `X` (a classical bit flip).
    BitFlip {
        /// The flip probability, in `[0, 1]`.
        probability: f64,
    },
    /// With probability `probability`, apply `Z` (a phase flip).
    PhaseFlip {
        /// The flip probability, in `[0, 1]`.
        probability: f64,
    },
    /// With probability `probability`, replace the qubit by the maximally
    /// mixed state: `rho -> (1-p) rho + p I/2`, realized as applying each of
    /// `I`, `X`, `Y`, `Z` with probability `p/4` (so `p = 1` is the fully
    /// depolarizing channel and any marginal becomes uniform).
    Depolarizing {
        /// The depolarization probability, in `[0, 1]`.
        probability: f64,
    },
    /// Amplitude damping (energy relaxation, `T1` decay) with decay
    /// probability `gamma`: Kraus operators `K0 = diag(1, sqrt(1-gamma))`
    /// and `K1 = sqrt(gamma) |0><1|`.
    AmplitudeDamping {
        /// The decay probability of the `|1>` population, in `[0, 1]`.
        gamma: f64,
    },
}

impl NoiseChannel {
    /// The bit-flip channel: `X` with probability `p`.
    #[must_use]
    pub fn bit_flip(p: f64) -> Self {
        NoiseChannel::BitFlip { probability: p }
    }

    /// The phase-flip channel: `Z` with probability `p`.
    #[must_use]
    pub fn phase_flip(p: f64) -> Self {
        NoiseChannel::PhaseFlip { probability: p }
    }

    /// The depolarizing channel: the maximally mixed state with
    /// probability `p`.
    #[must_use]
    pub fn depolarizing(p: f64) -> Self {
        NoiseChannel::Depolarizing { probability: p }
    }

    /// The amplitude-damping channel with decay probability `gamma`.
    #[must_use]
    pub fn amplitude_damping(gamma: f64) -> Self {
        NoiseChannel::AmplitudeDamping { gamma }
    }

    /// The channel's error-strength parameter (`p` or `gamma`).
    #[must_use]
    pub fn parameter(&self) -> f64 {
        match *self {
            NoiseChannel::BitFlip { probability }
            | NoiseChannel::PhaseFlip { probability }
            | NoiseChannel::Depolarizing { probability } => probability,
            NoiseChannel::AmplitudeDamping { gamma } => gamma,
        }
    }

    /// Returns `true` for a channel that never produces an error
    /// (`parameter == 0`): trivial channels are dropped at planning time, so
    /// a zero-strength noise model is bit-identical to the noiseless run.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.parameter() == 0.0
    }

    /// Returns `true` if the branch probabilities do not depend on the
    /// quantum state (every channel except amplitude damping).
    #[must_use]
    pub fn is_state_independent(&self) -> bool {
        !matches!(self, NoiseChannel::AmplitudeDamping { .. })
    }

    /// The number of Kraus branches of the stochastic realization (branch 0
    /// is always "no error").
    #[must_use]
    pub fn branch_count(&self) -> usize {
        match self {
            NoiseChannel::Depolarizing { .. } => 4,
            _ => 2,
        }
    }

    /// The branch probabilities of a state-*independent* channel, padded to
    /// four entries (branch 0 first).  Amplitude damping has no fixed
    /// distribution — its branch is drawn from the state's measured-one
    /// probability — so it returns `None`.
    #[must_use]
    pub fn branch_probabilities(&self) -> Option<[f64; 4]> {
        match *self {
            NoiseChannel::BitFlip { probability } | NoiseChannel::PhaseFlip { probability } => {
                Some([1.0 - probability, probability, 0.0, 0.0])
            }
            NoiseChannel::Depolarizing { probability } => {
                let q = probability / 4.0;
                Some([1.0 - 3.0 * q, q, q, q])
            }
            NoiseChannel::AmplitudeDamping { .. } => None,
        }
    }

    /// The Pauli applied by error branch `branch` of a state-independent
    /// channel (`None` for branch 0, the identity).
    ///
    /// # Panics
    ///
    /// Panics for amplitude damping (whose branches are not unitary) or a
    /// branch index outside [`branch_count`](Self::branch_count).
    #[must_use]
    pub fn branch_gate(&self, branch: u8) -> Option<OneQubitGate> {
        assert!(
            usize::from(branch) < self.branch_count(),
            "channel {self} has no branch {branch}"
        );
        match (self, branch) {
            (_, 0) => None,
            (NoiseChannel::BitFlip { .. }, 1) => Some(OneQubitGate::X),
            (NoiseChannel::PhaseFlip { .. }, 1) => Some(OneQubitGate::Z),
            (NoiseChannel::Depolarizing { .. }, 1) => Some(OneQubitGate::X),
            (NoiseChannel::Depolarizing { .. }, 2) => Some(OneQubitGate::Y),
            (NoiseChannel::Depolarizing { .. }, 3) => Some(OneQubitGate::Z),
            _ => panic!("channel {self} has no unitary branch {branch}"),
        }
    }

    /// Checks that the channel parameter is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseModelError::InvalidParameter`] when the parameter is
    /// not a finite number in `[0, 1]`.
    pub fn validate(&self) -> Result<(), NoiseModelError> {
        let p = self.parameter();
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(())
        } else {
            Err(NoiseModelError::InvalidParameter {
                channel: *self,
                value: p,
            })
        }
    }

    /// The lowercase mnemonic of the channel family.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            NoiseChannel::BitFlip { .. } => "bit_flip",
            NoiseChannel::PhaseFlip { .. } => "phase_flip",
            NoiseChannel::Depolarizing { .. } => "depolarizing",
            NoiseChannel::AmplitudeDamping { .. } => "amplitude_damping",
        }
    }
}

impl fmt::Display for NoiseChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name(), self.parameter())
    }
}

/// Error returned when a [`NoiseModel`] is malformed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseModelError {
    /// A channel parameter is not a probability.
    InvalidParameter {
        /// The offending channel.
        channel: NoiseChannel,
        /// The out-of-range parameter value.
        value: f64,
    },
    /// A qubit-specific channel references a qubit outside the circuit.
    QubitOutOfRange {
        /// The out-of-range qubit.
        qubit: Qubit,
        /// Number of qubits in the circuit the model was checked against.
        num_qubits: u16,
    },
}

impl fmt::Display for NoiseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseModelError::InvalidParameter { channel, value } => write!(
                f,
                "noise channel {channel} has parameter {value}, which is not a probability in [0, 1]"
            ),
            NoiseModelError::QubitOutOfRange { qubit, num_qubits } => write!(
                f,
                "noise model attaches a channel to {qubit} but the circuit has only {num_qubits} qubits"
            ),
        }
    }
}

impl std::error::Error for NoiseModelError {}

/// A description of where noise channels act in a circuit.
///
/// Three attachment points:
///
/// * **gate noise** — applied after every unitary operation, once per qubit
///   the operation touches (targets *and* controls: a two-qubit gate
///   perturbs both wires);
/// * **qubit noise** — like gate noise, but only on the listed qubit
///   (modelling one bad wire);
/// * **measurement noise** — applied to the measured qubit immediately
///   before each explicit measurement (classical read-out error when the
///   channel is a bit flip).
///
/// Noise attached to a classically-conditioned gate fires only when the gate
/// itself fires (an idle wire is noiseless under gate noise).
///
/// Channel order is deterministic: gate-wide channels first (insertion
/// order), then qubit-specific channels (insertion order), which is what
/// makes noisy runs seed-reproducible.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoiseModel {
    gate: Vec<NoiseChannel>,
    qubit: Vec<(Qubit, NoiseChannel)>,
    measurement: Vec<NoiseChannel>,
}

impl NoiseModel {
    /// Creates an empty (noiseless) model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a channel applied after every unitary operation, on every qubit
    /// the operation touches.
    #[must_use]
    pub fn with_gate_noise(mut self, channel: NoiseChannel) -> Self {
        self.gate.push(channel);
        self
    }

    /// Adds a channel applied after every unitary operation touching
    /// `qubit`, on that qubit only.
    #[must_use]
    pub fn with_qubit_noise(mut self, qubit: Qubit, channel: NoiseChannel) -> Self {
        self.qubit.push((qubit, channel));
        self
    }

    /// Adds a channel applied to the measured qubit immediately before every
    /// explicit measurement (read-out error).
    #[must_use]
    pub fn with_measurement_noise(mut self, channel: NoiseChannel) -> Self {
        self.measurement.push(channel);
        self
    }

    /// Returns `true` if the model contains at least one non-trivial
    /// channel, i.e. simulating under it can differ from the ideal circuit.
    #[must_use]
    pub fn has_noise(&self) -> bool {
        self.gate
            .iter()
            .chain(self.qubit.iter().map(|(_, c)| c))
            .chain(self.measurement.iter())
            .any(|c| !c.is_trivial())
    }

    /// Returns `true` if every non-trivial channel is a Pauli channel (bit
    /// flip, phase flip, depolarizing): each noise site then applies a
    /// Pauli drawn from fixed probabilities, which a stabilizer simulation
    /// realizes natively.  A model without noise is trivially Pauli.
    #[must_use]
    pub fn is_pauli(&self) -> bool {
        self.gate
            .iter()
            .chain(self.qubit.iter().map(|(_, c)| c))
            .chain(self.measurement.iter())
            .all(|c| c.is_trivial() || c.is_state_independent())
    }

    /// The channels inserted after a unitary operation, for one touched
    /// `qubit`, in deterministic order; trivial (`p = 0`) channels are
    /// skipped so a zero-strength model inserts no noise sites at all.
    pub fn channels_after_gate(&self, qubit: Qubit) -> impl Iterator<Item = NoiseChannel> + '_ {
        self.gate
            .iter()
            .copied()
            .chain(
                self.qubit
                    .iter()
                    .filter(move |(q, _)| *q == qubit)
                    .map(|(_, c)| *c),
            )
            .filter(|c| !c.is_trivial())
    }

    /// The channels inserted before a measurement of `qubit`, in
    /// deterministic order (trivial channels skipped).
    pub fn channels_before_measurement(
        &self,
        _qubit: Qubit,
    ) -> impl Iterator<Item = NoiseChannel> + '_ {
        self.measurement.iter().copied().filter(|c| !c.is_trivial())
    }

    /// The three channel sections (gate-wide, per-qubit, read-out) in
    /// insertion order, for the fingerprint fold.
    pub(crate) fn sections(&self) -> (&[NoiseChannel], &[(Qubit, NoiseChannel)], &[NoiseChannel]) {
        (&self.gate, &self.qubit, &self.measurement)
    }

    /// Checks every channel parameter and every qubit reference against a
    /// circuit of `num_qubits` qubits.
    ///
    /// # Errors
    ///
    /// Returns the first [`NoiseModelError`] found.
    pub fn validate_for(&self, num_qubits: u16) -> Result<(), NoiseModelError> {
        for channel in self
            .gate
            .iter()
            .chain(self.qubit.iter().map(|(_, c)| c))
            .chain(self.measurement.iter())
        {
            channel.validate()?;
        }
        for &(qubit, _) in &self.qubit {
            if qubit.0 >= num_qubits {
                return Err(NoiseModelError::QubitOutOfRange { qubit, num_qubits });
            }
        }
        Ok(())
    }
}

impl fmt::Display for NoiseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "noise[")?;
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, text: String| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{text}")
        };
        for c in &self.gate {
            item(f, format!("gate: {c}"))?;
        }
        for (q, c) in &self.qubit {
            item(f, format!("{q}: {c}"))?;
        }
        for c in &self.measurement {
            item(f, format!("readout: {c}"))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_parameters_and_triviality() {
        assert_eq!(NoiseChannel::bit_flip(0.25).parameter(), 0.25);
        assert_eq!(NoiseChannel::amplitude_damping(0.5).parameter(), 0.5);
        assert!(NoiseChannel::depolarizing(0.0).is_trivial());
        assert!(!NoiseChannel::phase_flip(0.1).is_trivial());
    }

    #[test]
    fn branch_probabilities_sum_to_one() {
        for channel in [
            NoiseChannel::bit_flip(0.3),
            NoiseChannel::phase_flip(0.7),
            NoiseChannel::depolarizing(0.4),
        ] {
            let probs = channel.branch_probabilities().unwrap();
            let total: f64 = probs.iter().sum();
            assert!((total - 1.0).abs() < 1e-15, "{channel}: {probs:?}");
            assert!(probs.iter().all(|&p| p >= 0.0));
        }
        assert!(NoiseChannel::amplitude_damping(0.2)
            .branch_probabilities()
            .is_none());
        assert!(!NoiseChannel::amplitude_damping(0.2).is_state_independent());
    }

    #[test]
    fn fully_depolarizing_draws_every_pauli_uniformly() {
        let probs = NoiseChannel::depolarizing(1.0)
            .branch_probabilities()
            .unwrap();
        for p in probs {
            assert!((p - 0.25).abs() < 1e-15, "{probs:?}");
        }
    }

    #[test]
    fn branch_gates_match_the_channel_family() {
        assert_eq!(NoiseChannel::bit_flip(0.1).branch_gate(0), None);
        assert_eq!(
            NoiseChannel::bit_flip(0.1).branch_gate(1),
            Some(OneQubitGate::X)
        );
        assert_eq!(
            NoiseChannel::phase_flip(0.1).branch_gate(1),
            Some(OneQubitGate::Z)
        );
        let dep = NoiseChannel::depolarizing(0.1);
        assert_eq!(dep.branch_gate(1), Some(OneQubitGate::X));
        assert_eq!(dep.branch_gate(2), Some(OneQubitGate::Y));
        assert_eq!(dep.branch_gate(3), Some(OneQubitGate::Z));
    }

    #[test]
    #[should_panic(expected = "has no branch")]
    fn out_of_range_branch_panics() {
        let _ = NoiseChannel::bit_flip(0.1).branch_gate(2);
    }

    #[test]
    fn validation_rejects_non_probabilities() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let channel = NoiseChannel::bit_flip(bad);
            assert!(matches!(
                channel.validate(),
                Err(NoiseModelError::InvalidParameter { .. })
            ));
        }
        assert!(NoiseChannel::bit_flip(0.0).validate().is_ok());
        assert!(NoiseChannel::bit_flip(1.0).validate().is_ok());
    }

    #[test]
    fn model_collects_channels_per_site() {
        let model = NoiseModel::new()
            .with_gate_noise(NoiseChannel::depolarizing(0.01))
            .with_qubit_noise(Qubit(1), NoiseChannel::amplitude_damping(0.05))
            .with_measurement_noise(NoiseChannel::bit_flip(0.02));

        let on_q0: Vec<_> = model.channels_after_gate(Qubit(0)).collect();
        assert_eq!(on_q0, vec![NoiseChannel::depolarizing(0.01)]);
        let on_q1: Vec<_> = model.channels_after_gate(Qubit(1)).collect();
        assert_eq!(
            on_q1,
            vec![
                NoiseChannel::depolarizing(0.01),
                NoiseChannel::amplitude_damping(0.05)
            ]
        );
        let readout: Vec<_> = model.channels_before_measurement(Qubit(0)).collect();
        assert_eq!(readout, vec![NoiseChannel::bit_flip(0.02)]);
        assert!(model.has_noise());
    }

    #[test]
    fn trivial_channels_are_dropped_everywhere() {
        let model = NoiseModel::new()
            .with_gate_noise(NoiseChannel::depolarizing(0.0))
            .with_qubit_noise(Qubit(0), NoiseChannel::bit_flip(0.0))
            .with_measurement_noise(NoiseChannel::phase_flip(0.0));
        assert!(!model.has_noise());
        assert_eq!(model.channels_after_gate(Qubit(0)).count(), 0);
        assert_eq!(model.channels_before_measurement(Qubit(0)).count(), 0);
        assert!(!NoiseModel::new().has_noise());
    }

    #[test]
    fn model_validation_checks_parameters_and_qubits() {
        let bad_param = NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(2.0));
        assert!(matches!(
            bad_param.validate_for(2),
            Err(NoiseModelError::InvalidParameter { .. })
        ));

        let bad_qubit = NoiseModel::new().with_qubit_noise(Qubit(5), NoiseChannel::bit_flip(0.1));
        assert!(matches!(
            bad_qubit.validate_for(2),
            Err(NoiseModelError::QubitOutOfRange {
                qubit: Qubit(5),
                num_qubits: 2
            })
        ));
        assert!(bad_qubit.validate_for(6).is_ok());

        let msg = bad_qubit.validate_for(2).unwrap_err().to_string();
        assert!(msg.contains("only 2 qubits"));
    }

    #[test]
    fn display_is_compact() {
        let model = NoiseModel::new()
            .with_gate_noise(NoiseChannel::depolarizing(0.01))
            .with_measurement_noise(NoiseChannel::bit_flip(0.02));
        let text = model.to_string();
        assert!(text.contains("gate: depolarizing(0.01)"));
        assert!(text.contains("readout: bit_flip(0.02)"));
    }
}
