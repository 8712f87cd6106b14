//! Canonical 128-bit fingerprints of circuits and noise models.
//!
//! A fingerprint is the cache key of the artifact layer (the `weaksim`
//! crate's `ArtifactCache`): two requests may share one prepared sampler
//! exactly when their fingerprints agree, so the hash must be *canonical* —
//! derived from the validated IR itself, not from any textual rendering —
//! and *exact* — gate angles enter as `f64` bit patterns
//! ([`f64::to_bits`]), never through rounding or formatting.  Because the
//! QASM writer emits angles with shortest-round-trip precision, a
//! write→parse round trip is a fingerprint fixed point (see the
//! `qasm_fingerprint_roundtrip` integration test).
//!
//! What is hashed: register widths (qubits *and* classical bits — a creg
//! relabelling changes the sampled records), every operation in order with
//! its full field set (gate kind and parameter bits, target, control list,
//! permutation tables, measure/reset wiring, condition values), and for
//! [`NoiseModel::fingerprint`] every channel with its attachment point and
//! parameter bits.  The circuit *name* is deliberately excluded: it is
//! presentation metadata (the adjoint builder derives `{name}_dg`
//! circuits), and renaming a circuit must not evict its artifact.
//!
//! The hash itself is two independent [`mathkit::hash_mix`] lanes folded
//! over the same word stream from distinct initial states — 128 bits, so
//! that accidental collisions are out of reach for any realistic cache
//! population.  A gate enters as its [`OneQubitGate::fingerprint`], the
//! identity the decision-diagram operator memo keys on too.
//!
//! [`OneQubitGate::fingerprint`]: crate::OneQubitGate::fingerprint

use crate::{Circuit, NoiseModel, Operation};
use mathkit::hash_mix;

/// Two independent 64-bit fold lanes over one word stream.
///
/// Lane 1 sees every word XOR-rotated by a constant so the lanes stay
/// decorrelated even though they fold the same stream.
pub(crate) struct FingerprintLanes {
    lanes: [u64; 2],
}

impl FingerprintLanes {
    /// Starts the two lanes from distinct constants mixed with a
    /// domain-separation tag (circuits and noise models must not collide
    /// even on identical word streams).
    pub(crate) fn new(domain: u64) -> Self {
        Self {
            lanes: [
                hash_mix(0x6a09_e667_f3bc_c908, domain),
                hash_mix(0xbb67_ae85_84ca_a73b, domain),
            ],
        }
    }

    /// Folds one word into both lanes.
    pub(crate) fn mix(&mut self, word: u64) {
        self.lanes[0] = hash_mix(self.lanes[0], word);
        self.lanes[1] = hash_mix(self.lanes[1], word ^ 0x9e37_79b9_7f4a_7c15);
    }

    /// The folded 128-bit fingerprint as two words.
    pub(crate) fn finish(self) -> [u64; 2] {
        self.lanes
    }
}

/// Folds one operation (tag byte, then every field) into the lanes.
/// Variable-length fields are length-prefixed so adjacent operations cannot
/// alias across the boundary.
fn mix_operation(fp: &mut FingerprintLanes, op: &Operation) {
    match op {
        Operation::Unitary {
            gate,
            target,
            controls,
        } => {
            fp.mix(1);
            let (kind, params) = gate.fingerprint();
            fp.mix(u64::from(kind));
            for param in params {
                fp.mix(param);
            }
            fp.mix(u64::from(target.0));
            fp.mix(controls.len() as u64);
            for control in controls {
                fp.mix(u64::from(control.0));
            }
        }
        Operation::Swap { a, b, controls } => {
            fp.mix(2);
            fp.mix(u64::from(a.0));
            fp.mix(u64::from(b.0));
            fp.mix(controls.len() as u64);
            for control in controls {
                fp.mix(u64::from(control.0));
            }
        }
        Operation::Permute {
            permutation,
            controls,
        } => {
            fp.mix(3);
            fp.mix(permutation.qubits().len() as u64);
            for qubit in permutation.qubits() {
                fp.mix(u64::from(qubit.0));
            }
            for &image in permutation.mapping() {
                fp.mix(image);
            }
            fp.mix(controls.len() as u64);
            for control in controls {
                fp.mix(u64::from(control.0));
            }
        }
        Operation::Measure { qubit, cbit } => {
            fp.mix(4);
            fp.mix(u64::from(qubit.0));
            fp.mix(u64::from(*cbit));
        }
        Operation::Reset { qubit } => {
            fp.mix(5);
            fp.mix(u64::from(qubit.0));
        }
        Operation::Conditioned { condition, op } => {
            fp.mix(6);
            fp.mix(condition.value);
            mix_operation(fp, op);
        }
    }
}

impl Circuit {
    /// The canonical 128-bit fingerprint of this circuit.
    ///
    /// Covers the register widths (qubits and classical bits) and every
    /// operation in order with all of its fields; gate angles enter as
    /// `f64` *bit patterns*, so two circuits fingerprint equal exactly when
    /// they are operationally identical down to the last bit.  The circuit
    /// [`name`](Self::name) is excluded — it is presentation metadata, and
    /// derived names (such as the adjoint's `_dg`) must not change cache
    /// identity.
    ///
    /// Used by the `weaksim` artifact cache as (part of) its key; the
    /// `fingerprint` module docs in the source spell out the full contract.
    ///
    /// # Examples
    ///
    /// ```
    /// use circuit::{Circuit, Qubit};
    ///
    /// let mut a = Circuit::new(2);
    /// a.h(Qubit(0)).cx(Qubit(0), Qubit(1));
    /// let mut b = Circuit::with_name(2, "same ops, other name");
    /// b.h(Qubit(0)).cx(Qubit(0), Qubit(1));
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    ///
    /// let mut c = Circuit::new(2);
    /// c.h(Qubit(0)).cx(Qubit(1), Qubit(0)); // swapped wires
    /// assert_ne!(a.fingerprint(), c.fingerprint());
    /// ```
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 2] {
        let mut fp = FingerprintLanes::new(u64::from_le_bytes(*b"CIRCUIT\0"));
        fp.mix(u64::from(self.num_qubits()));
        fp.mix(u64::from(self.num_clbits()));
        fp.mix(self.operations().len() as u64);
        for op in self.operations() {
            mix_operation(&mut fp, op);
        }
        fp.finish()
    }
}

impl NoiseModel {
    /// The canonical 128-bit fingerprint of this noise model: every channel
    /// with its attachment point (gate-wide, per-qubit with the qubit
    /// index, or read-out) and its parameter as an `f64` bit pattern, in
    /// insertion order — the order is part of the model's semantics (it
    /// fixes the per-shot realization sequence), so it is part of the key.
    ///
    /// Combined with [`Circuit::fingerprint`] by the `weaksim` artifact
    /// cache so that noisy and noiseless requests for one circuit never
    /// share an artifact.
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 2] {
        fn mix_channel(fp: &mut FingerprintLanes, channel: crate::NoiseChannel) {
            use crate::NoiseChannel as C;
            let discriminant: u64 = match channel {
                C::BitFlip { .. } => 0,
                C::PhaseFlip { .. } => 1,
                C::Depolarizing { .. } => 2,
                C::AmplitudeDamping { .. } => 3,
            };
            fp.mix(discriminant);
            fp.mix(channel.parameter().to_bits());
        }

        let mut fp = FingerprintLanes::new(u64::from_le_bytes(*b"NOISEMD\0"));
        let (gate, qubit, measurement) = self.sections();
        fp.mix(gate.len() as u64);
        for &channel in gate {
            mix_channel(&mut fp, channel);
        }
        fp.mix(qubit.len() as u64);
        for &(q, channel) in qubit {
            fp.mix(u64::from(q.0));
            mix_channel(&mut fp, channel);
        }
        fp.mix(measurement.len() as u64);
        for &channel in measurement {
            mix_channel(&mut fp, channel);
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Circuit, NoiseChannel, NoiseModel, OneQubitGate, Qubit};
    use mathkit::Angle;

    #[test]
    fn name_is_excluded_but_registers_and_ops_are_covered() {
        let mut a = Circuit::with_name(3, "alpha");
        a.h(Qubit(0)).cx(Qubit(0), Qubit(1));
        let mut b = Circuit::with_name(3, "beta");
        b.h(Qubit(0)).cx(Qubit(0), Qubit(1));
        assert_eq!(a.fingerprint(), b.fingerprint());

        // One more qubit, same ops: different key.
        let mut wider = Circuit::new(4);
        wider.h(Qubit(0)).cx(Qubit(0), Qubit(1));
        assert_ne!(a.fingerprint(), wider.fingerprint());

        // A wider classical register relabels the records: different key.
        let mut creg = a.clone();
        creg.set_num_clbits(5);
        assert_ne!(a.fingerprint(), creg.fingerprint());
    }

    #[test]
    fn operation_order_and_roles_matter() {
        let mut hx = Circuit::new(2);
        hx.h(Qubit(0)).x(Qubit(1));
        let mut xh = Circuit::new(2);
        xh.x(Qubit(1)).h(Qubit(0));
        assert_ne!(hx.fingerprint(), xh.fingerprint());

        // Control and target are not interchangeable.
        let mut cx = Circuit::new(2);
        cx.cx(Qubit(0), Qubit(1));
        let mut xc = Circuit::new(2);
        xc.cx(Qubit(1), Qubit(0));
        assert_ne!(cx.fingerprint(), xc.fingerprint());
    }

    #[test]
    fn a_single_angle_bit_flip_changes_the_fingerprint() {
        let theta = 0.731_f64;
        let flipped = f64::from_bits(theta.to_bits() ^ 1);
        let mut a = Circuit::new(1);
        a.gate(OneQubitGate::Rz(Angle::Radians(theta)), Qubit(0));
        let mut b = Circuit::new(1);
        b.gate(OneQubitGate::Rz(Angle::Radians(flipped)), Qubit(0));
        assert_ne!(a.fingerprint(), b.fingerprint());

        // Symbolic and radian forms of the *same* value agree: the key is
        // the bit pattern of the angle, not the Angle representation.
        let mut sym = Circuit::new(1);
        sym.gate(OneQubitGate::Rz(Angle::pi_over(2)), Qubit(0));
        let mut num = Circuit::new(1);
        num.gate(
            OneQubitGate::Rz(Angle::Radians(std::f64::consts::FRAC_PI_2)),
            Qubit(0),
        );
        assert_eq!(sym.fingerprint(), num.fingerprint());
    }

    #[test]
    fn dynamic_operations_are_covered() {
        let mut base = Circuit::new(2);
        base.h(Qubit(0)).measure(Qubit(0), 0);
        let mut other_cbit = Circuit::new(2);
        other_cbit.h(Qubit(0)).measure(Qubit(0), 1);
        assert_ne!(base.fingerprint(), other_cbit.fingerprint());

        let mut cond_a = Circuit::new(2);
        cond_a
            .h(Qubit(0))
            .measure(Qubit(0), 0)
            .conditioned_gate(1, OneQubitGate::X, Qubit(1));
        let mut cond_b = Circuit::new(2);
        cond_b
            .h(Qubit(0))
            .measure(Qubit(0), 0)
            .conditioned_gate(0, OneQubitGate::X, Qubit(1));
        assert_ne!(cond_a.fingerprint(), cond_b.fingerprint());

        let mut reset = Circuit::new(2);
        reset.h(Qubit(0)).reset(Qubit(0));
        let mut reset_other = Circuit::new(2);
        reset_other.h(Qubit(0)).reset(Qubit(1));
        assert_ne!(reset.fingerprint(), reset_other.fingerprint());
    }

    #[test]
    fn noise_model_fingerprints_cover_sections_and_parameters() {
        let empty = NoiseModel::new();
        let gate = NoiseModel::new().with_gate_noise(NoiseChannel::depolarizing(0.01));
        assert_ne!(empty.fingerprint(), gate.fingerprint());

        // Same parameter, different channel family.
        let flip = NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(0.01));
        assert_ne!(gate.fingerprint(), flip.fingerprint());

        // Same channel, different attachment point.
        let readout = NoiseModel::new().with_measurement_noise(NoiseChannel::depolarizing(0.01));
        assert_ne!(gate.fingerprint(), readout.fingerprint());

        // Same channel, different qubit.
        let q0 = NoiseModel::new().with_qubit_noise(Qubit(0), NoiseChannel::bit_flip(0.1));
        let q1 = NoiseModel::new().with_qubit_noise(Qubit(1), NoiseChannel::bit_flip(0.1));
        assert_ne!(q0.fingerprint(), q1.fingerprint());

        // Parameter bit patterns are exact.
        let a = NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(0.1));
        let b = NoiseModel::new()
            .with_gate_noise(NoiseChannel::bit_flip(f64::from_bits(0.1f64.to_bits() ^ 1)));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn lanes_are_decorrelated() {
        // A fingerprint whose two lanes always agreed would be a 64-bit
        // hash in disguise; check a simple circuit produces distinct lanes.
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cx(Qubit(0), Qubit(1));
        let [lo, hi] = c.fingerprint();
        assert_ne!(lo, hi);
    }
}
