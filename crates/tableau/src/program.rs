//! Sign programs: Clifford trajectories compiled into XOR masks over the
//! stabilizer signs (see the crate docs' sign-program section).

use crate::apply::{lower, Lowered, TableauError};
use crate::sample::{parity, xor};
use crate::state::{Pauli, Tableau};
use crate::MeasurementSampler;
use circuit::{Condition, Operation};
use rand::RngCore;

/// What a measurement does to the stabilizer signs, with owned masks (the
/// compiler moves them into the program's mask arena).
enum Measured {
    /// A random outcome: stabilizer `pivot` anticommutes with `Z_q`.
    Random {
        pivot: usize,
        /// The other stabilizers anticommuting with `Z_q`: each absorbs the
        /// pivot row, so each flips when the pivot's sign is set.
        anti: Vec<u64>,
        /// The signs the row products produce on their own.
        constant: Vec<u64>,
    },
    /// A deterministic outcome: the parity of the `parity` signs, XOR
    /// `constant`.
    Fixed { parity: Vec<u64>, constant: bool },
}

/// Measures `q` on a structure tableau whose signs are all clear, forcing
/// a random outcome to 0, and returns the sign masks of the measurement.
/// The signs are clear again afterwards.
fn measure_structure(tab: &mut Tableau, q: usize) -> Measured {
    let n = tab.num_qubits();
    let words = tab.words_per_row();
    match tab.anticommuting_stabilizer(q) {
        Some(row) => {
            let pivot = row - n;
            let mut anti = vec![0; words];
            tab.x_column(q, true, &mut anti);
            anti[pivot / 64] &= !(1 << (pivot % 64));
            tab.collapse(q, row, false);
            let mut constant = vec![0; words];
            tab.take_stabilizer_signs(&mut constant);
            Measured::Random {
                pivot,
                anti,
                constant,
            }
        }
        None => {
            // The outcome is the sign of the product of the stabilizers
            // paired with the destabilizers that anticommute with `Z_q`.
            let mut parity = vec![0; words];
            tab.x_column(q, false, &mut parity);
            let constant = tab.reconstruct_deterministic(q);
            Measured::Fixed { parity, constant }
        }
    }
}

/// A compiled measure or reset.  Masks are indices into the mask arena.
#[derive(Debug, Clone, Copy)]
enum Collapse {
    Random {
        pivot: usize,
        anti: usize,
        constant: usize,
    },
    Fixed {
        parity: usize,
        constant: bool,
    },
}

/// One program step.  Masks are indices into the mask arena.
#[derive(Debug, Clone)]
enum Step {
    /// A unitary segment: one mask for the unconditioned gates (`None` when
    /// they change no sign), plus one per conditioned Pauli.
    Segment {
        mask: Option<usize>,
        guarded: Vec<(Condition, usize)>,
    },
    /// A measurement, or a reset (`flip` is the `X` applied on outcome 1).
    Collapse {
        collapse: Collapse,
        flip: Option<usize>,
    },
    /// A Pauli noise site: the masks of `X`, `Y` and `Z`.
    PauliSite { flips: [usize; 3] },
}

/// The terminal full-register read-out of a [`MeasurementSampler`], with
/// its reference element as a function of the shot's signs.  The
/// sampler's elimination multiplies stabilizer rows together (the sign of
/// a product is the XOR of its factors' signs plus a constant that depends
/// on the X/Z bits alone), then solves and reduces over GF(2), so each
/// reference bit is a fixed parity of the signs, XOR its bit for
/// all-clear signs.
#[derive(Debug, Clone)]
struct FinalRead {
    /// The sampler of the final structure; its reference element is the
    /// one for all-clear signs.
    sampler: MeasurementSampler,
    /// `(qubit, mask)`: the qubit's reference bit flips when the parity of
    /// the masked signs is odd.  Qubits whose bit does not depend on the
    /// signs are left out.
    parities: Vec<(usize, usize)>,
}

/// A Clifford trajectory compiled into XOR masks over the `n` stabilizer
/// signs: the per-shot half of a stabilizer simulation.
///
/// Built by a [`SignCompiler`]; steps are numbered in the order they were
/// compiled, and a shot replays them in that order on its own sign vector
/// of [`sign_words`](Self::sign_words) words (all clear at the start).
/// Each step costs a few word XORs, whatever the circuit depth or the
/// number of generators a gate touches.
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Qubit};
/// use tableau::SignCompiler;
///
/// // A Bell pair, then both qubits measured.
/// let mut bell = Circuit::new(2);
/// bell.h(Qubit(0)).cx(Qubit(0), Qubit(1));
/// let mut compiler = SignCompiler::new(2);
/// let prepare = compiler.segment(bell.operations())?;
/// let first = compiler.measure(0);
/// let second = compiler.measure(1);
/// let program = compiler.finish(false);
///
/// let mut signs = vec![0; program.sign_words()];
/// program.apply_segment(prepare, &mut signs, 0);
/// assert_eq!(program.outcome(first, &signs), None, "a fair coin");
/// program.collapse(first, &mut signs, true);
/// // The second qubit now copies the first.
/// assert_eq!(program.outcome(second, &signs), Some(true));
/// # Ok::<(), tableau::TableauError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SignProgram {
    num_qubits: usize,
    /// Words per sign vector and per mask: `ceil(n / 64)`.
    words: usize,
    /// Mask arena: mask `i` is `masks[i * words..(i + 1) * words]`.
    masks: Vec<u64>,
    steps: Vec<Step>,
    final_read: Option<FinalRead>,
}

impl SignProgram {
    /// The register width.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Words of a sign vector: `ceil(n / 64)`.
    #[must_use]
    pub fn sign_words(&self) -> usize {
        self.words
    }

    fn mask(&self, id: usize) -> &[u64] {
        &self.masks[id * self.words..(id + 1) * self.words]
    }

    /// Applies segment `step` to `signs`, firing each conditioned Pauli
    /// whose condition `record` satisfies.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not a segment.
    pub fn apply_segment(&self, step: usize, signs: &mut [u64], record: u64) {
        let Step::Segment { mask, guarded } = &self.steps[step] else {
            panic!("step {step} is not a segment");
        };
        if let Some(mask) = *mask {
            xor(signs, self.mask(mask));
        }
        for &(condition, mask) in guarded {
            if condition.is_satisfied_by(record) {
                xor(signs, self.mask(mask));
            }
        }
    }

    /// The outcome of measure/reset `step` under `signs` when it is
    /// deterministic, `None` when it is a fair coin.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not a measurement or reset.
    #[must_use]
    pub fn outcome(&self, step: usize, signs: &[u64]) -> Option<bool> {
        match &self.steps[step] {
            Step::Collapse {
                collapse:
                    Collapse::Fixed {
                        parity: mask,
                        constant,
                    },
                ..
            } => Some(parity(signs, self.mask(*mask)) ^ constant),
            Step::Collapse { .. } => None,
            _ => panic!("step {step} is not a measurement"),
        }
    }

    /// Collapses measure/reset `step` onto `outcome` (which must be the
    /// deterministic outcome when there is one); a reset then flips the
    /// qubit back to `|0>`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not a measurement or reset.
    pub fn collapse(&self, step: usize, signs: &mut [u64], outcome: bool) {
        let Step::Collapse { collapse, flip } = &self.steps[step] else {
            panic!("step {step} is not a measurement");
        };
        if let Collapse::Random {
            pivot,
            anti,
            constant,
        } = *collapse
        {
            let (w, b) = (pivot / 64, pivot % 64);
            let pivot_sign = signs[w] >> b & 1 == 1;
            xor(signs, self.mask(constant));
            if pivot_sign {
                xor(signs, self.mask(anti));
            }
            // The pivot stabilizer becomes (-1)^outcome Z_q.
            signs[w] = signs[w] & !(1 << b) | u64::from(outcome) << b;
        }
        if let (true, Some(flip)) = (outcome, *flip) {
            xor(signs, self.mask(flip));
        }
    }

    /// Applies `pauli` at noise site `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not a Pauli noise site.
    pub fn apply_pauli(&self, step: usize, signs: &mut [u64], pauli: Pauli) {
        let Step::PauliSite { flips } = &self.steps[step] else {
            panic!("step {step} is not a noise site");
        };
        let mask = match pauli {
            Pauli::I => return,
            Pauli::X => flips[0],
            Pauli::Y => flips[1],
            Pauli::Z => flips[2],
        };
        xor(signs, self.mask(mask));
    }

    /// Draws one terminal full-register shot under `signs` into `out`
    /// (`ceil(n / 64)` packed words) — bit-identical, for the same `rng`
    /// state, to [`Tableau::measurement_sampler`] on the tableau the shot
    /// has reached.
    ///
    /// # Panics
    ///
    /// Panics if the program was compiled without a final read-out or
    /// `out` has the wrong width.
    pub fn sample_final<R: RngCore + ?Sized>(&self, signs: &[u64], out: &mut [u64], rng: &mut R) {
        let Some(read) = &self.final_read else {
            panic!("the program was compiled without a final read-out");
        };
        out.copy_from_slice(read.sampler.reference());
        for &(q, mask) in &read.parities {
            if parity(signs, self.mask(mask)) {
                out[q / 64] ^= 1 << (q % 64);
            }
        }
        read.sampler.draw_into(out, rng);
    }
}

/// Compiles a Clifford trajectory into a [`SignProgram`], one step at a
/// time, on a structure-only tableau.
///
/// Each method appends one step and returns its index.  Because the X/Z
/// bits evolve identically on every shot, the compiler evolves them once,
/// and each step records only how the step changes the signs.  The
/// unitary segments go through [`lower`], like every other use of the
/// tableau.
#[derive(Debug)]
pub struct SignCompiler {
    /// The structure tableau; its signs are clear between steps.
    tab: Tableau,
    program: SignProgram,
}

impl SignCompiler {
    /// Starts a program on `|0...0>` over `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    #[must_use]
    pub fn new(num_qubits: usize) -> Self {
        let tab = Tableau::zero_state(num_qubits);
        let words = tab.words_per_row();
        Self {
            tab,
            program: SignProgram {
                num_qubits,
                words,
                masks: Vec::new(),
                steps: Vec::new(),
                final_read: None,
            },
        }
    }

    fn push_mask(&mut self, mask: &[u64]) -> usize {
        let id = self.program.masks.len() / self.program.words;
        self.program.masks.extend_from_slice(mask);
        id
    }

    fn push_step(&mut self, step: Step) -> usize {
        self.program.steps.push(step);
        self.program.steps.len() - 1
    }

    /// Compiles a unitary segment.  Conditioned Paulis become guarded
    /// masks, resolved against the shot's record when the segment runs.
    ///
    /// # Errors
    ///
    /// [`TableauError::NotClifford`] / [`TableauError::QubitOutOfRange`]
    /// from [`lower`], and [`TableauError::NotSignCompilable`] for a
    /// conditioned operation that is not a Pauli or a measurement or reset
    /// (those are [`measure`](Self::measure) / [`reset`](Self::reset)
    /// steps).  Error indices count from the start of `ops`.
    pub fn segment(&mut self, ops: &[Operation]) -> Result<usize, TableauError> {
        let words = self.program.words;
        let mut guarded = Vec::new();
        let mut flips = vec![0; words];
        for (op_index, op) in ops.iter().enumerate() {
            let not_compilable = || TableauError::NotSignCompilable {
                op_index,
                op: op.to_string(),
            };
            match lower(op, op_index, self.program.num_qubits)? {
                Lowered::Gates(gates) => {
                    for gate in gates {
                        self.tab.apply_gate(gate);
                    }
                }
                Lowered::Conditioned { condition, op } => {
                    let paulis = op.pauli_gates().ok_or_else(not_compilable)?;
                    let mut mask = vec![0; words];
                    for (q, pauli) in paulis {
                        self.tab.pauli_flips(q, pauli, &mut flips);
                        xor(&mut mask, &flips);
                    }
                    if mask.iter().any(|&w| w != 0) {
                        guarded.push((condition, self.push_mask(&mask)));
                    }
                }
                Lowered::Measure { .. } | Lowered::Reset { .. } => return Err(not_compilable()),
            }
        }
        let mut mask = vec![0; words];
        self.tab.take_stabilizer_signs(&mut mask);
        let mask = mask.iter().any(|&w| w != 0).then(|| self.push_mask(&mask));
        Ok(self.push_step(Step::Segment { mask, guarded }))
    }

    fn collapse(&mut self, qubit: usize) -> Collapse {
        match measure_structure(&mut self.tab, qubit) {
            Measured::Random {
                pivot,
                anti,
                constant,
            } => Collapse::Random {
                pivot,
                anti: self.push_mask(&anti),
                constant: self.push_mask(&constant),
            },
            Measured::Fixed { parity, constant } => Collapse::Fixed {
                parity: self.push_mask(&parity),
                constant,
            },
        }
    }

    /// Compiles a computational-basis measurement of `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn measure(&mut self, qubit: usize) -> usize {
        let collapse = self.collapse(qubit);
        self.push_step(Step::Collapse {
            collapse,
            flip: None,
        })
    }

    /// Compiles a reset of `qubit`: a measurement, then an `X` on outcome 1.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn reset(&mut self, qubit: usize) -> usize {
        let collapse = self.collapse(qubit);
        let mut flip = vec![0; self.program.words];
        self.tab.pauli_flips(qubit, Pauli::X, &mut flip);
        let flip = Some(self.push_mask(&flip));
        self.push_step(Step::Collapse { collapse, flip })
    }

    /// Compiles a Pauli noise site on `qubit`: whichever of `X`, `Y`, `Z`
    /// a shot draws becomes one mask XOR.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn pauli_site(&mut self, qubit: usize) -> usize {
        let mut mask = vec![0; self.program.words];
        let mut flips = [0; 3];
        for (slot, pauli) in flips.iter_mut().zip([Pauli::X, Pauli::Y, Pauli::Z]) {
            self.tab.pauli_flips(qubit, pauli, &mut mask);
            *slot = self.push_mask(&mask);
        }
        self.push_step(Step::PauliSite { flips })
    }

    /// Finishes the program.  With `final_read`, the program also carries
    /// the terminal full-register sampler of the final structure
    /// ([`SignProgram::sample_final`]).
    #[must_use]
    pub fn finish(mut self, final_read: bool) -> SignProgram {
        if final_read {
            // The signs are clear, so this sampler's reference element is
            // the one for all-clear signs.
            let (sampler, parities) = MeasurementSampler::with_sign_parities(&self.tab);
            let parities = parities
                .into_iter()
                .map(|(q, mask)| (q, self.push_mask(&mask)))
                .collect();
            self.program.final_read = Some(FinalRead { sampler, parities });
        }
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::set_bits;
    use circuit::{Circuit, OneQubitGate, Qubit};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One measure/reset of a compiled circuit: the segment step before
    /// it, its own step, and the operation.
    type Event = (usize, usize, Operation);

    /// Compiles `circuit` with every measure/reset as its own step; returns
    /// the program, the events and the tail segment step.
    fn compile(circuit: &Circuit) -> (SignProgram, Vec<Event>, usize) {
        let mut compiler = SignCompiler::new(usize::from(circuit.num_qubits()));
        let mut events = Vec::new();
        let mut segment = Vec::new();
        for op in circuit.operations() {
            match op {
                Operation::Measure { qubit, .. } | Operation::Reset { qubit } => {
                    let seg = compiler.segment(&segment).unwrap();
                    segment.clear();
                    let step = if matches!(op, Operation::Measure { .. }) {
                        compiler.measure(qubit.index())
                    } else {
                        compiler.reset(qubit.index())
                    };
                    events.push((seg, step, op.clone()));
                }
                other => segment.push(other.clone()),
            }
        }
        let tail = compiler.segment(&segment).unwrap();
        (compiler.finish(true), events, tail)
    }

    /// Replays random outcomes on the program and on a full tableau and
    /// checks that every outcome and the final read-out agree.
    fn check_against_tableau(circuit: &Circuit, seed: u64) {
        let n = usize::from(circuit.num_qubits());
        let (program, events, tail) = compile(circuit);
        let mut rng = SmallRng::seed_from_u64(seed);
        for shot in 0..64 {
            let mut tab = Tableau::zero_state(n);
            let mut signs = vec![0; program.sign_words()];
            let mut next_op = 0;
            for (seg, step, event) in &events {
                while circuit.operations()[next_op] != *event {
                    apply_operation_unchecked(&mut tab, &circuit.operations()[next_op]);
                    next_op += 1;
                }
                next_op += 1;
                program.apply_segment(*seg, &mut signs, 0);
                let qubit = event.targets()[0].index();
                let expected = tab.deterministic_outcome(qubit);
                assert_eq!(program.outcome(*step, &signs), expected, "shot {shot}");
                let outcome = expected.unwrap_or(rng.next_u64() & 1 == 1);
                let reset = matches!(event, Operation::Reset { .. });
                if tab.measure_forced(qubit, outcome) && reset {
                    tab.x(qubit);
                }
                program.collapse(*step, &mut signs, outcome);
            }
            for op in &circuit.operations()[next_op..] {
                apply_operation_unchecked(&mut tab, op);
            }
            program.apply_segment(tail, &mut signs, 0);
            let mut out = vec![0; program.sign_words()];
            let (mut a, mut b) = (SmallRng::seed_from_u64(shot), SmallRng::seed_from_u64(shot));
            program.sample_final(&signs, &mut out, &mut a);
            assert_eq!(
                out,
                tab.measurement_sampler().sample_words(&mut b),
                "shot {shot}"
            );
        }
    }

    fn apply_operation_unchecked(tab: &mut Tableau, op: &Operation) {
        let mut record = 0;
        let mut rng = SmallRng::seed_from_u64(0);
        crate::apply_operation(tab, op, 0, &mut record, &mut rng).unwrap();
    }

    /// The forced-zero CHP sweep the sampler's elimination replaced.
    fn sweep_reference(tab: &Tableau) -> Vec<u64> {
        let mut probe = tab.clone();
        let mut reference = vec![0u64; tab.words_per_row()];
        for q in 0..tab.num_qubits() {
            if probe.measure_forced(q, false) {
                reference[q / 64] |= 1 << (q % 64);
            }
        }
        reference
    }

    /// The X-basis loop the sampler's elimination replaced: each X row
    /// reduced against the earlier basis rows in turn.
    fn reference_basis(tab: &Tableau) -> Vec<Vec<u64>> {
        let mut basis: Vec<Vec<u64>> = Vec::new();
        let mut pivots = Vec::new();
        for i in 0..tab.num_qubits() {
            let mut row = tab.stabilizer_x_row(i).to_vec();
            for (vec, &p) in basis.iter().zip(&pivots) {
                if row[p / 64] >> (p % 64) & 1 == 1 {
                    xor(&mut row, vec);
                }
            }
            let pivot = set_bits(&row).next();
            if let Some(p) = pivot {
                basis.push(row);
                pivots.push(p);
            }
        }
        basis
    }

    /// The read-out parities the sampler's elimination replaced: runs the
    /// forced-zero sweep on `probe` (signs clear) while tracking every
    /// stabilizer sign as a GF(2) combination of the read-out signs.
    /// Qubits whose reference bit does not depend on the signs are omitted.
    fn reference_parities(mut probe: Tableau) -> Vec<(usize, Vec<u64>)> {
        let n = probe.num_qubits();
        let words = probe.words_per_row();
        // Row i: stabilizer sign i as a combination of the read-out signs.
        let mut forms = vec![0u64; n * words];
        for i in 0..n {
            forms[i * words + i / 64] |= 1 << (i % 64);
        }
        let mut parities = Vec::new();
        for q in 0..n {
            match measure_structure(&mut probe, q) {
                Measured::Random { pivot, anti, .. } => {
                    let pivot_form = forms[pivot * words..(pivot + 1) * words].to_vec();
                    for i in set_bits(&anti) {
                        xor(&mut forms[i * words..(i + 1) * words], &pivot_form);
                    }
                    // Forced to outcome 0: a constant.
                    forms[pivot * words..(pivot + 1) * words].fill(0);
                }
                Measured::Fixed { parity, .. } => {
                    let mut form = vec![0; words];
                    for i in set_bits(&parity) {
                        xor(&mut form, &forms[i * words..(i + 1) * words]);
                    }
                    if form.iter().any(|&w| w != 0) {
                        parities.push((q, form));
                    }
                }
            }
        }
        parities
    }

    /// A random stabilizer state: H/S/Sdg/Pauli/CX/CZ gates with
    /// mid-circuit measurements mixed in.
    fn random_tableau(n: usize, rng: &mut SmallRng) -> Tableau {
        let mut tab = Tableau::zero_state(n);
        let measure_rate = rng.gen_range(0..4u32);
        for _ in 0..rng.gen_range(0..=6 * n) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            match rng.gen_range(0..10u32) {
                0 | 1 => tab.h(a),
                2 => tab.s(a),
                3 => tab.sdg(a),
                4 => tab.apply_pauli(a, [Pauli::X, Pauli::Y, Pauli::Z][b % 3]),
                5 if measure_rate > 0 && rng.gen_range(0..4u32) < measure_rate => {
                    tab.measure(a, rng);
                }
                6 | 7 if a != b => tab.cx(a, b),
                8 | 9 if a != b => tab.cz(a, b),
                _ => {}
            }
        }
        tab
    }

    /// Checks the elimination against the sweep: the same reference and
    /// basis under random signs, and the same read-out parities (with the
    /// same all-clear reference) once the signs are cleared.
    fn assert_elimination_matches_the_sweep(mut tab: Tableau, rng: &mut SmallRng, label: &str) {
        for q in 0..tab.num_qubits() {
            tab.apply_pauli(
                q,
                [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..4usize)],
            );
        }
        let sampler = tab.measurement_sampler();
        assert_eq!(sampler.reference(), sweep_reference(&tab), "{label}");
        assert_eq!(sampler.basis(), reference_basis(&tab), "{label}");

        let mut signs = vec![0; tab.words_per_row()];
        tab.take_stabilizer_signs(&mut signs);
        let (sampler, parities) = MeasurementSampler::with_sign_parities(&tab);
        assert_eq!(sampler.reference(), sweep_reference(&tab), "{label}");
        assert_eq!(parities, reference_parities(tab), "{label}");
    }

    #[test]
    fn elimination_reproduces_the_forced_measurement_sweep() {
        let mut rng = SmallRng::seed_from_u64(0x5ee9);
        for n in [1, 2, 3, 5, 9, 31, 63, 64, 65, 100, 129, 200] {
            let tableaux = if n <= 65 { 24 } else { 6 };
            for case in 0..tableaux {
                let tab = random_tableau(n, &mut rng);
                assert_elimination_matches_the_sweep(tab, &mut rng, &format!("n={n} #{case}"));
            }
        }
        for n in [250, 500, 1000] {
            let mut ghz = Tableau::zero_state(n);
            ghz.h(0);
            for q in 1..n {
                ghz.cx(q - 1, q);
            }
            assert_elimination_matches_the_sweep(ghz, &mut rng, &format!("ghz_{n}"));
        }
    }

    #[test]
    fn programs_replay_the_tableau() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0))
            .cx(Qubit(0), Qubit(1))
            .s(Qubit(1))
            .measure(Qubit(0), 0)
            .h(Qubit(2))
            .cz(Qubit(2), Qubit(3))
            .reset(Qubit(2))
            .h(Qubit(1))
            .measure(Qubit(1), 1)
            .y(Qubit(3))
            .swap(Qubit(0), Qubit(3))
            .gate(OneQubitGate::Sdg, Qubit(3))
            .h(Qubit(3))
            .cx(Qubit(3), Qubit(2))
            .reset(Qubit(0));
        check_against_tableau(&c, 1);
    }

    #[test]
    fn programs_cross_word_boundaries() {
        // 70 qubits: two sign words, entangled across the boundary.
        let mut c = Circuit::new(70);
        c.h(Qubit(0));
        for q in 1..70 {
            c.cx(Qubit(q - 1), Qubit(q));
        }
        c.measure(Qubit(65), 0)
            .reset(Qubit(3))
            .h(Qubit(69))
            .s(Qubit(69));
        c.measure(Qubit(69), 1).h(Qubit(64)).cz(Qubit(64), Qubit(1));
        check_against_tableau(&c, 2);
    }

    #[test]
    fn pauli_sites_and_guarded_paulis_flip_outcomes() {
        // |+> measured: a Z site before an H flips the deterministic
        // outcome of the |0> it becomes.
        let mut compiler = SignCompiler::new(1);
        let mut h = Circuit::new(1);
        h.h(Qubit(0));
        let first = compiler.segment(h.operations()).unwrap();
        let site = compiler.pauli_site(0);
        let mut guarded = Circuit::new(1);
        guarded
            .conditioned_gate(1, OneQubitGate::Rz(mathkit::Angle::pi_over(1)), Qubit(0))
            .h(Qubit(0));
        let second = compiler.segment(guarded.operations()).unwrap();
        let measure = compiler.measure(0);
        let program = compiler.finish(false);
        for (pauli, record, expected) in [
            (Pauli::I, 0, false),
            (Pauli::Z, 0, true),
            (Pauli::Y, 0, true),
            (Pauli::X, 0, false),
            // The guarded Rz(pi) is a Z before the H: an X flip after it.
            (Pauli::I, 1, true),
            (Pauli::Z, 1, false),
        ] {
            let mut signs = vec![0; 1];
            program.apply_segment(first, &mut signs, record);
            program.apply_pauli(site, &mut signs, pauli);
            program.apply_segment(second, &mut signs, record);
            assert_eq!(
                program.outcome(measure, &signs),
                Some(expected),
                "{pauli:?} at record {record}"
            );
        }
    }

    #[test]
    fn structure_changing_conditions_do_not_compile() {
        let mut c = Circuit::new(2);
        c.conditioned_gate(1, OneQubitGate::H, Qubit(0));
        let mut compiler = SignCompiler::new(2);
        assert!(matches!(
            compiler.segment(c.operations()),
            Err(TableauError::NotSignCompilable { op_index: 0, .. })
        ));
        let mut m = Circuit::new(2);
        m.x(Qubit(1)).measure(Qubit(0), 0);
        assert!(matches!(
            compiler.segment(m.operations()),
            Err(TableauError::NotSignCompilable { op_index: 1, .. })
        ));
    }
}
