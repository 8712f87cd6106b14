//! Per-shot trajectory simulation of *dynamic* circuits — circuits with
//! mid-circuit [`Operation::Measure`] / [`Operation::Reset`] operations,
//! whose state evolution depends on sampled outcomes — optionally under a
//! stochastic [`NoiseModel`] (noisy-hardware emulation).
//!
//! # How a trajectory runs
//!
//! The circuit is split once into *segments* of unitary operations separated
//! by non-unitary *events*: measurements, resets and — when a noise model is
//! attached — stochastic noise sites.  Each shot then walks the event list:
//! at every event the engine draws a *decision* with the shot's RNG (the
//! measured bit, or the Kraus branch of a noise channel), applies the
//! decision to the state (collapse, Pauli error, amplitude decay), and
//! applies the next unitary segment.  Measurement outcomes are recorded into
//! the classical register; circuits without any [`Operation::Measure`]
//! report a terminal measurement of every qubit instead, exactly like
//! static circuits.
//!
//! Classically-conditioned gates ([`Operation::Conditioned`], QASM
//! `if (c==k) gate;`) live *inside* the unitary segments: when a segment is
//! applied, each conditioned gate fires only if the shot's classical record
//! currently equals the compared value.  Conditioned *measurements* and
//! *resets* (`if (c==k) measure/reset`) are events carrying the guard: when
//! the guard is unsatisfied the event records the dedicated `SKIPPED`
//! decision — no RNG draw, no collapse — which is itself a deterministic
//! function of the outcome prefix, so both forms slot into the caching
//! below unchanged.
//!
//! # Noise insertion
//!
//! A [`NoiseModel`] attaches single-qubit channels to gate sites (after
//! every unitary operation, per touched qubit), to specific qubits, and to
//! read-outs (before each measurement).  The trajectory plan expands those
//! attachment points into explicit `EventKind::Noise` events.  Pauli
//! channels (bit flip, phase flip, depolarizing) draw their branch from
//! fixed probabilities; amplitude damping draws its decay branch from
//! `gamma * P(qubit = 1)` like a generalized measurement, decays via
//! collapse-and-flip and keeps via the `K0 = diag(1, sqrt(1-gamma))`
//! primitive of each backend.  Channels with zero strength insert no events
//! at all, so a `p = 0` model is **bit-identical** to the noiseless run.
//! Noise attached to a conditioned gate inherits the gate's guard: an idle
//! wire is noiseless.
//!
//! # Sharing work across shots (the decision-diagram backend)
//!
//! The reachable trajectories form a tree keyed by the per-shot **decision
//! sequence** — measurement outcomes and noise-branch choices interleaved in
//! plan order (plus the `SKIPPED` marker for guarded events that did not
//! fire).  The decision-diagram runner caches, per visited decision prefix,
//! the evolved [`StateDd`], the outcome masses of the next event, and — for
//! the terminal read-out — a [`CompiledSampler`] compiled from the leaf
//! state.  A shot that follows an already-visited prefix therefore does
//! **no** decision-diagram arithmetic at all: it is a sequence of
//! cached-probability draws followed by one compiled-arena sample walk.
//! Only the suffix behind a first-visited decision is simulated (and
//! compiled) anew, which is what keeps repeated sampling cheap: the
//! expensive work per distinct trajectory happens once, not once per shot.
//! Keying on the full decision sequence (not just measurement outcomes) is
//! what keeps the cache sound under noise: two shots reaching the same node
//! have made identical noise choices, so they hold identical states.  The
//! cache is capped at [`TRAJECTORY_CACHE_CAP`] prefixes; once the cap is
//! reached, the remainder of such a trajectory falls back to transient
//! (per-shot) evolution.
//!
//! The dense statevector runner keeps the shared unitary prefix (everything
//! before the first event) as a base state and re-evolves a clone of it per
//! shot, collapsing, damping and renormalizing in place.
//!
//! The stabilizer tableau runner is chosen by the Clifford router for
//! fully-Clifford circuits, noiseless or under Pauli noise, whose tableau
//! structure does not depend on the classical record.  It compiles the plan
//! once into a [`SignProgram`]: Clifford gates, Pauli errors and collapses
//! onto a drawn outcome change the tableau's X/Z bits identically on every
//! shot, so only the stabilizer signs are per-shot state, and every event is
//! a fixed XOR on them.  A shot then copies the base signs and XORs a few
//! masks per event; its outcome probabilities are 0, 1 or 1/2, drawn by the
//! same loop as every other engine, so it is bit-identical to stepping a
//! full tableau per shot.
//!
//! # Determinism
//!
//! Shots are partitioned into fixed chunks of
//! [`PARALLEL_CHUNK_SHOTS`] trajectories, and
//! chunk `i` draws all its randomness — measurement outcomes *and* noise
//! choices — from a dedicated [`SmallRng`] stream seeded with
//! [`dd::chunk_stream_seed`]`(master_seed, i)` — the exact scheme of
//! [`CompiledSampler::sample_many_parallel`](dd::CompiledSampler).  Worker
//! threads only decide *which* chunks they run (round-robin), never what a
//! chunk contains, and every decision probability is a deterministic
//! function of the decision prefix, so the recorded classical bits are
//! **bit-identical for a given master seed regardless of the thread count**
//! — noisy histograms included.
//!
//! One caveat bounds that guarantee: each worker owns a private
//! [`DdPackage`], and the package's complex-value table unifies values
//! within its tolerance (`1e-10`) to the first-inserted representative.  If
//! a circuit produces two *distinct* amplitudes closer than the tolerance
//! along different decision prefixes, workers that discover those prefixes
//! in different orders can canonicalize to different representatives,
//! shifting a branch probability by up to ~`1e-10` — and a uniform draw
//! landing inside that sliver would record the opposite bit.  For circuits
//! whose distinct amplitudes are separated by more than the tolerance
//! (every workload in this repository), the bit-exact guarantee holds.
//!
//! # Governance and interruption
//!
//! Runs launched through [`WeakSimulator`] with a limited [`Governor`] are
//! governed end to end.  The run arms it once and hands every worker a
//! clone with the same deadline.  Every worker package checks its node/byte
//! budget at allocation sites and the deadline/token at amortized
//! checkpoints, and every worker — including the statevector and tableau
//! runners, whose per-shot arithmetic is otherwise ungoverned — probes the
//! deadline and the cancellation token at chunk boundaries.  An interrupted run is *not* an
//! error: the merged histogram keeps every completed shot and
//! [`RunOutcome::interruption`] carries the typed reason, so callers
//! can distinguish "finished", "out of budget after N shots" and
//! "cancelled after N shots" without losing the work already done.

use crate::backend::TrajectoryRunner;
use crate::govern::Interruption;
use crate::router::{EngineKind, RunRoute};
use crate::simulator::{Backend, RunError, RunOutcome, WeakSimulator};
use crate::ShotHistogram;
use circuit::{Circuit, Condition, NoiseChannel, NoiseModel, Operation, Qubit};
use dd::{
    chunk_stream_seed, CompiledSampler, DdError, DdPackage, DdStats, Governor, StateDd, VectorEdge,
    PARALLEL_CHUNK_SHOTS,
};
use mathkit::FxHashMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use statevector::StateVector;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tableau::{Pauli, SignCompiler, SignProgram};

/// Maximum number of decision prefixes the decision-diagram runner caches
/// (states, outcome masses and compiled leaf samplers).  Trajectories beyond
/// the cap are evolved transiently per shot.
pub const TRAJECTORY_CACHE_CAP: usize = 4096;

/// Allocated-node threshold above which a trajectory runner garbage-collects
/// its package between shots, keeping only the cached prefix states alive.
const GC_NODE_THRESHOLD: usize = 500_000;

/// The decision recorded when a guarded event's condition was unsatisfied:
/// the event did not fire, so no RNG draw was consumed and the state passed
/// through unchanged.  Sits one past the widest real branch fan-out
/// (depolarizing: branches 0..=3).
const SKIPPED: u8 = 4;

/// Number of decision slots per cached prefix node: up to four Kraus
/// branches plus [`SKIPPED`].
const MAX_DECISIONS: usize = 5;

/// What a non-unitary event does to the state.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Measure `qubit` into classical bit `cbit`.
    Measure { qubit: Qubit, cbit: u16 },
    /// Reset `qubit` to `|0>`.
    Reset { qubit: Qubit },
    /// A stochastic noise site: realize one Kraus branch of `channel` on
    /// `qubit`.
    Noise { qubit: Qubit, channel: NoiseChannel },
}

impl EventKind {
    fn qubit(self) -> Qubit {
        match self {
            EventKind::Measure { qubit, .. }
            | EventKind::Reset { qubit }
            | EventKind::Noise { qubit, .. } => qubit,
        }
    }

    /// Whether drawing this event's decision needs `P(qubit = 1)` (and
    /// therefore, on the decision-diagram backend, the projected branch
    /// masses).  Pauli noise draws from fixed probabilities instead.
    fn needs_state_probability(self) -> bool {
        match self {
            EventKind::Measure { .. } | EventKind::Reset { .. } => true,
            EventKind::Noise { channel, .. } => !channel.is_state_independent(),
        }
    }
}

/// A non-unitary event splitting two unitary segments, optionally guarded by
/// a classical condition (`if (c==k) measure/reset;`, or noise inherited
/// from a conditioned gate site).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    kind: EventKind,
    condition: Option<Condition>,
    /// Precomputed cumulative error-branch thresholds of a state-independent
    /// channel: branch `i` (1-based) fires when `r < thresholds[i - 1]` and
    /// no earlier threshold matched; branch 0 otherwise.  `None` when the
    /// draw depends on the state (measure, reset, amplitude damping).
    ///
    /// Precomputing this at planning time keeps the per-shot hot loop free
    /// of the channel match and probability summation — the draw is three
    /// float compares.
    thresholds: Option<[f64; 3]>,
}

impl Event {
    fn new(kind: EventKind, condition: Option<Condition>) -> Self {
        let thresholds = match kind {
            // The running sums replicate the former per-draw accumulation
            // bit-for-bit, so recorded histograms are unchanged.
            EventKind::Noise { channel, .. } => channel.branch_probabilities().map(|p| {
                let t1 = p[1];
                let t2 = t1 + p[2];
                let t3 = t2 + p[3];
                [t1, t2, t3]
            }),
            _ => None,
        };
        Self {
            kind,
            condition,
            thresholds,
        }
    }

    /// Whether the event fires under the shot's current classical record.
    fn fires(&self, record: u64) -> bool {
        self.condition.is_none_or(|c| c.is_satisfied_by(record))
    }
}

/// Writes `bit` into position `cbit` of a classical record, overwriting any
/// earlier value of that bit (shared by both runners and the terminal
/// relabelling in the simulator front end).
pub(crate) fn record_bit(record: u64, cbit: u16, bit: u8) -> u64 {
    (record & !(1u64 << cbit)) | (u64::from(bit) << cbit)
}

/// The uncontrolled X used to flip a qubit back to `|0>` after a reset (or
/// an amplitude-damping decay) collapsed it to `|1>` (the measure-and-flip
/// decomposition, shared by both runners).
fn x_flip(qubit: Qubit) -> Operation {
    Operation::Unitary {
        gate: circuit::OneQubitGate::X,
        target: qubit,
        controls: Vec::new(),
    }
}

/// The uncontrolled Pauli error applied by a noise branch.
fn pauli_error(gate: circuit::OneQubitGate, qubit: Qubit) -> Operation {
    Operation::Unitary {
        gate,
        target: qubit,
        controls: Vec::new(),
    }
}

/// Resolves what a segment entry applies under the shot's current classical
/// record: a classically-conditioned operation fires only when the record
/// equals the compared value, everything else fires unconditionally.
///
/// The record is a deterministic function of the decision prefix (each
/// firing `Measure` event writes its drawn bit), so on the decision-diagram
/// path a cached prefix node always resolves its conditions the same way —
/// caching evolved states per prefix stays sound with feed-forward in the
/// segments.
fn effective_op(op: &Operation, record: u64) -> Option<&Operation> {
    match op {
        Operation::Conditioned { condition, op } => {
            condition.is_satisfied_by(record).then(|| op.as_ref())
        }
        other => Some(other),
    }
}

/// Draws the decision index for a *firing* event: the measured bit for
/// measure/reset events, the Kraus-branch index for noise events.  `p_one`
/// is `P(qubit = 1)` of the event's qubit, consulted only by the
/// state-dependent draws (measure, reset, amplitude damping) — callers pass
/// any value for Pauli noise, which never reads it.
///
/// Error branches occupy the *low* end of the unit interval, mirroring the
/// `r < p_one` convention of measurement draws, so the mapping from uniform
/// variates to decisions is identical on both backends.  State-independent
/// channels draw against the thresholds precomputed in [`Event::new`] —
/// three float compares, no per-shot probability summation.
fn draw_decision(event: Event, p_one: f64, rng: &mut SmallRng) -> u8 {
    if let Some(t) = event.thresholds {
        let r = rng.gen::<f64>();
        return if r < t[0] {
            1
        } else if r < t[1] {
            2
        } else if r < t[2] {
            3
        } else {
            0
        };
    }
    match event.kind {
        EventKind::Measure { .. } | EventKind::Reset { .. } => u8::from(rng.gen::<f64>() < p_one),
        // State-dependent channel: amplitude damping decays with
        // probability gamma * P(qubit = 1).
        EventKind::Noise { channel, .. } => {
            let NoiseChannel::AmplitudeDamping { gamma } = channel else {
                unreachable!("only amplitude damping is state-dependent")
            };
            u8::from(rng.gen::<f64>() < gamma * p_one)
        }
    }
}

/// What a shot reports into the histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordSource {
    /// The classical register written by `Measure` events.
    Classical,
    /// A terminal measurement of every qubit (no `Measure` in the circuit).
    FinalMeasurement,
}

/// The segmented form of a dynamic circuit, shared by every runner.
#[derive(Debug)]
pub(crate) struct TrajectoryPlan {
    num_qubits: u16,
    /// Bit width of the per-shot record.
    record_width: u16,
    record: RecordSource,
    /// `events.len() + 1` unitary segments; `segments[i]` precedes
    /// `events[i]`, the last segment is the tail after the final event.
    segments: Vec<Vec<Operation>>,
    events: Vec<Event>,
}

impl TrajectoryPlan {
    fn new(circuit: &Circuit, noise: Option<&NoiseModel>) -> Self {
        let mut segments = vec![Vec::new()];
        let mut events = Vec::new();
        fn push_event(events: &mut Vec<Event>, segments: &mut Vec<Vec<Operation>>, e: Event) {
            events.push(e);
            segments.push(Vec::new());
        }
        for op in circuit.operations() {
            // A conditioned measure/reset is an event carrying the guard; a
            // conditioned gate stays in the segment (resolved at application
            // time) and its noise sites inherit the guard.
            let (condition, inner) = match op {
                Operation::Conditioned { condition, op } => (Some(*condition), op.as_ref()),
                other => (None, other),
            };
            match inner {
                Operation::Measure { qubit, cbit } => {
                    if let Some(noise) = noise {
                        for channel in noise.channels_before_measurement(*qubit) {
                            push_event(
                                &mut events,
                                &mut segments,
                                Event::new(
                                    EventKind::Noise {
                                        qubit: *qubit,
                                        channel,
                                    },
                                    condition,
                                ),
                            );
                        }
                    }
                    push_event(
                        &mut events,
                        &mut segments,
                        Event::new(
                            EventKind::Measure {
                                qubit: *qubit,
                                cbit: *cbit,
                            },
                            condition,
                        ),
                    );
                }
                Operation::Reset { qubit } => {
                    push_event(
                        &mut events,
                        &mut segments,
                        Event::new(EventKind::Reset { qubit: *qubit }, condition),
                    );
                }
                // Unitary gates, including classically-conditioned ones
                // (resolved against the record at application time).
                _gate => {
                    // Infallible: `segments` starts with one element and
                    // only ever grows.
                    #[allow(clippy::expect_used)]
                    segments
                        .last_mut()
                        .expect("segments is never empty")
                        .push(op.clone());
                    if let Some(noise) = noise {
                        for qubit in inner.support() {
                            for channel in noise.channels_after_gate(qubit) {
                                push_event(
                                    &mut events,
                                    &mut segments,
                                    Event::new(EventKind::Noise { qubit, channel }, condition),
                                );
                            }
                        }
                    }
                }
            }
        }
        let record = if circuit.has_measurements() {
            RecordSource::Classical
        } else {
            RecordSource::FinalMeasurement
        };
        Self {
            num_qubits: circuit.num_qubits(),
            record_width: match record {
                RecordSource::Classical => circuit.num_clbits(),
                RecordSource::FinalMeasurement => circuit.num_qubits(),
            },
            record,
            segments,
            events,
        }
    }

    /// Whether the unitary tail after the last event can affect the record.
    /// Classical records are fixed once the last event has fired, so the
    /// tail segment is skipped entirely.
    fn tail_matters(&self) -> bool {
        self.record == RecordSource::FinalMeasurement
    }
}

/// Runs one trajectory through `runner` — the single shot loop shared by
/// every engine: walk the event list, draw a decision per firing event
/// (consulting the runner for `P(qubit = 1)` where the draw is
/// state-dependent), record measured bits into the classical record, advance
/// the runner past the event, and read out the terminal record.  Returns the
/// shot's record — or the governed failure that interrupted it (budget,
/// deadline, cancellation).  A failed shot records nothing; the runner
/// remains usable.
fn run_shot(
    runner: &mut dyn TrajectoryRunner,
    plan: &TrajectoryPlan,
    rng: &mut SmallRng,
) -> Result<u64, DdError> {
    runner.begin_shot();
    let mut record = 0u64;
    for (k, &event) in plan.events.iter().enumerate() {
        let decision = if event.fires(record) {
            let p_one = if event.kind.needs_state_probability() {
                runner.p_one(k, event.kind.qubit())?
            } else {
                0.0
            };
            draw_decision(event, p_one, rng)
        } else {
            SKIPPED
        };
        if let EventKind::Measure { cbit, .. } = event.kind {
            if decision != SKIPPED {
                record = record_bit(record, cbit, decision);
            }
        }

        // A classical record is complete once the last event's bit is drawn:
        // skip the collapse (and any caching) whose result nobody reads.
        if k + 1 == plan.events.len() && !plan.tail_matters() {
            break;
        }
        runner.advance(k, event, decision, record)?;
    }
    match plan.record {
        RecordSource::Classical => Ok(record),
        RecordSource::FinalMeasurement => runner.terminal_sample(rng),
    }
}

/// A cached decision-prefix node of the decision-diagram trajectory tree.
#[derive(Debug)]
struct CacheNode {
    /// State after consuming the prefix and applying the following segment.
    state: StateDd,
    /// Projected masses of the next event's qubit, filled on first use by
    /// events that draw from the state (measure, reset, amplitude damping).
    masses: Option<[f64; 2]>,
    /// Cache ids of the child reached by each decision (the measured bit,
    /// the Kraus branch, or [`SKIPPED`]).
    children: [Option<u32>; MAX_DECISIONS],
    /// Compiled terminal sampler (leaves under `FinalMeasurement` only).
    sampler: Option<CompiledSampler>,
}

impl CacheNode {
    fn new(state: StateDd) -> Self {
        Self {
            state,
            masses: None,
            children: [None; MAX_DECISIONS],
            sampler: None,
        }
    }
}

/// The decision-diagram trajectory runner.
pub(crate) struct DdRunner<'p> {
    plan: &'p TrajectoryPlan,
    package: DdPackage,
    nodes: Vec<CacheNode>,
    /// Cache node tracking the current shot's decision prefix; `None` once
    /// the shot has fallen off the cache.
    at: Option<u32>,
    /// The current shot's evolved state.
    state: StateDd,
    /// Compiled samplers for *off-cache* (transient) leaves, keyed by the
    /// leaf state's root edge.  Compilation is deterministic, so memoizing
    /// only changes cost, never sampled values — without it every off-cache
    /// shot would pay a full `O(node count)` compilation for one sample.
    /// Cleared on garbage collection (node ids are remapped) and when it
    /// reaches [`TRAJECTORY_CACHE_CAP`] entries.
    transient_samplers: FxHashMap<VectorEdge, CompiledSampler>,
    peak_nodes: usize,
}

impl<'p> DdRunner<'p> {
    /// Builds the worker's package (under `governor`) and the shared prefix
    /// state.  Fails when the governor interrupts the prefix construction —
    /// before any shot has run.
    pub(crate) fn new(plan: &'p TrajectoryPlan, governor: Governor) -> Result<Self, DdError> {
        let mut package = DdPackage::new();
        package.set_governor(governor);
        let mut state = StateDd::zero_state(&mut package, plan.num_qubits)?;
        // The classical record is all-zeros before the first event, so
        // conditions in the shared leading segment resolve against 0.
        for op in plan.segments[0].iter().filter_map(|op| effective_op(op, 0)) {
            state = dd::apply_operation(&mut package, state, op)?;
        }
        let peak_nodes = state.node_count(&package);
        Ok(Self {
            plan,
            package,
            nodes: vec![CacheNode::new(state)],
            at: Some(0),
            state,
            transient_samplers: FxHashMap::default(),
            peak_nodes,
        })
    }

    /// The projected masses of `qubit` at the current position — cached on
    /// the prefix node when the shot is on-cache, recomputed otherwise.
    fn masses(
        &mut self,
        at: Option<u32>,
        state: &StateDd,
        qubit: Qubit,
    ) -> Result<[f64; 2], DdError> {
        match at {
            Some(id) => {
                let id = id as usize;
                if let Some(m) = self.nodes[id].masses {
                    return Ok(m);
                }
                let m = dd::branch_masses(&mut self.package, state, qubit)?;
                self.nodes[id].masses = Some(m);
                Ok(m)
            }
            None => dd::branch_masses(&mut self.package, state, qubit),
        }
    }

    /// Evolves past `event` with the drawn `decision`: collapse / error /
    /// decay (nothing for [`SKIPPED`]), then apply the unitary segment that
    /// follows, resolving classical conditions against `record` (the
    /// classical register *after* this event's bit, if any, was written).
    /// (For classical records the caller breaks out before the final event's
    /// evolution, so the irrelevant tail segment is never applied.)
    fn evolve(
        &mut self,
        state: &StateDd,
        event: Event,
        decision: u8,
        next_segment: usize,
        record: u64,
    ) -> Result<StateDd, DdError> {
        let mut next = if decision == SKIPPED {
            *state
        } else {
            match event.kind {
                EventKind::Measure { qubit, .. } => {
                    dd::collapse_qubit(&mut self.package, state, qubit, decision)?
                }
                EventKind::Reset { qubit } => {
                    let mut collapsed =
                        dd::collapse_qubit(&mut self.package, state, qubit, decision)?;
                    if decision == 1 {
                        collapsed =
                            dd::apply_operation(&mut self.package, collapsed, &x_flip(qubit))?;
                    }
                    collapsed
                }
                EventKind::Noise { qubit, channel } => match channel {
                    NoiseChannel::AmplitudeDamping { gamma } => {
                        if decision == 0 {
                            dd::amplitude_damp_keep(&mut self.package, state, qubit, gamma)?
                        } else {
                            // Decay: collapse to |1>, then flip to |0> —
                            // K1 = sqrt(gamma) |0><1| up to normalization.
                            let collapsed = dd::collapse_qubit(&mut self.package, state, qubit, 1)?;
                            dd::apply_operation(&mut self.package, collapsed, &x_flip(qubit))?
                        }
                    }
                    _ => match channel.branch_gate(decision) {
                        None => *state,
                        Some(gate) => dd::apply_operation(
                            &mut self.package,
                            *state,
                            &pauli_error(gate, qubit),
                        )?,
                    },
                },
            }
        };
        for op in self.plan.segments[next_segment]
            .iter()
            .filter_map(|op| effective_op(op, record))
        {
            next = dd::apply_operation(&mut self.package, next, op)?;
        }
        Ok(next)
    }
}

impl TrajectoryRunner for DdRunner<'_> {
    fn begin_shot(&mut self) {
        self.at = Some(0);
        self.state = self.nodes[0].state;
    }

    fn p_one(&mut self, _k: usize, qubit: Qubit) -> Result<f64, DdError> {
        let state = self.state;
        let masses = self.masses(self.at, &state, qubit)?;
        let total = masses[0] + masses[1];
        assert!(total > 0.0, "trajectory reached a zero-mass state");
        Ok(masses[1] / total)
    }

    fn advance(
        &mut self,
        k: usize,
        event: Event,
        decision: u8,
        record: u64,
    ) -> Result<(), DdError> {
        let cached_child = self
            .at
            .and_then(|id| self.nodes[id as usize].children[decision as usize]);
        match cached_child {
            Some(child) => {
                self.state = self.nodes[child as usize].state;
                self.at = Some(child);
            }
            None => {
                let state = self.state;
                let next = self.evolve(&state, event, decision, k + 1, record)?;
                if let Some(parent) = self.at {
                    if self.nodes.len() < TRAJECTORY_CACHE_CAP {
                        // Infallible: the cache is capped at
                        // TRAJECTORY_CACHE_CAP (4096) entries.
                        #[allow(clippy::expect_used)]
                        let id = u32::try_from(self.nodes.len()).expect("cache cap fits in u32");
                        self.peak_nodes = self.peak_nodes.max(next.node_count(&self.package));
                        self.nodes.push(CacheNode::new(next));
                        self.nodes[parent as usize].children[decision as usize] = Some(id);
                        self.at = Some(id);
                    } else {
                        self.at = None;
                    }
                }
                self.state = next;
            }
        }
        Ok(())
    }

    fn terminal_sample(&mut self, rng: &mut SmallRng) -> Result<u64, DdError> {
        match self.at {
            Some(id) => {
                let id = id as usize;
                if let Some(sampler) = &self.nodes[id].sampler {
                    return Ok(sampler.sample(rng));
                }
                let sampler = CompiledSampler::new(&self.package, &self.state)?;
                let sample = sampler.sample(rng);
                self.nodes[id].sampler = Some(sampler);
                Ok(sample)
            }
            None => {
                let root = self.state.root();
                if !self.transient_samplers.contains_key(&root) {
                    if self.transient_samplers.len() >= TRAJECTORY_CACHE_CAP {
                        self.transient_samplers.clear();
                    }
                    let sampler = CompiledSampler::new(&self.package, &self.state)?;
                    self.transient_samplers.insert(root, sampler);
                }
                Ok(self.transient_samplers[&root].sample(rng))
            }
        }
    }

    fn end_of_chunk(&mut self) {
        // Transient (off-cache) trajectory states accumulate garbage in the
        // arena; sweep it while only the cached prefix states are alive.
        if self.package.allocated_vector_nodes() <= GC_NODE_THRESHOLD {
            return;
        }
        let roots: Vec<_> = self.nodes.iter().map(|n| n.state.root()).collect();
        let remapped = self.package.collect_garbage(&roots);
        for (node, root) in self.nodes.iter_mut().zip(remapped) {
            node.state = StateDd::from_root(root, node.state.num_qubits());
        }
        // Node ids were remapped, so the root-edge keys of the transient
        // sampler memo no longer identify the same states.
        self.transient_samplers.clear();
    }

    fn representation_size(&self) -> u128 {
        self.peak_nodes as u128
    }

    fn dd_stats(&self) -> Option<DdStats> {
        Some(self.package.stats())
    }
}

/// The dense statevector trajectory runner.
pub(crate) struct SvRunner<'p> {
    plan: &'p TrajectoryPlan,
    /// The shared unitary prefix (`segments[0]`) applied to `|0...0>`.
    base: StateVector,
    /// `base`'s squared norm, computed once: the first state-dependent event
    /// of every shot normalizes its outcome probabilities by it, and each
    /// collapse or damping renormalizes to exactly 1, so no per-event
    /// `O(2^n)` norm sweep is needed.
    base_norm_sqr: f64,
    /// The per-shot working state, reset from `base` at the start of every
    /// shot — one persistent allocation instead of a fresh `2^n` vector per
    /// trajectory.
    scratch: StateVector,
    /// `scratch`'s squared norm (drops to exactly 1 after the first collapse
    /// or damping of a shot).
    norm_sqr: f64,
}

impl<'p> SvRunner<'p> {
    pub(crate) fn new(plan: &'p TrajectoryPlan) -> Self {
        let mut base = StateVector::zero_state(plan.num_qubits);
        // Conditions in the shared leading segment resolve against the
        // all-zeros classical record, same as the DD runner.
        for op in plan.segments[0].iter().filter_map(|op| effective_op(op, 0)) {
            statevector::apply_operation(&mut base, op);
        }
        let base_norm_sqr = base.norm_sqr();
        let scratch = base.clone();
        Self {
            plan,
            base,
            base_norm_sqr,
            scratch,
            norm_sqr: base_norm_sqr,
        }
    }
}

/// Draws one terminal full-register sample by a linear scan of the
/// amplitudes (thresholded against the state's actual norm, so drifted
/// norms do not bias the draw).
fn sample_state_once(state: &StateVector, rng: &mut SmallRng) -> u64 {
    let threshold = rng.gen::<f64>() * state.norm_sqr();
    let mut running = 0.0;
    // The threshold uses the compensated norm while the scan accumulates
    // naively, so rounding can leave `running` below the threshold after
    // the full sweep; fall back to the last *possible* outcome, never to a
    // zero-amplitude index.
    let mut last_nonzero = 0u64;
    for (i, amp) in state.amplitudes().iter().enumerate() {
        let p = amp.norm_sqr();
        if p > 0.0 {
            last_nonzero = i as u64;
        }
        running += p;
        if running > threshold {
            return i as u64;
        }
    }
    last_nonzero
}

impl TrajectoryRunner for SvRunner<'_> {
    // Dense evolution is infallible (memory is pre-checked up front);
    // deadline and cancellation are honoured at chunk boundaries instead.
    fn begin_shot(&mut self) {
        self.scratch.copy_from(&self.base);
        self.norm_sqr = self.base_norm_sqr;
    }

    fn p_one(&mut self, _k: usize, qubit: Qubit) -> Result<f64, DdError> {
        Ok(self.scratch.marginal_one_probability(qubit.0) / self.norm_sqr)
    }

    fn advance(
        &mut self,
        k: usize,
        event: Event,
        decision: u8,
        record: u64,
    ) -> Result<(), DdError> {
        let qubit = event.kind.qubit().0;
        if decision != SKIPPED {
            match event.kind {
                EventKind::Measure { .. } => {
                    self.scratch.collapse_qubit(qubit, decision);
                    self.norm_sqr = 1.0;
                }
                EventKind::Reset { .. } => {
                    self.scratch.collapse_qubit(qubit, decision);
                    self.norm_sqr = 1.0;
                    if decision == 1 {
                        statevector::apply_operation(
                            &mut self.scratch,
                            &x_flip(event.kind.qubit()),
                        );
                    }
                }
                EventKind::Noise { channel, .. } => match channel {
                    NoiseChannel::AmplitudeDamping { gamma } => {
                        if decision == 0 {
                            self.scratch.damp_qubit_keep(qubit, gamma);
                        } else {
                            self.scratch.collapse_qubit(qubit, 1);
                            statevector::apply_operation(
                                &mut self.scratch,
                                &x_flip(event.kind.qubit()),
                            );
                        }
                        self.norm_sqr = 1.0;
                    }
                    _ => {
                        if let Some(gate) = channel.branch_gate(decision) {
                            statevector::apply_operation(
                                &mut self.scratch,
                                &pauli_error(gate, event.kind.qubit()),
                            );
                        }
                    }
                },
            }
        }
        for op in self.plan.segments[k + 1]
            .iter()
            .filter_map(|op| effective_op(op, record))
        {
            statevector::apply_operation(&mut self.scratch, op);
        }
        Ok(())
    }

    fn terminal_sample(&mut self, rng: &mut SmallRng) -> Result<u64, DdError> {
        Ok(sample_state_once(&self.scratch, rng))
    }

    fn representation_size(&self) -> u128 {
        self.base.len() as u128
    }
}

/// The stabilizer-tableau trajectory runner: replays a [`SignProgram`]
/// compiled from the plan.
///
/// The router sends it fully-Clifford circuits whose tableau structure does
/// not depend on the classical record, noiseless or under Pauli noise.
/// Their X/Z bits then evolve identically on every shot, so the runner
/// compiles them once and each shot only XORs sign masks: a unitary
/// segment, a Pauli error or a collapse is a few word operations, a
/// measurement's outcome is fixed or a fair coin, and the terminal read-out
/// is the fixed [`MeasurementSampler`](tableau::MeasurementSampler) basis
/// around a reference element computed from the signs.  Plan segment `k` is
/// program step `2k` and event `k` is step `2k + 1`.
pub(crate) struct TableauRunner {
    program: SignProgram,
    /// The signs after the shared unitary prefix (`segments[0]`).
    base: Vec<u64>,
    /// The current shot's signs.
    signs: Vec<u64>,
    /// Terminal read-out buffer.
    out: Vec<u64>,
}

impl TableauRunner {
    pub(crate) fn new(plan: &TrajectoryPlan) -> Self {
        // Infallible: the router only picks the tableau after lowering every
        // operation and checking that no condition guards a structure
        // change, and its noise is Pauli-only.
        #[allow(clippy::expect_used)]
        let program = compile_sign_program(plan).expect("the router dry-ran the plan's operations");
        let mut base = vec![0; program.sign_words()];
        // Conditions in the shared leading segment resolve against the
        // all-zeros classical record, same as the dense runners.
        program.apply_segment(0, &mut base, 0);
        Self {
            signs: base.clone(),
            out: vec![0; program.sign_words()],
            base,
            program,
        }
    }
}

/// Walks `plan` once on a structure-only tableau, compiling segment `k` to
/// step `2k` and event `k` to step `2k + 1`.
fn compile_sign_program(plan: &TrajectoryPlan) -> Result<SignProgram, tableau::TableauError> {
    let mut compiler = SignCompiler::new(usize::from(plan.num_qubits).max(1));
    compiler.segment(&plan.segments[0])?;
    for (event, segment) in plan.events.iter().zip(&plan.segments[1..]) {
        // The router declines what would make the structure shot-dependent
        // (a guarded measure or reset) and non-Pauli noise.
        assert!(
            match event.kind {
                EventKind::Noise { channel, .. } => channel.is_state_independent(),
                _ => event.condition.is_none(),
            },
            "the router sends the tableau no guarded collapse and only Pauli noise"
        );
        match event.kind {
            EventKind::Measure { qubit, .. } => compiler.measure(qubit.index()),
            EventKind::Reset { qubit } => compiler.reset(qubit.index()),
            EventKind::Noise { qubit, .. } => compiler.pauli_site(qubit.index()),
        };
        compiler.segment(segment)?;
    }
    Ok(compiler.finish(plan.record == RecordSource::FinalMeasurement))
}

impl TrajectoryRunner for TableauRunner {
    fn begin_shot(&mut self) {
        self.signs.copy_from_slice(&self.base);
    }

    fn p_one(&mut self, k: usize, _qubit: Qubit) -> Result<f64, DdError> {
        // A stabilizer measurement is either fixed or a fair coin.
        Ok(match self.program.outcome(2 * k + 1, &self.signs) {
            Some(outcome) => f64::from(u8::from(outcome)),
            None => 0.5,
        })
    }

    fn advance(
        &mut self,
        k: usize,
        event: Event,
        decision: u8,
        record: u64,
    ) -> Result<(), DdError> {
        let step = 2 * k + 1;
        if decision != SKIPPED {
            match event.kind {
                EventKind::Measure { .. } | EventKind::Reset { .. } => {
                    self.program.collapse(step, &mut self.signs, decision == 1);
                }
                EventKind::Noise { channel, .. } => {
                    if let Some(pauli) = channel
                        .branch_gate(decision)
                        .and_then(|g| Pauli::from_gate(&g))
                    {
                        self.program.apply_pauli(step, &mut self.signs, pauli);
                    }
                }
            }
        }
        self.program
            .apply_segment(step + 1, &mut self.signs, record);
        Ok(())
    }

    fn terminal_sample(&mut self, rng: &mut SmallRng) -> Result<u64, DdError> {
        self.program.sample_final(&self.signs, &mut self.out, rng);
        Ok(self.out[0])
    }

    fn representation_size(&self) -> u128 {
        // The stabilizer generator count.
        2 * self.program.num_qubits() as u128
    }
}

/// One worker's partial result: its histogram, peak representation size,
/// package statistics, completed-shot count, and the governed failure that
/// stopped it early, if any.
type WorkerResult = (ShotHistogram, u128, Option<DdStats>, u64, Option<DdError>);

/// What every worker of one run shares: the plan, the master seed, the
/// armed governor (the deadline and token its clones share) and the
/// run-wide `stop` flag a failing worker raises so its peers wind down at
/// their next chunk boundary instead of burning the remaining budget.
struct SharedRun {
    engine: EngineKind,
    plan: TrajectoryPlan,
    shots: u64,
    seed: u64,
    governor: Governor,
    stop: AtomicBool,
}

/// Builds the backend-specific runner for one worker and runs its assigned
/// chunks, returning the worker's histogram and peak representation size.
/// Both the single-worker fast path and every spawned worker go through
/// here, so the two paths cannot drift apart.  The runner's package gets
/// its own governor clone (fresh checkpoint counter, shared deadline and
/// token).
fn run_worker(run: &SharedRun, first: u64, stride: u64) -> WorkerResult {
    let mut runner = match run
        .engine
        .engine()
        .trajectory_runner(&run.plan, run.governor.clone())
    {
        Ok(runner) => runner,
        Err(e) => {
            run.stop.store(true, Ordering::Relaxed);
            return (
                ShotHistogram::new(run.plan.record_width),
                0,
                None,
                0,
                Some(e),
            );
        }
    };
    let (h, completed, error) = run_assigned_chunks(runner.as_mut(), run, first, stride);
    (
        h,
        runner.representation_size(),
        runner.dd_stats(),
        completed,
        error,
    )
}

/// Runs all chunks assigned to one worker: chunk indices `first, first +
/// stride, ...` below `total_chunks`, each drawn from its own
/// [`chunk_stream_seed`]-derived RNG stream.
///
/// Every chunk boundary probes the deadline and the cancellation token
/// directly (so even backends whose per-shot work is ungoverned — the dense
/// runner — honour them) and the run-wide `stop` flag.  A shot interrupted
/// mid-flight records nothing: the histogram holds completed shots only.
fn run_assigned_chunks(
    runner: &mut dyn TrajectoryRunner,
    run: &SharedRun,
    first: u64,
    stride: u64,
) -> (ShotHistogram, u64, Option<DdError>) {
    let chunk_len = PARALLEL_CHUNK_SHOTS as u64;
    let total_chunks = run.shots.div_ceil(chunk_len);
    let mut histogram = ShotHistogram::new(run.plan.record_width);
    let mut completed = 0u64;
    let mut error = None;
    let mut chunk_index = first;
    'chunks: while chunk_index < total_chunks {
        if run.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Err(e) = run.governor.check_now() {
            run.stop.store(true, Ordering::Relaxed);
            error = Some(e);
            break;
        }
        let chunk_shots = chunk_len.min(run.shots - chunk_index * chunk_len);
        let mut rng = SmallRng::seed_from_u64(chunk_stream_seed(run.seed, chunk_index));
        for _ in 0..chunk_shots {
            match run_shot(runner, &run.plan, &mut rng) {
                Ok(record) => {
                    histogram.record(record);
                    completed += 1;
                }
                Err(e) => {
                    run.stop.store(true, Ordering::Relaxed);
                    error = Some(e);
                    break 'chunks;
                }
            }
        }
        runner.end_of_chunk();
        chunk_index += stride;
    }
    (histogram, completed, error)
}

/// Simulates `shots` trajectories of `circuit` on `backend` with `threads`
/// workers, unrouted, with an unlimited memory budget and governor: the
/// request [`WeakSimulator::run`] sends to the trajectory loop, but with an
/// explicit worker count and for static circuits too (for determinism tests
/// and scaling measurements).
///
/// The histogram records classical-register values when the circuit
/// contains measurements, and terminal full-register measurements otherwise.
/// It is bit-identical for a given `seed` regardless of the thread count;
/// see the [module docs](self) for the seeding scheme.
///
/// # Errors
///
/// Returns [`RunError::InvalidCircuit`] for malformed circuits.  To enforce a
/// memory budget or a governor, go through [`WeakSimulator::run`] instead.
pub fn simulate_trajectories_with_threads(
    backend: Backend,
    circuit: &Circuit,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<RunOutcome, RunError> {
    let sim = WeakSimulator::new(backend).with_threads(threads);
    sim.validate(circuit)?;
    sim.run_trajectories(circuit, shots, seed)
}

/// [`simulate_trajectories_with_threads`] under `noise`: every shot realizes
/// each noise site as a random Kraus branch.  A model whose channels all
/// have zero strength gives output bit-identical to the noiseless run with
/// the same seed.
///
/// # Errors
///
/// Returns [`RunError::InvalidCircuit`] for malformed circuits and
/// [`RunError::InvalidNoise`] for malformed noise models (a parameter
/// outside `[0, 1]`, or a qubit-specific channel outside the circuit).
pub fn simulate_noisy_trajectories_with_threads(
    backend: Backend,
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: u64,
    seed: u64,
    threads: usize,
) -> Result<RunOutcome, RunError> {
    let sim = WeakSimulator::new(backend)
        .with_threads(threads)
        .with_noise(noise.clone());
    sim.validate(circuit)?;
    sim.run_trajectories(circuit, shots, seed)
}

/// Plans and runs `shots` trajectories of a validated `circuit` on `engine`
/// under `sim`'s noise model, worker count, memory budget and governor
/// (see [`WeakSimulator::run`], which routes and validates the request).
///
/// The governor is armed once here — every worker gets a clone sharing the
/// deadline and the cancellation token.  When a worker is interrupted it
/// raises a run-wide stop flag; the outcome then carries an
/// [`Interruption`] with the total completed shots, rather than an error —
/// partial histograms are real results.
pub(crate) fn run_trajectories(
    sim: &WeakSimulator,
    engine: EngineKind,
    circuit: &Circuit,
    shots: u64,
    seed: u64,
) -> Result<RunOutcome, RunError> {
    let chunk_len = PARALLEL_CHUNK_SHOTS as u64;
    let total_chunks = shots.div_ceil(chunk_len);
    let workers = sim
        .threads()
        .min(usize::try_from(total_chunks).unwrap_or(usize::MAX))
        .max(1);

    engine
        .engine()
        .check_trajectory_memory(circuit.num_qubits(), workers, sim.memory_budget())?;
    if !circuit.has_measurements() {
        // The record is the terminal read-out of every qubit.
        engine.engine().check_sample_width(circuit.num_qubits())?;
    }

    let precompute_start = Instant::now();
    let plan = TrajectoryPlan::new(circuit, sim.effective_noise());
    let precompute_time = precompute_start.elapsed();

    let run = SharedRun {
        engine,
        plan,
        shots,
        seed,
        governor: sim.governor().arm(),
        stop: AtomicBool::new(false),
    };
    let sampling_start = Instant::now();
    let (histogram, representation_size, dd_stats, completed_shots, error) = if workers == 1 {
        run_worker(&run, 0, 1)
    } else {
        let mut slots: Vec<Option<WorkerResult>> = (0..workers).map(|_| None).collect();
        rayon::scope(|scope| {
            for (worker, slot) in slots.iter_mut().enumerate() {
                let run = &run;
                scope.spawn(move || {
                    *slot = Some(run_worker(run, worker as u64, workers as u64));
                });
            }
        });
        let mut histogram = ShotHistogram::new(run.plan.record_width);
        let mut size = 0u128;
        let mut dd_stats: Option<DdStats> = None;
        let mut completed = 0u64;
        let mut error: Option<DdError> = None;
        for slot in slots {
            // Infallible: rayon::scope joins every spawned worker before
            // returning, so each slot has been filled.
            #[allow(clippy::expect_used)]
            let (h, s, stats, c, e) = slot.expect("worker ran to completion");
            histogram.merge(&h);
            size = size.max(s);
            completed += c;
            if let Some(stats) = stats {
                dd_stats.get_or_insert_with(DdStats::default).merge(&stats);
            }
            // Keep the lowest-indexed worker's failure: with a shared cause
            // (one deadline, one token) every reason is equivalent, and this
            // choice is independent of thread scheduling.
            if error.is_none() {
                error = e;
            }
        }
        (histogram, size, dd_stats, completed, error)
    };
    let sampling_time = sampling_start.elapsed();

    Ok(RunOutcome {
        backend: sim.backend(),
        histogram,
        strong_time: Duration::ZERO,
        precompute_time,
        sampling_time,
        representation_size,
        dd_stats,
        interruption: error.map(|reason| Interruption {
            reason,
            completed_shots,
        }),
        route: RunRoute::single(engine, circuit.len()),
        cache: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measure a |+> qubit, reset it, re-prepare |+>, measure again: two
    /// independent fair coins in c0/c1.
    fn coin_reuse_circuit() -> Circuit {
        let mut c = Circuit::with_name(1, "coin_reuse");
        c.h(Qubit(0))
            .measure(Qubit(0), 0)
            .reset(Qubit(0))
            .h(Qubit(0))
            .measure(Qubit(0), 1);
        c
    }

    #[test]
    fn plan_segments_at_events() {
        let plan = TrajectoryPlan::new(&coin_reuse_circuit(), None);
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.segments.len(), 4);
        assert_eq!(plan.segments[0].len(), 1); // h
        assert_eq!(plan.segments[1].len(), 0); // between measure and reset
        assert_eq!(plan.segments[2].len(), 1); // h
        assert!(plan.segments[3].is_empty()); // tail
        assert_eq!(plan.record, RecordSource::Classical);
        assert_eq!(plan.record_width, 2);
    }

    #[test]
    fn plan_inserts_noise_sites_per_touched_qubit() {
        // h q0; cx q0,q1; measure q0 -> c0 under gate depolarizing noise and
        // read-out bit flips: one site after h (q0), two after cx (q1 target
        // then q0 control — support order), one before the measure.
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cx(Qubit(0), Qubit(1)).measure(Qubit(0), 0);
        let model = NoiseModel::new()
            .with_gate_noise(NoiseChannel::depolarizing(0.1))
            .with_measurement_noise(NoiseChannel::bit_flip(0.05));
        let plan = TrajectoryPlan::new(&c, Some(&model));
        let kinds: Vec<(Qubit, bool)> = plan
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Noise { qubit, channel } => (qubit, channel.is_state_independent()),
                EventKind::Measure { qubit, .. } => (qubit, false),
                EventKind::Reset { qubit } => (qubit, false),
            })
            .collect();
        assert_eq!(plan.events.len(), 5, "{kinds:?}");
        assert!(matches!(
            plan.events[0].kind,
            EventKind::Noise {
                qubit: Qubit(0),
                channel: NoiseChannel::Depolarizing { .. }
            }
        ));
        assert!(matches!(
            plan.events[1].kind,
            EventKind::Noise {
                qubit: Qubit(1),
                ..
            }
        ));
        assert!(matches!(
            plan.events[2].kind,
            EventKind::Noise {
                qubit: Qubit(0),
                ..
            }
        ));
        assert!(matches!(
            plan.events[3].kind,
            EventKind::Noise {
                qubit: Qubit(0),
                channel: NoiseChannel::BitFlip { .. }
            }
        ));
        assert!(matches!(plan.events[4].kind, EventKind::Measure { .. }));
        // Zero-strength models insert nothing: the plan is the noiseless one.
        let silent = NoiseModel::new().with_gate_noise(NoiseChannel::depolarizing(0.0));
        assert_eq!(TrajectoryPlan::new(&c, Some(&silent)).events.len(), 1);
    }

    #[test]
    fn measure_and_reset_reuse_gives_independent_coins() {
        let shots = 8_000u64;
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend)
                .run(&coin_reuse_circuit(), shots, 11)
                .unwrap();
            assert_eq!(outcome.histogram.shots(), shots);
            for value in 0..4u64 {
                let freq = outcome.histogram.frequency(value);
                assert!(
                    (freq - 0.25).abs() < 0.03,
                    "{backend}: record {value} frequency {freq}"
                );
            }
        }
    }

    #[test]
    fn reset_only_circuits_report_terminal_measurements() {
        // Entangle two qubits, then reset qubit 0: the terminal measurement
        // sees qubit 0 always 0 and qubit 1 uniform.
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cx(Qubit(0), Qubit(1)).reset(Qubit(0));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend).run(&c, 4_000, 5).unwrap();
            assert_eq!(outcome.histogram.num_qubits(), 2);
            assert!(outcome.histogram.count(0b01) == 0);
            assert!(outcome.histogram.count(0b11) == 0);
            let f0 = outcome.histogram.frequency(0b00);
            assert!((f0 - 0.5).abs() < 0.03, "{backend}: {f0}");
        }
    }

    #[test]
    fn trajectory_records_are_thread_count_invariant() {
        // A classical-record circuit and a reset-only circuit (terminal
        // full-register read-out through the cached/transient samplers).
        let mut classical = Circuit::new(3);
        classical
            .h(Qubit(0))
            .cx(Qubit(0), Qubit(1))
            .measure(Qubit(0), 0)
            .h(Qubit(2))
            .cx(Qubit(2), Qubit(1))
            .measure(Qubit(1), 1)
            .measure(Qubit(2), 2);
        let mut reset_only = Circuit::new(3);
        reset_only
            .h(Qubit(0))
            .cx(Qubit(0), Qubit(1))
            .reset(Qubit(0))
            .h(Qubit(0))
            .cx(Qubit(0), Qubit(2))
            .reset(Qubit(2));
        // Several chunks worth of shots so multiple workers get real work.
        let shots = 3 * PARALLEL_CHUNK_SHOTS as u64 + 17;
        for c in [&classical, &reset_only] {
            for backend in [Backend::DecisionDiagram, Backend::StateVector] {
                let reference =
                    simulate_trajectories_with_threads(backend, c, shots, 42, 1).unwrap();
                for threads in [2, 8] {
                    let run =
                        simulate_trajectories_with_threads(backend, c, shots, 42, threads).unwrap();
                    assert_eq!(
                        reference.histogram,
                        run.histogram,
                        "{backend} on {}: thread count {threads} changed the records",
                        c.name()
                    );
                }
                let other = simulate_trajectories_with_threads(backend, c, shots, 43, 1).unwrap();
                assert_ne!(
                    reference.histogram,
                    other.histogram,
                    "{backend} on {}: different seeds must give different records",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn cache_overflow_falls_back_to_transient_trajectories() {
        // 13 coin-flip resets reach 2^13 = 8192 outcome prefixes — past
        // TRAJECTORY_CACHE_CAP — so shots exercise the off-cache evolution
        // and the transient terminal-sampler memo, and must still be
        // thread-count invariant and produce the right distribution.
        let mut c = Circuit::with_name(1, "coin_cascade");
        for _ in 0..13 {
            c.h(Qubit(0)).reset(Qubit(0));
        }
        c.h(Qubit(0));
        let shots = 3 * PARALLEL_CHUNK_SHOTS as u64 + 100;

        let reference =
            simulate_trajectories_with_threads(Backend::DecisionDiagram, &c, shots, 6, 1).unwrap();
        let threaded =
            simulate_trajectories_with_threads(Backend::DecisionDiagram, &c, shots, 6, 4).unwrap();
        assert_eq!(
            reference.histogram, threaded.histogram,
            "off-cache trajectories must stay thread-count invariant"
        );
        // The final H of a freshly reset qubit is a fair coin.
        let f1 = reference.histogram.frequency(1);
        assert!((f1 - 0.5).abs() < 0.03, "terminal P(1) = {f1}");
    }

    #[test]
    fn conditioned_gates_fire_only_on_matching_records() {
        // h q0; measure q0 -> c0; if (c==1) x q1; measure q1 -> c1:
        // a coherent copy through feed-forward, so c0 == c1 always.
        let mut c = Circuit::with_name(2, "feed_forward_copy");
        c.h(Qubit(0))
            .measure(Qubit(0), 0)
            .conditioned_gate(1, circuit::OneQubitGate::X, Qubit(1))
            .measure(Qubit(1), 1);
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend).run(&c, 6_000, 19).unwrap();
            assert_eq!(outcome.histogram.count(0b01), 0, "{backend}");
            assert_eq!(outcome.histogram.count(0b10), 0, "{backend}");
            let f = outcome.histogram.frequency(0b11);
            assert!((f - 0.5).abs() < 0.03, "{backend}: P(11) = {f}");
        }
    }

    #[test]
    fn conditioned_resets_fire_only_on_matching_records() {
        // h q0; measure -> c0; reset q0; x q0 (q0 is now |1>);
        // if (c==1) reset q0; measure -> c1.
        // c0 = 0: guard idle, c1 = 1 (record 10).  c0 = 1: guard fires,
        // c1 = 0 (record 01).  Records 00 and 11 are impossible.
        let mut c = Circuit::with_name(1, "conditioned_reset");
        c.h(Qubit(0))
            .measure(Qubit(0), 0)
            .reset(Qubit(0))
            .x(Qubit(0))
            .conditioned(1, Operation::Reset { qubit: Qubit(0) })
            .measure(Qubit(0), 1);
        assert!(c.validate().is_ok());
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend).run(&c, 6_000, 29).unwrap();
            assert_eq!(outcome.histogram.count(0b00), 0, "{backend}");
            assert_eq!(outcome.histogram.count(0b11), 0, "{backend}");
            let f = outcome.histogram.frequency(0b01);
            assert!((f - 0.5).abs() < 0.03, "{backend}: P(01) = {f}");
        }
    }

    #[test]
    fn conditioned_measurements_fire_only_on_matching_records() {
        // h q0; measure q0 -> c0; x q1; if (c==1) measure q1 -> c1:
        // c0 = 1 records c1 = 1 (record 11); c0 = 0 skips the read-out and
        // c1 stays 0 (record 00).
        let mut c = Circuit::with_name(2, "conditioned_measure");
        c.h(Qubit(0)).measure(Qubit(0), 0).x(Qubit(1)).conditioned(
            1,
            Operation::Measure {
                qubit: Qubit(1),
                cbit: 1,
            },
        );
        assert!(c.has_measurements());
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend).run(&c, 6_000, 31).unwrap();
            assert_eq!(outcome.histogram.count(0b01), 0, "{backend}");
            assert_eq!(outcome.histogram.count(0b10), 0, "{backend}");
            let f = outcome.histogram.frequency(0b11);
            assert!((f - 0.5).abs() < 0.03, "{backend}: P(11) = {f}");
        }
    }

    #[test]
    fn conditions_compare_the_whole_register() {
        // Two coins into c0/c1, then X on q2 only when the register equals
        // exactly 0b10 — P(c2=1) = 1/4, and c2=1 only ever pairs with c=10.
        let mut c = Circuit::with_name(3, "whole_register_guard");
        c.h(Qubit(0))
            .measure(Qubit(0), 0)
            .h(Qubit(1))
            .measure(Qubit(1), 1)
            .conditioned_gate(0b10, circuit::OneQubitGate::X, Qubit(2))
            .measure(Qubit(2), 2);
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend).run(&c, 8_000, 23).unwrap();
            for record in 0..8u64 {
                let expected = match record {
                    0b110 => 0.25,                 // guard fired
                    0b000 | 0b001 | 0b011 => 0.25, // guard idle
                    _ => 0.0,
                };
                let freq = outcome.histogram.frequency(record);
                assert!(
                    (freq - expected).abs() < 0.03,
                    "{backend}: record {record:03b} frequency {freq}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn conditioned_records_are_thread_count_invariant() {
        // A deeper feed-forward circuit mixing measure, reset, conditioned
        // gates and a conditioned reset, run across thread counts.
        let mut c = Circuit::with_name(2, "conditioned_invariance");
        c.h(Qubit(0))
            .measure(Qubit(0), 0)
            .conditioned_gate(1, circuit::OneQubitGate::H, Qubit(1))
            .reset(Qubit(0))
            .h(Qubit(0))
            .measure(Qubit(0), 1)
            .conditioned(0b11, Operation::Reset { qubit: Qubit(1) })
            .conditioned_gate(0b01, circuit::OneQubitGate::X, Qubit(1))
            .measure(Qubit(1), 2);
        let shots = 3 * PARALLEL_CHUNK_SHOTS as u64 + 5;
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let reference = simulate_trajectories_with_threads(backend, &c, shots, 31, 1).unwrap();
            for threads in [2, 8] {
                let run =
                    simulate_trajectories_with_threads(backend, &c, shots, 31, threads).unwrap();
                assert_eq!(
                    reference.histogram, run.histogram,
                    "{backend}: {threads} threads changed the records"
                );
            }
        }
    }

    #[test]
    fn conditioned_only_circuits_report_terminal_measurements() {
        // No measurements at all: the record stays 0, so `if (c==0)` fires
        // and `if (c==1)` never does; the terminal read-out sees |10>.
        let mut c = Circuit::new(2);
        c.conditioned_gate(0, circuit::OneQubitGate::X, Qubit(1))
            .conditioned_gate(1, circuit::OneQubitGate::X, Qubit(0));
        assert_eq!(c.num_clbits(), 1, "conditions grow the register");
        assert!(c.is_dynamic());
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend).run(&c, 200, 2).unwrap();
            assert_eq!(outcome.histogram.count(0b10), 200, "{backend}");
        }
    }

    #[test]
    fn backends_agree_on_a_dynamic_distribution() {
        let c = coin_reuse_circuit();
        let shots = 20_000u64;
        let dd = WeakSimulator::new(Backend::DecisionDiagram)
            .run(&c, shots, 7)
            .unwrap();
        let sv = WeakSimulator::new(Backend::StateVector)
            .run(&c, shots, 7)
            .unwrap();
        for value in 0..4u64 {
            assert!(
                (dd.histogram.frequency(value) - sv.histogram.frequency(value)).abs() < 0.02,
                "record {value}"
            );
        }
    }

    #[test]
    fn deterministic_bit_flips_invert_the_record() {
        // A bit-flip channel with p = 1 after the only gate deterministically
        // inverts the measured bit on both backends.
        let mut c = Circuit::new(1);
        c.x(Qubit(0)).measure(Qubit(0), 0);
        let model = NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(1.0));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend)
                .with_noise(model.clone())
                .run(&c, 500, 3)
                .unwrap();
            assert_eq!(outcome.histogram.count(0), 500, "{backend}");
        }
    }

    #[test]
    fn readout_noise_only_affects_measurements() {
        // Read-out flips attach to the measure, not to gates: a circuit with
        // no measurement sees no noise events from measurement channels.
        let mut c = Circuit::new(1);
        c.x(Qubit(0)).reset(Qubit(0));
        let model = NoiseModel::new().with_measurement_noise(NoiseChannel::bit_flip(1.0));
        let plan = TrajectoryPlan::new(&c, Some(&model));
        assert_eq!(plan.events.len(), 1, "reset alone gains no read-out site");
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend)
                .with_noise(model.clone())
                .run(&c, 300, 9)
                .unwrap();
            // Terminal read-out of the reset qubit: always 0.
            assert_eq!(outcome.histogram.count(0), 300, "{backend}");
        }
    }

    #[test]
    fn noise_on_conditioned_gates_inherits_the_guard() {
        // h q0; measure -> c0; if (c==1) x q1 (with p=1 bit-flip gate noise);
        // measure q1 -> c1.  When the guard fires, the X *and its noise* both
        // fire: q1 flips to 1 then back to 0 — so c1 is always 0.  If the
        // noise ran unconditionally, the c0 = 0 half would see a bare flip
        // and record c1 = 1.
        let mut c = Circuit::new(2);
        c.h(Qubit(0))
            .measure(Qubit(0), 0)
            .conditioned_gate(1, circuit::OneQubitGate::X, Qubit(1))
            .measure(Qubit(1), 1);
        let model = NoiseModel::new().with_gate_noise(NoiseChannel::bit_flip(1.0));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend)
                .with_noise(model.clone())
                .run(&c, 2_000, 17)
                .unwrap();
            for record in [0b10u64, 0b11] {
                assert_eq!(
                    outcome.histogram.count(record),
                    0,
                    "{backend}: c1 must stay 0, got record {record:02b}"
                );
            }
            let f = outcome.histogram.frequency(0b01);
            assert!((f - 0.5).abs() < 0.04, "{backend}: P(01) = {f}");
        }
    }

    #[test]
    fn amplitude_damping_decays_the_excited_state() {
        // |1> under amplitude damping with gamma = 1 always decays to |0>.
        let mut c = Circuit::new(1);
        c.x(Qubit(0)).measure(Qubit(0), 0);
        let model = NoiseModel::new().with_gate_noise(NoiseChannel::amplitude_damping(1.0));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend)
                .with_noise(model.clone())
                .run(&c, 400, 21)
                .unwrap();
            assert_eq!(outcome.histogram.count(0), 400, "{backend}");
        }
        // ... and with gamma = 0 it never decays.
        let ideal = NoiseModel::new().with_gate_noise(NoiseChannel::amplitude_damping(0.0));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            // A static circuit under a zero-strength model would take the
            // static pipeline through `run`: force the trajectory loop.
            let outcome =
                simulate_noisy_trajectories_with_threads(backend, &c, &ideal, 400, 21, 1).unwrap();
            assert_eq!(outcome.histogram.count(1), 400, "{backend}");
        }
    }

    #[test]
    fn invalid_noise_models_are_rejected() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0)).measure(Qubit(0), 0);
        let bad_param = NoiseModel::new().with_gate_noise(NoiseChannel::depolarizing(1.5));
        let bad_qubit = NoiseModel::new().with_qubit_noise(Qubit(9), NoiseChannel::bit_flip(0.1));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            assert!(matches!(
                WeakSimulator::new(backend)
                    .with_noise(bad_param.clone())
                    .run(&c, 10, 0),
                Err(RunError::InvalidNoise(_))
            ));
            assert!(matches!(
                WeakSimulator::new(backend)
                    .with_noise(bad_qubit.clone())
                    .run(&c, 10, 0),
                Err(RunError::InvalidNoise(_))
            ));
        }
    }

    #[test]
    fn invalid_dynamic_circuits_are_rejected() {
        let mut c = Circuit::new(1);
        c.measure(Qubit(0), 0).h(Qubit(5));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            assert!(matches!(
                WeakSimulator::new(backend).run(&c, 10, 0),
                Err(RunError::InvalidCircuit(_))
            ));
        }
    }
}
