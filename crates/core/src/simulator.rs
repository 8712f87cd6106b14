//! The unified weak-simulation front end.
//!
//! # Static vs. dynamic routing
//!
//! [`WeakSimulator::run`] inspects the request once:
//!
//! * **Static** noise-free circuits (no mid-circuit measurement, no reset —
//!   see [`Circuit::is_dynamic`]) go route plan → artifact → sample: one
//!   strong simulation on the planned engine, one prepared sampler in a
//!   [`SimArtifact`], and [`SimArtifact::sample`] draws the shots, exactly
//!   as in the paper.  A trailing block of `measure` operations is allowed:
//!   it is split off and applied as a qubit→classical-bit relabelling of
//!   the sampled bitstrings, so circuits imported from QASM with a terminal
//!   `measure q -> c;` stay on the fast path.  Serving the request through
//!   a [`ServiceBroker`](crate::ServiceBroker) changes only whether the
//!   artifact is kept.
//! * **Dynamic** circuits — mid-circuit measurement, reset or
//!   classically-conditioned gates (`if (c==k)` feed-forward) — and every
//!   circuit under a non-trivial noise model are handed to the
//!   [`trajectory`](crate::trajectory) loop, which simulates shot-by-shot
//!   with collapse at each measurement or reset and resolves each condition
//!   against the shot's classical record, reusing the same SplitMix64
//!   chunk-seeding scheme so the result is seed-deterministic independent
//!   of the worker-thread count.
//!
//! # One check per request
//!
//! Every public entry point — [`WeakSimulator::run`],
//! [`WeakSimulator::strong`], [`ServiceBroker::serve`](crate::ServiceBroker::serve)
//! and the free `simulate_*_with_threads` functions — checks its circuit
//! once, before it builds anything: the circuit is validated, `strong`
//! rejects a dynamic circuit at its first non-unitary or conditioned
//! operation, and every other path validates the noise model.  Nothing
//! behind that door checks again: the route plan, the engines and
//! [`dd::apply_circuit_until`] take a valid circuit as given, and static
//! engines are handed unitary ones only.  So a malformed circuit fails with
//! [`RunError::InvalidCircuit`] ahead of any budget error, on every path.

use crate::artifact::{CacheOutcome, SimArtifact};
use crate::backend::{DdEngine, SvEngine};
use crate::govern::Interruption;
use crate::router::{route_plan, RunRoute};
use crate::ShotHistogram;
use circuit::{Circuit, NoiseModel, Qubit};
use dd::{DdError, DdPackage, DdStats, Governor, StateDd};
use mathkit::hash_mix;
use statevector::{MemoryBudget, StateVector};
use std::fmt;
use std::time::{Duration, Instant};

/// The simulation backend used for strong simulation and sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Edge-weighted decision diagrams with single-path sampling — the
    /// method proposed by the paper (Section IV).
    #[default]
    DecisionDiagram,
    /// Dense state vector with prefix-sum / binary-search sampling — the
    /// baseline method (Section III).
    StateVector,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::DecisionDiagram => write!(f, "DD-based"),
            Backend::StateVector => write!(f, "vector-based"),
        }
    }
}

/// Error returned by [`WeakSimulator::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The circuit failed validation.
    InvalidCircuit(circuit::ValidateCircuitError),
    /// The dense amplitude array would exceed the memory budget (only the
    /// [`Backend::StateVector`] backend can fail this way; this is the "MO"
    /// of Table I).
    MemoryOut {
        /// Number of qubits of the requested simulation.
        num_qubits: u16,
        /// Bytes the amplitude array would need.
        required_bytes: u128,
    },
    /// Strong simulation was requested for a dynamic circuit
    /// ([`Circuit::is_dynamic`]): the state after a mid-circuit
    /// measurement, reset or classically-conditioned gate depends on
    /// sampled outcomes, so there is no single final state.  A trailing
    /// `measure` block alone does not make a circuit dynamic.  Use
    /// [`WeakSimulator::run`], which routes dynamic circuits through the
    /// trajectory engine.
    DynamicCircuit {
        /// Index of the first non-unitary or conditioned operation.
        op_index: usize,
    },
    /// The attached noise model is malformed: a channel parameter outside
    /// `[0, 1]`, or a qubit-specific channel on a qubit outside the circuit.
    InvalidNoise(circuit::NoiseModelError),
    /// The decision-diagram package exceeded its governed node/byte budget —
    /// after garbage collection and cache shrinking failed to relieve the
    /// pressure — or a node arena overflowed.  This is the "MO" of Table I
    /// for the DD backend; the carried [`DdError`] holds the structured
    /// report (live nodes, approximate bytes, op index reached).
    DdMemoryOut(DdError),
    /// The run's governed wall-clock deadline expired (the "TO" of a
    /// timeout-limited Table I run).
    Deadline(DdError),
    /// The run was cancelled through its
    /// [`CancelToken`](dd::CancelToken).
    Cancelled(DdError),
    /// The run's record is a final measurement of every qubit, and the
    /// register is wider than the 64 bits a sample holds.  Only the
    /// decision-diagram engine fails this way (the dense engine reports
    /// [`MemoryOut`](Self::MemoryOut) first); the check runs before strong
    /// simulation, for every static run and for trajectory runs without a
    /// `measure`.
    RegisterTooWide {
        /// Number of qubits of the requested simulation.
        num_qubits: u16,
    },
    /// The service broker shed this request before admitting it to a cold
    /// build: every construction slot was busy, and the bounded queue was
    /// full or the estimated wait exceeded the request's deadline (see
    /// [`crate::service::ServiceBroker`]).  Shedding happens *immediately* —
    /// the request consumed no strong-simulation resources — so the client
    /// can retry against another replica or back off.  Warm cache hits are
    /// never shed.
    Overloaded {
        /// Requests already queued for a construction slot at shed time.
        queue_depth: usize,
        /// Estimated wait for a slot, from the broker's moving average of
        /// recent build times.
        estimated_wait: Duration,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidCircuit(e) => write!(f, "invalid circuit: {e}"),
            RunError::MemoryOut {
                num_qubits,
                required_bytes,
            } => write!(
                f,
                "memory out: a {num_qubits}-qubit dense state vector needs {required_bytes} bytes"
            ),
            RunError::DynamicCircuit { op_index } => write!(
                f,
                "operation {op_index} makes the circuit dynamic (a measurement followed by other operations, a reset or a conditioned gate); strong simulation takes a unitary circuit with at most a trailing measure block (use run, which simulates trajectories)"
            ),
            RunError::InvalidNoise(e) => write!(f, "invalid noise model: {e}"),
            RunError::RegisterTooWide { num_qubits } => write!(
                f,
                "register too wide: samples are 64-bit strings, but the final measurement reads {num_qubits} qubits"
            ),
            RunError::DdMemoryOut(e) | RunError::Deadline(e) | RunError::Cancelled(e) => {
                write!(f, "{e}")
            }
            RunError::Overloaded {
                queue_depth,
                estimated_wait,
            } => write!(
                f,
                "service overloaded: {queue_depth} request(s) queued for a construction slot, \
                 estimated wait {:.3} s; request shed before admission",
                estimated_wait.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::DdMemoryOut(e) | RunError::Deadline(e) | RunError::Cancelled(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DdError> for RunError {
    fn from(e: DdError) -> Self {
        match e {
            DdError::Deadline { .. } => RunError::Deadline(e),
            DdError::Cancelled { .. } => RunError::Cancelled(e),
            DdError::MemoryOut { .. } | DdError::ArenaOverflow { .. } => RunError::DdMemoryOut(e),
            // The front door rejects or reroutes dynamic circuits before any
            // engine runs, so these two cannot escape it; map them to the
            // dynamic-circuit error they describe, at the index the applying
            // caller stamped.
            DdError::NonUnitaryOperation { op_index, .. }
            | DdError::ConditionedOperation { op_index, .. } => RunError::DynamicCircuit {
                op_index: op_index.unwrap_or(0),
            },
        }
    }
}

/// The result of strong simulation ([`WeakSimulator::strong`]): the exact
/// final state, for amplitude and probability queries.
///
/// Sampling never goes through a `StrongState`: a static run compiles its
/// sampler into a [`SimArtifact`] and drops the state (and with it the DD
/// package) before drawing, and a [`ServiceBroker`](crate::ServiceBroker)
/// shares that artifact across requests.
#[derive(Debug)]
pub enum StrongState {
    /// A decision-diagram state together with its owning package.
    DecisionDiagram {
        /// The package owning the nodes.
        package: Box<DdPackage>,
        /// The final state.
        state: StateDd,
    },
    /// A dense state vector.
    StateVector(StateVector),
}

impl StrongState {
    /// The backend that produced (and can sample) this state.
    #[must_use]
    pub fn backend(&self) -> Backend {
        match self {
            StrongState::DecisionDiagram { .. } => Backend::DecisionDiagram,
            StrongState::StateVector(_) => Backend::StateVector,
        }
    }

    /// The number of qubits of the state.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        match self {
            StrongState::DecisionDiagram { state, .. } => state.num_qubits(),
            StrongState::StateVector(v) => v.num_qubits(),
        }
    }

    /// The exact measurement probability of a basis state.
    #[must_use]
    pub fn probability(&self, index: u64) -> f64 {
        match self {
            StrongState::DecisionDiagram { package, state, .. } => {
                state.probability(package, index)
            }
            StrongState::StateVector(v) => v.probability(index),
        }
    }

    /// The size of the representation: decision-diagram node count or number
    /// of dense amplitudes (the two "size" columns of Table I).
    #[must_use]
    pub fn representation_size(&self) -> u128 {
        match self {
            StrongState::DecisionDiagram { package, state, .. } => {
                state.node_count(package) as u128
            }
            StrongState::StateVector(v) => v.len() as u128,
        }
    }

    /// The owning package's table statistics (unique-table and compute-cache
    /// hit/miss/eviction counters); `None` for the dense backend.
    #[must_use]
    pub fn dd_stats(&self) -> Option<DdStats> {
        match self {
            StrongState::DecisionDiagram { package, .. } => Some(package.stats()),
            StrongState::StateVector(_) => None,
        }
    }
}

/// Timing and output of one weak-simulation run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The configured backend of the simulator that produced this
    /// outcome — also when the router ran the circuit on the tableau, or
    /// handed a decision-diagram build to the dense engine (see
    /// [`route`](Self::route) for the engines that ran).
    pub backend: Backend,
    /// Aggregated samples: full-register measurements for circuits without
    /// explicit `measure` operations, classical-register values otherwise.
    pub histogram: ShotHistogram,
    /// Time spent on strong simulation (not reported in Table I, but useful;
    /// zero for trajectory runs, where strong and weak simulation
    /// interleave).
    pub strong_time: Duration,
    /// Time spent on the sampling precomputation (prefix sums, downstream
    /// probabilities or trajectory planning).
    pub precompute_time: Duration,
    /// Time spent drawing the samples (for dynamic circuits: running the
    /// trajectories).
    pub sampling_time: Duration,
    /// Representation size of the state sampled from: DD nodes, dense
    /// amplitudes (`2^n`, also for a build handed off to the dense engine)
    /// or, on the tableau, stabilizer generators; for trajectory runs the
    /// peak over the cached per-trajectory states.
    pub representation_size: u128,
    /// Decision-diagram package statistics — unique-table and compute-cache
    /// hit/miss/eviction counters — for DD-backend runs (for trajectory
    /// runs: summed over all worker packages; for a build handed off to the
    /// dense engine: the diagram segment's counters, taken at the handoff);
    /// `None` on the dense backend and the tableau.
    pub dd_stats: Option<DdStats>,
    /// Set when a governed trajectory run was interrupted (budget, deadline
    /// or cancellation): the histogram then holds only the shots completed
    /// before the interruption.  Always `None` for static runs, which fail
    /// with a [`RunError`] instead — they have no partial result to keep.
    pub interruption: Option<Interruption>,
    /// Which engine executed each contiguous segment of the circuit.
    /// Unrouted runs (the default) report a single segment on the configured
    /// backend.  Runs under [`WeakSimulator::with_clifford_router`] report a
    /// tableau segment instead when the whole circuit is Clifford, and a
    /// static decision-diagram build whose diagram stopped compressing
    /// reports `DD-based(k) -> vector-based(m − k)` (see
    /// [`crate::router`]).
    pub route: RunRoute,
    /// Whether a [`ServiceBroker`](crate::ServiceBroker)'s cache served
    /// this run ([`CacheOutcome::Hit`]: no strong simulation ran) or was
    /// populated by it ([`CacheOutcome::Miss`]).  `None` when no cache was
    /// consulted — an uncached [`WeakSimulator::run`], or a cache-ineligible
    /// (noisy or dynamic) request.
    pub cache: Option<CacheOutcome>,
}

impl RunOutcome {
    /// The combined precompute + sampling time — the quantity reported in the
    /// `t [s]` columns of Table I.
    #[must_use]
    pub fn weak_time(&self) -> Duration {
        self.precompute_time + self.sampling_time
    }
}

/// A weak simulator: strong simulation followed by measurement sampling on
/// the chosen [`Backend`], optionally under a stochastic noise model.
///
/// # Examples
///
/// ```
/// use weaksim::{Backend, WeakSimulator};
///
/// let circuit = algorithms::ghz(4);
/// let mut sim = WeakSimulator::new(Backend::StateVector);
/// let outcome = sim.run(&circuit, 500, 1)?;
/// assert_eq!(outcome.histogram.shots(), 500);
/// // Exact probabilities come from strong simulation alone.
/// let exact = sim.strong(&circuit)?;
/// assert!((exact.probability(0) - 0.5).abs() < 1e-12);
/// # Ok::<(), weaksim::RunError>(())
/// ```
///
/// Emulating noisy hardware:
///
/// ```
/// use circuit::{NoiseChannel, NoiseModel};
/// use weaksim::{Backend, WeakSimulator};
///
/// let circuit = algorithms::ghz(3);
/// let noise = NoiseModel::new().with_gate_noise(NoiseChannel::depolarizing(0.02));
/// let mut sim = WeakSimulator::new(Backend::DecisionDiagram).with_noise(noise);
/// let outcome = sim.run(&circuit, 500, 1)?;
/// assert_eq!(outcome.histogram.shots(), 500);
/// # Ok::<(), weaksim::RunError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WeakSimulator {
    backend: Backend,
    memory_budget: MemoryBudget,
    noise: Option<NoiseModel>,
    governor: Governor,
    threads: Option<usize>,
    clifford_router: bool,
}

impl WeakSimulator {
    /// Creates a simulator for the given backend with an unlimited memory
    /// budget, no noise and an unlimited run governor.
    #[must_use]
    pub fn new(backend: Backend) -> Self {
        Self {
            backend,
            memory_budget: MemoryBudget::unlimited(),
            noise: None,
            governor: Governor::unlimited(),
            threads: None,
            clifford_router: false,
        }
    }

    /// Enables the router (see [`crate::router`]): [`run`](Self::run)
    /// calls then execute fully-Clifford circuits on the polynomial-time
    /// stabilizer-tableau engine and every other circuit on the dense
    /// backend, and a static decision-diagram build whose diagram stopped
    /// compressing finishes on a state vector when that fits the
    /// [memory budget](Self::with_memory_budget).  [`RunOutcome::route`]
    /// reports which engines ran.
    ///
    /// Routing never changes the sampled distribution, but tableau-routed
    /// outcomes report the stabilizer generator count as their
    /// representation size, and handed-off ones `2^n`.  Under a [noise
    /// model](Self::with_noise) made of Pauli channels only, fully-Clifford
    /// circuits still run on the tableau (Pauli errors are native there);
    /// any other channel keeps the run dense.
    #[must_use]
    pub fn with_clifford_router(mut self) -> Self {
        self.clifford_router = true;
        self
    }

    /// Restricts the dense-vector backend to the given memory budget.
    /// Decision diagrams grow with the state's structure, not with `2^n`, so
    /// this up-front check never applies to them; to bound *their* memory
    /// use a [`Governor`] node/byte budget instead
    /// (see [`with_governor`](Self::with_governor)).  Under the
    /// [router](Self::with_clifford_router), a decision-diagram build
    /// hands off to a state vector only when the amplitudes plus their
    /// prefix sums fit this budget; otherwise it stays on the diagram.
    #[must_use]
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Attaches a [`Governor`]: every subsequent run (and
    /// [`strong`](Self::strong) call) [arms](Governor::arm) it, so it runs
    /// under its node/byte budgets, gets the full timeout from the moment it
    /// starts (unless the governor was attached already armed, whose
    /// deadline every run then shares), and honours the attached
    /// cancellation token on both backends.  Static runs that hit a limit
    /// fail with [`RunError::DdMemoryOut`] / [`RunError::Deadline`] /
    /// [`RunError::Cancelled`]; interrupted *trajectory* runs instead return
    /// the completed shots with [`RunOutcome::interruption`] set.
    #[must_use]
    pub fn with_governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// The attached governor, as configured (each run arms a clone).
    #[must_use]
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Overrides the worker-thread count used for trajectory runs (default:
    /// the rayon pool size).  Histograms are bit-identical across thread
    /// counts for completed runs; `threads == 1` additionally makes
    /// *interrupted* runs deterministic, because a single worker's stop
    /// point does not depend on cross-worker timing.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Attaches a stochastic noise model: every [`run`](Self::run) realizes
    /// the model's channels per shot through the trajectory engine (a noisy
    /// circuit is dynamic by definition — its evolution depends on sampled
    /// noise choices — even when the circuit itself is static).
    ///
    /// A model without any non-trivial channel changes nothing: static
    /// circuits keep the one-pass sampling fast path.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// The backend of this simulator.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The attached noise model, if any.
    #[must_use]
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// The dense-vector memory budget.
    pub(crate) fn memory_budget(&self) -> MemoryBudget {
        self.memory_budget
    }

    /// Whether the router is on.
    pub(crate) fn routes(&self) -> bool {
        self.clifford_router
    }

    /// The trajectory worker count: the [`with_threads`](Self::with_threads)
    /// override, or the rayon pool size.
    pub(crate) fn threads(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }

    /// Runs strong simulation only.
    ///
    /// Any attached noise model is ignored: strong simulation produces the
    /// single *ideal* final state, which a stochastic channel does not have
    /// (use [`run`](Self::run), which realizes noise per trajectory).  A
    /// static circuit's trailing `measure` block is not simulated: the
    /// state returned is that of its unitary prefix, the state the block
    /// reads out.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidCircuit`] for malformed circuits,
    /// [`RunError::MemoryOut`] when the dense backend exceeds its budget and
    /// [`RunError::DynamicCircuit`] for dynamic circuits — a measurement
    /// followed by other operations, a reset or a classically-conditioned
    /// gate (their final state is trajectory-dependent).
    /// Under a limited [governor](Self::with_governor), either backend can
    /// additionally fail with [`RunError::Deadline`] or
    /// [`RunError::Cancelled`], and the decision-diagram backend with
    /// [`RunError::DdMemoryOut`].  The circuit is checked before anything
    /// is built, so a malformed or dynamic circuit fails with its own error
    /// whatever the budgets.
    pub fn strong(&self, circuit: &Circuit) -> Result<StrongState, RunError> {
        Self::validate_circuit(circuit)?;
        let Some(measure_start) = circuit.terminal_measurements_start() else {
            // A dynamic circuit always has a non-unitary operation.
            let op_index = circuit.first_non_unitary().unwrap_or_default();
            return Err(RunError::DynamicCircuit { op_index });
        };
        let (prefix, _) = circuit.split_terminal_measurements(measure_start);
        match self.backend {
            Backend::DecisionDiagram => DdEngine::strong(&prefix, &self.governor),
            Backend::StateVector => SvEngine::strong(&prefix, self.memory_budget, &self.governor),
        }
    }

    /// Runs weak simulation: `shots` measurement samples drawn with a
    /// deterministic RNG seeded by `seed`.
    ///
    /// Static circuits (including those ending in a trailing `measure`
    /// block) go through one strong simulation followed by batched sampling;
    /// dynamic circuits (mid-circuit measurement or reset — see
    /// [`Circuit::is_dynamic`]) are simulated trajectory-by-trajectory via
    /// [`crate::trajectory`].  When a [noise model](Self::with_noise) with
    /// at least one non-trivial channel is attached, *every* circuit runs
    /// through the trajectory engine — noisy circuits are dynamic by
    /// definition, their evolution depends on the sampled noise choices.
    /// Either way the histogram is seed-deterministic independent of the
    /// worker-thread count.
    ///
    /// Nothing is kept between calls: to reuse the prepared sampler across
    /// requests, serve them through a [`ServiceBroker`](crate::ServiceBroker).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidCircuit`] for malformed circuits,
    /// [`RunError::InvalidNoise`] for malformed noise models,
    /// [`RunError::MemoryOut`] when the dense backend exceeds its budget and
    /// [`RunError::RegisterTooWide`] when a decision-diagram run would read
    /// out more than 64 qubits.  Under a limited [governor](Self::with_governor), a *static* run that
    /// hits a limit fails with [`RunError::DdMemoryOut`],
    /// [`RunError::Deadline`] or [`RunError::Cancelled`]; an interrupted
    /// *trajectory* run instead returns `Ok` with
    /// [`RunOutcome::interruption`] set and the completed shots in the
    /// histogram.
    pub fn run(
        &mut self,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
    ) -> Result<RunOutcome, RunError> {
        self.validate(circuit)?;
        if let Some(measure_start) = self.static_measurements_start(circuit) {
            let artifact = self.prepare_artifact(circuit, measure_start)?;
            return Ok(outcome_from_artifact(&artifact, shots, seed, None));
        }
        self.run_trajectories(circuit, shots, seed)
    }

    /// The front-door check of [`run`](Self::run),
    /// [`ServiceBroker::serve`](crate::ServiceBroker::serve) and the free
    /// `simulate_*_with_threads` functions: the circuit and the noise model,
    /// before anything is built.  Nothing behind it checks again (see the
    /// [module docs](self)).
    pub(crate) fn validate(&self, circuit: &Circuit) -> Result<(), RunError> {
        Self::validate_circuit(circuit)?;
        if let Some(model) = &self.noise {
            model
                .validate_for(circuit.num_qubits())
                .map_err(RunError::InvalidNoise)?;
        }
        Ok(())
    }

    /// Validates the *whole* circuit — for every request, including the
    /// trailing measurement block that the static path splits off instead of
    /// simulating.
    fn validate_circuit(circuit: &Circuit) -> Result<(), RunError> {
        circuit.validate().map_err(RunError::InvalidCircuit)
    }

    /// Whether a request runs on the static pipeline (plan → artifact →
    /// sample), as the start of its trailing measure block
    /// ([`Circuit::terminal_measurements_start`]): `Some` for a noise-free,
    /// static request.  Everything else (`None`) runs per shot on the
    /// trajectory loop — there is no reusable prepared sampler to build or
    /// cache.
    pub(crate) fn static_measurements_start(&self, circuit: &Circuit) -> Option<usize> {
        if self.effective_noise().is_some() {
            return None;
        }
        circuit.terminal_measurements_start()
    }

    /// The attached noise model, if it has any non-trivial channel.
    pub(crate) fn effective_noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref().filter(|model| model.has_noise())
    }

    /// The cache key for a `run` request on `circuit` under this simulator's
    /// configuration: the circuit fingerprint folded with everything else
    /// that changes the prepared sampler — backend choice, the
    /// Clifford-router flag, and the attached noise model (whose *presence*
    /// is tagged separately from its content, so "no noise" and "noise-free
    /// model attached" still collide onto the same artifact only when both
    /// produce identical simulations).
    ///
    /// Two simulators with equal `request_fingerprint`s for a circuit serve
    /// each other's cached artifacts; any angle-bit, register-layout,
    /// backend or noise difference yields a different key.
    #[must_use]
    pub fn request_fingerprint(&self, circuit: &Circuit) -> [u64; 2] {
        let [mut a, mut b] = circuit.fingerprint();
        let config = u64::from(self.backend as u8) << 8 | u64::from(self.clifford_router);
        a = hash_mix(a, config);
        b = hash_mix(b, config ^ 0x9e37_79b9_7f4a_7c15);
        match self.effective_noise() {
            Some(model) => {
                let [na, nb] = model.fingerprint();
                a = hash_mix(hash_mix(a, 1), na);
                b = hash_mix(hash_mix(b, 1), nb);
            }
            None => {
                a = hash_mix(a, 0);
                b = hash_mix(b, 0);
            }
        }
        [a, b]
    }

    /// Builds the [`SimArtifact`] for a noise-free, static `circuit` that
    /// passed the front door, whose trailing measure block begins at
    /// `measure_start` ([`static_measurements_start`](Self::static_measurements_start)):
    /// the route plan picks the engine, and that engine prepares the
    /// sampler.  Its two callers, [`run`](Self::run) and
    /// [`ServiceBroker::serve`](crate::ServiceBroker::serve), send every
    /// other request to the trajectory loop.
    pub(crate) fn prepare_artifact(
        &self,
        circuit: &Circuit,
        measure_start: usize,
    ) -> Result<SimArtifact, RunError> {
        let engine = route_plan(circuit, self.backend, self.clifford_router, None);
        engine.engine().check_sample_width(circuit.num_qubits())?;
        // Measure-free circuits — every classic benchmark — are their own
        // prefix, borrowed rather than cloned.
        let (prefix, mapping) = circuit.split_terminal_measurements(measure_start);
        let prepared = engine.engine().prepare(&prefix, self)?;
        let route = match prepared.handoff {
            None => RunRoute::single(engine, circuit.len()),
            Some(dd_ops) => RunRoute::handoff(dd_ops, circuit.len()),
        };
        Ok(SimArtifact::new(
            prepared,
            mapping,
            circuit.num_qubits(),
            circuit.num_clbits(),
            self.backend,
            route,
        ))
    }

    /// The trajectory path of a validated request: dynamic circuits, and
    /// every circuit under an effective noise model.  Noiseless runs are
    /// routed like static ones, so a fully-Clifford dynamic circuit runs on
    /// the tableau's trajectory runner.  Every trajectory run — through
    /// [`run`](Self::run), a [`ServiceBroker`](crate::ServiceBroker) or the
    /// free `simulate_*_with_threads` functions — goes through here.
    pub(crate) fn run_trajectories(
        &self,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
    ) -> Result<RunOutcome, RunError> {
        let engine = route_plan(
            circuit,
            self.backend,
            self.clifford_router,
            self.effective_noise(),
        );
        crate::trajectory::run_trajectories(self, engine, circuit, shots, seed)
    }
}

/// Builds the [`RunOutcome`] for a request served from a prepared artifact
/// — every noise-free static run, cached or not.  Building outcomes (no
/// cache, or [`CacheOutcome::Miss`]) report the artifact's build times; hit
/// and coalesced outcomes paid only the per-shot draw.
pub(crate) fn outcome_from_artifact(
    artifact: &SimArtifact,
    shots: u64,
    seed: u64,
    cache: Option<CacheOutcome>,
) -> RunOutcome {
    let sampling_start = Instant::now();
    let histogram = artifact.sample(shots, seed);
    let sampling_time = sampling_start.elapsed();
    let (strong_time, precompute_time) = match cache {
        None | Some(CacheOutcome::Miss) => (
            artifact.build_strong_time(),
            artifact.build_precompute_time(),
        ),
        // A warm or coalesced request pays nothing but the per-shot draw:
        // strong simulation and sampler preparation were amortized into the
        // artifact by the build that published it.
        Some(CacheOutcome::Hit | CacheOutcome::Coalesced) => (Duration::ZERO, Duration::ZERO),
    };
    RunOutcome {
        backend: artifact.backend(),
        representation_size: artifact.representation_size(),
        dd_stats: artifact.dd_stats(),
        histogram,
        strong_time,
        precompute_time,
        sampling_time,
        interruption: None,
        route: artifact.route().clone(),
        cache,
    }
}

/// Relabels a full-register sample through the trailing-measurement mapping:
/// classical bit `c` receives the sampled value of qubit `q` for every
/// `(q, c)` pair, later pairs overwriting earlier ones.
pub(crate) fn map_terminal_record(sample: u64, mapping: &[(Qubit, u16)]) -> u64 {
    let mut out = 0u64;
    for &(qubit, cbit) in mapping {
        let bit = ((sample >> qubit.0) & 1) as u8;
        out = crate::trajectory::record_bit(out, cbit, bit);
    }
    out
}

impl Default for WeakSimulator {
    fn default() -> Self {
        Self::new(Backend::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Qubit;

    #[test]
    fn both_backends_agree_on_a_ghz_circuit() {
        let circuit = algorithms::ghz(5);
        let shots = 20_000;
        let dd_outcome = WeakSimulator::new(Backend::DecisionDiagram)
            .run(&circuit, shots, 3)
            .unwrap();
        let sv_outcome = WeakSimulator::new(Backend::StateVector)
            .run(&circuit, shots, 3)
            .unwrap();
        for outcome in [&dd_outcome, &sv_outcome] {
            assert_eq!(outcome.histogram.shots(), shots);
            // Only the all-zeros and all-ones strings occur.
            assert!(outcome
                .histogram
                .counts()
                .keys()
                .all(|&k| k == 0 || k == 0b11111));
            let zero_freq = outcome.histogram.frequency(0);
            assert!(
                (zero_freq - 0.5).abs() < 0.02,
                "{} {zero_freq}",
                outcome.backend
            );
        }
        // The DD is much smaller than the dense vector.
        assert!(dd_outcome.representation_size < sv_outcome.representation_size);
    }

    #[test]
    fn memory_budget_produces_memory_out_only_for_vectors() {
        let circuit = algorithms::qft(18, true);
        let budget = MemoryBudget::from_bytes(1024);
        let vector = WeakSimulator::new(Backend::StateVector)
            .with_memory_budget(budget)
            .run(&circuit, 10, 0);
        assert!(matches!(vector, Err(RunError::MemoryOut { .. })));

        let dd = WeakSimulator::new(Backend::DecisionDiagram)
            .with_memory_budget(budget)
            .run(&circuit, 10, 0);
        assert!(dd.is_ok());
    }

    #[test]
    fn invalid_circuits_are_rejected_by_both_backends() {
        let mut c = Circuit::new(1);
        c.h(Qubit(5));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let result = WeakSimulator::new(backend).run(&c, 1, 0);
            assert!(matches!(result, Err(RunError::InvalidCircuit(_))));
        }
    }

    #[test]
    fn outcome_reports_timings_and_sizes() {
        let circuit = algorithms::qft(10, true);
        let outcome = WeakSimulator::new(Backend::DecisionDiagram)
            .run(&circuit, 100, 7)
            .unwrap();
        assert_eq!(outcome.representation_size, 10); // product state: 1 node/qubit
        assert!(outcome.weak_time() >= outcome.sampling_time);
        assert_eq!(outcome.histogram.num_qubits(), 10);
        let sv = WeakSimulator::new(Backend::StateVector)
            .run(&circuit, 100, 7)
            .unwrap();
        assert_eq!(sv.representation_size, 1 << 10);
    }

    #[test]
    fn strong_state_probability_queries_match() {
        let circuit = algorithms::bell_pair();
        let dd = WeakSimulator::new(Backend::DecisionDiagram)
            .strong(&circuit)
            .unwrap();
        let sv = WeakSimulator::new(Backend::StateVector)
            .strong(&circuit)
            .unwrap();
        for i in 0..4 {
            assert!((dd.probability(i) - sv.probability(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let circuit = algorithms::w_state(4);
        let mut sim = WeakSimulator::new(Backend::DecisionDiagram);
        let a = sim.run(&circuit, 1000, 11).unwrap();
        let b = sim.run(&circuit, 1000, 11).unwrap();
        assert_eq!(a.histogram, b.histogram);
        let c = sim.run(&circuit, 1000, 12).unwrap();
        assert_ne!(a.histogram, c.histogram);
    }

    #[test]
    fn backend_display_names() {
        assert_eq!(Backend::DecisionDiagram.to_string(), "DD-based");
        assert_eq!(Backend::StateVector.to_string(), "vector-based");
    }

    #[test]
    fn trailing_measurements_stay_on_the_static_path_and_relabel_bits() {
        // GHZ with the measurement order swapped: c0 <- q1, c1 <- q0, and
        // qubit 2 never read.  Records are 2 bits wide, only 00 and 11 occur.
        let mut circuit = algorithms::ghz(3);
        circuit.measure(Qubit(1), 0).measure(Qubit(0), 1);
        assert!(!circuit.is_dynamic());
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let sim = WeakSimulator::new(backend);
            // Only static requests consult (and populate) a broker's cache.
            let broker = crate::ServiceBroker::new(
                crate::ArtifactCache::unbounded(),
                crate::ServiceConfig::default(),
            );
            let outcome = broker.serve(&sim, &circuit, 4000, 9).unwrap();
            assert_eq!(outcome.cache, Some(CacheOutcome::Miss));
            assert_eq!(outcome.histogram.num_qubits(), 2);
            assert!(outcome
                .histogram
                .counts()
                .keys()
                .all(|&k| k == 0 || k == 0b11));
            assert!((outcome.histogram.frequency(0) - 0.5).abs() < 0.03);
        }
    }

    #[test]
    fn dynamic_circuits_route_through_the_trajectory_engine() {
        let mut circuit = Circuit::new(2);
        circuit
            .h(Qubit(0))
            .measure(Qubit(0), 0)
            // Copy the collapsed value onto qubit 1, then read it out.
            .cx(Qubit(0), Qubit(1))
            .measure(Qubit(1), 1);
        assert!(circuit.is_dynamic());
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let outcome = WeakSimulator::new(backend).run(&circuit, 4000, 21).unwrap();
            assert_eq!(outcome.strong_time, Duration::ZERO, "{backend}");
            // Both bits always agree: only records 00 and 11.
            assert!(outcome
                .histogram
                .counts()
                .keys()
                .all(|&k| k == 0 || k == 0b11));
            assert!((outcome.histogram.frequency(0b11) - 0.5).abs() < 0.03);
        }
    }

    #[test]
    fn run_validates_the_trailing_measurement_block() {
        // The static path strong-simulates only the unitary prefix; a bad
        // qubit or clbit in the terminal measure block must still error
        // instead of silently producing a zero bit.
        let mut bad_qubit = Circuit::new(2);
        bad_qubit.h(Qubit(0)).measure(Qubit(5), 0);
        let mut bad_cbit = Circuit::new(2);
        bad_cbit.h(Qubit(0)).push(circuit::Operation::Measure {
            qubit: Qubit(0),
            cbit: 7,
        });
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            for circuit in [&bad_qubit, &bad_cbit] {
                let result = WeakSimulator::new(backend).run(circuit, 10, 0);
                assert!(
                    matches!(result, Err(RunError::InvalidCircuit(_))),
                    "{backend}"
                );
            }
        }
    }

    #[test]
    fn strong_simulates_the_unitary_prefix_of_a_terminal_measure_block() {
        // h; cx; measure q -> c: static, so strong returns the Bell state
        // the block reads out, on either backend.
        let mut circuit = algorithms::bell_pair();
        circuit.measure(Qubit(0), 0).measure(Qubit(1), 1);
        assert!(!circuit.is_dynamic());
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let state = WeakSimulator::new(backend).strong(&circuit).unwrap();
            let unitary = WeakSimulator::new(backend)
                .strong(&algorithms::bell_pair())
                .unwrap();
            assert_eq!(state.num_qubits(), 2, "{backend}");
            for index in 0..4 {
                assert_eq!(
                    state.probability(index),
                    unitary.probability(index),
                    "{backend} |{index:02b}>"
                );
            }
            assert!((state.probability(0b00) - 0.5).abs() < 1e-12, "{backend}");
            assert!((state.probability(0b11) - 0.5).abs() < 1e-12, "{backend}");
        }
    }

    #[test]
    fn strong_rejects_dynamic_circuits() {
        let mut circuit = Circuit::new(1);
        circuit.h(Qubit(0)).reset(Qubit(0));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let result = WeakSimulator::new(backend).strong(&circuit);
            assert!(
                matches!(result, Err(RunError::DynamicCircuit { op_index: 1 })),
                "{backend}"
            );
        }
    }

    #[test]
    fn dynamic_circuit_errors_report_the_first_dynamic_operation() {
        // x q1; t q1; measure q0 -> c0; h q0; measure q0 -> c1: the
        // mid-circuit measurement is op 2, on either backend, with or
        // without the router.
        let mut circuit = Circuit::new(2);
        circuit
            .x(Qubit(1))
            .t(Qubit(1))
            .measure(Qubit(0), 0)
            .h(Qubit(0))
            .measure(Qubit(0), 1);
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            for sim in [
                WeakSimulator::new(backend),
                WeakSimulator::new(backend).with_clifford_router(),
            ] {
                assert!(
                    matches!(
                        sim.strong(&circuit),
                        Err(RunError::DynamicCircuit { op_index: 2 })
                    ),
                    "{backend}"
                );
            }
        }
        // A DD failure keeps the index its applying caller stamped.
        let err = DdError::NonUnitaryOperation {
            op: "reset q[0]".into(),
            op_index: None,
        };
        assert_eq!(
            RunError::from(err.with_op_index(3)),
            RunError::DynamicCircuit { op_index: 3 }
        );
    }

    #[test]
    fn strong_checks_the_circuit_before_any_budget() {
        // A 1-node budget fails the zero state of any register wider than
        // one qubit, so these errors can only come from the front door.
        let sim = WeakSimulator::new(Backend::DecisionDiagram)
            .with_governor(Governor::unlimited().with_node_budget(1));
        let mut out_of_range = Circuit::new(2);
        out_of_range.h(Qubit(0)).cx(Qubit(0), Qubit(5));
        assert!(matches!(
            sim.strong(&out_of_range),
            Err(RunError::InvalidCircuit(_))
        ));
        let mut dynamic = Circuit::new(2);
        dynamic.h(Qubit(0)).reset(Qubit(0));
        assert!(matches!(
            sim.strong(&dynamic),
            Err(RunError::DynamicCircuit { op_index: 1 })
        ));
        // A circuit that passes the door meets the budget.
        assert!(matches!(
            sim.strong(&algorithms::bell_pair()),
            Err(RunError::DdMemoryOut(_))
        ));
    }

    #[test]
    fn served_requests_are_validated_on_both_backends() {
        let mut c = Circuit::new(1);
        c.h(Qubit(5));
        for backend in [Backend::DecisionDiagram, Backend::StateVector] {
            let broker = crate::ServiceBroker::new(
                crate::ArtifactCache::unbounded(),
                crate::ServiceConfig::default(),
            );
            let sim = WeakSimulator::new(backend);
            assert!(
                matches!(
                    broker.serve(&sim, &c, 10, 0),
                    Err(RunError::InvalidCircuit(_))
                ),
                "{backend}"
            );
            assert_eq!(broker.cache().stats().entries, 0, "{backend}");
        }
    }

    #[test]
    fn memory_budget_applies_to_dynamic_vector_runs() {
        let mut circuit = Circuit::new(18);
        circuit.h(Qubit(0)).reset(Qubit(0));
        let budget = MemoryBudget::from_bytes(1024);
        let vector = WeakSimulator::new(Backend::StateVector)
            .with_memory_budget(budget)
            .run(&circuit, 10, 0);
        assert!(matches!(vector, Err(RunError::MemoryOut { .. })));
        let dd = WeakSimulator::new(Backend::DecisionDiagram)
            .with_memory_budget(budget)
            .run(&circuit, 10, 0);
        assert!(dd.is_ok());
    }

    #[test]
    fn terminal_record_mapping_overwrites_in_order() {
        use super::map_terminal_record;
        // q0 -> c0, then q1 -> c0: the later pair wins.
        let mapping = [(Qubit(0), 0), (Qubit(1), 0)];
        assert_eq!(map_terminal_record(0b01, &mapping), 0);
        assert_eq!(map_terminal_record(0b10, &mapping), 1);
        // Unmapped qubits are dropped.
        let mapping = [(Qubit(2), 1)];
        assert_eq!(map_terminal_record(0b100, &mapping), 0b10);
        assert_eq!(map_terminal_record(0b011, &mapping), 0);
    }
}
