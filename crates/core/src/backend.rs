//! The engine abstraction: trait dispatch for every engine-specific step of
//! a run.
//!
//! [`WeakSimulator`](crate::WeakSimulator) and the
//! [`trajectory`](crate::trajectory) module never match on an engine
//! themselves (the one exception is the public dense-only
//! [`WeakSimulator::strong`](crate::WeakSimulator::strong), which picks
//! `DdEngine::strong` or `SvEngine::strong` by backend).  Each engine —
//! decision diagrams, dense vectors and the stabilizer tableau — ships an
//! [`Engine`] (static preparation: strong simulation compiled into the
//! sampler [`SimArtifact::sample`] draws from, and the trajectory memory
//! hook) and a [`TrajectoryRunner`] (the per-shot
//! measure/reset/collapse primitives), and [`EngineKind::engine`] is the
//! single dispatch table.  Every run then follows one of two code paths
//! written once for all engines: the static pipeline (route plan →
//! artifact → [`SimArtifact::sample`]) or the trajectory shot loop
//! (decision drawing, classical-record bookkeeping, event walk).
//!
//! [`SimArtifact::sample`]: crate::SimArtifact::sample

use crate::artifact::{Prepared, PreparedSampler};
use crate::router::EngineKind;
use crate::simulator::{RunError, StrongState, WeakSimulator};
use crate::trajectory::{DdRunner, Event, SvRunner, TableauRunner, TrajectoryPlan};
use circuit::{Circuit, Qubit};
use dd::{CompiledSampler, DdError, DdPackage, DdStats, Governor, StateDd, Until};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use statevector::{MemoryBudget, PrefixSampler, StateVector};
use std::time::{Duration, Instant};
use tableau::Tableau;

/// An execution engine: everything a run needs from it outside the
/// per-shot trajectory loop.
///
/// Implementations are stateless unit structs ([`DdEngine`], [`SvEngine`],
/// [`TableauEngine`]); all run state lives in the [`Prepared`] /
/// [`TrajectoryRunner`] values they produce.
pub(crate) trait Engine: Sync {
    /// Strong-simulates the validated, measure-free static `circuit` under
    /// `sim`'s configuration and prepares this engine's sampler — the
    /// expensive half of a static run.  Only the sampler is kept: the
    /// strong state is dropped as soon as it is compiled.
    fn prepare(&self, circuit: &Circuit, sim: &WeakSimulator) -> Result<Prepared, RunError>;

    /// Pre-checks the peak memory a trajectory run with `workers` concurrent
    /// workers would allocate against `budget`.  Engines whose memory grows
    /// with state structure rather than `2^n` accept unconditionally.
    fn check_trajectory_memory(
        &self,
        _num_qubits: u16,
        _workers: usize,
        _budget: MemoryBudget,
    ) -> Result<(), RunError> {
        Ok(())
    }

    /// Pre-checks that a final measurement of all `num_qubits` qubits fits
    /// this engine's `u64` samples, before any state is built.  The default
    /// accepts: a dense vector that wide already fails its memory check,
    /// and the tableau read-out keeps the low 64 qubits.
    fn check_sample_width(&self, _num_qubits: u16) -> Result<(), RunError> {
        Ok(())
    }

    /// Builds this engine's per-worker trajectory runner for `plan`, under
    /// one worker's armed governor clone.  Fails only when the governor
    /// interrupts the shared-prefix construction — before any shot has run.
    fn trajectory_runner<'p>(
        &self,
        plan: &'p TrajectoryPlan,
        governor: Governor,
    ) -> Result<Box<dyn TrajectoryRunner + 'p>, DdError>;
}

/// The per-shot primitive surface of one engine, owned by a single worker
/// thread: collapse, reset, noise realization and terminal read-out.
///
/// The trajectory shot loop in [`trajectory`](crate::trajectory) drives
/// these primitives identically for every engine; only the state
/// representation behind them differs.
pub(crate) trait TrajectoryRunner {
    /// Rewinds to the shared prefix state, starting a fresh shot.
    fn begin_shot(&mut self);

    /// `P(qubit = 1)` of the current state, just before event `k` —
    /// consulted by the state-dependent decision draws (measure, reset,
    /// amplitude damping).
    fn p_one(&mut self, k: usize, qubit: Qubit) -> Result<f64, DdError>;

    /// Applies event `k` under the drawn `decision` — collapse for a
    /// measurement, collapse-and-flip for a reset, the Kraus branch of a
    /// noise site, nothing for the skipped marker — then applies the unitary
    /// segment that follows, resolving classical conditions against
    /// `record`.
    fn advance(&mut self, k: usize, event: Event, decision: u8, record: u64)
        -> Result<(), DdError>;

    /// Draws one terminal full-register sample from the current state.
    fn terminal_sample(&mut self, rng: &mut SmallRng) -> Result<u64, DdError>;

    /// Housekeeping between chunks (garbage collection).
    fn end_of_chunk(&mut self) {}

    /// Peak representation size observed so far.
    fn representation_size(&self) -> u128;

    /// Package table statistics (decision-diagram engines only).
    fn dd_stats(&self) -> Option<DdStats> {
        None
    }
}

impl EngineKind {
    /// The engine implementing this kind — the one place an engine choice
    /// is resolved to executable code.
    pub(crate) fn engine(self) -> &'static dyn Engine {
        match self {
            EngineKind::DecisionDiagram => &DdEngine,
            EngineKind::StateVector => &SvEngine,
            EngineKind::Tableau => &TableauEngine,
        }
    }
}

/// The decision-diagram engine (the method proposed by the paper).
pub(crate) struct DdEngine;

/// The dense statevector engine (the baseline method).
pub(crate) struct SvEngine;

/// The stabilizer-tableau engine, chosen only by the Clifford router for
/// circuits it has dry-run on a tableau.
pub(crate) struct TableauEngine;

impl DdEngine {
    /// Strong-simulates `circuit` into a fresh package armed with
    /// `governor`.
    pub(crate) fn strong(circuit: &Circuit, governor: &Governor) -> Result<StrongState, RunError> {
        let (package, state, _) = Self::build(circuit, governor, Until::End)?;
        Ok(StrongState::DecisionDiagram { package, state })
    }

    /// Builds the diagram of `circuit` from `|0...0>` in a fresh package
    /// armed with `governor`, until `until` stops the construction loop;
    /// returns the package, the state and the number of operations applied.
    fn build(
        circuit: &Circuit,
        governor: &Governor,
        until: Until,
    ) -> Result<(Box<DdPackage>, StateDd, usize), RunError> {
        // Decision diagrams grow with the state's structure, not with 2^n,
        // so the dense memory budget never applies; their memory is bounded
        // by the governor's node/byte budget instead.
        let mut package = Box::new(DdPackage::new());
        package.set_governor(governor.arm());
        let zero = StateDd::zero_state(&mut package, circuit.num_qubits())?;
        let (state, applied) = dd::apply_circuit_until(&mut package, zero, circuit, until)?;
        Ok((package, state, applied))
    }
}

impl SvEngine {
    /// Strong-simulates `circuit` into a dense vector within `budget`,
    /// under `governor`'s deadline and cancellation token.
    pub(crate) fn strong(
        circuit: &Circuit,
        budget: MemoryBudget,
        governor: &Governor,
    ) -> Result<StrongState, RunError> {
        circuit.validate().map_err(RunError::InvalidCircuit)?;
        if let Some(op_index) = circuit
            .iter()
            .position(|op| op.is_non_unitary() || op.is_conditioned())
        {
            return Err(RunError::DynamicCircuit { op_index });
        }
        let num_qubits = circuit.num_qubits();
        let required_bytes = MemoryBudget::state_vector_bytes(num_qubits);
        if !budget.allows(required_bytes) {
            return Err(RunError::MemoryOut {
                num_qubits,
                required_bytes,
            });
        }
        let mut vector = StateVector::zero_state(num_qubits);
        apply_dense(&mut vector, circuit, 0, &governor.arm())?;
        Ok(StrongState::StateVector(vector))
    }
}

/// The one dense construction loop: applies the operations of the
/// validated, unitary `circuit` from `start` on to `vector`, probing the
/// armed `governor`'s deadline and cancellation token before each.  Its
/// node/byte budgets bound diagrams only; the memory budget admitted the
/// vector.
fn apply_dense(
    vector: &mut StateVector,
    circuit: &Circuit,
    start: usize,
    governor: &Governor,
) -> Result<(), RunError> {
    for (op_index, op) in circuit.iter().enumerate().skip(start) {
        governor
            .check_now()
            .map_err(|e| RunError::from(e.with_op_index(op_index)))?;
        statevector::apply_operation(vector, op);
    }
    Ok(())
}

/// The sampler-compilation half of both dense engines' `prepare`: compiles
/// the strong `state` that took `strong_time` to build.  The state — and
/// with it the DD package's tables and caches, or the dense amplitudes — is
/// dropped on return, before any shot is drawn.
fn compile_dense(state: StrongState, strong_time: Duration) -> Result<Prepared, RunError> {
    let precompute_start = Instant::now();
    let sampler = match &state {
        StrongState::DecisionDiagram { package, state } => {
            PreparedSampler::DecisionDiagram(CompiledSampler::new(package, state)?)
        }
        StrongState::StateVector(vector) => {
            PreparedSampler::StateVector(PrefixSampler::new(vector))
        }
    };
    Ok(Prepared {
        sampler,
        representation_size: state.representation_size(),
        dd_stats: state.dd_stats(),
        handoff: None,
        strong_time,
        precompute_time: precompute_start.elapsed(),
    })
}

impl Engine for DdEngine {
    /// Builds the diagram and compiles its sampler.  Under the router, a
    /// build whose diagram stops compressing ([`Until::Incompressible`])
    /// is handed to the dense engine instead, when its `2^n` amplitudes
    /// plus their prefix sums fit the simulator's memory budget: the
    /// diagram is exported once, the package dropped, and the remaining
    /// operations run on the state vector — still under the governor's
    /// deadline and cancellation token — which compiles into a
    /// [`PrefixSampler`].  The prepared half then keeps the diagram
    /// segment's [`DdStats`] and reports `2^n` as its size.
    fn prepare(&self, circuit: &Circuit, sim: &WeakSimulator) -> Result<Prepared, RunError> {
        let n = circuit.num_qubits();
        let dense_bytes = MemoryBudget::state_vector_bytes(n) + MemoryBudget::prefix_array_bytes(n);
        let until = if sim.routes() && sim.memory_budget().allows(dense_bytes) {
            Until::Incompressible
        } else {
            Until::End
        };
        let strong_start = Instant::now();
        let (package, state, applied) = Self::build(circuit, sim.governor(), until)?;
        if applied == circuit.len() {
            let strong = StrongState::DecisionDiagram { package, state };
            return compile_dense(strong, strong_start.elapsed());
        }
        let dd_stats = package.stats();
        let governor = package.governor().clone();
        let mut vector = StateVector::from_amplitudes(state.to_amplitudes(&package));
        drop(package);
        apply_dense(&mut vector, circuit, applied, &governor)?;
        let mut prepared = compile_dense(StrongState::StateVector(vector), strong_start.elapsed())?;
        prepared.dd_stats = Some(dd_stats);
        prepared.handoff = Some(applied);
        Ok(prepared)
    }

    fn check_sample_width(&self, num_qubits: u16) -> Result<(), RunError> {
        // The compiled sampler draws `u64` bitstrings.
        if num_qubits > 64 {
            return Err(RunError::RegisterTooWide { num_qubits });
        }
        Ok(())
    }

    fn trajectory_runner<'p>(
        &self,
        plan: &'p TrajectoryPlan,
        governor: Governor,
    ) -> Result<Box<dyn TrajectoryRunner + 'p>, DdError> {
        Ok(Box::new(DdRunner::new(plan, governor)?))
    }
}

impl Engine for SvEngine {
    fn prepare(&self, circuit: &Circuit, sim: &WeakSimulator) -> Result<Prepared, RunError> {
        let strong_start = Instant::now();
        let state = Self::strong(circuit, sim.memory_budget(), sim.governor())?;
        compile_dense(state, strong_start.elapsed())
    }

    fn check_trajectory_memory(
        &self,
        num_qubits: u16,
        workers: usize,
        budget: MemoryBudget,
    ) -> Result<(), RunError> {
        // Each worker holds the shared base vector *plus* the per-shot clone
        // it evolves, so peak concurrent allocation is two vectors per
        // worker — account for all of them, not just one.
        let required = MemoryBudget::state_vector_bytes(num_qubits) * 2 * workers as u128;
        if !budget.allows(required) {
            return Err(RunError::MemoryOut {
                num_qubits,
                required_bytes: required,
            });
        }
        Ok(())
    }

    fn trajectory_runner<'p>(
        &self,
        plan: &'p TrajectoryPlan,
        _governor: Governor,
    ) -> Result<Box<dyn TrajectoryRunner + 'p>, DdError> {
        // Dense evolution is infallible (memory is pre-checked up front);
        // deadline and cancellation are honoured at chunk boundaries.
        Ok(Box::new(SvRunner::new(plan)))
    }
}

impl Engine for TableauEngine {
    fn prepare(&self, circuit: &Circuit, _sim: &WeakSimulator) -> Result<Prepared, RunError> {
        let num_qubits = usize::from(circuit.num_qubits()).max(1);
        let strong_start = Instant::now();
        let mut tab = Tableau::zero_state(num_qubits);
        // Infallible: the router dry-ran every operation, and a static
        // prefix is unitary, so no outcome is drawn from the RNG.
        #[allow(clippy::expect_used)]
        tableau::apply_circuit(&mut tab, circuit, &mut SmallRng::seed_from_u64(0))
            .expect("the router dry-ran every operation on a tableau");
        let strong_time = strong_start.elapsed();
        let precompute_start = Instant::now();
        let sampler = PreparedSampler::Tableau(tab.measurement_sampler());
        Ok(Prepared {
            sampler,
            // The stabilizer generator count — the tableau analogue of DD
            // node count / dense amplitude count.
            representation_size: 2 * num_qubits as u128,
            dd_stats: None,
            handoff: None,
            strong_time,
            precompute_time: precompute_start.elapsed(),
        })
    }

    fn trajectory_runner<'p>(
        &self,
        plan: &'p TrajectoryPlan,
        _governor: Governor,
    ) -> Result<Box<dyn TrajectoryRunner + 'p>, DdError> {
        // A shot is a few sign-mask XORs per step; deadline and
        // cancellation are honoured at chunk boundaries, like the dense
        // runner.
        Ok(Box::new(TableauRunner::new(plan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Backend;

    #[test]
    fn dd_engine_ignores_the_dense_memory_budget() {
        let circuit = algorithms::ghz(12);
        let tight = MemoryBudget::from_bytes(64);
        let governor = Governor::unlimited();
        let dd = DdEngine::strong(&circuit, &governor).unwrap();
        assert_eq!(dd.backend(), Backend::DecisionDiagram);
        assert!(matches!(
            SvEngine::strong(&circuit, tight, &governor),
            Err(RunError::MemoryOut { .. })
        ));
        assert_eq!(
            SvEngine::strong(&circuit, MemoryBudget::unlimited(), &governor)
                .unwrap()
                .backend(),
            Backend::StateVector
        );
    }

    #[test]
    fn trajectory_memory_check_scales_with_workers() {
        let sv = EngineKind::StateVector.engine();
        let one_vector = MemoryBudget::state_vector_bytes(10);
        // Two vectors per worker: a budget of exactly two allows one worker
        // but not two.
        let budget = MemoryBudget::from_bytes(u64::try_from(one_vector * 2).unwrap());
        assert!(sv.check_trajectory_memory(10, 1, budget).is_ok());
        assert!(matches!(
            sv.check_trajectory_memory(10, 2, budget),
            Err(RunError::MemoryOut { .. })
        ));
        // The structure-sized engines never fail the dense pre-check.
        for kind in [EngineKind::DecisionDiagram, EngineKind::Tableau] {
            assert!(kind
                .engine()
                .check_trajectory_memory(50, 64, MemoryBudget::from_bytes(1))
                .is_ok());
        }
    }
}
