//! The router: runs stabilizer circuits on the polynomial-time
//! stabilizer-tableau engine (the `tableau` crate), everything else on the
//! configured dense backend, and moves a decision-diagram build whose
//! diagram stopped compressing onto a state vector.
//!
//! Routing is opt-in
//! ([`WeakSimulator::with_clifford_router`](crate::WeakSimulator::with_clifford_router));
//! it never changes *what* is sampled, only *which engine* does the work:
//!
//! * a **fully-Clifford** circuit (every operation lowers through
//!   `tableau::lower`, the one Clifford test) runs entirely on the
//!   tableau — thousand-qubit GHZ and stabilizer-code circuits sample in
//!   milliseconds where a dense backend could not even allocate the
//!   state.  Dynamic circuits qualify when the tableau's X/Z bits cannot
//!   depend on the classical record: a conditioned gate must be a Pauli,
//!   and no measurement or reset may be conditioned.  The trajectory
//!   runner then compiles the run into one sign program (see the
//!   `tableau` crate docs);
//! * anything else runs on the dense backend.  On the state-vector
//!   backend it runs whole there.  On the decision-diagram backend a
//!   static build runs until its diagram stops compressing — its live node
//!   count has stayed above `2^n / 128` (and above a 256-node floor) for
//!   five consecutive gates, see [`dd::Until::Incompressible`].  From
//!   there the diagram is exported once to `2^n` amplitudes, the rest of
//!   the circuit runs on the state vector, and the run samples from its
//!   prefix sums: the route reads `DD-based(k) -> vector-based(m − k)`.
//!   The paper's Table I shows why: diagrams win on structured states but
//!   cost a few hundred nanoseconds per node per gate, and a supremacy or
//!   random circuit ends near `2^n` nodes, where a dense kernel costs
//!   about one nanosecond per amplitude per gate.  The handoff needs the
//!   amplitudes plus the prefix sums to fit the simulator's
//!   [memory budget](crate::WeakSimulator::with_memory_budget) and at
//!   most 30 qubits; the rule reads node counts only, never the clock, so
//!   the route and the histogram stay seed-deterministic.  Trajectory runs
//!   never hand off.
//!
//! Noise narrows the choice.  Pauli channels (bit flip, phase flip,
//! depolarizing) are native to the tableau (Gottesman–Knill), so a noisy
//! fully-Clifford run still goes there; amplitude damping, whose branch
//! depends on the state, keeps the whole run dense.
//!
//! `route_plan` picks the engine before the run, and the rest of the run is
//! the ordinary pipeline of that engine; the handoff is the one decision
//! taken during a run, inside the decision-diagram engine's static build.
//! Static circuits go plan → artifact → sample through
//! [`SimArtifact::sample`](crate::SimArtifact::sample); dynamic ones run on
//! the shared [`trajectory`](crate::trajectory) loop, where the tableau is
//! one more trajectory runner behind the same chunked seeding, worker pool
//! and governor checks as the dense engines.  Whichever way a run goes,
//! [`RunOutcome::route`](crate::RunOutcome::route) reports the engines
//! that executed it.
//!
//! Registers wider than 64 qubits run in full on the tableau, but the
//! `u64`-keyed [`ShotHistogram`](crate::ShotHistogram) records only the low
//! 64 bits of each full-register sample.

use crate::simulator::Backend;
use circuit::{Circuit, NoiseModel};
use std::fmt;

/// The engine that executed one routed segment (a superset of [`Backend`]:
/// the stabilizer tableau is a router-only engine with no dense strong
/// state, so it is not a [`Backend`] variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The Gottesman–Knill stabilizer-tableau engine (`tableau` crate).
    Tableau,
    /// The edge-weighted decision-diagram engine.
    DecisionDiagram,
    /// The dense statevector engine.
    StateVector,
}

impl From<Backend> for EngineKind {
    fn from(backend: Backend) -> Self {
        match backend {
            Backend::DecisionDiagram => EngineKind::DecisionDiagram,
            Backend::StateVector => EngineKind::StateVector,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Tableau => write!(f, "tableau"),
            EngineKind::DecisionDiagram => write!(f, "DD-based"),
            EngineKind::StateVector => write!(f, "vector-based"),
        }
    }
}

/// One contiguous block of circuit operations executed by a single engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSegment {
    /// The engine that executed the block.
    pub engine: EngineKind,
    /// Number of circuit operations in the block.
    pub ops: usize,
}

/// How a run was routed: which engine executed each contiguous segment of
/// the circuit, in order; the segments' operation counts sum to the
/// circuit's length, terminal measurements included (they count towards
/// the last segment).  A run reports a single segment — the tableau, or
/// the configured dense backend — except a routed decision-diagram build
/// handed to the dense engine, which reports two:
/// `DD-based(k) -> vector-based(m − k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRoute {
    /// The executed segments, in circuit order.
    pub segments: Vec<RouteSegment>,
}

impl RunRoute {
    /// The route of a run executed whole by `engine`.
    pub(crate) fn single(engine: EngineKind, ops: usize) -> Self {
        Self {
            segments: vec![RouteSegment { engine, ops }],
        }
    }

    /// The route of a run whose first `dd_ops` operations ran on a
    /// decision diagram before the dense engine took over the state and
    /// ran the rest of its `total_ops`.
    pub(crate) fn handoff(dd_ops: usize, total_ops: usize) -> Self {
        Self {
            segments: vec![
                RouteSegment {
                    engine: EngineKind::DecisionDiagram,
                    ops: dd_ops,
                },
                RouteSegment {
                    engine: EngineKind::StateVector,
                    ops: total_ops - dd_ops,
                },
            ],
        }
    }

    /// Whether any segment ran on the stabilizer-tableau engine.
    #[must_use]
    pub fn used_tableau(&self) -> bool {
        self.segments
            .iter()
            .any(|s| s.engine == EngineKind::Tableau)
    }
}

impl fmt::Display for RunRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, segment) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}({})", segment.engine, segment.ops)?;
        }
        Ok(())
    }
}

/// Decides which engine runs a validated circuit under the effective
/// `noise` model (no shot is drawn): the tableau for a fully-Clifford
/// circuit with `router` on, the dense `backend` for everything else.
///
/// Noise narrows the choice: only Pauli channels are native to the
/// tableau, so any other channel keeps the run dense.
///
/// The Clifford test is the tableau lowering itself ([`tableau_accepts`]),
/// so the decision and the execution cannot disagree: every later tableau
/// application of an accepted circuit is infallible.
pub(crate) fn route_plan(
    circuit: &Circuit,
    backend: Backend,
    router: bool,
    noise: Option<&NoiseModel>,
) -> EngineKind {
    let tableau = router && noise.is_none_or(NoiseModel::is_pauli) && tableau_accepts(circuit);
    if tableau {
        EngineKind::Tableau
    } else {
        backend.into()
    }
}

/// Lowers every operation of `circuit` onto the tableau primitives and
/// reports whether all of them lowered and none makes the tableau's X/Z
/// bits depend on the classical record (a conditioned non-Pauli gate, a
/// conditioned measure or reset) — the condition for compiling the run
/// into one sign program.  Acceptance depends on the operations alone,
/// never on the state or the drawn outcomes.
fn tableau_accepts(circuit: &Circuit) -> bool {
    let num_qubits = usize::from(circuit.num_qubits()).max(1);
    circuit.iter().enumerate().all(|(op_index, op)| {
        tableau::lower(op, op_index, num_qubits).is_ok_and(|lowered| lowered.fixes_structure())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::{Operation, Qubit};

    #[test]
    fn route_display_chains_segments() {
        let route = RunRoute {
            segments: vec![
                RouteSegment {
                    engine: EngineKind::Tableau,
                    ops: 17,
                },
                RouteSegment {
                    engine: EngineKind::DecisionDiagram,
                    ops: 3,
                },
            ],
        };
        assert_eq!(route.to_string(), "tableau(17) -> DD-based(3)");
        assert!(route.used_tableau());
        let dense = RunRoute::single(EngineKind::StateVector, 5);
        assert_eq!(dense.to_string(), "vector-based(5)");
        assert!(!dense.used_tableau());
    }

    #[test]
    fn fully_clifford_circuits_route_to_the_tableau() {
        let ghz = algorithms::ghz(4);
        let engine = route_plan(&ghz, Backend::DecisionDiagram, true, None);
        assert_eq!(engine, EngineKind::Tableau);
        let outcome = crate::WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .run(&ghz, 2000, 3)
            .unwrap();
        assert_eq!(outcome.route, RunRoute::single(engine, ghz.len()));
        assert!(outcome.route.used_tableau());
        assert_eq!(outcome.histogram.shots(), 2000);
        assert!(outcome
            .histogram
            .counts()
            .keys()
            .all(|&k| k == 0 || k == 0b1111));
    }

    #[test]
    fn non_clifford_circuits_stay_dense() {
        let mut c = Circuit::new(1);
        c.t(Qubit(0));
        let engine = route_plan(&c, Backend::DecisionDiagram, true, None);
        assert_eq!(engine, EngineKind::DecisionDiagram);
        let broker = crate::ServiceBroker::new(
            crate::ArtifactCache::unbounded(),
            crate::ServiceConfig::default(),
        );
        let sim = crate::WeakSimulator::new(Backend::DecisionDiagram).with_clifford_router();
        let outcome = broker.serve(&sim, &c, 10, 0).unwrap();
        assert_eq!(outcome.route, RunRoute::single(engine, 1));
        assert_eq!(
            outcome.cache,
            Some(crate::CacheOutcome::Miss),
            "dense runs stay on the static pipeline"
        );

        // A Clifford prefix does not split the run, noiseless or under
        // Pauli noise: the whole circuit stays on the dense backend.
        let mut prefixed = Circuit::new(2);
        prefixed
            .x(Qubit(0))
            .t(Qubit(1))
            .measure(Qubit(0), 0)
            .h(Qubit(1));
        let noise = algorithms::hardware_noise(0.01);
        for model in [None, Some(&noise)] {
            let engine = route_plan(&prefixed, Backend::DecisionDiagram, true, model);
            assert_eq!(engine, EngineKind::DecisionDiagram);
        }
        let outcome = crate::WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .with_noise(noise)
            .run(&prefixed, 100, 0)
            .unwrap();
        assert_eq!(
            outcome.route,
            RunRoute::single(EngineKind::DecisionDiagram, prefixed.len())
        );
    }

    #[test]
    fn pauli_noisy_clifford_circuits_route_to_the_tableau() {
        let cycle = algorithms::stabilizer_cycle(4, 2);
        let pauli = algorithms::hardware_noise(0.01);
        let engine = route_plan(&cycle, Backend::DecisionDiagram, true, Some(&pauli));
        assert_eq!(engine, EngineKind::Tableau);
        let outcome = crate::WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .with_noise(pauli)
            .run(&cycle, 500, 3)
            .unwrap();
        assert_eq!(outcome.route, RunRoute::single(engine, cycle.len()));

        // Amplitude damping is not a Pauli channel.
        let damping = NoiseModel::new()
            .with_gate_noise(circuit::NoiseChannel::depolarizing(0.01))
            .with_qubit_noise(Qubit(0), circuit::NoiseChannel::amplitude_damping(0.05));
        let engine = route_plan(&cycle, Backend::DecisionDiagram, true, Some(&damping));
        assert_eq!(engine, EngineKind::DecisionDiagram);
    }

    #[test]
    fn the_tableau_lowering_alone_decides_the_route() {
        // u(0, pi/2, pi/2) = diag(1, e^{i pi}) = Z although no Euler angle
        // is a multiple of pi, so its controlled form is exactly CZ.  On
        // |+>|+> followed by H on the target it makes a Bell pair.
        let mut bell = Circuit::new(2);
        bell.h(Qubit(0)).h(Qubit(1));
        bell.push(Operation::Unitary {
            gate: circuit::OneQubitGate::U {
                theta: mathkit::Angle::ZERO,
                phi: mathkit::Angle::pi_over(2),
                lambda: mathkit::Angle::pi_over(2),
            },
            target: Qubit(1),
            controls: vec![Qubit(0)],
        });
        bell.h(Qubit(1));
        let engine = route_plan(&bell, Backend::StateVector, true, None);
        assert_eq!(engine, EngineKind::Tableau);
        let sim = crate::WeakSimulator::new(Backend::StateVector);
        let dense = sim.strong(&bell).unwrap();
        let outcome = sim.with_clifford_router().run(&bell, 4000, 5).unwrap();
        assert_eq!(outcome.route, RunRoute::single(engine, bell.len()));
        assert!(outcome
            .histogram
            .counts()
            .keys()
            .all(|&k| dense.probability(k) > 0.25));
        let fit = crate::stats::chi_square_test(&outcome.histogram, |k| dense.probability(k));
        assert!(fit.is_consistent(1e-3), "{fit:?}");

        // A near-Clifford is never rounded onto one: it stays dense.
        let mut near = Circuit::new(1);
        near.h(Qubit(0)).gate(
            circuit::OneQubitGate::Rz(mathkit::Angle::radians_value(
                std::f64::consts::FRAC_PI_2 + 1e-9,
            )),
            Qubit(0),
        );
        let engine = route_plan(&near, Backend::DecisionDiagram, true, None);
        assert_eq!(engine, EngineKind::DecisionDiagram);
    }

    #[test]
    fn record_dependent_structure_stays_dense() {
        // A guarded Pauli only flips signs: still the tableau.
        let mut pauli = Circuit::new(2);
        pauli
            .h(Qubit(0))
            .measure(Qubit(0), 0)
            .conditioned_gate(1, circuit::OneQubitGate::Z, Qubit(1))
            .measure(Qubit(1), 1);
        let engine = route_plan(&pauli, Backend::StateVector, true, None);
        assert_eq!(engine, EngineKind::Tableau);

        // A guarded H or a guarded measurement changes the X/Z bits only
        // on the shots it fires.
        let mut guarded_h = Circuit::new(2);
        guarded_h
            .h(Qubit(0))
            .measure(Qubit(0), 0)
            .conditioned_gate(1, circuit::OneQubitGate::H, Qubit(1))
            .measure(Qubit(1), 1);
        let mut guarded_measure = Circuit::new(2);
        guarded_measure
            .h(Qubit(0))
            .measure(Qubit(0), 0)
            .h(Qubit(1))
            .conditioned(
                1,
                Operation::Measure {
                    qubit: Qubit(1),
                    cbit: 1,
                },
            );
        for c in [&guarded_h, &guarded_measure] {
            // Every operation lowers; the record dependence alone keeps
            // the run dense.
            assert!(c.iter().all(|op| tableau::lower(op, 0, 2).is_ok()));
            let engine = route_plan(c, Backend::StateVector, true, None);
            assert_eq!(engine, EngineKind::StateVector);
        }
    }
}
