//! The segmented Clifford router: runs Clifford circuit segments on the
//! polynomial-time stabilizer-tableau engine (the `tableau` crate) and
//! stitches the boundary into the configured dense backend.
//!
//! Routing is opt-in
//! ([`WeakSimulator::with_clifford_router`](crate::WeakSimulator::with_clifford_router));
//! it never changes *what* is sampled, only *which engine* does the work:
//!
//! * a **fully-Clifford** circuit (per
//!   [`Circuit::clifford_segments`]) runs entirely on the tableau —
//!   thousand-qubit GHZ and stabilizer-code circuits sample in
//!   milliseconds where a dense backend could not even allocate the state.
//!   Dynamic circuits qualify when the tableau's X/Z bits cannot depend on
//!   the classical record: a conditioned gate must be a Pauli, and no
//!   measurement or reset may be conditioned.  The trajectory runner then
//!   compiles the run into one sign program (see the `tableau` crate docs);
//! * a circuit with a **unitary Clifford prefix** whose boundary state is a
//!   computational basis state (the cheap-injection case of
//!   [`Tableau::as_basis_state`]) is *stitched*: the prefix is replayed as
//!   `X` preparations on the dense backend, which then runs the remaining
//!   operations — the prefix costs `O(n)` tableau updates instead of dense
//!   gate applications;
//! * anything else **falls back** to whole-circuit dense execution.
//!
//! Noise narrows the choice.  Pauli channels (bit flip, phase flip,
//! depolarizing) are native to the tableau (Gottesman–Knill), so a noisy
//! fully-Clifford run still goes there; amplitude damping, whose branch
//! depends on the state, keeps the whole run dense.  Noisy runs are never
//! stitched: the folded prefix gates would lose their noise sites.
//!
//! `route_plan` is the only routing decision: it picks the engine and the
//! circuit (original or stitched), and the rest of the run is the ordinary
//! pipeline of that engine.  Static circuits go plan → artifact → sample
//! through [`SimArtifact::sample`](crate::SimArtifact::sample); dynamic
//! ones run on the shared [`trajectory`](crate::trajectory) loop, where the
//! tableau is one more trajectory runner behind the same chunked seeding,
//! worker pool and governor checks as the dense engines.  Whichever way a
//! run goes, [`RunOutcome::route`](crate::RunOutcome::route) reports the
//! engine that executed each segment.
//!
//! Registers wider than 64 qubits run in full on the tableau, but the
//! `u64`-keyed [`ShotHistogram`](crate::ShotHistogram) records only the low
//! 64 bits of each full-register sample.

use crate::simulator::Backend;
use circuit::{Circuit, NoiseModel, Operation, Qubit};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::fmt;
use tableau::Tableau;

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
    /// Number of original circuit operations in the block (state-injection
    /// gates synthesized by the router are not counted).
    pub ops: usize,
}

/// How a run was routed: which engine executed each contiguous segment of
/// the circuit, in order.  Unrouted (and fallback) runs report a single
/// segment on the configured dense backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRoute {
    /// The executed segments, in circuit order.
    pub segments: Vec<RouteSegment>,
}

impl RunRoute {
    /// The single-segment route of an unrouted dense run.
    pub(crate) fn dense(backend: Backend, ops: usize) -> Self {
        Self {
            segments: vec![RouteSegment {
                engine: backend.into(),
                ops,
            }],
        }
    }

    /// Whether any segment ran on the stabilizer-tableau engine.
    #[must_use]
    pub fn used_tableau(&self) -> bool {
        self.segments
            .iter()
            .any(|s| s.engine == EngineKind::Tableau)
    }

    /// Total operations across all segments.
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.segments.iter().map(|s| s.ops).sum()
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

/// The routing decision for one run: the engine that executes it and the
/// circuit that engine runs — the original, or the stitched remainder
/// behind a folded Clifford prefix.
pub(crate) struct RoutePlan<'c> {
    /// The engine that executes `circuit`.
    pub(crate) engine: EngineKind,
    /// The circuit to execute.
    pub(crate) circuit: Cow<'c, Circuit>,
    /// The route to surface in the outcome.
    pub(crate) route: RunRoute,
}

/// Decides how a validated circuit runs under the effective `noise` model
/// (no shot is drawn).  With `router` off — or for a circuit without a
/// tableau-eligible segment — the plan is the whole circuit on the dense
/// `backend`.
///
/// Noise narrows the choice: only Pauli channels are native to the
/// tableau, so any other channel keeps the run dense, and a noisy run is
/// never stitched (the folded prefix gates would lose their noise sites).
///
/// `Operation::is_clifford` guarantees the tableau accepts every operation
/// it classifies as Clifford, but that classification is the only wall
/// between the engines, so a fully-Clifford circuit is also dry-run once
/// through the tableau lowering: a defect degrades to correct-but-slower
/// dense execution instead of an error, and every later tableau
/// application is infallible.
pub(crate) fn route_plan<'c>(
    circuit: &'c Circuit,
    backend: Backend,
    router: bool,
    noise: Option<&NoiseModel>,
) -> RoutePlan<'c> {
    let dense = RoutePlan {
        engine: backend.into(),
        circuit: Cow::Borrowed(circuit),
        route: RunRoute::dense(backend, circuit.len()),
    };
    if !router || noise.is_some_and(|model| !model.is_pauli()) {
        return dense;
    }
    let segments = circuit.clifford_segments();
    if segments.is_fully_clifford() {
        return if tableau_accepts(circuit) {
            RoutePlan {
                engine: EngineKind::Tableau,
                circuit: Cow::Borrowed(circuit),
                route: RunRoute {
                    segments: vec![RouteSegment {
                        engine: EngineKind::Tableau,
                        ops: circuit.len(),
                    }],
                },
            }
        } else {
            dense
        };
    }
    if segments.prefix_len > 0 && noise.is_none() {
        if let Some(stitched) = stitch_prefix(circuit, segments.prefix_len) {
            return RoutePlan {
                engine: backend.into(),
                circuit: Cow::Owned(stitched),
                route: RunRoute {
                    segments: vec![
                        RouteSegment {
                            engine: EngineKind::Tableau,
                            ops: segments.prefix_len,
                        },
                        RouteSegment {
                            engine: backend.into(),
                            ops: segments.len - segments.prefix_len,
                        },
                    ],
                },
            };
        }
    }
    dense
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

/// Evolves the leading `prefix_len` Clifford operations on a tableau and, if
/// they leave the register in a computational basis state, returns the
/// remainder circuit prefixed with the `X` gates preparing that state (the
/// basis-state injection of the stitching contract).  Returns `None` when
/// the prefix contains non-unitary operations (their outcome belongs to the
/// shot, not the plan) or ends in superposition.
pub(crate) fn stitch_prefix(circuit: &Circuit, prefix_len: usize) -> Option<Circuit> {
    let ops = circuit.operations();
    if ops[..prefix_len].iter().any(|op| {
        matches!(
            op,
            Operation::Measure { .. } | Operation::Reset { .. } | Operation::Conditioned { .. }
        )
    }) {
        return None;
    }
    let mut tab = Tableau::zero_state(usize::from(circuit.num_qubits()).max(1));
    // The RNG and record are never consulted: the prefix is unitary-only.
    let mut rng = SmallRng::seed_from_u64(0);
    let mut record = 0u64;
    for (i, op) in ops[..prefix_len].iter().enumerate() {
        tableau::apply_operation(&mut tab, op, i, &mut record, &mut rng).ok()?;
    }
    let basis = tab.as_basis_state()?;
    let mut stitched = Circuit::with_name(
        circuit.num_qubits(),
        format!("{}__stitched", circuit.name()),
    );
    stitched.set_num_clbits(circuit.num_clbits());
    for q in 0..circuit.num_qubits() {
        if basis[usize::from(q) / 64] >> (usize::from(q) % 64) & 1 == 1 {
            stitched.x(Qubit(q));
        }
    }
    for op in &ops[prefix_len..] {
        stitched.push(op.clone());
    }
    Some(stitched)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(route.total_ops(), 20);
        let dense = RunRoute::dense(Backend::StateVector, 5);
        assert_eq!(dense.to_string(), "vector-based(5)");
        assert!(!dense.used_tableau());
    }

    #[test]
    fn stitching_requires_a_basis_state_boundary() {
        // X-prefix ending in |01>: stitchable.
        let mut c = Circuit::new(2);
        c.x(Qubit(0)).t(Qubit(1));
        let seg = c.clifford_segments();
        assert_eq!(seg.prefix_len, 1);
        let stitched = stitch_prefix(&c, seg.prefix_len).unwrap();
        // One X preparation plus the T gate.
        assert_eq!(stitched.len(), 2);

        // H-prefix ends in superposition: not stitchable.
        let mut h = Circuit::new(2);
        h.h(Qubit(0)).t(Qubit(1));
        assert!(stitch_prefix(&h, 1).is_none());
    }

    #[test]
    fn fully_clifford_circuits_route_to_the_tableau() {
        let ghz = algorithms::ghz(4);
        let plan = route_plan(&ghz, Backend::DecisionDiagram, true, None);
        assert_eq!(plan.engine, EngineKind::Tableau);
        assert!(matches!(plan.circuit, Cow::Borrowed(_)));
        let outcome = crate::WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .run(&ghz, 2000, 3)
            .unwrap();
        assert_eq!(outcome.route, plan.route);
        assert!(outcome.route.used_tableau());
        assert_eq!(outcome.histogram.shots(), 2000);
        assert!(outcome
            .histogram
            .counts()
            .keys()
            .all(|&k| k == 0 || k == 0b1111));
    }

    #[test]
    fn non_clifford_circuits_without_clifford_prefix_stay_dense() {
        let mut c = Circuit::new(1);
        c.t(Qubit(0));
        let plan = route_plan(&c, Backend::DecisionDiagram, true, None);
        assert_eq!(plan.engine, EngineKind::DecisionDiagram);
        assert_eq!(plan.route, RunRoute::dense(Backend::DecisionDiagram, 1));
        let outcome = crate::WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .run(&c, 10, 0)
            .unwrap();
        assert_eq!(outcome.route, plan.route);
        assert!(outcome.state.is_some(), "dense runs keep their state");
    }

    #[test]
    fn pauli_noisy_clifford_circuits_route_to_the_tableau() {
        let cycle = algorithms::stabilizer_cycle(4, 2);
        let pauli = algorithms::hardware_noise(0.01);
        let plan = route_plan(&cycle, Backend::DecisionDiagram, true, Some(&pauli));
        assert_eq!(plan.engine, EngineKind::Tableau);
        let outcome = crate::WeakSimulator::new(Backend::DecisionDiagram)
            .with_clifford_router()
            .with_noise(pauli)
            .run(&cycle, 500, 3)
            .unwrap();
        assert_eq!(outcome.route, plan.route);

        // Amplitude damping is not a Pauli channel.
        let damping = NoiseModel::new()
            .with_gate_noise(circuit::NoiseChannel::depolarizing(0.01))
            .with_qubit_noise(Qubit(0), circuit::NoiseChannel::amplitude_damping(0.05));
        let plan = route_plan(&cycle, Backend::DecisionDiagram, true, Some(&damping));
        assert_eq!(plan.engine, EngineKind::DecisionDiagram);
        assert_eq!(
            plan.route,
            RunRoute::dense(Backend::DecisionDiagram, cycle.len())
        );
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
        let plan = route_plan(&pauli, Backend::StateVector, true, None);
        assert_eq!(plan.engine, EngineKind::Tableau);

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
            assert!(c.clifford_segments().is_fully_clifford());
            let plan = route_plan(c, Backend::StateVector, true, None);
            assert_eq!(plan.engine, EngineKind::StateVector);
            assert_eq!(plan.route, RunRoute::dense(Backend::StateVector, c.len()));
        }
    }

    #[test]
    fn noisy_runs_are_never_stitched() {
        // A basis-state Clifford prefix folds into X preparations when
        // noiseless; under noise its gates keep their noise sites.
        let mut c = Circuit::new(2);
        c.x(Qubit(0)).t(Qubit(1)).measure(Qubit(0), 0).h(Qubit(1));
        let noiseless = route_plan(&c, Backend::DecisionDiagram, true, None);
        assert!(matches!(noiseless.circuit, Cow::Owned(_)));
        let noise = algorithms::hardware_noise(0.01);
        let noisy = route_plan(&c, Backend::DecisionDiagram, true, Some(&noise));
        assert!(matches!(noisy.circuit, Cow::Borrowed(_)));
        assert_eq!(
            noisy.route,
            RunRoute::dense(Backend::DecisionDiagram, c.len())
        );
    }
}
