//! Governor integration suite: budgets, deadlines, cancellation and graceful
//! degradation across the full simulation stack.
//!
//! The unconditional tests drive *real* resource pressure (tiny budgets,
//! short deadlines, cross-thread cancellation).  The `fault-inject` section
//! at the bottom uses the deterministic injection hooks
//! (`cargo test --features fault-inject --test governor`) to prove that
//! every failure kind surfaces as a typed error — never a panic — and that
//! the package stays fully usable afterwards, bit-identically.

use std::time::{Duration, Instant};

use weaksim::{Backend, CancelToken, DdError, RunError, RunGovernor, WeakSimulator};

/// A statically-routed circuit big enough that DD construction performs many
/// thousands of governed checkpoints but still finishes in well under a
/// second when unlimited.
fn static_workload() -> circuit::Circuit {
    algorithms::supremacy(4, 4, 8, 7).0
}

/// A dynamic (mid-circuit measurement) workload for the trajectory engine.
fn dynamic_workload() -> circuit::Circuit {
    algorithms::teleportation(1.2)
}

#[test]
fn node_budget_exhaustion_is_a_structured_memory_out() {
    let governor = RunGovernor::unlimited().with_node_budget(64);
    let err = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(governor)
        .run(&static_workload(), 100, 1)
        .expect_err("a 64-node budget cannot hold a supremacy state");
    match err {
        RunError::DdMemoryOut(DdError::MemoryOut {
            live_nodes,
            allocated_bytes,
            node_budget,
            byte_budget,
            op_index,
        }) => {
            assert_eq!(node_budget, Some(64));
            assert_eq!(byte_budget, None);
            assert!(live_nodes > 64, "report carries the observed count");
            assert!(allocated_bytes > 0);
            assert!(op_index.is_some(), "failure is stamped with the op index");
        }
        other => panic!("expected a structured memory-out, got {other}"),
    }
}

#[test]
fn byte_budget_exhaustion_is_a_structured_memory_out() {
    let governor = RunGovernor::unlimited().with_byte_budget(16 * 1024);
    let err = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(governor)
        .run(&static_workload(), 100, 1)
        .expect_err("a 16 KiB byte budget cannot hold a supremacy state");
    assert!(
        matches!(
            err,
            RunError::DdMemoryOut(DdError::MemoryOut {
                byte_budget: Some(_),
                ..
            })
        ),
        "got {err}"
    );
}

#[test]
fn deadline_aborts_a_long_construction_promptly() {
    // supremacy_4x5_10 takes tens of seconds to build unlimited; a 100 ms
    // deadline must abort it within ~1 s thanks to the amortized checks.
    let circuit = algorithms::supremacy(4, 5, 10, 7).0;
    let governor = RunGovernor::unlimited().with_timeout(Duration::from_millis(100));
    let started = Instant::now();
    let err = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(governor)
        .run(&circuit, 100, 1)
        .expect_err("the deadline fires long before construction finishes");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, RunError::Deadline(DdError::Deadline { .. })),
        "got {err}"
    );
    assert!(
        elapsed < Duration::from_millis(1500),
        "abort took {elapsed:?}, expected well under 1.5 s"
    );
}

#[test]
fn cancellation_from_another_thread_stops_the_run() {
    let token = CancelToken::new();
    let governor = RunGovernor::unlimited().with_cancel_token(token.clone());
    let circuit = algorithms::supremacy(4, 5, 10, 7).0;

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let err = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(governor)
        .run(&circuit, 100, 1)
        .expect_err("cancellation aborts the run");
    canceller.join().expect("canceller thread exits cleanly");
    assert!(
        matches!(err, RunError::Cancelled(DdError::Cancelled { .. })),
        "got {err}"
    );
    assert!(token.is_cancelled());
}

#[test]
fn interrupted_trajectory_run_returns_completed_shots() {
    // A pre-expired deadline: the chunk-boundary check fires before any shot
    // runs, so the outcome is deterministic — zero completed shots, a
    // Deadline interruption, and an empty (but well-formed) histogram.
    let governor = RunGovernor::unlimited().with_timeout(Duration::ZERO);
    let outcome = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(governor)
        .run(&dynamic_workload(), 500, 3)
        .expect("interruption degrades gracefully instead of failing");
    let interruption = outcome.interruption.expect("run was interrupted");
    assert!(matches!(interruption.reason, DdError::Deadline { .. }));
    assert_eq!(interruption.completed_shots, 0);
    assert_eq!(outcome.histogram.shots(), interruption.completed_shots);
}

#[test]
fn interrupted_sv_trajectory_run_degrades_too() {
    // The state-vector backend shares the chunk-boundary governance.
    let governor = RunGovernor::unlimited().with_timeout(Duration::ZERO);
    let outcome = WeakSimulator::new(Backend::StateVector)
        .with_governor(governor)
        .run(&dynamic_workload(), 500, 3)
        .expect("interruption degrades gracefully instead of failing");
    let interruption = outcome.interruption.expect("run was interrupted");
    assert!(matches!(interruption.reason, DdError::Deadline { .. }));
    assert_eq!(outcome.histogram.shots(), interruption.completed_shots);
}

#[test]
fn cancelled_trajectory_run_reports_partial_results() {
    // Cancel mid-run from another thread; whatever completed is returned
    // and accounted for exactly.
    let token = CancelToken::new();
    let governor = RunGovernor::unlimited().with_cancel_token(token.clone());
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };
    let outcome = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(governor)
        .run(&dynamic_workload(), 50_000_000, 3)
        .expect("cancellation degrades gracefully");
    canceller.join().expect("canceller thread exits cleanly");
    let interruption = outcome.interruption.expect("run was cancelled");
    assert!(matches!(interruption.reason, DdError::Cancelled { .. }));
    assert_eq!(outcome.histogram.shots(), interruption.completed_shots);
    assert!(
        interruption.completed_shots < 50_000_000,
        "the run must not have finished all shots"
    );
}

#[test]
fn routed_tableau_trajectory_run_honours_a_cancelled_token() {
    // Dynamic Clifford circuits run on the tableau's trajectory runner,
    // behind the same chunk-boundary governance as the dense engines: a
    // token cancelled before the run starts stops it before any shot.
    let token = CancelToken::new();
    token.cancel();
    let shots = 5000;
    let outcome = WeakSimulator::new(Backend::DecisionDiagram)
        .with_clifford_router()
        .with_governor(RunGovernor::unlimited().with_cancel_token(token))
        .run(&algorithms::stabilizer_cycle(6, 2), shots, 3)
        .expect("cancellation degrades gracefully");
    assert!(outcome.route.used_tableau());
    let interruption = outcome.interruption.expect("run was cancelled");
    assert!(matches!(interruption.reason, DdError::Cancelled { .. }));
    assert_eq!(outcome.histogram.shots(), interruption.completed_shots);
    assert!(interruption.completed_shots < shots);
}

#[test]
fn rerun_after_abort_matches_a_fresh_run_bit_for_bit() {
    // An aborted governed run must leave no residue: simulating again with
    // an unlimited governor gives the same histogram as a fresh simulator.
    let circuit = static_workload();
    let mut governed = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(RunGovernor::unlimited().with_node_budget(64));
    governed
        .run(&circuit, 200, 9)
        .expect_err("budget abort expected");

    let retry = governed
        .with_governor(RunGovernor::unlimited())
        .run(&circuit, 200, 9)
        .expect("retry after abort succeeds");
    let fresh = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, 200, 9)
        .expect("fresh run succeeds");
    assert_eq!(
        retry.histogram.counts(),
        fresh.histogram.counts(),
        "retry after abort must be bit-identical to a fresh run"
    );
}

#[test]
fn unlimited_governor_changes_nothing() {
    // The governed path with no limits must reproduce the ungoverned
    // histogram exactly (the fast path is a single branch).
    let circuit = algorithms::grover(8, 5);
    let plain = WeakSimulator::new(Backend::DecisionDiagram)
        .run(&circuit, 2_000, 11)
        .expect("plain run");
    let governed = WeakSimulator::new(Backend::DecisionDiagram)
        .with_governor(RunGovernor::unlimited().with_check_interval(64))
        .run(&circuit, 2_000, 11)
        .expect("governed run");
    assert_eq!(plain.histogram.counts(), governed.histogram.counts());
}

#[cfg(feature = "fault-inject")]
mod fault_injection {
    use super::*;
    use dd::{FaultPlan, InjectedFault};

    fn governed(fault: FaultPlan) -> WeakSimulator {
        WeakSimulator::new(Backend::DecisionDiagram).with_governor(
            RunGovernor::unlimited()
                .with_check_interval(1)
                .with_fault(fault),
        )
    }

    #[test]
    fn every_injected_fault_surfaces_as_a_typed_error() {
        let circuit = static_workload();
        for (kind, expected) in [
            (InjectedFault::MemoryOut, "memory"),
            (InjectedFault::Deadline, "deadline"),
            (InjectedFault::Cancelled, "cancel"),
        ] {
            let err = governed(FaultPlan { at_count: 10, kind })
                .run(&circuit, 100, 1)
                .expect_err("injected fault must fail the run");
            let matches_kind = match kind {
                InjectedFault::MemoryOut => matches!(err, RunError::DdMemoryOut(_)),
                InjectedFault::Deadline => matches!(err, RunError::Deadline(_)),
                InjectedFault::Cancelled => matches!(err, RunError::Cancelled(_)),
            };
            assert!(matches_kind, "{expected} fault surfaced as {err}");
        }
    }

    #[test]
    fn injected_faults_fire_at_any_depth_without_panicking() {
        // Sweep the trigger point across the whole construction, including
        // checkpoint 1 (before anything is built): typed error or success,
        // never a panic.
        let circuit = algorithms::ghz(6);
        for at_count in [1, 2, 3, 5, 10, 50, 1_000] {
            for kind in [
                InjectedFault::MemoryOut,
                InjectedFault::Deadline,
                InjectedFault::Cancelled,
            ] {
                let result = governed(FaultPlan { at_count, kind }).run(&circuit, 50, 1);
                if let Err(err) = result {
                    assert!(
                        matches!(
                            err,
                            RunError::DdMemoryOut(_)
                                | RunError::Deadline(_)
                                | RunError::Cancelled(_)
                        ),
                        "unexpected error kind at checkpoint {at_count}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn mid_run_trajectory_fault_returns_a_deterministic_partial_histogram() {
        // With one worker and an injected fault at a fixed checkpoint count,
        // the partial result is reproducible run-to-run.  A *noisy* workload
        // keeps decision-diagram work (and therefore governor checkpoints)
        // flowing on every error shot — a noiseless dynamic circuit would
        // serve every shot from the prefix cache after warm-up and the fault
        // would never trigger.
        let circuit = dynamic_workload();
        let noise = algorithms::hardware_noise(0.05);
        let fault = FaultPlan {
            at_count: 2_000,
            kind: InjectedFault::Deadline,
        };
        let run = || {
            WeakSimulator::new(Backend::DecisionDiagram)
                .with_threads(1)
                .with_noise(noise.clone())
                .with_governor(
                    RunGovernor::unlimited()
                        .with_check_interval(1)
                        .with_fault(fault),
                )
                .run(&circuit, 100_000, 3)
                .expect("fault degrades gracefully")
        };
        let first = run();
        let second = run();
        let interruption = first.interruption.clone().expect("run was interrupted");
        assert!(matches!(interruption.reason, DdError::Deadline { .. }));
        assert_eq!(first.histogram.shots(), interruption.completed_shots);
        assert!(
            interruption.completed_shots > 0,
            "the fault should fire after some shots completed"
        );
        assert!(interruption.completed_shots < 100_000);
        assert_eq!(first.histogram.counts(), second.histogram.counts());
        assert_eq!(first.interruption, second.interruption);
    }

    #[test]
    fn rerun_after_injected_abort_is_bit_identical_to_a_fresh_run() {
        let circuit = static_workload();
        let mut sim = governed(FaultPlan {
            at_count: 100,
            kind: InjectedFault::MemoryOut,
        });
        sim.run(&circuit, 200, 9).expect_err("injected abort");

        let retry = sim
            .with_governor(RunGovernor::unlimited())
            .run(&circuit, 200, 9)
            .expect("retry succeeds once the fault is lifted");
        let fresh = WeakSimulator::new(Backend::DecisionDiagram)
            .run(&circuit, 200, 9)
            .expect("fresh run succeeds");
        assert_eq!(retry.histogram.counts(), fresh.histogram.counts());
    }
}
