//! Strong simulation of circuits on decision diagrams.

use crate::edge::MatrixEdge;
use crate::govern::DdError;
use crate::matrix::OperatorDd;
use crate::ops::matrix_vector_multiply;
use crate::package::OperatorKey;
use crate::vector::MAX_AMPLITUDE_QUBITS;
use crate::{DdPackage, StateDd};
use circuit::{Circuit, OneQubitGate, Operation, Qubit};
use std::fmt;

/// Error returned by [`simulate`], [`apply_circuit`] and
/// [`apply_circuit_until`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// The circuit failed validation.
    InvalidCircuit(circuit::ValidateCircuitError),
    /// The circuit contains a non-unitary or classically-conditioned
    /// operation (measurement, reset or `if (c==k)` gate).  Strong
    /// simulation produces a single state, which is not defined for dynamic
    /// circuits; use the trajectory engine of the `weaksim` crate.
    NonUnitaryOperation {
        /// Index of the offending operation.
        op_index: usize,
    },
    /// The decision-diagram engine was interrupted: the governor's node/byte
    /// budget was exhausted (after garbage collection and cache shrinking
    /// failed to relieve the pressure), its deadline passed, its cancellation
    /// token fired, or a node arena overflowed.
    Dd(DdError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::InvalidCircuit(e) => write!(f, "invalid circuit: {e}"),
            ApplyError::NonUnitaryOperation { op_index } => write!(
                f,
                "operation {op_index} is non-unitary or classically conditioned (measure/reset/if); strong simulation requires a unitary circuit — use trajectory simulation"
            ),
            ApplyError::Dd(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApplyError::Dd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<circuit::ValidateCircuitError> for ApplyError {
    fn from(e: circuit::ValidateCircuitError) -> Self {
        ApplyError::InvalidCircuit(e)
    }
}

impl From<DdError> for ApplyError {
    fn from(e: DdError) -> Self {
        ApplyError::Dd(e)
    }
}

/// Number of allocated vector nodes above which garbage is collected between
/// gates (when the reachable set is much smaller).
const GC_NODE_THRESHOLD: usize = 250_000;

// The rule of `Until::Incompressible`: the live node count exceeds
// `max(2^n / INCOMPRESSIBLE_RATIO, INCOMPRESSIBLE_FLOOR)` after each of
// `INCOMPRESSIBLE_GATES` consecutive gates.  Chosen on perfbench's 100
// `cold_mix` circuits (live count after every gate; 2-core box, release).
// These values hand off 11 builds — the four `random_12_10`, the three
// `shor_*` and four of the 16-qubit `supremacy_4x4_*`, which end at 4,095,
// 46k–94k and 12k–64k nodes — and no `grover_*` or `qft_*` build; routed
// `cold_mix` went from 15.4 to 34.0 requests/s (medians of 10 alternating
// pairs).  A 1-gate hold hands off `grover_13` seed 0 (under a 128-node
// floor) on a transient peak of 153 nodes, though it ends at 66, and
// `supremacy_4x5_7` seed 1 one gate before its end, where the dense buffers
// cost more than the last gate saves.  Ratio 64 misses two of the four
// `supremacy_4x4_*` handoffs.  Ratio 256 hands off five more supremacy
// builds (39.6 against 32.8 requests/s over 5 pairs, peak RSS 78 against
// 50 MB), but it also hands off diagrams whose nodes are cheap: at about
// 65 ns per node per gate (Grover) such a diagram is still 4× cheaper than
// the dense kernel's 1 ns per amplitude per gate, where 128 keeps 2×.  The
// floor keeps registers of up to 8 qubits (at most 255 nodes, a 4 KiB
// vector) on the diagram whatever their shape, and leaves `grover_13`
// seed 0 a margin.
const INCOMPRESSIBLE_RATIO: usize = 128;
const INCOMPRESSIBLE_GATES: usize = 5;
const INCOMPRESSIBLE_FLOOR: usize = 256;

/// Where [`apply_circuit_until`] stops applying operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// After the last operation.
    End,
    /// Early, once the diagram has stopped compressing: its live node count
    /// has stayed above both `2^n / 128` and 256 nodes for five consecutive
    /// gates, with operations still left.  From there a dense amplitude
    /// array — about one nanosecond per amplitude per gate — is cheaper
    /// than the diagram, which costs a few hundred nanoseconds per node per
    /// gate.  The rule reads node counts only, never the clock, so where a
    /// circuit stops depends on the circuit alone.  Registers wider than 30
    /// qubits never stop early ([`StateDd::to_amplitudes`] refuses them).
    Incompressible,
}

impl Until {
    /// The live node count above which a `num_qubits`-qubit diagram counts
    /// as incompressible, or `None` when this rule never stops early.
    fn node_limit(self, num_qubits: u16) -> Option<usize> {
        match self {
            Until::End => None,
            Until::Incompressible => (num_qubits <= MAX_AMPLITUDE_QUBITS)
                .then(|| ((1usize << num_qubits) / INCOMPRESSIBLE_RATIO).max(INCOMPRESSIBLE_FLOOR)),
        }
    }
}

/// The last reachable-node walk of the construction loop: its count and
/// the arena size it saw.  `live + (allocated now − allocated)` bounds the
/// live count without a walk, as long as no gate revives nodes that were
/// unreachable at the walk; such a gate only delays the next walk.
#[derive(Clone, Copy)]
struct LastWalk {
    live: usize,
    allocated: usize,
}

impl LastWalk {
    /// No walk yet: the bound is the whole arena.
    const NONE: Self = Self {
        live: 0,
        allocated: 0,
    };

    fn live_bound(self, allocated: usize) -> usize {
        self.live + allocated.saturating_sub(self.allocated)
    }
}

/// The operator DD of a (multi-)controlled single-qubit gate, memoized in
/// the package's operator cache: repeated gates — ubiquitous in supremacy
/// layers, IPE repetitions and trajectory replays — reuse the previously
/// built diagram instead of re-running the node-level construction.
fn cached_controlled_gate(
    package: &mut DdPackage,
    num_qubits: u16,
    gate: OneQubitGate,
    target: Qubit,
    controls: &[Qubit],
) -> Result<MatrixEdge, DdError> {
    package.cached_operator(
        OperatorKey::gate(num_qubits, gate, target, controls),
        |package| {
            Ok(OperatorDd::controlled_gate(package, num_qubits, gate, target, controls)?.root())
        },
    )
}

/// Applies one lowered *unitary* operation to a state DD and returns the
/// new state.
///
/// Swap operations are decomposed into three CNOTs (picking up any controls
/// on each of them); unitaries and permutations are converted to operator
/// DDs — memoized per (gate, target/control layout) in the package — and
/// applied by matrix–vector multiplication.
///
/// # Errors
///
/// Fails with a [`DdError`] when the package's governor interrupts the run
/// or a node arena overflows.  The non-unitary operations
/// [`Operation::Measure`] and [`Operation::Reset`] fail with
/// [`DdError::NonUnitaryOperation`]: their effect depends on a sampled
/// outcome, so the trajectory engine draws it from
/// [`branch_masses`](crate::branch_masses) and applies it with
/// [`collapse_qubit`](crate::collapse_qubit) instead.  Classically-conditioned
/// operations fail with [`DdError::ConditionedOperation`]; the trajectory
/// engine resolves conditions against the classical record before applying.
pub fn apply_operation(
    package: &mut DdPackage,
    state: StateDd,
    op: &Operation,
) -> Result<StateDd, DdError> {
    let n = state.num_qubits();
    match op {
        Operation::Unitary {
            gate,
            target,
            controls,
        } => {
            let operator = cached_controlled_gate(package, n, *gate, *target, controls)?;
            Ok(StateDd::from_root(
                matrix_vector_multiply(package, operator, state.root())?,
                n,
            ))
        }
        Operation::Swap { a, b, controls } => {
            if a == b {
                return Ok(state);
            }
            let mut current = state;
            for (control, target) in [(*a, *b), (*b, *a), (*a, *b)] {
                let mut all_controls: Vec<Qubit> = controls.clone();
                all_controls.push(control);
                let operator =
                    cached_controlled_gate(package, n, OneQubitGate::X, target, &all_controls)?;
                current = StateDd::from_root(
                    matrix_vector_multiply(package, operator, current.root())?,
                    n,
                );
            }
            Ok(current)
        }
        Operation::Permute {
            permutation,
            controls,
        } => {
            let operator = OperatorDd::controlled_permutation(package, n, permutation, controls)?;
            Ok(StateDd::from_root(
                matrix_vector_multiply(package, operator.root(), state.root())?,
                n,
            ))
        }
        Operation::Measure { .. } | Operation::Reset { .. } => Err(DdError::NonUnitaryOperation {
            op: op.to_string(),
            op_index: None,
        }),
        Operation::Conditioned { .. } => Err(DdError::ConditionedOperation {
            op: op.to_string(),
            op_index: None,
        }),
    }
}

/// Applies every operation of `circuit` to `state`, collecting garbage
/// between gates when the arena grows far beyond the reachable state.
///
/// Budget pressure degrades gracefully before failing: when a gate hits the
/// governor's node/byte budget, the package collects garbage (keeping only
/// the current state), shrinks the compute caches back to their minimum
/// footprint and retries the gate once.  Only persistent pressure surfaces
/// as [`DdError::MemoryOut`], stamped with the index of the operation that
/// could not complete.  The governor's deadline and token are probed once
/// before the first gate (a failure there is stamped op 0) and at its
/// amortized checkpoints after that.
///
/// # Errors
///
/// Returns [`ApplyError::InvalidCircuit`] if the circuit fails validation,
/// [`ApplyError::NonUnitaryOperation`] if it contains a measurement, reset
/// or classically-conditioned gate (strong simulation is only defined for
/// unconditionally unitary circuits), and [`ApplyError::Dd`] when the
/// governor interrupts the run (budget, deadline or cancellation) or a node
/// arena overflows.
pub fn apply_circuit(
    package: &mut DdPackage,
    state: StateDd,
    circuit: &Circuit,
) -> Result<StateDd, ApplyError> {
    apply_circuit_until(package, state, circuit, Until::End).map(|(state, _)| state)
}

/// [`apply_circuit`] with a stop rule: applies the operations of `circuit`
/// in order until `until` says stop, and returns the state together with
/// the number of operations applied (`circuit.len()` unless the rule
/// stopped the loop early).  The caller finishes the remaining operations
/// on another engine.
///
/// With [`Until::Incompressible`] the loop counts live nodes after each
/// gate, but walks the diagram only when a cheap bound — the last walked
/// count plus the nodes allocated since — passes the limit; the garbage
/// collector's own walk is shared, and its schedule is the same under
/// either rule.
///
/// # Errors
///
/// As [`apply_circuit`].
pub fn apply_circuit_until(
    package: &mut DdPackage,
    state: StateDd,
    circuit: &Circuit,
    until: Until,
) -> Result<(StateDd, usize), ApplyError> {
    circuit.validate()?;
    if let Some(op_index) = circuit
        .iter()
        .position(|op| op.is_non_unitary() || op.is_conditioned())
    {
        return Err(ApplyError::NonUnitaryOperation { op_index });
    }
    // A deadline or token that has already fired stops the build before its
    // first gate: a small build may never reach an amortized probe.
    package
        .governor()
        .check_now()
        .map_err(|e| ApplyError::Dd(e.with_op_index(0)))?;
    let node_limit = until.node_limit(state.num_qubits());
    let mut last_walk = LastWalk::NONE;
    let mut gates_above_limit = 0;
    let mut current = state;
    for (op_index, op) in circuit.iter().enumerate() {
        current = match apply_operation(package, current, op) {
            Ok(next) => next,
            Err(DdError::MemoryOut { .. }) => {
                // Degrade before failing: drop everything not reachable from
                // the current state, shrink the compute caches, and retry the
                // gate once.  The state edge survives the collection, so the
                // retry recomputes exactly the same diagram.
                let roots = package.collect_garbage(&[current.root()]);
                let retry_state = StateDd::from_root(roots[0], current.num_qubits());
                package.shrink_compute_caches();
                last_walk = LastWalk::NONE;
                apply_operation(package, retry_state, op)
                    .map_err(|e| ApplyError::Dd(e.with_op_index(op_index)))?
            }
            Err(e) => return Err(ApplyError::Dd(e.with_op_index(op_index))),
        };
        let allocated = package.allocated_vector_nodes();
        let gc_due = allocated > GC_NODE_THRESHOLD;
        let limit_in_reach =
            node_limit.is_some_and(|limit| last_walk.live_bound(allocated) > limit);
        let mut live = None;
        if gc_due || limit_in_reach {
            let reachable = current.node_count(package);
            last_walk = LastWalk {
                live: reachable,
                allocated,
            };
            if gc_due && allocated > 4 * reachable {
                let roots = package.collect_garbage(&[current.root()]);
                current = StateDd::from_root(roots[0], current.num_qubits());
                last_walk.allocated = package.allocated_vector_nodes();
            }
            live = Some(reachable);
        }
        if let Some(limit) = node_limit {
            gates_above_limit = if live.is_some_and(|live| live > limit) {
                gates_above_limit + 1
            } else {
                0
            };
            let applied = op_index + 1;
            if gates_above_limit >= INCOMPRESSIBLE_GATES && applied < circuit.len() {
                return Ok((current, applied));
            }
        }
    }
    Ok((current, circuit.len()))
}

/// Strong-simulates `circuit` from `|0...0>` into a state decision diagram.
///
/// # Errors
///
/// Returns [`ApplyError::InvalidCircuit`] if the circuit fails validation
/// and [`ApplyError::Dd`] when the package's governor interrupts the run.
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Qubit};
/// use dd::DdPackage;
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.cx(Qubit(0), Qubit(1));
/// let mut package = DdPackage::new();
/// let state = dd::simulate(&mut package, &c)?;
/// assert!((state.probability(&package, 0b00) - 0.5).abs() < 1e-12);
/// assert!((state.probability(&package, 0b11) - 0.5).abs() < 1e-12);
/// # Ok::<(), dd::ApplyError>(())
/// ```
pub fn simulate(package: &mut DdPackage, circuit: &Circuit) -> Result<StateDd, ApplyError> {
    let state = StateDd::zero_state(package, circuit.num_qubits())?;
    apply_circuit(package, state, circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Permutation;
    use mathkit::{Angle, Complex, SQRT1_2};

    const EPS: f64 = 1e-10;

    fn assert_state(package: &DdPackage, state: &StateDd, expected: &[Complex]) {
        let amps = state.to_amplitudes(package);
        assert_eq!(amps.len(), expected.len());
        for (i, (got, want)) in amps.iter().zip(expected).enumerate() {
            assert!(
                (*got - *want).norm() < EPS,
                "amplitude {i}: got {got}, expected {want}"
            );
        }
    }

    #[test]
    fn bell_state_matches_example_2() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        let h = Complex::from_real(SQRT1_2);
        assert_state(&p, &s, &[h, Complex::ZERO, Complex::ZERO, h]);
        // One q1 node plus two distinct q0 nodes ([1,0] and [0,1]).
        assert_eq!(s.node_count(&p), 3);
    }

    #[test]
    fn ghz_state_on_five_qubits() {
        let n = 5u16;
        let mut c = Circuit::new(n);
        c.h(Qubit(0));
        for i in 1..n {
            c.cx(Qubit(i - 1), Qubit(i));
        }
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        assert!((s.probability(&p, 0) - 0.5).abs() < EPS);
        assert!((s.probability(&p, (1 << n) - 1) - 0.5).abs() < EPS);
        assert!((s.norm_sqr(&p) - 1.0).abs() < EPS);
    }

    #[test]
    fn x_and_swap_move_excitations() {
        let mut c = Circuit::new(3);
        c.x(Qubit(0));
        c.swap(Qubit(0), Qubit(2));
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        assert!((s.probability(&p, 0b100) - 1.0).abs() < EPS);
    }

    #[test]
    fn controlled_swap_only_fires_with_control_set() {
        let mut c = Circuit::new(3);
        c.x(Qubit(0));
        c.cswap(Qubit(2), Qubit(0), Qubit(1));
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        assert!((s.probability(&p, 0b001) - 1.0).abs() < EPS);

        let mut c = Circuit::new(3);
        c.x(Qubit(0));
        c.x(Qubit(2));
        c.cswap(Qubit(2), Qubit(0), Qubit(1));
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        assert!((s.probability(&p, 0b110) - 1.0).abs() < EPS);
    }

    #[test]
    fn permutation_gate_on_dd() {
        let perm = Permutation::new(vec![Qubit(0), Qubit(1)], vec![1, 2, 3, 0]).unwrap();
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.permute(perm);
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        // (|00> + |01>)/sqrt(2) -> (|01> + |10>)/sqrt(2).
        assert!((s.probability(&p, 0b01) - 0.5).abs() < EPS);
        assert!((s.probability(&p, 0b10) - 0.5).abs() < EPS);
    }

    #[test]
    fn running_example_circuit_matches_fig_4() {
        let mut c = Circuit::new(3);
        c.rx(Angle::Radians(2.0 * std::f64::consts::PI / 3.0), Qubit(2));
        c.x(Qubit(2));
        c.h(Qubit(1));
        c.ccx(Qubit(2), Qubit(1), Qubit(0));
        c.x(Qubit(0));
        c.cx(Qubit(2), Qubit(0));
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        let a = Complex::new(0.0, -(3.0_f64 / 8.0).sqrt());
        let b = Complex::from_real((1.0_f64 / 8.0).sqrt());
        assert_state(
            &p,
            &s,
            &[
                Complex::ZERO,
                a,
                Complex::ZERO,
                a,
                b,
                Complex::ZERO,
                Complex::ZERO,
                b,
            ],
        );
        // Fig. 4b draws six nodes; with full node sharing the [0,1] leaf is
        // reused by both q1 nodes, so the canonical diagram has five.
        assert_eq!(s.node_count(&p), 5);
    }

    #[test]
    fn invalid_circuit_is_rejected() {
        let mut c = Circuit::new(1);
        c.h(Qubit(7));
        let mut p = DdPackage::new();
        assert!(matches!(
            simulate(&mut p, &c),
            Err(ApplyError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn dynamic_circuits_are_rejected_by_strong_simulation() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0)).measure(Qubit(0), 0).x(Qubit(0));
        let mut p = DdPackage::new();
        assert_eq!(
            simulate(&mut p, &c),
            Err(ApplyError::NonUnitaryOperation { op_index: 1 })
        );
    }

    #[test]
    fn applying_a_measurement_as_a_gate_errors_instead_of_panicking() {
        let mut p = DdPackage::new();
        let state = StateDd::zero_state(&mut p, 1).unwrap();
        let mut c = Circuit::new(1);
        c.measure(Qubit(0), 0);
        let err = apply_operation(&mut p, state, &c.operations()[0]).unwrap_err();
        assert!(matches!(err, DdError::NonUnitaryOperation { .. }), "{err}");
        // The package stays fully usable after the rejected call.
        let mut bell = Circuit::new(2);
        bell.h(Qubit(0)).cx(Qubit(0), Qubit(1));
        let s = simulate(&mut p, &bell).unwrap();
        assert!((s.probability(&p, 0b11) - 0.5).abs() < EPS);
    }

    #[test]
    fn applying_a_reset_as_a_gate_errors_instead_of_panicking() {
        let mut p = DdPackage::new();
        let state = StateDd::zero_state(&mut p, 1).unwrap();
        let mut c = Circuit::new(1);
        c.reset(Qubit(0));
        let err = apply_operation(&mut p, state, &c.operations()[0]).unwrap_err();
        assert!(matches!(err, DdError::NonUnitaryOperation { .. }), "{err}");
    }

    #[test]
    fn applying_a_conditioned_gate_errors_instead_of_panicking() {
        let mut p = DdPackage::new();
        let state = StateDd::zero_state(&mut p, 1).unwrap();
        let mut c = Circuit::new(1);
        c.measure(Qubit(0), 0)
            .conditioned_gate(1, OneQubitGate::X, Qubit(0));
        let err = apply_operation(&mut p, state, &c.operations()[1]).unwrap_err();
        assert!(matches!(err, DdError::ConditionedOperation { .. }), "{err}");
    }

    #[test]
    fn diagonal_circuit_keeps_probabilities_uniform() {
        let mut c = Circuit::new(3);
        for i in 0..3 {
            c.h(Qubit(i));
        }
        c.t(Qubit(0));
        c.cz(Qubit(0), Qubit(1));
        c.cp(Angle::pi_over(8), Qubit(1), Qubit(2));
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        for i in 0..8 {
            assert!((s.probability(&p, i) - 0.125).abs() < EPS, "index {i}");
        }
    }

    /// `H` on every qubit, then layers of `T`, `Rx` and a CX chain: the
    /// diagram grows to all `2^n - 1` nodes.
    fn scrambled(n: u16, layers: u16) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(Qubit(q));
        }
        for layer in 0..layers {
            for q in 0..n {
                let angle = 0.3 + 0.17 * f64::from(q) + 0.05 * f64::from(layer);
                c.t(Qubit(q)).rx(Angle::Radians(angle), Qubit(q));
            }
            for q in 0..n - 1 {
                c.cx(Qubit(q), Qubit(q + 1));
            }
        }
        c
    }

    #[test]
    fn incompressible_builds_stop_and_resume_exactly() {
        let c = scrambled(10, 2);
        let mut p = DdPackage::new();
        let zero = StateDd::zero_state(&mut p, 10).unwrap();
        let (stopped, applied) =
            apply_circuit_until(&mut p, zero, &c, Until::Incompressible).unwrap();
        assert!(applied < c.len(), "stopped after {applied} of {}", c.len());
        assert!(stopped.node_count(&p) > INCOMPRESSIBLE_FLOOR);
        // The stop point depends on the circuit alone.
        let mut q = DdPackage::new();
        let zero = StateDd::zero_state(&mut q, 10).unwrap();
        let again = apply_circuit_until(&mut q, zero, &c, Until::Incompressible).unwrap();
        assert_eq!(again.1, applied);

        // Finishing the rest reaches the state of one uninterrupted run.
        let mut tail = Circuit::new(10);
        for op in &c.operations()[applied..] {
            tail.push(op.clone());
        }
        let resumed = apply_circuit(&mut p, stopped, &tail).unwrap();
        let mut whole = DdPackage::new();
        let full = simulate(&mut whole, &c).unwrap();
        assert_state(&p, &resumed, &full.to_amplitudes(&whole));
    }

    #[test]
    fn compressing_and_small_diagrams_run_to_the_end() {
        // An 8-qubit diagram has at most 255 nodes, under the floor.
        let small = scrambled(8, 3);
        // GHZ stays at two nodes per qubit however wide it is.
        let ghz = {
            let mut c = Circuit::new(16);
            c.h(Qubit(0));
            for q in 1..16 {
                c.cx(Qubit(q - 1), Qubit(q));
            }
            c
        };
        for c in [small, ghz] {
            let mut p = DdPackage::new();
            let zero = StateDd::zero_state(&mut p, c.num_qubits()).unwrap();
            let (_, applied) =
                apply_circuit_until(&mut p, zero, &c, Until::Incompressible).unwrap();
            assert_eq!(applied, c.len());
        }
        let c = scrambled(10, 2);
        let mut p = DdPackage::new();
        let zero = StateDd::zero_state(&mut p, 10).unwrap();
        let (state, applied) = apply_circuit_until(&mut p, zero, &c, Until::End).unwrap();
        assert_eq!(applied, c.len());
        assert_eq!(state.node_count(&p), 1023);
    }

    #[test]
    fn circuit_then_adjoint_returns_to_zero_state() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0))
            .cx(Qubit(0), Qubit(1))
            .t(Qubit(2))
            .ry(Angle::Radians(0.7), Qubit(3))
            .swap(Qubit(1), Qubit(3))
            .ccx(Qubit(0), Qubit(1), Qubit(2));
        let mut p = DdPackage::new();
        let s = simulate(&mut p, &c).unwrap();
        let s = apply_circuit(&mut p, s, &c.adjoint()).unwrap();
        assert!((s.probability(&p, 0) - 1.0).abs() < EPS);
        assert_eq!(s.node_count(&p), 4);
    }
}
