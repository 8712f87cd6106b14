//! Cooperative resource governance for decision-diagram work.
//!
//! Decision-diagram construction is the one phase of weak simulation whose
//! cost is *not* known in advance: the arena can stay tiny for a structured
//! circuit or blow past a million nodes for a supremacy-style one.  This
//! module makes that phase **budgeted, deadlined, and cancellable** without
//! giving up the hot-path throughput the package is built around.
//!
//! # The governor
//!
//! A [`Governor`] carries up to four limits:
//!
//! * a **node budget** — an upper bound on allocated arena nodes (vector and
//!   matrix nodes combined),
//! * a **byte budget** — an approximate upper bound on package memory
//!   (arenas, unique tables and compute caches),
//! * a **deadline** — a wall-clock [`Instant`] after which work must stop,
//! * a **cancellation token** — a shareable flag another thread may set.
//!
//! Long-running loops call [`Governor::checkpoint`] once per unit of work
//! (one make-node call, one compiled-arena BFS step, one trajectory event).
//! The checkpoint is engineered for amortized cost:
//!
//! * an *unlimited* governor (no budgets, no deadline, no token) is a single
//!   branch on a cached `active` flag — construction throughput stays within
//!   noise of an ungoverned build;
//! * a limited governor bumps a relaxed atomic counter and only consults the
//!   clock / the token every [`check_interval`](Governor::with_check_interval)
//!   calls (default [`DEFAULT_CHECK_INTERVAL`]).  Budget arithmetic itself is
//!   two integer compares and runs on every *miss* of the unique table — the
//!   only place the arena can actually grow.
//!
//! The **sizing knob**: `check_interval` trades detection latency against
//! overhead.  At the default of 4096, a build that allocates ~1M nodes/s
//! consults the clock ~250 times per second, so a deadline or cancellation
//! is honoured within a few milliseconds while the per-node cost stays at a
//! counter increment.  Raise it for micro-benchmarks, lower it if you need
//! sub-millisecond cancellation latency on slow allocation rates.
//!
//! # Failure surface and degradation
//!
//! Every governed failure is a typed [`DdError`] — never a panic, never an
//! abort.  On budget pressure the gate-application driver degrades
//! gracefully before failing: it garbage-collects the package, shrinks the
//! compute caches back to their minimum footprint, and retries the gate
//! once.  Only persistent pressure surfaces as [`DdError::MemoryOut`],
//! carrying a structured report (live nodes, approximate bytes, the op index
//! reached).  An aborted package remains fully usable: partially built nodes
//! are unreachable garbage that the next collection sweeps, and compute
//! caches only ever hold results of *completed* operations, so a re-run
//! after an abort is bit-identical to a fresh run.
//!
//! # Fault injection
//!
//! With the `fault-inject` feature, a `FaultPlan` forces a budget, deadline
//! or cancellation failure at an exact checkpoint count, making the
//! abort-and-recover paths deterministically testable.  The plan keeps firing
//! from its trigger point onward, so degradation retries fail too and the
//! persistent-pressure path is exercised.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default number of [`Governor::checkpoint`] calls between deadline /
/// cancellation probes (the amortized-check sizing knob; see the
/// [module docs](self)).
pub const DEFAULT_CHECK_INTERVAL: u64 = 4096;

/// A typed failure of governed decision-diagram work.
///
/// Everything the governor can interrupt — and every formerly panicking
/// misuse of the gate-application entry points — surfaces as one of these
/// variants.  The `op_index` carried by the resource variants is the
/// zero-based circuit operation being applied when the failure surfaced
/// (`None` outside circuit application, e.g. during sampler compilation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdError {
    /// A node arena outgrew the `u32` id space (more than ~4.29 billion
    /// nodes).  `arena` names the arena: `"vector"`, `"matrix"` or
    /// `"compiled"`.
    ArenaOverflow {
        /// Which arena overflowed.
        arena: &'static str,
    },
    /// The configured node or byte budget was exceeded and garbage
    /// collection could not relieve the pressure.
    MemoryOut {
        /// Allocated arena nodes (vector + matrix) when the budget tripped.
        live_nodes: u64,
        /// Approximate package footprint in bytes when the budget tripped.
        allocated_bytes: u64,
        /// The configured node budget, if any.
        node_budget: Option<u64>,
        /// The configured byte budget, if any.
        byte_budget: Option<u64>,
        /// Circuit op index being applied, if the failure surfaced there.
        op_index: Option<usize>,
    },
    /// The wall-clock deadline expired.
    Deadline {
        /// Circuit op index being applied, if the failure surfaced there.
        op_index: Option<usize>,
    },
    /// The run was cancelled through its [`CancelToken`].
    Cancelled {
        /// Circuit op index being applied, if the failure surfaced there.
        op_index: Option<usize>,
    },
    /// A non-unitary operation (measure / reset) was passed to the pure
    /// gate-application path; use `measure_qubit` / `reset_qubit` (or the
    /// trajectory engine) instead.
    NonUnitaryOperation {
        /// Display form of the offending operation.
        op: String,
        /// Circuit op index of the operation, once a caller that knows it
        /// has stamped it ([`DdError::with_op_index`]).
        op_index: Option<usize>,
    },
    /// A classically-conditioned operation was passed to the pure
    /// gate-application path; resolve the condition (trajectory engine)
    /// before applying.
    ConditionedOperation {
        /// Display form of the offending operation.
        op: String,
        /// Circuit op index of the operation, once a caller that knows it
        /// has stamped it ([`DdError::with_op_index`]).
        op_index: Option<usize>,
    },
}

impl DdError {
    /// Stamps the circuit op index onto a failure that does not carry one
    /// yet (leaves an already-stamped index and arena overflows, which
    /// belong to no single operation, untouched).
    #[must_use]
    pub fn with_op_index(mut self, index: usize) -> Self {
        match &mut self {
            DdError::MemoryOut { op_index, .. }
            | DdError::Deadline { op_index }
            | DdError::Cancelled { op_index }
            | DdError::NonUnitaryOperation { op_index, .. }
            | DdError::ConditionedOperation { op_index, .. } => {
                if op_index.is_none() {
                    *op_index = Some(index);
                }
            }
            DdError::ArenaOverflow { .. } => {}
        }
        self
    }
}

fn fmt_at(f: &mut fmt::Formatter<'_>, op_index: Option<usize>) -> fmt::Result {
    match op_index {
        Some(i) => write!(f, " at circuit op {i}"),
        None => Ok(()),
    }
}

impl fmt::Display for DdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdError::ArenaOverflow { arena } => {
                write!(f, "{arena} node arena overflow (u32 id space exhausted)")
            }
            DdError::MemoryOut {
                live_nodes,
                allocated_bytes,
                node_budget,
                byte_budget,
                op_index,
            } => {
                write!(
                    f,
                    "decision-diagram memory budget exceeded ({live_nodes} live nodes, \
                     ~{allocated_bytes} bytes"
                )?;
                if let Some(b) = node_budget {
                    write!(f, "; node budget {b}")?;
                }
                if let Some(b) = byte_budget {
                    write!(f, "; byte budget {b}")?;
                }
                write!(f, ")")?;
                fmt_at(f, *op_index)
            }
            DdError::Deadline { op_index } => {
                write!(f, "decision-diagram deadline expired")?;
                fmt_at(f, *op_index)
            }
            DdError::Cancelled { op_index } => {
                write!(f, "decision-diagram run cancelled")?;
                fmt_at(f, *op_index)
            }
            DdError::NonUnitaryOperation { op, op_index } => {
                write!(f, "non-unitary operation '{op}'")?;
                fmt_at(f, *op_index)?;
                write!(
                    f,
                    " cannot be applied as a gate; use measure_qubit/reset_qubit"
                )
            }
            DdError::ConditionedOperation { op, op_index } => {
                write!(f, "classically-conditioned operation '{op}'")?;
                fmt_at(f, *op_index)?;
                write!(
                    f,
                    " depends on the classical record; resolve the condition \
                     (trajectory engine) before applying"
                )
            }
        }
    }
}

impl Error for DdError {}

/// A shareable cooperative cancellation flag.
///
/// Clone the token, hand one clone to the governed run and keep the other;
/// calling [`cancel`](CancelToken::cancel) from any thread makes every
/// governor holding a clone fail its next amortized checkpoint with
/// [`DdError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; governed work observes it at its next checkpoint.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which failure a [`FaultPlan`] injects.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Surface as [`DdError::MemoryOut`] (with the governor's configured
    /// budgets and the counts observed at the trigger point).
    MemoryOut,
    /// Surface as [`DdError::Deadline`].
    Deadline,
    /// Surface as [`DdError::Cancelled`].
    Cancelled,
}

/// A deterministic fault: from checkpoint number `at_count` onward, every
/// checkpoint fails with the configured [`InjectedFault`].
///
/// Firing *from* the trigger point (rather than exactly once) means
/// degradation retries hit the fault again, exercising the
/// persistent-pressure abort path.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// 1-based checkpoint count at which the fault starts firing.
    pub at_count: u64,
    /// The failure to inject.
    pub kind: InjectedFault,
}

/// Budgets, deadline and cancellation for decision-diagram work, checked at
/// amortized cost inside the package hot paths (see the [module
/// docs](self)).
///
/// The default governor is [`unlimited`](Governor::unlimited): every check
/// short-circuits on a single branch, so ungoverned workloads pay nothing.
/// Limits are added builder-style:
///
/// ```
/// use dd::{CancelToken, Governor};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let governor = Governor::unlimited()
///     .with_node_budget(1_000_000)
///     .with_timeout(Duration::from_secs(60))
///     .with_cancel_token(token.clone());
/// ```
///
/// Cloning a governor shares the deadline and the cancellation token but
/// gives the clone a fresh checkpoint counter, so per-worker clones in the
/// trajectory engine probe the clock independently.
#[derive(Debug)]
pub struct Governor {
    node_budget: Option<u64>,
    byte_budget: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    check_interval: u64,
    /// Checkpoints counted so far.  [`Clone`] starts a fresh counter
    /// (independent amortization per trajectory worker).
    counter: AtomicU64,
    /// Cached `any limit configured` flag: the unlimited fast path.
    active: bool,
    #[cfg(feature = "fault-inject")]
    fault: Option<FaultPlan>,
}

impl Default for Governor {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Clone for Governor {
    fn clone(&self) -> Self {
        Self {
            node_budget: self.node_budget,
            byte_budget: self.byte_budget,
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            check_interval: self.check_interval,
            counter: AtomicU64::new(0),
            active: self.active,
            #[cfg(feature = "fault-inject")]
            fault: self.fault,
        }
    }
}

impl Governor {
    /// A governor with no limits: every checkpoint is a single branch.
    #[must_use]
    pub fn unlimited() -> Self {
        Self {
            node_budget: None,
            byte_budget: None,
            deadline: None,
            cancel: None,
            check_interval: DEFAULT_CHECK_INTERVAL,
            counter: AtomicU64::new(0),
            active: false,
            #[cfg(feature = "fault-inject")]
            fault: None,
        }
    }

    /// Caps allocated arena nodes (vector + matrix combined).
    #[must_use]
    pub fn with_node_budget(mut self, nodes: u64) -> Self {
        self.node_budget = Some(nodes);
        self.refresh_active();
        self
    }

    /// Caps the approximate package footprint in bytes.
    #[must_use]
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = Some(bytes);
        self.refresh_active();
        self
    }

    /// Sets an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self.refresh_active();
        self
    }

    /// Sets the deadline `timeout` from now.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline_at(Instant::now() + timeout)
    }

    /// Attaches a cooperative cancellation token.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self.refresh_active();
        self
    }

    /// Sets the amortized-check interval: deadline and cancellation are
    /// probed every `interval` checkpoints (clamped to at least 1).  See the
    /// [module docs](self) for how to size it.
    #[must_use]
    pub fn with_check_interval(mut self, interval: u64) -> Self {
        self.check_interval = interval.max(1);
        self
    }

    /// Injects a deterministic fault (testing only; see [`FaultPlan`]).
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self.refresh_active();
        self
    }

    fn refresh_active(&mut self) {
        self.active = self.node_budget.is_some()
            || self.byte_budget.is_some()
            || self.deadline.is_some()
            || self.cancel.is_some();
        #[cfg(feature = "fault-inject")]
        {
            self.active = self.active || self.fault.is_some();
        }
    }

    /// Whether any limit (or injected fault) is configured.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        self.active
    }

    /// The configured node budget, if any.
    #[must_use]
    pub fn node_budget(&self) -> Option<u64> {
        self.node_budget
    }

    /// The configured byte budget, if any.
    #[must_use]
    pub fn byte_budget(&self) -> Option<u64> {
        self.byte_budget
    }

    /// One unit of governed work: counts the call and, every
    /// `check_interval` calls, probes the deadline and the cancellation
    /// token.  Unlimited governors return immediately.
    ///
    /// # Errors
    ///
    /// [`DdError::Deadline`] past the deadline, [`DdError::Cancelled`] once
    /// the token is raised, or the injected fault under `fault-inject`.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), DdError> {
        if !self.active {
            return Ok(());
        }
        self.checkpoint_slow()
    }

    #[cold]
    fn checkpoint_slow(&self) -> Result<(), DdError> {
        let count = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        #[cfg(feature = "fault-inject")]
        if let Some(fault) = self.fault {
            if count >= fault.at_count {
                return Err(self.injected_error(fault.kind));
            }
        }
        if count.is_multiple_of(self.check_interval) {
            self.check_now()?;
        }
        Ok(())
    }

    #[cfg(feature = "fault-inject")]
    fn injected_error(&self, kind: InjectedFault) -> DdError {
        match kind {
            InjectedFault::MemoryOut => DdError::MemoryOut {
                live_nodes: 0,
                allocated_bytes: 0,
                node_budget: self.node_budget,
                byte_budget: self.byte_budget,
                op_index: None,
            },
            InjectedFault::Deadline => DdError::Deadline { op_index: None },
            InjectedFault::Cancelled => DdError::Cancelled { op_index: None },
        }
    }

    /// Probes the deadline and the cancellation token immediately,
    /// bypassing the amortization counter (used at natural phase boundaries
    /// such as trajectory chunk ends).
    ///
    /// # Errors
    ///
    /// [`DdError::Deadline`] / [`DdError::Cancelled`] as for
    /// [`checkpoint`](Governor::checkpoint).
    pub fn check_now(&self) -> Result<(), DdError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(DdError::Cancelled { op_index: None });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(DdError::Deadline { op_index: None });
            }
        }
        Ok(())
    }

    /// Checks the node / byte budgets against the current package counts
    /// (called on unique-table misses — the only place arenas grow).
    ///
    /// # Errors
    ///
    /// [`DdError::MemoryOut`] when either budget is exceeded.
    #[inline]
    pub fn check_budget(&self, live_nodes: u64, allocated_bytes: u64) -> Result<(), DdError> {
        let node_hit = self.node_budget.is_some_and(|b| live_nodes > b);
        let byte_hit = self.byte_budget.is_some_and(|b| allocated_bytes > b);
        if node_hit || byte_hit {
            return Err(DdError::MemoryOut {
                live_nodes,
                allocated_bytes,
                node_budget: self.node_budget,
                byte_budget: self.byte_budget,
                op_index: None,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_fails() {
        let g = Governor::unlimited();
        assert!(!g.is_limited());
        for _ in 0..100_000 {
            g.checkpoint().unwrap();
        }
        g.check_now().unwrap();
        g.check_budget(u64::MAX, u64::MAX).unwrap();
    }

    #[test]
    fn node_budget_trips_on_excess() {
        let g = Governor::unlimited().with_node_budget(100);
        g.check_budget(100, 0).unwrap();
        let err = g.check_budget(101, 0).unwrap_err();
        assert!(matches!(
            err,
            DdError::MemoryOut {
                live_nodes: 101,
                node_budget: Some(100),
                ..
            }
        ));
    }

    #[test]
    fn byte_budget_trips_on_excess() {
        let g = Governor::unlimited().with_byte_budget(1 << 20);
        g.check_budget(0, 1 << 20).unwrap();
        assert!(matches!(
            g.check_budget(0, (1 << 20) + 1),
            Err(DdError::MemoryOut { .. })
        ));
    }

    #[test]
    fn expired_deadline_fails_checkpoints() {
        let g = Governor::unlimited()
            .with_deadline_at(Instant::now() - Duration::from_millis(1))
            .with_check_interval(1);
        assert_eq!(g.checkpoint(), Err(DdError::Deadline { op_index: None }));
        assert_eq!(g.check_now(), Err(DdError::Deadline { op_index: None }));
    }

    #[test]
    fn cancellation_is_observed_across_clones() {
        let token = CancelToken::new();
        let g = Governor::unlimited()
            .with_cancel_token(token.clone())
            .with_check_interval(1);
        let clone = g.clone();
        g.checkpoint().unwrap();
        token.cancel();
        assert_eq!(g.checkpoint(), Err(DdError::Cancelled { op_index: None }));
        assert_eq!(
            clone.checkpoint(),
            Err(DdError::Cancelled { op_index: None })
        );
    }

    #[test]
    fn deadline_checks_are_amortized() {
        // With an interval of 1000, the first 999 checkpoints never probe the
        // (already expired) deadline.
        let g = Governor::unlimited()
            .with_deadline_at(Instant::now() - Duration::from_millis(1))
            .with_check_interval(1000);
        for _ in 0..999 {
            g.checkpoint().unwrap();
        }
        assert!(g.checkpoint().is_err());
    }

    #[test]
    fn clones_get_fresh_counters() {
        let g = Governor::unlimited()
            .with_deadline_at(Instant::now() - Duration::from_millis(1))
            .with_check_interval(10);
        for _ in 0..9 {
            g.checkpoint().unwrap();
        }
        let clone = g.clone();
        // The original is one call from probing; the clone starts over.
        assert!(g.checkpoint().is_err());
        for _ in 0..9 {
            clone.checkpoint().unwrap();
        }
        assert!(clone.checkpoint().is_err());
    }

    #[test]
    fn op_index_stamping_is_idempotent() {
        let err = DdError::Deadline { op_index: None }.with_op_index(7);
        assert_eq!(err, DdError::Deadline { op_index: Some(7) });
        let stamped = err.with_op_index(9);
        assert_eq!(stamped, DdError::Deadline { op_index: Some(7) });
        // Dynamic-operation failures are stamped too.
        let conditioned = DdError::ConditionedOperation {
            op: "if (c==1) x q[0]".into(),
            op_index: None,
        }
        .with_op_index(4)
        .with_op_index(8);
        assert!(matches!(
            conditioned,
            DdError::ConditionedOperation {
                op_index: Some(4),
                ..
            }
        ));
        assert!(conditioned.to_string().contains("at circuit op 4"));
        // Arena overflows belong to no single operation.
        let overflow = DdError::ArenaOverflow { arena: "vector" }.with_op_index(3);
        assert_eq!(overflow, DdError::ArenaOverflow { arena: "vector" });
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_faults_fire_from_their_trigger_point() {
        let g = Governor::unlimited().with_fault(FaultPlan {
            at_count: 3,
            kind: InjectedFault::Deadline,
        });
        assert!(g.is_limited());
        g.checkpoint().unwrap();
        g.checkpoint().unwrap();
        assert_eq!(g.checkpoint(), Err(DdError::Deadline { op_index: None }));
        // ... and keeps firing, so degradation retries fail too.
        assert_eq!(g.checkpoint(), Err(DdError::Deadline { op_index: None }));
    }
}
