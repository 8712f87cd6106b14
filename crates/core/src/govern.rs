//! User-facing run governance: budgets, timeouts and cancellation for
//! whole weak-simulation runs.
//!
//! The low-level [`dd::Governor`] carries an *absolute* deadline, which is
//! the right primitive inside the package hot paths but awkward at the API
//! surface: a simulator is configured once and reused across runs, and each
//! run should get the full timeout.  [`RunGovernor`] is therefore a
//! *specification* — "at most N nodes, at most T seconds, cancellable via
//! this token" — that [`WeakSimulator`](crate::WeakSimulator) arms into a
//! fresh [`dd::Governor`] (deadline clock started) at the beginning of every
//! run.
//!
//! # What is governed
//!
//! * **Decision-diagram construction** (strong simulation): node/byte
//!   budgets, the deadline and the token are all checked at amortized cost
//!   inside the package (see the `dd::govern` module docs, including the
//!   `check_interval` sizing knob).  Budget pressure degrades gracefully —
//!   garbage collection plus compute-cache shrinking, then one retry —
//!   before surfacing as [`RunError::DdMemoryOut`](crate::RunError).
//! * **Sampler compilation**: the compiled-arena passes honour the deadline
//!   and the token (compilation allocates no decision-diagram nodes, so
//!   budgets cannot trip there).
//! * **Trajectory runs** (dynamic or noisy circuits): every worker package
//!   is governed, and workers additionally probe the deadline and the token
//!   at chunk boundaries.  An interrupted trajectory run is *not* an error:
//!   it returns the shots completed so far together with an
//!   [`Interruption`] carrying the reason.
//! * **The dense statevector backend**: deadline and cancellation are
//!   honoured at trajectory chunk boundaries; memory is governed by the
//!   existing up-front [`MemoryBudget`](statevector::MemoryBudget) check
//!   (the dense footprint is known exactly in advance, so no cooperative
//!   budget is needed).
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use weaksim::{Backend, RunGovernor, WeakSimulator};
//!
//! let governor = RunGovernor::unlimited()
//!     .with_node_budget(5_000_000)
//!     .with_timeout(Duration::from_secs(60));
//! let mut sim = WeakSimulator::new(Backend::DecisionDiagram).with_governor(governor);
//! let outcome = sim.run(&algorithms::ghz(8), 1_000, 1)?;
//! assert_eq!(outcome.histogram.shots(), 1_000);
//! # Ok::<(), weaksim::RunError>(())
//! ```

use dd::{CancelToken, DdError, Governor};
use std::time::Duration;

/// A reusable specification of run limits: node/byte budgets for the
/// decision-diagram package, a per-run wall-clock timeout, and a shareable
/// [`CancelToken`].
///
/// Attach one to a simulator with
/// [`WeakSimulator::with_governor`](crate::WeakSimulator::with_governor);
/// every run then [`arm`](RunGovernor::arm)s it into a fresh low-level
/// [`Governor`] whose deadline starts counting at that moment.  The default
/// specification is [`unlimited`](RunGovernor::unlimited), which compiles
/// down to the package's single-branch fast path.
#[derive(Debug, Clone, Default)]
pub struct RunGovernor {
    node_budget: Option<u64>,
    byte_budget: Option<u64>,
    timeout: Option<Duration>,
    cancel: Option<CancelToken>,
    check_interval: Option<u64>,
    #[cfg(feature = "fault-inject")]
    fault: Option<dd::FaultPlan>,
}

impl RunGovernor {
    /// A specification with no limits.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps allocated decision-diagram arena nodes (vector + matrix
    /// combined) per package.
    #[must_use]
    pub fn with_node_budget(mut self, nodes: u64) -> Self {
        self.node_budget = Some(nodes);
        self
    }

    /// Caps the approximate decision-diagram package footprint in bytes
    /// (arenas, unique tables and compute caches) per package.
    #[must_use]
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = Some(bytes);
        self
    }

    /// Limits every run to `timeout` of wall-clock time, measured from the
    /// moment the run starts (i.e. from [`arm`](RunGovernor::arm)).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a cooperative cancellation token.  Keep a clone and call
    /// [`CancelToken::cancel`] from any thread to interrupt the run at its
    /// next amortized checkpoint.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Overrides the amortized-check interval of the armed governors (see
    /// [`dd::DEFAULT_CHECK_INTERVAL`] and the `dd::govern` module docs for
    /// how to size it).
    #[must_use]
    pub fn with_check_interval(mut self, interval: u64) -> Self {
        self.check_interval = Some(interval);
        self
    }

    /// Injects a deterministic fault into every armed governor (testing
    /// only; see [`dd::FaultPlan`]).
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn with_fault(mut self, fault: dd::FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Whether any limit (or injected fault) is configured.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        let limited = self.node_budget.is_some()
            || self.byte_budget.is_some()
            || self.timeout.is_some()
            || self.cancel.is_some();
        #[cfg(feature = "fault-inject")]
        let limited = limited || self.fault.is_some();
        limited
    }

    /// The configured timeout, if any.
    ///
    /// Besides bounding the armed run itself, this is the deadline the
    /// service broker's admission control honours: a queued request whose
    /// estimated wait for a construction slot would exceed this timeout is
    /// shed immediately with
    /// [`RunError::Overloaded`](crate::RunError::Overloaded) instead of
    /// waiting only to time out mid-build (see
    /// [`ServiceBroker`](crate::service::ServiceBroker)).
    #[must_use]
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Arms the specification into a low-level [`Governor`]: the timeout, if
    /// any, becomes an absolute deadline starting *now*.  Cloning the armed
    /// governor (as the trajectory engine does per worker) shares that
    /// deadline and the token.
    #[must_use]
    pub fn arm(&self) -> Governor {
        let mut governor = Governor::unlimited();
        if let Some(nodes) = self.node_budget {
            governor = governor.with_node_budget(nodes);
        }
        if let Some(bytes) = self.byte_budget {
            governor = governor.with_byte_budget(bytes);
        }
        if let Some(timeout) = self.timeout {
            governor = governor.with_timeout(timeout);
        }
        if let Some(token) = &self.cancel {
            governor = governor.with_cancel_token(token.clone());
        }
        if let Some(interval) = self.check_interval {
            governor = governor.with_check_interval(interval);
        }
        #[cfg(feature = "fault-inject")]
        if let Some(fault) = self.fault {
            governor = governor.with_fault(fault);
        }
        governor
    }
}

/// Why (and when) a trajectory run stopped early.
///
/// Interruption is *graceful degradation*, not failure: the histogram of a
/// run carrying an `Interruption` holds every shot that completed before the
/// governor fired, and the owning packages remain fully usable — re-running
/// with the same seed and no interruption reproduces the full histogram
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interruption {
    /// The governed failure that stopped the run (budget, deadline or
    /// cancellation, with its structured report).
    pub reason: DdError,
    /// Shots fully completed — and recorded in the histogram — before the
    /// interruption.
    pub completed_shots: u64,
}

impl std::fmt::Display for Interruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interrupted after {} completed shots: {}",
            self.completed_shots, self.reason
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn unlimited_spec_arms_to_the_fast_path() {
        let spec = RunGovernor::unlimited();
        assert!(!spec.is_limited());
        assert!(!spec.arm().is_limited());
    }

    #[test]
    fn arming_starts_the_deadline_clock() {
        let spec = RunGovernor::unlimited().with_timeout(Duration::from_secs(3600));
        assert!(spec.is_limited());
        assert_eq!(spec.timeout(), Some(Duration::from_secs(3600)));
        // Armed twice, each governor gets the full hour from its own start.
        let before = Instant::now();
        let armed = spec.arm();
        assert!(armed.is_limited());
        armed.check_now().expect("one hour has not elapsed");
        assert!(before.elapsed() < Duration::from_secs(3600));
    }

    #[test]
    fn budgets_and_token_carry_over() {
        let token = CancelToken::new();
        let spec = RunGovernor::unlimited()
            .with_node_budget(10)
            .with_byte_budget(1 << 20)
            .with_cancel_token(token.clone());
        let armed = spec.arm();
        assert_eq!(armed.node_budget(), Some(10));
        assert_eq!(armed.byte_budget(), Some(1 << 20));
        armed.check_now().expect("not cancelled yet");
        token.cancel();
        assert!(
            armed.check_now().is_err(),
            "armed governor shares the token"
        );
    }

    #[test]
    fn interruption_display_mentions_shots_and_reason() {
        let i = Interruption {
            reason: DdError::Deadline { op_index: None },
            completed_shots: 42,
        };
        let text = i.to_string();
        assert!(text.contains("42"), "{text}");
        assert!(text.contains("deadline"), "{text}");
    }
}
