//! Run governance: budgets, timeouts and cancellation for whole
//! weak-simulation runs.
//!
//! A run's limits live in one [`Governor`](crate::Governor), re-exported
//! from the `dd` crate: node/byte budgets for the decision-diagram package,
//! a per-run timeout and a shareable [`CancelToken`](crate::CancelToken).
//! Attach it with
//! [`WeakSimulator::with_governor`](crate::WeakSimulator::with_governor);
//! every run [`arm`](crate::Governor::arm)s it, so each run gets the full
//! timeout from its own start.
//!
//! # What is governed
//!
//! * **Decision-diagram construction** (strong simulation): node/byte
//!   budgets, the deadline and the token are all checked at amortized cost
//!   inside the package, and the deadline and the token once more before the
//!   first gate (see the `dd::govern` module docs).  Budget pressure
//!   degrades gracefully — garbage collection plus compute-cache shrinking,
//!   then one retry — before surfacing as
//!   [`RunError::DdMemoryOut`](crate::RunError).
//! * **Dense construction** (the state-vector backend, and the tail of a
//!   decision-diagram build handed off to it): one loop probes the deadline
//!   and the token before every gate.  Memory is governed by the up-front
//!   [`MemoryBudget`](statevector::MemoryBudget) check (the dense footprint
//!   is known exactly in advance).
//! * **Sampler compilation**: the compiled-arena passes honour the deadline
//!   and the token (compilation allocates no decision-diagram nodes, so
//!   budgets cannot trip there).
//! * **Trajectory runs** (dynamic or noisy circuits): every worker package
//!   is governed, and workers additionally probe the deadline and the token
//!   at chunk boundaries.  An interrupted trajectory run is *not* an error:
//!   it returns the shots completed so far together with an
//!   [`Interruption`] carrying the reason.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use weaksim::{Backend, Governor, WeakSimulator};
//!
//! let governor = Governor::unlimited()
//!     .with_node_budget(5_000_000)
//!     .with_timeout(Duration::from_secs(60));
//! let mut sim = WeakSimulator::new(Backend::DecisionDiagram).with_governor(governor);
//! let outcome = sim.run(&algorithms::ghz(8), 1_000, 1)?;
//! assert_eq!(outcome.histogram.shots(), 1_000);
//! # Ok::<(), weaksim::RunError>(())
//! ```

use dd::DdError;

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
