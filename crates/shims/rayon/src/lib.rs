//! Offline shim for the small `rayon` API subset this workspace uses.
//!
//! The build environment cannot reach crates.io, so parallel shot batching is
//! built on [`std::thread::scope`] behind a `rayon`-shaped facade:
//!
//! * [`current_num_threads`] — worker count, honouring `RAYON_NUM_THREADS`;
//! * [`scope`] — structured fork/join spawning with borrowed captures;
//! * [`join`] — two-way fork/join.
//!
//! Differences from the real crate: there is no persistent work-stealing
//! pool (threads are spawned per [`scope`] call and joined at its end), and
//! [`Scope::spawn`] takes a plain `FnOnce()` instead of `FnOnce(&Scope)`.
//! The callers in this workspace amortize the spawn cost over thousands of
//! samples per task, where the difference is noise.
//!
//! # The scoped-pool pattern
//!
//! Both users — `CompiledSampler::sample_many_parallel` (shot batching) and
//! the `weaksim` trajectory loop (shot chunks per worker) — follow the same
//! shape on top of [`scope`]:
//!
//! 1. decompose the work into a deterministic, scheduler-independent task
//!    list *before* spawning anything;
//! 2. statically partition the tasks over `min(workers, tasks)` spawns
//!    (contiguous chunks for shot batching, round-robin chunks for
//!    trajectories) so each output slot is written by exactly one worker
//!    through a disjoint `&mut` — no locks, no channels;
//! 3. merge the slots *after* the scope joins, in task order, so the result
//!    is a pure function of the task list and never of thread timing.
//!
//! Because [`scope`] joins every task before returning and panics
//! propagate at the join, a worker failure can never be silently lost;
//! workers that must fail softly return `Result` through their slot
//! instead (the trajectory workers do — the lowest-indexed error wins
//! deterministically).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;

/// The number of worker threads [`scope`] will use: the `RAYON_NUM_THREADS`
/// environment variable if set to a positive integer, otherwise the number
/// of available CPUs.
#[must_use]
pub fn current_num_threads() -> usize {
    if let Ok(value) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A scope in which borrowed-data tasks can be spawned; all tasks are joined
/// before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from outside the scope; it finishes
    /// before the enclosing [`scope`] call returns.
    ///
    /// A panic inside a task propagates out of the enclosing [`scope`] call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.inner.spawn(f);
    }
}

/// Runs `f` with a [`Scope`] handle and joins every spawned task before
/// returning `f`'s result.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

/// Runs the two closures, potentially in parallel, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut right = None;
    let left = scope(|s| {
        s.spawn(|| right = Some(b()));
        a()
    });
    (left, right.expect("spawned task ran to completion"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_tasks_and_allows_borrows() {
        let counter = AtomicUsize::new(0);
        let mut parts = [0u64; 8];
        scope(|s| {
            for (i, slot) in parts.iter_mut().enumerate() {
                let counter = &counter;
                s.spawn(move || {
                    *slot = i as u64 + 1;
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert_eq!(parts.iter().sum::<u64>(), 36);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(current_num_threads() >= 1);
    }
}
