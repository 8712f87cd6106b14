//! The multi-threaded request broker: single-flight construction,
//! admission control with load shedding, and crash-safe cache persistence.
//!
//! PR 8/9 made a warm request ~10,000× cheaper than a cold one, which
//! concentrates the serve path's failure modes in three places; this module
//! closes all three around a shared [`ArtifactCache`]:
//!
//! * **Single-flight cold builds** — concurrent requests with the same
//!   [`request_fingerprint`](crate::WeakSimulator::request_fingerprint)
//!   share *one* in-flight construction through a build-slot table.  The
//!   first request builds; every concurrent duplicate blocks on the slot
//!   and is served the published artifact
//!   ([`CacheOutcome::Coalesced`]) — N cold tenants pay the ~60 s
//!   construction once, not N times.  A failed build propagates the same
//!   typed [`RunError`] to every waiter; `Deadline` failures are retried
//!   with bounded backoff ([`RetryPolicy`]) before the slot is poisoned,
//!   and a poisoned slot is removed so the *next* request starts a fresh
//!   build.
//! * **Admission control** — at most
//!   [`max_inflight_builds`](ServiceConfig::max_inflight_builds)
//!   constructions run concurrently; excess cold requests wait in a
//!   bounded, deadline-aware queue.  A request that cannot be admitted —
//!   queue full, or the estimated wait (moving average of recent build
//!   times) exceeds the simulator governor's
//!   [`timeout`](crate::Governor::timeout) — is shed *immediately* with
//!   [`RunError::Overloaded`] instead of timing out after consuming
//!   resources.  Warm cache hits always bypass the queue.
//! * **Crash-safe persistence** — [`ServiceBroker::write_snapshot`] writes
//!   a versioned binary snapshot of the cache (compiled DD arenas, SV
//!   prefix sums, tableau samplers, fingerprint keys, LRU order)
//!   atomically: temp file, `fsync`, rename, with a per-section checksum.
//!   [`ServiceBroker::load_snapshot`] tolerates corruption: a torn or
//!   checksum-failing section is skipped and reported
//!   ([`SnapshotLoadReport`]), never a panic, and the corrupted entry is
//!   simply rebuilt cold on first request.  A snapshot round-trip re-serves
//!   bit-identical histograms.
//!
//! # Snapshot file format (version 2)
//!
//! All integers little-endian.
//!
//! ```text
//! header:   magic  b"WSIMSNP1"            8 bytes
//!           version u32                   4 bytes  (= 2)
//!           entry_count u32               4 bytes
//! entry*:   key    [u64; 2]              16 bytes  (request fingerprint)
//!           payload_len u64               8 bytes
//!           checksum u64                  8 bytes  (FNV-1a 64 of payload)
//!           payload                       payload_len bytes
//! ```
//!
//! Entries are written in LRU order (least recently used first), so a
//! budget-constrained load replays insertions oldest-first and evicts the
//! same victims the live cache would have.  The payload is the
//! `SimArtifact` encoding: sampler kind, backend, register widths, the
//! trailing-measurement relabelling, the executed route, the `DdStats`
//! snapshot, representation size, build times, and the engine crate's own
//! sampler serialization (see `CompiledSampler::encode_snapshot`,
//! `PrefixSampler::encode_snapshot`, `MeasurementSampler::encode_snapshot`).
//! The `DdStats` snapshot is 20 words: occupancy, unique-table counters,
//! the `add`/`mv`/`madd` and operator cache counters, garbage collections.
//! A file of any other version loads nothing and the cache starts cold.
//!
//! # Example
//!
//! ```
//! use weaksim::service::{ServiceBroker, ServiceConfig};
//! use weaksim::{ArtifactCache, Backend, CacheOutcome, WeakSimulator};
//!
//! let circuit = algorithms::ghz(6);
//! let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
//! let sim = WeakSimulator::new(Backend::DecisionDiagram);
//! let cold = broker.serve(&sim, &circuit, 1000, 7)?;
//! assert_eq!(cold.cache, Some(CacheOutcome::Miss));
//! let warm = broker.serve(&sim, &circuit, 1000, 7)?;
//! assert_eq!(warm.cache, Some(CacheOutcome::Hit));
//! assert_eq!(cold.histogram, warm.histogram); // same seed: bit-identical
//! assert_eq!(broker.stats().builds, 1);
//! # Ok::<(), weaksim::RunError>(())
//! ```

use crate::artifact::{ArtifactCache, CacheOutcome, SimArtifact};
use crate::simulator::{outcome_from_artifact, RunError, RunOutcome, WeakSimulator};
use circuit::Circuit;
use mathkit::SnapshotReader;
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Magic bytes opening a snapshot file.
const SNAPSHOT_MAGIC: &[u8; 8] = b"WSIMSNP1";
/// Snapshot format version written (and the only one accepted).
const SNAPSHOT_VERSION: u32 = 2;
/// Estimated build seconds used for admission decisions before the first
/// build has completed (no observation to average yet).
const DEFAULT_BUILD_ESTIMATE_SECS: f64 = 1.0;

/// Bounded retry policy for transient ([`RunError::Deadline`]) build
/// failures inside a build slot, applied before the slot is poisoned.
///
/// Retrying a deadline failure is meaningful because every attempt re-arms
/// the simulator's [`Governor`](crate::Governor) with the *full*
/// timeout; permanent failures (memory-out, cancellation, invalid input)
/// are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total build attempts per slot (1 = no retry; 0 is treated as 1).
    pub max_attempts: u32,
    /// Base backoff slept before retry `n` (scaled linearly: `backoff * n`).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            backoff: Duration::from_millis(25),
        }
    }
}

/// Configuration of a [`ServiceBroker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum concurrent artifact constructions (0 is treated as 1).
    /// Cold builds beyond the cap wait in the admission queue; warm hits
    /// and coalesced waiters are unaffected.
    pub max_inflight_builds: usize,
    /// Maximum requests waiting for a construction slot; a request
    /// arriving at a full queue is shed with [`RunError::Overloaded`].
    pub queue_capacity: usize,
    /// Retry policy for transient build failures.
    pub retry: RetryPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_inflight_builds: 4,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
        }
    }
}

/// A counters snapshot of a [`ServiceBroker`] (cache-level hit/miss
/// counters live in [`ArtifactCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Successful artifact constructions published to the cache.
    pub builds: u64,
    /// Build slots poisoned by a failed construction (after retries).
    pub build_failures: u64,
    /// Transient build failures that were retried.
    pub retries: u64,
    /// Requests served from another request's build slot (or from a
    /// concurrent publish) without building or re-querying the cache.
    pub coalesced: u64,
    /// Requests shed with [`RunError::Overloaded`] before admission.
    pub shed: u64,
    /// Constructions currently in flight.
    pub inflight: usize,
    /// Requests currently queued for a construction slot.
    pub queued: usize,
}

/// Deterministic service-layer fault points (`fault-inject` feature only):
/// forced build failures from an exact global attempt count, forced
/// snapshot write/read failures at exact call counts, and an optional
/// build delay to widen concurrency windows in tests.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceFaultPlan {
    /// Fail builds from this 1-based global attempt number onward.
    pub fail_builds_from: Option<u64>,
    /// How many consecutive attempts fail once triggered (0 = all of them).
    pub fail_builds_count: u64,
    /// Injected failure kind: `true` surfaces [`RunError::Deadline`]
    /// (transient, retried per [`RetryPolicy`]); `false` surfaces
    /// [`RunError::Cancelled`] (permanent, poisons the slot immediately).
    pub transient_faults: bool,
    /// Fail the Nth (1-based) [`ServiceBroker::write_snapshot`] call.
    pub fail_snapshot_write_at: Option<u64>,
    /// Fail the Nth (1-based) [`ServiceBroker::load_snapshot`] call.
    pub fail_snapshot_read_at: Option<u64>,
    /// Sleep this long at the start of every build attempt (holds the
    /// build slot open so tests can pile coalescing waiters onto it
    /// deterministically).
    pub build_delay: Option<Duration>,
}

/// State of one in-flight construction, shared between the builder and its
/// coalesced waiters.
#[derive(Debug)]
enum SlotState {
    /// The builder is still constructing.
    Building,
    /// The build succeeded and published this artifact.
    Done(Arc<SimArtifact>),
    /// The build failed (after retries); every waiter receives this error.
    Failed(RunError),
}

/// One build slot: a state cell plus the condvar its waiters block on.
#[derive(Debug)]
struct BuildSlot {
    state: Mutex<SlotState>,
    done: Condvar,
}

impl BuildSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Building),
            done: Condvar::new(),
        }
    }
}

/// Broker state guarded by one mutex: the slot table plus the admission
/// counters its condvar signals on.
#[derive(Debug, Default)]
struct BrokerState {
    inflight: usize,
    queued: usize,
    slots: HashMap<[u64; 2], Arc<BuildSlot>>,
}

/// What [`ServiceBroker::admit`] decided for a cold request.
enum Admission {
    /// This request owns a construction slot: build and publish.
    Build(Arc<BuildSlot>),
    /// A same-fingerprint build is in flight: wait on its slot.
    Wait(Arc<BuildSlot>),
    /// A concurrent build published between the cache check and the
    /// broker lock: serve the artifact directly.
    Served(Arc<SimArtifact>),
}

/// A multi-threaded request broker around an [`ArtifactCache`]; see the
/// [module docs](self) for the single-flight / admission / persistence
/// semantics.  The broker is `Send + Sync`: share one instance (behind an
/// `Arc` or by reference) across any number of serving threads.
#[derive(Debug)]
pub struct ServiceBroker {
    cache: ArtifactCache,
    config: ServiceConfig,
    state: Mutex<BrokerState>,
    admit_signal: Condvar,
    builds: AtomicU64,
    build_failures: AtomicU64,
    retries: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    build_attempts: AtomicU64,
    /// EWMA of recent successful build times, stored as `f64` bits.
    avg_build_bits: AtomicU64,
    #[cfg(feature = "fault-inject")]
    faults: Mutex<ServiceFaultPlan>,
    #[cfg(feature = "fault-inject")]
    snapshot_writes: AtomicU64,
    #[cfg(feature = "fault-inject")]
    snapshot_reads: AtomicU64,
}

impl ServiceBroker {
    /// Creates a broker serving (and populating) `cache` under `config`.
    #[must_use]
    pub fn new(cache: ArtifactCache, config: ServiceConfig) -> Self {
        Self {
            cache,
            config,
            state: Mutex::new(BrokerState::default()),
            admit_signal: Condvar::new(),
            builds: AtomicU64::new(0),
            build_failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            build_attempts: AtomicU64::new(0),
            avg_build_bits: AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            faults: Mutex::new(ServiceFaultPlan::default()),
            #[cfg(feature = "fault-inject")]
            snapshot_writes: AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            snapshot_reads: AtomicU64::new(0),
        }
    }

    /// Installs a deterministic fault plan (testing only).
    #[cfg(feature = "fault-inject")]
    pub fn set_fault_plan(&self, plan: ServiceFaultPlan) {
        *lock_recovering(&self.faults) = plan;
    }

    /// The cache the broker serves from.
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The broker's configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// A snapshot of the broker counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let state = lock_recovering(&self.state);
        ServiceStats {
            builds: self.builds.load(Ordering::Relaxed),
            build_failures: self.build_failures.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            inflight: state.inflight,
            queued: state.queued,
        }
    }

    /// Serves one request through the broker: warm hits are answered from
    /// the cache immediately (no queue), cold requests are admitted under
    /// the concurrency cap and coalesced single-flight per fingerprint,
    /// and cache-ineligible requests (noisy or dynamic circuits) fall
    /// through to the plain engine.  Histograms are bit-identical to an
    /// unbrokered [`WeakSimulator::run`] with the same seed in every case.
    ///
    /// # Errors
    ///
    /// Everything [`WeakSimulator::run`] can return, plus
    /// [`RunError::Overloaded`] when admission control sheds the request
    /// (queue full, or estimated wait past the governor's timeout).  A
    /// coalesced waiter receives the *builder's* error when the shared
    /// build fails.
    pub fn serve(
        &self,
        sim: &WeakSimulator,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
    ) -> Result<RunOutcome, RunError> {
        sim.validate(circuit)?;
        if !sim.runs_static(circuit) {
            // Cache-ineligible: per-shot evolution has no reusable prepared
            // sampler, so there is nothing to coalesce or admit — run it.
            return sim.run_trajectories(circuit, shots, seed);
        }

        let key = sim.request_fingerprint(circuit);
        if let Some(artifact) = self.cache.get(key) {
            return Ok(outcome_from_artifact(
                &artifact,
                shots,
                seed,
                Some(CacheOutcome::Hit),
            ));
        }
        // A timeout too large for `Instant` to represent means no deadline.
        let deadline = sim
            .governor()
            .timeout()
            .and_then(|t| Instant::now().checked_add(t));
        match self.admit(key, deadline)? {
            Admission::Served(artifact) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                self.cache.touch(key);
                Ok(outcome_from_artifact(
                    &artifact,
                    shots,
                    seed,
                    Some(CacheOutcome::Coalesced),
                ))
            }
            Admission::Wait(slot) => self.wait_on_slot(&slot, key, shots, seed),
            Admission::Build(slot) => self.build_and_publish(sim, circuit, key, &slot, shots, seed),
        }
    }

    /// Decides how a cold request proceeds: coalesce onto an existing
    /// slot, claim a construction slot, queue for one, or shed.
    fn admit(&self, key: [u64; 2], deadline: Option<Instant>) -> Result<Admission, RunError> {
        let max_inflight = self.config.max_inflight_builds.max(1);
        let mut state = lock_recovering(&self.state);
        loop {
            if let Some(slot) = state.slots.get(&key) {
                return Ok(Admission::Wait(Arc::clone(slot)));
            }
            // Double-check the cache under the broker lock: a concurrent
            // build may have published (and retired its slot) between the
            // caller's miss and this lock.
            if let Some(artifact) = self.cache.peek(key) {
                return Ok(Admission::Served(artifact));
            }
            if state.inflight < max_inflight {
                state.inflight += 1;
                let slot = Arc::new(BuildSlot::new());
                state.slots.insert(key, Arc::clone(&slot));
                return Ok(Admission::Build(slot));
            }

            // Every construction slot is busy: queue if admission before
            // the deadline is plausible, shed otherwise.
            let estimated_wait = self.estimated_wait(state.queued);
            if state.queued >= self.config.queue_capacity
                || deadline.is_some_and(|d| Instant::now() + estimated_wait > d)
            {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(RunError::Overloaded {
                    queue_depth: state.queued,
                    estimated_wait,
                });
            }
            state.queued += 1;
            let (next, timed_out) = match deadline {
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    let (guard, timeout) = match self.admit_signal.wait_timeout(state, remaining) {
                        Ok(ok) => ok,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    (guard, timeout.timed_out())
                }
                None => (
                    match self.admit_signal.wait(state) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    },
                    false,
                ),
            };
            state = next;
            state.queued -= 1;
            if timed_out {
                let estimated_wait = self.estimated_wait(state.queued);
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(RunError::Overloaded {
                    queue_depth: state.queued,
                    estimated_wait,
                });
            }
            // Loop: re-check slots (coalesce wins over building afresh),
            // the cache, and the concurrency cap.
        }
    }

    /// Blocks on a build slot until the shared construction resolves, then
    /// serves the published artifact — or propagates the builder's typed
    /// error to this waiter.
    fn wait_on_slot(
        &self,
        slot: &BuildSlot,
        key: [u64; 2],
        shots: u64,
        seed: u64,
    ) -> Result<RunOutcome, RunError> {
        let mut state = lock_recovering(&slot.state);
        loop {
            match &*state {
                SlotState::Building => {
                    state = match slot.done.wait(state) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                SlotState::Done(artifact) => {
                    let artifact = Arc::clone(artifact);
                    drop(state);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    // The entry just served concurrent traffic: make it the
                    // most recently used even though no `get` ran.
                    self.cache.touch(key);
                    return Ok(outcome_from_artifact(
                        &artifact,
                        shots,
                        seed,
                        Some(CacheOutcome::Coalesced),
                    ));
                }
                SlotState::Failed(error) => return Err(error.clone()),
            }
        }
    }

    /// Runs the construction this request owns, publishes the result (or
    /// the error) to the slot, and retires the slot.
    fn build_and_publish(
        &self,
        sim: &WeakSimulator,
        circuit: &Circuit,
        key: [u64; 2],
        slot: &Arc<BuildSlot>,
        shots: u64,
        seed: u64,
    ) -> Result<RunOutcome, RunError> {
        // Insurance against a panicking build: resolve the slot and release
        // the permit on unwind, so waiters get a typed error instead of a
        // deadlock.  Defused on every normal path.
        let mut guard = SlotGuard {
            broker: self,
            key,
            slot,
            armed: true,
        };
        let built = self.build_with_retry(sim, circuit);
        guard.armed = false;
        match built {
            Ok((artifact, build_seconds)) => {
                let artifact = self.cache.insert(key, artifact);
                self.resolve_slot(key, slot, SlotState::Done(Arc::clone(&artifact)));
                self.builds.fetch_add(1, Ordering::Relaxed);
                self.record_build_seconds(build_seconds);
                Ok(outcome_from_artifact(
                    &artifact,
                    shots,
                    seed,
                    Some(CacheOutcome::Miss),
                ))
            }
            Err(error) => {
                self.resolve_slot(key, slot, SlotState::Failed(error.clone()));
                self.build_failures.fetch_add(1, Ordering::Relaxed);
                Err(error)
            }
        }
    }

    /// One construction with bounded retry-with-backoff on transient
    /// ([`RunError::Deadline`]) failures; returns the artifact and the
    /// successful attempt's build seconds.
    fn build_with_retry(
        &self,
        sim: &WeakSimulator,
        circuit: &Circuit,
    ) -> Result<(SimArtifact, f64), RunError> {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let start = Instant::now();
            match self.attempt_build(sim, circuit) {
                Ok(artifact) => return Ok((artifact, start.elapsed().as_secs_f64())),
                Err(error) => {
                    let transient = matches!(error, RunError::Deadline(_));
                    if !transient || attempt >= max_attempts {
                        return Err(error);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.config.retry.backoff * attempt);
                }
            }
        }
    }

    /// One build attempt, with the `fault-inject` hooks applied first.
    fn attempt_build(
        &self,
        sim: &WeakSimulator,
        circuit: &Circuit,
    ) -> Result<SimArtifact, RunError> {
        let attempt = self.build_attempts.fetch_add(1, Ordering::Relaxed) + 1;
        #[cfg(feature = "fault-inject")]
        {
            let plan = *lock_recovering(&self.faults);
            if let Some(delay) = plan.build_delay {
                std::thread::sleep(delay);
            }
            if let Some(from) = plan.fail_builds_from {
                let triggered = attempt >= from
                    && (plan.fail_builds_count == 0 || attempt < from + plan.fail_builds_count);
                if triggered {
                    return Err(if plan.transient_faults {
                        RunError::Deadline(dd::DdError::Deadline { op_index: None })
                    } else {
                        RunError::Cancelled(dd::DdError::Cancelled { op_index: None })
                    });
                }
            }
        }
        #[cfg(not(feature = "fault-inject"))]
        let _ = attempt;
        sim.prepare_artifact(circuit)
    }

    /// Publishes `resolution` to the slot, wakes its waiters, removes the
    /// slot from the table and releases the construction permit.
    fn resolve_slot(&self, key: [u64; 2], slot: &Arc<BuildSlot>, resolution: SlotState) {
        {
            let mut state = lock_recovering(&slot.state);
            *state = resolution;
        }
        slot.done.notify_all();
        let mut state = lock_recovering(&self.state);
        // Only remove the table entry if it is still *this* slot; a failed
        // build's successor may already have replaced it.
        if state
            .slots
            .get(&key)
            .is_some_and(|current| Arc::ptr_eq(current, slot))
        {
            state.slots.remove(&key);
        }
        state.inflight = state.inflight.saturating_sub(1);
        drop(state);
        self.admit_signal.notify_all();
    }

    /// Estimated wait for a construction slot with `queued` requests ahead:
    /// the build-time moving average scaled by how many admission waves the
    /// queue represents.
    fn estimated_wait(&self, queued: usize) -> Duration {
        let avg = f64::from_bits(self.avg_build_bits.load(Ordering::Relaxed));
        let avg = if avg > 0.0 {
            avg
        } else {
            DEFAULT_BUILD_ESTIMATE_SECS
        };
        let waves = queued as f64 / self.config.max_inflight_builds.max(1) as f64 + 1.0;
        Duration::from_secs_f64((avg * waves).min(1e9))
    }

    /// Folds a successful build's seconds into the moving average
    /// (EWMA, `0.7 * old + 0.3 * new`).
    fn record_build_seconds(&self, seconds: f64) {
        let mut current = self.avg_build_bits.load(Ordering::Relaxed);
        loop {
            let avg = f64::from_bits(current);
            let next = if avg > 0.0 {
                0.7 * avg + 0.3 * seconds
            } else {
                seconds
            };
            match self.avg_build_bits.compare_exchange_weak(
                current,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Writes a crash-safe snapshot of the cache to `path`, atomically:
    /// the bytes are staged in a sibling `.tmp` file, `fsync`ed, and renamed
    /// into place — a crash mid-write leaves the previous snapshot intact.
    /// Entries are written in LRU order; each section carries an FNV-1a 64
    /// checksum so the loader can skip exactly the damaged ones.  See the
    /// [module docs](self) for the file format.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from creating, writing, syncing or renaming
    /// the temp file (and, under the `fault-inject` feature, the injected
    /// write fault); the previous snapshot at `path`, if any, survives every
    /// failure mode.
    pub fn write_snapshot(&self, path: &Path) -> io::Result<SnapshotWriteReport> {
        #[cfg(feature = "fault-inject")]
        {
            let call = self.snapshot_writes.fetch_add(1, Ordering::Relaxed) + 1;
            if lock_recovering(&self.faults).fail_snapshot_write_at == Some(call) {
                return Err(io::Error::other("injected snapshot write failure"));
            }
        }
        let entries = self.cache.entries_lru_order();
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        let mut payload = Vec::new();
        for (key, artifact) in &entries {
            payload.clear();
            artifact.encode_snapshot(&mut payload);
            buf.extend_from_slice(&key[0].to_le_bytes());
            buf.extend_from_slice(&key[1].to_le_bytes());
            buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            buf.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
        }

        let file_name = path.file_name().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot path has no file name",
            )
        })?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp_path = path.with_file_name(tmp_name);
        let mut file = std::fs::File::create(&tmp_path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp_path, path)?;
        Ok(SnapshotWriteReport {
            entries: entries.len(),
            bytes: buf.len() as u64,
        })
    }

    /// Loads a snapshot written by [`write_snapshot`](Self::write_snapshot)
    /// into the cache, restoring entries oldest-first so the cache's LRU
    /// order (and, under a byte budget, its eviction victims) match the
    /// saved state.
    ///
    /// Corruption tolerance: an unusable header loads nothing; a section
    /// whose checksum fails or whose payload does not decode is skipped; a
    /// file that ends before its declared entry count stops there.  All
    /// three are reported in the returned [`SnapshotLoadReport`] — never a
    /// panic, and never an `Err`; a skipped entry is simply rebuilt cold on
    /// first request.
    ///
    /// # Errors
    ///
    /// Fails only when the file cannot be *read* (not found, permissions,
    /// or, under the `fault-inject` feature, the injected read fault).
    pub fn load_snapshot(&self, path: &Path) -> io::Result<SnapshotLoadReport> {
        #[cfg(feature = "fault-inject")]
        {
            let call = self.snapshot_reads.fetch_add(1, Ordering::Relaxed) + 1;
            if lock_recovering(&self.faults).fail_snapshot_read_at == Some(call) {
                return Err(io::Error::other("injected snapshot read failure"));
            }
        }
        let bytes = std::fs::read(path)?;
        let mut report = SnapshotLoadReport::default();
        let mut reader = SnapshotReader::new(&bytes);
        let magic = reader
            .take(8)
            .filter(|magic| magic[..] == SNAPSHOT_MAGIC[..]);
        let (Some(_), Some(version), Some(declared)) = (magic, reader.u32(), reader.u32()) else {
            report.torn = true;
            report
                .messages
                .push("snapshot header missing or unrecognized; starting cold".to_owned());
            return Ok(report);
        };
        if version != SNAPSHOT_VERSION {
            report.torn = true;
            report.messages.push(format!(
                "unsupported snapshot version {version}; starting cold"
            ));
            return Ok(report);
        }
        for index in 0..declared {
            let (Some(k0), Some(k1), Some(payload_len), Some(checksum)) =
                (reader.u64(), reader.u64(), reader.u64(), reader.u64())
            else {
                report.torn = true;
                report.messages.push(format!(
                    "snapshot truncated in the header of entry {index} of {declared}; \
                     remaining entries lost"
                ));
                break;
            };
            let key = [k0, k1];
            let Some(payload) = usize::try_from(payload_len)
                .ok()
                .and_then(|len| reader.take(len))
            else {
                report.torn = true;
                report.messages.push(format!(
                    "snapshot truncated in the payload of entry {index} of {declared}; \
                     remaining entries lost"
                ));
                break;
            };
            if fnv1a64(payload) != checksum {
                report.skipped += 1;
                report.messages.push(format!(
                    "entry {index} (key {:016x}{:016x}): checksum mismatch, skipped \
                     (will rebuild cold)",
                    key[0], key[1]
                ));
                continue;
            }
            match SimArtifact::decode_snapshot(payload) {
                Some(artifact) => {
                    self.cache.restore(key, Arc::new(artifact));
                    report.loaded += 1;
                }
                None => {
                    report.skipped += 1;
                    report.messages.push(format!(
                        "entry {index} (key {:016x}{:016x}): payload malformed, skipped \
                         (will rebuild cold)",
                        key[0], key[1]
                    ));
                }
            }
        }
        Ok(report)
    }
}

/// Resolves the slot with a cancellation error if the builder unwinds, so
/// coalesced waiters receive a typed error instead of deadlocking.
struct SlotGuard<'a> {
    broker: &'a ServiceBroker,
    key: [u64; 2],
    slot: &'a Arc<BuildSlot>,
    armed: bool,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.broker.resolve_slot(
                self.key,
                self.slot,
                SlotState::Failed(RunError::Cancelled(dd::DdError::Cancelled {
                    op_index: None,
                })),
            );
        }
    }
}

/// Result of a successful snapshot write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotWriteReport {
    /// Artifacts serialized.
    pub entries: usize,
    /// Total bytes written (header + sections).
    pub bytes: u64,
}

/// Result of a snapshot load: what was restored, what was skipped and why.
/// Corruption is *reported*, never propagated as an error — a skipped
/// section just means that artifact rebuilds cold on first request.
#[derive(Debug, Clone, Default)]
pub struct SnapshotLoadReport {
    /// Artifacts restored into the cache.
    pub loaded: usize,
    /// Sections skipped (checksum mismatch or malformed payload).
    pub skipped: usize,
    /// Whether the file ended before its declared entries (torn write) or
    /// the header itself was unusable.
    pub torn: bool,
    /// Human-readable reports for every skipped/torn section.
    pub messages: Vec<String>,
}

/// FNV-1a 64 over a snapshot section payload.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Locks a broker-internal mutex, recovering from poisoning: the broker's
/// invariants (counters and a slot table) survive a panicking tenant, and
/// the serve path must never take down the other threads sharing it.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    #[test]
    fn broker_is_send_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<ServiceBroker>();
    }

    #[test]
    fn warm_and_cold_serves_match_the_plain_simulator() {
        let circuit = algorithms::w_state(6);
        let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        let cold = broker.serve(&sim, &circuit, 2000, 3).unwrap();
        let warm = broker.serve(&sim, &circuit, 2000, 3).unwrap();
        let plain = WeakSimulator::new(Backend::DecisionDiagram)
            .run(&circuit, 2000, 3)
            .unwrap();
        assert_eq!(cold.cache, Some(CacheOutcome::Miss));
        assert_eq!(warm.cache, Some(CacheOutcome::Hit));
        // A hit pays nothing but the per-shot draw.
        assert_eq!(warm.strong_time, Duration::ZERO);
        assert_eq!(warm.precompute_time, Duration::ZERO);
        assert_eq!(cold.histogram, plain.histogram);
        assert_eq!(warm.histogram, plain.histogram);
        assert_eq!(broker.stats().builds, 1);
    }

    #[test]
    fn dynamic_circuits_fall_through_to_the_plain_engine() {
        use circuit::Qubit;
        let mut circuit = Circuit::new(2);
        circuit
            .h(Qubit(0))
            .measure(Qubit(0), 0)
            .cx(Qubit(0), Qubit(1))
            .measure(Qubit(1), 1);
        let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        let outcome = broker.serve(&sim, &circuit, 500, 1).unwrap();
        assert_eq!(outcome.cache, None, "dynamic requests bypass the cache");
        assert!(broker.cache().is_empty());
        assert_eq!(broker.stats().builds, 0);
    }

    #[test]
    fn snapshot_round_trip_restores_lru_order_and_histograms() {
        let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        let a = algorithms::ghz(5);
        let b = algorithms::w_state(5);
        let cold_a = broker.serve(&sim, &a, 1000, 9).unwrap();
        let cold_b = broker.serve(&sim, &b, 1000, 9).unwrap();

        let dir = std::env::temp_dir().join(format!("weaksim-service-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.snap");
        let written = broker.write_snapshot(&path).unwrap();
        assert_eq!(written.entries, 2);

        let restored = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let report = restored.load_snapshot(&path).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.skipped, 0);
        assert!(!report.torn);
        let warm_a = restored.serve(&sim, &a, 1000, 9).unwrap();
        let warm_b = restored.serve(&sim, &b, 1000, 9).unwrap();
        assert_eq!(warm_a.cache, Some(CacheOutcome::Hit));
        assert_eq!(warm_b.cache, Some(CacheOutcome::Hit));
        assert_eq!(warm_a.histogram, cold_a.histogram);
        assert_eq!(warm_b.histogram, cold_b.histogram);
        assert_eq!(restored.stats().builds, 0, "nothing rebuilt after restore");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_snapshot_sections_are_skipped_not_fatal() {
        let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let sim = WeakSimulator::new(Backend::DecisionDiagram);
        broker.serve(&sim, &algorithms::ghz(4), 100, 1).unwrap();
        broker.serve(&sim, &algorithms::w_state(4), 100, 1).unwrap();

        let dir = std::env::temp_dir().join(format!("weaksim-service-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.snap");
        broker.write_snapshot(&path).unwrap();
        // Flip a byte deep inside the first entry's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[60] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let restored = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let report = restored.load_snapshot(&path).unwrap();
        assert_eq!(report.loaded + report.skipped, 2);
        assert_eq!(report.skipped, 1, "exactly the damaged section is lost");
        assert!(!report.messages.is_empty());

        // Truncation: keep only half the file — never a panic, and the
        // loader reports the tear.
        let half = bytes.len() / 2;
        std::fs::write(&path, &bytes[..half]).unwrap();
        let torn_report = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default())
            .load_snapshot(&path)
            .unwrap();
        assert!(torn_report.torn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_is_a_read_error_not_a_panic() {
        let broker = ServiceBroker::new(ArtifactCache::unbounded(), ServiceConfig::default());
        let result = broker.load_snapshot(Path::new("/no/such/dir/snapshot.bin"));
        assert!(result.is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
