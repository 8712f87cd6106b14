//! Immutable, shareable simulation artifacts and the cross-run cache that
//! serves them.
//!
//! The paper's weak-simulation contract is *pay once, sample cheap*: strong
//! simulation of `supremacy_4x5_10` costs around a minute, after which 200k
//! shots cost ~0.13 s.  This module makes the expensive part reusable
//! across runs, simulators and threads:
//!
//! * [`SimArtifact`] — everything a request needs *after* strong
//!   simulation, detached from the machinery that built it: a prepared
//!   sampler (compiled decision-diagram arena, dense prefix sums, or
//!   stabilizer affine-subspace basis), the trailing-measurement
//!   relabelling, the executed [`RunRoute`] and the representation-size /
//!   [`DdStats`] snapshot.  Artifacts are immutable, `Send + Sync` and
//!   `'static`, so an `Arc<SimArtifact>` can be sampled concurrently by any
//!   number of tenants.
//! * [`ArtifactCache`] — a bounded, fingerprint-keyed, byte-budgeted LRU
//!   store of `Arc<SimArtifact>`s, served through a
//!   [`ServiceBroker`](crate::ServiceBroker) (its only writer): every
//!   eligible request first consults the cache, and a hit skips strong
//!   simulation *and* sampler compilation entirely.
//!
//! # Reproducibility
//!
//! Every noise-free static run builds an artifact, cached or not, and
//! draws its shots with [`SimArtifact::sample`]; the cache only decides
//! whether the artifact is kept.  A cached histogram is therefore
//! **bit-identical** to the uncached run with the same seed, and two
//! tenants sampling one shared artifact with different seeds draw
//! independent, individually reproducible shot streams.
//!
//! # Keys
//!
//! Cache keys are the request fingerprint
//! ([`WeakSimulator::request_fingerprint`](crate::WeakSimulator::request_fingerprint)):
//! [`Circuit::fingerprint`](circuit::Circuit::fingerprint) extended with
//! the backend choice, the router flag and the attached noise model.  Any
//! bit of drift — an angle's last mantissa bit, a creg relabelling, a noise
//! parameter — produces a different key and a rebuild.

use crate::router::RunRoute;
use crate::simulator::{map_terminal_record, Backend};
use crate::ShotHistogram;
use circuit::Qubit;
use dd::{chunk_stream_seed, CompiledSampler, DdStats, PARALLEL_CHUNK_SHOTS};
use mathkit::SnapshotReader;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;
use statevector::PrefixSampler;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use tableau::MeasurementSampler;

/// The prepared sampler inside a [`SimArtifact`]: one variant per engine,
/// each fully detached from the package/state that built it.
#[derive(Debug, Clone)]
pub enum PreparedSampler {
    /// A compiled decision-diagram arena (owned; survives its package).
    DecisionDiagram(CompiledSampler),
    /// Dense prefix sums over `2^n` amplitudes.
    StateVector(PrefixSampler),
    /// The affine-subspace sampler of a stabilizer state.
    Tableau(MeasurementSampler),
}

impl PreparedSampler {
    /// Heap bytes held by the sampler itself.
    fn heap_bytes(&self) -> usize {
        match self {
            PreparedSampler::DecisionDiagram(s) => s.arena_bytes(),
            PreparedSampler::StateVector(s) => s.heap_bytes(),
            PreparedSampler::Tableau(s) => s.heap_bytes(),
        }
    }
}

/// An immutable, reusable weak-simulation artifact: the complete output of
/// the expensive phase of a run (strong simulation + sampler preparation),
/// detached from every borrowed resource so it can outlive its builder and
/// be shared across threads and runs.
///
/// Every noise-free static run builds one; a
/// [`ServiceBroker`](crate::ServiceBroker) keeps them in its
/// [`ArtifactCache`], from which they can be fetched with
/// [`ArtifactCache::get`] and sampled (concurrently, if desired) with
/// [`SimArtifact::sample`].
#[derive(Debug)]
pub struct SimArtifact {
    sampler: PreparedSampler,
    /// Trailing-measurement relabelling `(qubit, cbit)`; empty means the
    /// full register is histogrammed directly.
    mapping: Vec<(Qubit, u16)>,
    num_qubits: u16,
    /// Classical-record width used when `mapping` is non-empty.
    record_width: u16,
    backend: Backend,
    route: RunRoute,
    dd_stats: Option<DdStats>,
    representation_size: u128,
    build_strong_time: Duration,
    build_precompute_time: Duration,
}

/// The engine half of a [`SimArtifact`]: the prepared sampler plus what
/// its build measured, as an engine's `prepare` hook returns it.
pub(crate) struct Prepared {
    pub(crate) sampler: PreparedSampler,
    /// DD nodes, dense amplitudes, or stabilizer generators.
    pub(crate) representation_size: u128,
    pub(crate) dd_stats: Option<DdStats>,
    /// The operations a decision diagram ran before handing its state to
    /// the dense engine, which ran the rest; `None` when one engine ran
    /// the whole circuit.
    pub(crate) handoff: Option<usize>,
    pub(crate) strong_time: Duration,
    pub(crate) precompute_time: Duration,
}

impl SimArtifact {
    /// Assembles an artifact from an engine's prepared half and the
    /// request's read-out: the trailing-measurement `mapping` into a
    /// `record_width`-bit record (empty: histogram the full
    /// `num_qubits`-bit register), the configured `backend` and the `route`
    /// every run served from it reports.
    pub(crate) fn new(
        prepared: Prepared,
        mapping: Vec<(Qubit, u16)>,
        num_qubits: u16,
        record_width: u16,
        backend: Backend,
        route: RunRoute,
    ) -> Self {
        Self {
            sampler: prepared.sampler,
            mapping,
            num_qubits,
            record_width,
            backend,
            route,
            dd_stats: prepared.dd_stats,
            representation_size: prepared.representation_size,
            build_strong_time: prepared.strong_time,
            build_precompute_time: prepared.precompute_time,
        }
    }

    /// The prepared sampler.
    #[must_use]
    pub fn sampler(&self) -> &PreparedSampler {
        &self.sampler
    }

    /// The register width in qubits.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// The backend the artifact was prepared for (reported in cached
    /// outcomes; tableau-routed artifacts report the configured dense
    /// backend, like the router does).
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The route the preparing run executed (and every cached run reports).
    #[must_use]
    pub fn route(&self) -> &RunRoute {
        &self.route
    }

    /// The decision-diagram statistics snapshot taken at build time, if the
    /// artifact came from the DD engine (for a build handed to the dense
    /// engine: the diagram segment's counters, taken at the handoff).
    #[must_use]
    pub fn dd_stats(&self) -> Option<DdStats> {
        self.dd_stats
    }

    /// Representation size of the strong state the artifact was compiled
    /// from (DD nodes, dense amplitudes, or stabilizer generators; `2^n`
    /// for a decision-diagram build handed to the dense engine).
    #[must_use]
    pub fn representation_size(&self) -> u128 {
        self.representation_size
    }

    /// Wall-clock time the build spent in strong simulation.
    #[must_use]
    pub fn build_strong_time(&self) -> Duration {
        self.build_strong_time
    }

    /// Wall-clock time the build spent preparing the sampler (compilation,
    /// prefix sums, or the tableau sampler's elimination).
    #[must_use]
    pub fn build_precompute_time(&self) -> Duration {
        self.build_precompute_time
    }

    /// Approximate heap bytes retained by this artifact — what the cache
    /// charges against its byte budget.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.sampler.heap_bytes()
            + self.mapping.len() * std::mem::size_of::<(Qubit, u16)>()
            + self.route.segments.len() * std::mem::size_of::<crate::router::RouteSegment>()
    }

    /// Serializes the complete artifact into `out` — the per-entry payload
    /// of the service snapshot (see [`crate::service`] for the file
    /// framing).  Everything [`decode_snapshot`](Self::decode_snapshot)
    /// needs to re-serve bit-identical histograms: the sampler (via its
    /// engine crate's encoder), the relabelling, the route and the build
    /// metadata.
    pub(crate) fn encode_snapshot(&self, out: &mut Vec<u8>) {
        let kind: u8 = match &self.sampler {
            PreparedSampler::DecisionDiagram(_) => 0,
            PreparedSampler::StateVector(_) => 1,
            PreparedSampler::Tableau(_) => 2,
        };
        out.push(kind);
        out.push(match self.backend {
            Backend::DecisionDiagram => 0,
            Backend::StateVector => 1,
        });
        out.extend_from_slice(&self.num_qubits.to_le_bytes());
        out.extend_from_slice(&self.record_width.to_le_bytes());
        out.extend_from_slice(&(self.mapping.len() as u32).to_le_bytes());
        for &(qubit, cbit) in &self.mapping {
            out.extend_from_slice(&qubit.0.to_le_bytes());
            out.extend_from_slice(&cbit.to_le_bytes());
        }
        out.extend_from_slice(&(self.route.segments.len() as u32).to_le_bytes());
        for segment in &self.route.segments {
            out.push(match segment.engine {
                crate::router::EngineKind::Tableau => 0,
                crate::router::EngineKind::DecisionDiagram => 1,
                crate::router::EngineKind::StateVector => 2,
            });
            out.extend_from_slice(&(segment.ops as u64).to_le_bytes());
        }
        match &self.dd_stats {
            None => out.push(0),
            Some(stats) => {
                out.push(1);
                for value in dd_stats_words(stats) {
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&self.representation_size.to_le_bytes());
        out.extend_from_slice(&self.build_strong_time.as_secs_f64().to_bits().to_le_bytes());
        out.extend_from_slice(
            &self
                .build_precompute_time
                .as_secs_f64()
                .to_bits()
                .to_le_bytes(),
        );
        let mut sampler_bytes = Vec::new();
        match &self.sampler {
            PreparedSampler::DecisionDiagram(s) => s.encode_snapshot(&mut sampler_bytes),
            PreparedSampler::StateVector(s) => s.encode_snapshot(&mut sampler_bytes),
            PreparedSampler::Tableau(s) => s.encode_snapshot(&mut sampler_bytes),
        }
        out.extend_from_slice(&(sampler_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&sampler_bytes);
    }

    /// Reconstructs an artifact from an [`encode_snapshot`](Self::encode_snapshot)
    /// payload, delegating sampler validation to the engine crates and
    /// cross-checking the register width.  Returns `None` for any
    /// truncated, malformed or inconsistent payload — a corrupted snapshot
    /// section is skipped by the loader, never a panic.
    pub(crate) fn decode_snapshot(bytes: &[u8]) -> Option<Self> {
        let mut reader = SnapshotReader::new(bytes);
        let kind = reader.u8()?;
        let backend = match reader.u8()? {
            0 => Backend::DecisionDiagram,
            1 => Backend::StateVector,
            _ => return None,
        };
        let num_qubits = reader.u16()?;
        let record_width = reader.u16()?;
        let mapping_len = reader.u32()? as usize;
        if mapping_len > usize::from(u16::MAX) {
            return None;
        }
        let mut mapping = Vec::with_capacity(mapping_len);
        for _ in 0..mapping_len {
            let qubit = Qubit(reader.u16()?);
            let cbit = reader.u16()?;
            if qubit.0 >= num_qubits || cbit >= record_width {
                return None;
            }
            mapping.push((qubit, cbit));
        }
        let segment_count = reader.u32()? as usize;
        if segment_count > 1 << 20 {
            return None;
        }
        let mut segments = Vec::with_capacity(segment_count);
        for _ in 0..segment_count {
            let engine = match reader.u8()? {
                0 => crate::router::EngineKind::Tableau,
                1 => crate::router::EngineKind::DecisionDiagram,
                2 => crate::router::EngineKind::StateVector,
                _ => return None,
            };
            let ops = usize::try_from(reader.u64()?).ok()?;
            segments.push(crate::router::RouteSegment { engine, ops });
        }
        let dd_stats = match reader.u8()? {
            0 => None,
            1 => {
                let mut words = [0u64; DD_STATS_WORDS];
                for word in &mut words {
                    *word = reader.u64()?;
                }
                Some(dd_stats_from_words(&words)?)
            }
            _ => return None,
        };
        let representation_size = reader.u128()?;
        let build_strong_time = duration_from_bits(reader.u64()?)?;
        let build_precompute_time = duration_from_bits(reader.u64()?)?;
        let sampler_len = usize::try_from(reader.u64()?).ok()?;
        let sampler_bytes = reader.take(sampler_len)?;
        if reader.remaining() != 0 {
            return None;
        }
        let sampler = match kind {
            0 => {
                let s = CompiledSampler::decode_snapshot(sampler_bytes)?;
                if s.num_qubits() != num_qubits {
                    return None;
                }
                PreparedSampler::DecisionDiagram(s)
            }
            1 => {
                let s = PrefixSampler::decode_snapshot(sampler_bytes)?;
                if s.num_qubits() != num_qubits {
                    return None;
                }
                PreparedSampler::StateVector(s)
            }
            2 => {
                let s = MeasurementSampler::decode_snapshot(sampler_bytes)?;
                if s.num_qubits() != usize::from(num_qubits) {
                    return None;
                }
                PreparedSampler::Tableau(s)
            }
            _ => return None,
        };
        Some(Self {
            sampler,
            mapping,
            num_qubits,
            record_width,
            backend,
            route: RunRoute { segments },
            dd_stats,
            representation_size,
            build_strong_time,
            build_precompute_time,
        })
    }

    /// Draws `shots` seed-deterministic samples — the one static draw loop:
    /// uncached and brokered runs all sample through here.
    ///
    /// Every sampler draws on the calling thread.  Decision-diagram and
    /// tableau samplers draw chunk `i` of [`PARALLEL_CHUNK_SHOTS`] shots
    /// from its own [`chunk_stream_seed`]-derived stream; the dense sampler
    /// draws from one sequential `StdRng`.  The histogram depends only on
    /// the artifact and the seed, so a cache hit is bit-identical to the run
    /// that built it.  `&self` only: any number of threads may sample one
    /// shared artifact concurrently, each with its own seed stream, which is
    /// how a broker's serving threads share the cores.
    #[must_use]
    pub fn sample(&self, shots: u64, seed: u64) -> ShotHistogram {
        let width = if self.mapping.is_empty() {
            self.num_qubits
        } else {
            self.record_width
        };
        let mut histogram = ShotHistogram::new(width);
        match &self.sampler {
            PreparedSampler::DecisionDiagram(sampler) => {
                // Chunk by chunk into one reused block: the same samples, in
                // the same order, as one `sample_many_parallel` call.
                let chunk_len = PARALLEL_CHUNK_SHOTS as u64;
                histogram.reserve_for_shots(shots);
                let mut block = vec![0u64; PARALLEL_CHUNK_SHOTS];
                for chunk_index in 0..shots.div_ceil(chunk_len) {
                    // At most one chunk, so the cast cannot truncate.
                    let len = chunk_len.min(shots - chunk_index * chunk_len) as usize;
                    sampler.sample_chunk(seed, chunk_index, &mut block[..len]);
                    self.record(&mut histogram, &block[..len]);
                }
            }
            PreparedSampler::StateVector(sampler) => {
                // One sequential stream, drawn a block at a time.
                let mut rng = StdRng::seed_from_u64(seed);
                histogram.reserve_for_shots(shots);
                let mut block = vec![0u64; PARALLEL_CHUNK_SHOTS];
                let mut drawn = 0u64;
                while drawn < shots {
                    // At most one block, so the cast cannot truncate.
                    let len = (shots - drawn).min(block.len() as u64) as usize;
                    sampler.sample_into(&mut rng, &mut block[..len]);
                    self.record(&mut histogram, &block[..len]);
                    drawn += len as u64;
                }
            }
            PreparedSampler::Tableau(sampler) => {
                // Registers can exceed 64 qubits: draw packed words.
                let chunk_len = PARALLEL_CHUNK_SHOTS as u64;
                let total_chunks = shots.div_ceil(chunk_len);
                if self.mapping.is_empty() {
                    for chunk_index in 0..total_chunks {
                        let chunk_shots = chunk_len.min(shots - chunk_index * chunk_len);
                        let mut rng = SmallRng::seed_from_u64(chunk_stream_seed(seed, chunk_index));
                        for _ in 0..chunk_shots {
                            histogram.record(sampler.sample_u64(&mut rng));
                        }
                    }
                } else {
                    let mut buf = vec![0u64; sampler.num_qubits().div_ceil(64)];
                    for chunk_index in 0..total_chunks {
                        let chunk_shots = chunk_len.min(shots - chunk_index * chunk_len);
                        let mut rng = SmallRng::seed_from_u64(chunk_stream_seed(seed, chunk_index));
                        for _ in 0..chunk_shots {
                            sampler.sample_into(&mut buf, &mut rng);
                            histogram.record(map_terminal_words(&buf, &self.mapping));
                        }
                    }
                }
            }
        }
        histogram
    }

    /// Records full-register samples, through the trailing-measurement
    /// mapping if there is one.
    fn record(&self, histogram: &mut ShotHistogram, samples: &[u64]) {
        if self.mapping.is_empty() {
            histogram.record_many(samples);
        } else {
            for &sample in samples {
                histogram.record(map_terminal_record(sample, &self.mapping));
            }
        }
    }
}

/// Reads the classical record of one full-register sample through the
/// trailing-measurement mapping (the packed-words analogue of
/// `map_terminal_record`, needed because tableau registers can exceed 64
/// qubits).
fn map_terminal_words(sample: &[u64], mapping: &[(Qubit, u16)]) -> u64 {
    let mut out = 0u64;
    for &(qubit, cbit) in mapping {
        let q = usize::from(qubit.0);
        let bit = (sample[q / 64] >> (q % 64) & 1) as u8;
        out = crate::trajectory::record_bit(out, cbit, bit);
    }
    out
}

/// Number of `u64` words a [`DdStats`] serializes to.
const DD_STATS_WORDS: usize = 20;

/// Flattens a [`DdStats`] into a fixed-width word array (the snapshot
/// encoding); [`dd_stats_from_words`] is the inverse.
fn dd_stats_words(stats: &DdStats) -> [u64; DD_STATS_WORDS] {
    let c = |counters: &dd::CacheCounters| [counters.hits, counters.misses, counters.evictions];
    let [a0, a1, a2] = c(&stats.add_cache);
    let [b0, b1, b2] = c(&stats.mv_cache);
    let [d0, d1, d2] = c(&stats.madd_cache);
    let [e0, e1, e2] = c(&stats.operator_cache);
    [
        stats.vector_nodes as u64,
        stats.matrix_nodes as u64,
        stats.interned_values as u64,
        stats.vector_unique_hits,
        stats.vector_unique_misses,
        stats.matrix_unique_hits,
        stats.matrix_unique_misses,
        a0,
        a1,
        a2,
        b0,
        b1,
        b2,
        d0,
        d1,
        d2,
        e0,
        e1,
        e2,
        stats.garbage_collections,
    ]
}

/// Rebuilds a [`DdStats`] from its snapshot words; `None` when a `usize`
/// field does not fit the loading target.
fn dd_stats_from_words(words: &[u64; DD_STATS_WORDS]) -> Option<DdStats> {
    let counters = |offset: usize| dd::CacheCounters {
        hits: words[offset],
        misses: words[offset + 1],
        evictions: words[offset + 2],
    };
    Some(DdStats {
        vector_nodes: usize::try_from(words[0]).ok()?,
        matrix_nodes: usize::try_from(words[1]).ok()?,
        interned_values: usize::try_from(words[2]).ok()?,
        vector_unique_hits: words[3],
        vector_unique_misses: words[4],
        matrix_unique_hits: words[5],
        matrix_unique_misses: words[6],
        add_cache: counters(7),
        mv_cache: counters(10),
        madd_cache: counters(13),
        operator_cache: counters(16),
        garbage_collections: words[19],
    })
}

/// A finite, non-negative duration decoded from `f64` bits; `None` rejects
/// the NaN/negative/infinite values a corrupted payload could carry
/// (`Duration::from_secs_f64` panics on those).
fn duration_from_bits(bits: u64) -> Option<Duration> {
    let seconds = f64::from_bits(bits);
    if seconds.is_finite() && (0.0..1e18).contains(&seconds) {
        Some(Duration::from_secs_f64(seconds))
    } else {
        None
    }
}

/// Whether a cached run was served from the cache or had to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The artifact was found in the cache: no strong simulation ran.
    Hit,
    /// The artifact was built by this run and inserted for the next one.
    Miss,
    /// The artifact was built by a *concurrent* request with the same
    /// fingerprint: this request waited on the shared build slot (or found
    /// the artifact published between its miss and its build) and was
    /// served without building.  Only requests that race a concurrent build
    /// through a shared [`ServiceBroker`](crate::service::ServiceBroker)
    /// report this.
    Coalesced,
}

/// A counters-and-occupancy snapshot of an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found their artifact.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Artifacts inserted (including oversized ones that were not retained).
    pub insertions: u64,
    /// Artifacts evicted to make room under the byte budget.
    pub evictions: u64,
    /// Artifacts currently retained.
    pub entries: usize,
    /// Bytes currently retained.
    pub bytes: u64,
}

/// One retained artifact.
#[derive(Debug)]
struct CacheEntry {
    key: [u64; 2],
    artifact: Arc<SimArtifact>,
    bytes: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: Vec<CacheEntry>,
    byte_budget: Option<u64>,
    bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl CacheInner {
    /// Stores `artifact` under `key` as the most recently used entry.
    /// Replaces any existing entry for the key; under a byte budget, evicts
    /// least-recently-used entries until the newcomer fits, and retains
    /// nothing when the artifact alone exceeds the whole budget.
    fn store(&mut self, key: [u64; 2], artifact: Arc<SimArtifact>) {
        let bytes = artifact.heap_bytes() as u64;
        if let Some(existing) = self.entries.iter().position(|entry| entry.key == key) {
            let removed = self.entries.swap_remove(existing);
            self.bytes -= removed.bytes;
        }
        if let Some(budget) = self.byte_budget {
            if bytes > budget {
                return;
            }
            self.evict_to_fit(bytes, budget);
        }
        self.tick += 1;
        self.bytes += bytes;
        self.entries.push(CacheEntry {
            key,
            artifact,
            bytes,
            last_used: self.tick,
        });
    }

    /// Evicts least-recently-used entries until at least `needed` bytes fit
    /// under `budget`.
    fn evict_to_fit(&mut self, needed: u64, budget: u64) {
        while self.bytes + needed > budget && !self.entries.is_empty() {
            let mut lru = 0;
            for (i, entry) in self.entries.iter().enumerate() {
                if entry.last_used < self.entries[lru].last_used {
                    lru = i;
                }
            }
            let evicted = self.entries.swap_remove(lru);
            self.bytes -= evicted.bytes;
            self.evictions += 1;
        }
    }
}

/// A bounded, fingerprint-keyed store of [`Arc<SimArtifact>`]s shared
/// across runs.  The handle is cheaply cloneable and internally
/// synchronized; a [`ServiceBroker`](crate::ServiceBroker) is the only
/// writer, so requests share one cache by sharing one broker.
///
/// Retention is LRU under an optional byte budget, following the bounded
/// compute-cache idiom of the DD package: inserting over budget first
/// evicts least-recently-used entries, and an artifact larger than the
/// whole budget is served to its requester but not retained.  An
/// [`unbounded`](ArtifactCache::unbounded) cache never evicts.
///
/// # Examples
///
/// ```
/// use weaksim::{ArtifactCache, Backend, ServiceBroker, ServiceConfig, WeakSimulator};
///
/// let circuit = algorithms::w_state(6);
/// let cache = ArtifactCache::with_byte_budget(1 << 20);
/// let broker = ServiceBroker::new(cache, ServiceConfig::default());
/// let sim = WeakSimulator::new(Backend::DecisionDiagram);
/// broker.serve(&sim, &circuit, 1000, 7)?;
/// let artifact = broker.cache().get(sim.request_fingerprint(&circuit)).expect("retained");
/// assert_eq!(artifact.sample(1000, 7).shots(), 1000);
/// let stats = broker.cache().stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// # Ok::<(), weaksim::RunError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArtifactCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl ArtifactCache {
    /// A cache with no byte budget: nothing is ever evicted.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A cache that retains at most `bytes` of artifact heap.
    #[must_use]
    pub fn with_byte_budget(bytes: u64) -> Self {
        Self {
            inner: Arc::new(Mutex::new(CacheInner {
                byte_budget: Some(bytes),
                ..CacheInner::default()
            })),
        }
    }

    /// The artifact stored under `key`, bumping its recency; counts a hit
    /// or miss either way.
    #[must_use]
    pub fn get(&self, key: [u64; 2]) -> Option<Arc<SimArtifact>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.iter_mut().find(|entry| entry.key == key) {
            Some(entry) => {
                entry.last_used = tick;
                let artifact = Arc::clone(&entry.artifact);
                inner.hits += 1;
                Some(artifact)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly built `artifact` under `key` (replacing, evicting
    /// and skipping oversized artifacts as described on the type) and
    /// returns the shared handle, which stays valid either way.
    pub(crate) fn insert(&self, key: [u64; 2], artifact: SimArtifact) -> Arc<SimArtifact> {
        let artifact = Arc::new(artifact);
        let mut inner = self.lock();
        inner.insertions += 1;
        inner.store(key, Arc::clone(&artifact));
        artifact
    }

    /// A snapshot of the hit/miss/insertion/eviction counters and the
    /// current occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            bytes: inner.bytes,
        }
    }

    /// Number of retained artifacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no artifacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every retained artifact (outstanding `Arc` handles stay
    /// valid); counters are kept.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.bytes = 0;
    }

    /// Bumps the recency of `key` without counting a hit or a miss; returns
    /// whether the entry is retained.
    ///
    /// This is the broker's serve-path hook: a request served from a shared
    /// build slot (coalesced waiter) or re-checked under the broker lock
    /// never calls [`get`](Self::get), yet the entry it was served from must
    /// become the *most* recently used — otherwise an artifact serving heavy
    /// concurrent traffic could still be the LRU eviction victim.
    pub(crate) fn touch(&self, key: [u64; 2]) -> bool {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.iter_mut().find(|entry| entry.key == key) {
            Some(entry) => {
                entry.last_used = tick;
                true
            }
            None => false,
        }
    }

    /// Like [`get`](Self::get), but without counting a hit or a miss — the
    /// broker's double-check under its own lock, which must not inflate the
    /// request-level counters.  Bumps recency on success.
    pub(crate) fn peek(&self, key: [u64; 2]) -> Option<Arc<SimArtifact>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner
            .entries
            .iter_mut()
            .find(|entry| entry.key == key)
            .map(|entry| {
                entry.last_used = tick;
                Arc::clone(&entry.artifact)
            })
    }

    /// Every retained entry in LRU order (least recently used first) —
    /// the order a snapshot writes, so a budget-constrained load replays
    /// insertions oldest-first and evicts the same victims the live cache
    /// would have.
    pub(crate) fn entries_lru_order(&self) -> Vec<([u64; 2], Arc<SimArtifact>)> {
        let inner = self.lock();
        let mut entries: Vec<_> = inner
            .entries
            .iter()
            .map(|entry| (entry.last_used, entry.key, Arc::clone(&entry.artifact)))
            .collect();
        entries.sort_by_key(|&(last_used, _, _)| last_used);
        entries
            .into_iter()
            .map(|(_, key, artifact)| (key, artifact))
            .collect()
    }

    /// Stores an already-shared artifact like [`insert`](Self::insert),
    /// but without counting an insertion — restoring a snapshot is not
    /// request traffic.
    pub(crate) fn restore(&self, key: [u64; 2], artifact: Arc<SimArtifact>) {
        self.lock().store(key, artifact);
    }

    /// Locks the store.  A poisoned mutex is recovered, not propagated: the
    /// cache holds no invariants a panicking tenant could half-update into
    /// unsoundness (worst case is a stale counter), and a cache must never
    /// take down the simulators sharing it.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal artifact for cache-mechanics tests (the broker-level
    /// integration lives in the workspace `artifact_cache` test).
    fn tiny_artifact(n: u16) -> SimArtifact {
        let circuit = algorithms::ghz(n);
        crate::WeakSimulator::new(Backend::DecisionDiagram)
            .prepare_artifact(&circuit, circuit.len())
            .unwrap()
    }

    #[test]
    fn artifacts_are_shareable_across_threads() {
        fn assert_shareable<T: Send + Sync + 'static>() {}
        assert_shareable::<SimArtifact>();
        assert_shareable::<ArtifactCache>();
    }

    #[test]
    fn get_and_insert_track_counters() {
        let cache = ArtifactCache::unbounded();
        let key = [1, 2];
        assert!(cache.get(key).is_none());
        let handle = cache.insert(key, tiny_artifact(4));
        let again = cache.get(key).expect("inserted artifact is retained");
        assert!(Arc::ptr_eq(&handle, &again));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let one = tiny_artifact(4).heap_bytes() as u64;
        // Room for two artifacts, not three.
        let cache = ArtifactCache::with_byte_budget(one * 2 + one / 2);
        cache.insert([1, 0], tiny_artifact(4));
        cache.insert([2, 0], tiny_artifact(4));
        assert_eq!(cache.len(), 2);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get([1, 0]).is_some());
        cache.insert([3, 0], tiny_artifact(4));
        assert_eq!(cache.len(), 2);
        assert!(cache.get([1, 0]).is_some(), "recently used entry survives");
        assert!(cache.get([2, 0]).is_none(), "LRU entry was evicted");
        assert!(cache.get([3, 0]).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= one * 2 + one / 2);
    }

    #[test]
    fn oversized_artifacts_are_served_but_not_retained() {
        let cache = ArtifactCache::with_byte_budget(1);
        let handle = cache.insert([9, 9], tiny_artifact(4));
        assert_eq!(handle.num_qubits(), 4);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn clear_drops_entries_but_keeps_handles_alive() {
        let cache = ArtifactCache::unbounded();
        let handle = cache.insert([5, 5], tiny_artifact(4));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
        // The outstanding handle still samples fine.
        assert_eq!(handle.sample(100, 3).shots(), 100);
    }

    #[test]
    fn restore_replaces_evicts_and_skips_like_insert_without_counting() {
        let one = tiny_artifact(4).heap_bytes() as u64;
        let cache = ArtifactCache::with_byte_budget(one * 2 + one / 2);
        cache.restore([1, 0], Arc::new(tiny_artifact(4)));
        cache.restore([1, 0], Arc::new(tiny_artifact(4)));
        assert_eq!(cache.len(), 1, "same key replaces");
        cache.restore([2, 0], Arc::new(tiny_artifact(4)));
        cache.restore([3, 0], Arc::new(tiny_artifact(4)));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek([1, 0]).is_none(), "LRU entry was evicted");
        assert_eq!(cache.stats().insertions, 0);
        let tiny = ArtifactCache::with_byte_budget(1);
        tiny.restore([9, 9], Arc::new(tiny_artifact(4)));
        assert!(tiny.is_empty(), "oversized artifacts are not retained");
    }

    #[test]
    fn touch_keeps_a_slot_served_entry_off_the_eviction_block() {
        // Regression for the serve-path LRU ordering: a broker-served entry
        // never goes through `get` (coalesced waiters take the artifact from
        // the build slot), so recency must be bumped via `touch` — without
        // it, an entry that just served a burst of concurrent traffic is
        // still ranked by its *insertion* time and becomes the eviction
        // victim at the next insert.  The budget holds exactly two.
        let one = tiny_artifact(4).heap_bytes() as u64;
        let cache = ArtifactCache::with_byte_budget(one * 2);
        let (key_a, key_b) = ([1, 0], [2, 0]);
        cache.insert(key_a, tiny_artifact(4));
        cache.insert(key_b, tiny_artifact(4));
        assert!(cache.touch(key_a), "a is resident and must be touchable");
        cache.insert([3, 0], tiny_artifact(4));

        // The victim must be b — the true least-recently-*used* entry — not a.
        assert!(
            cache.get(key_a).is_some(),
            "touched entry a must survive the eviction"
        );
        assert!(
            cache.get(key_b).is_none(),
            "untouched entry b must be the eviction victim"
        );
        assert!(!cache.touch(key_b), "touching an evicted key reports false");
    }
}
