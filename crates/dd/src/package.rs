//! The decision-diagram package: arenas, unique tables, compute caches and
//! normalization.
//!
//! # Hot-path table design
//!
//! Everything the construction hot path touches is a purpose-built table
//! rather than a general-purpose hash map:
//!
//! * **Unique tables** ([`UniqueTable`], one per node arena) are
//!   open-addressing tables of `(hash, node id)` slots.  The node payload
//!   lives only in the arena; a probe compares the precomputed 64-bit hash
//!   first and dereferences the arena only on a hash match, so the 2–4-child
//!   node struct is hashed exactly once per `make_vnode`/`make_mnode` call.
//!   Entries are never deleted — garbage collection rebuilds the table from
//!   the compacted arena in one linear pass instead of churning tombstones —
//!   so probe chains stay short and the table is always tombstone-free.
//!
//! * **Compute caches** (`add`/`mv`/`madd`, see [`ComputeCache`]) are
//!   bounded, direct-mapped and *lossy*: a colliding insert simply
//!   overwrites the previous entry.  Losing an entry only costs a
//!   recomputation, never correctness, and in exchange the caches have
//!   - **bounded memory**, independent of circuit depth: each cache starts
//!     at [`COMPUTE_CACHE_MIN_ENTRIES`] slots (allocated lazily on first
//!     use, so throwaway packages cost nothing) and doubles under eviction
//!     pressure up to its fixed maximum — the sizing knobs
//!     [`ADD_CACHE_ENTRIES`], [`MV_CACHE_ENTRIES`] and
//!     [`MADD_CACHE_ENTRIES`], or
//!     [`set_compute_cache_capacity`](DdPackage::set_compute_cache_capacity)
//!     at runtime (`0` disables caching, the reference configuration for
//!     testing that lossiness never changes results),
//!   - **O(1) lookup/insert** with exactly one slot probed, and
//!   - **O(1) clearing**: every entry carries a *generation stamp*, and
//!     [`clear_compute_tables`](DdPackage::clear_compute_tables) (also
//!     called by garbage collection) just bumps the package generation so
//!     all stale entries miss on their stamp.  Deep noisy trajectory
//!     circuits can clear between shots for free.
//!
//! * The **operator cache** memoizes whole gate/projector decision diagrams
//!   keyed by `(operation kind, parameters, target/control layout, register
//!   width)` — see [`DdPackage::cached_operator`].  Repeated gates
//!   (supremacy layers, IPE repetitions, every off-cache trajectory replay)
//!   reuse the previously built [`MatrixEdge`] instead of re-running the
//!   node-level construction.  The cache is cleared whenever the matrix
//!   arena is dropped (garbage collection) and capped at a fixed number of
//!   distinct operators.
//!
//! * Matrix nodes that form **identity chains** are flagged at creation;
//!   the matrix–vector recursion in `ops.rs` shortcuts through them
//!   (`I·v = v`) instead of descending, which removes the
//!   below-target part of every gate cone — the bulk of a naive gate
//!   apply — from the compute working set entirely.  The chains
//!   themselves are built in one place, a per-package memo
//!   ([`DdPackage::identity_chain`]) that gate constructors read instead
//!   of re-making one node per level for every operator.
//!
//! * Additions of two edges to the **same target** (`wa·v + wb·v`) return
//!   `(wa + wb)·v` at once, in `ops.rs`, instead of rebuilding `v` node by
//!   node.  Besides skipping the recursion, the exact sum keeps rounding
//!   from rescaled children out of the result: a rebuilt sum can land just
//!   outside the interning tolerance and split sub-vectors that should be
//!   shared.
//!
//! * The **value table** ([`CTable`]) is two flat arrays, the values and an
//!   open-addressing index over them, so interning a weight never allocates
//!   except when an array doubles.
//!
//! All per-table hit/miss/eviction counters are reported through
//! [`DdStats`].

use crate::edge::{MatrixEdge, MatrixNodeId, VectorEdge, VectorNodeId, WeightId};
use crate::govern::{DdError, Governor};
use crate::node::{MatrixNode, VectorNode};
use circuit::{OneQubitGate, Qubit};
use mathkit::{hash_finish, hash_mix, CTable, Complex, FxHashMap, ValueId};
use std::mem::size_of;

/// The edge-weight normalization scheme applied when creating vector nodes.
///
/// Normalization is what makes the representation canonical: structurally
/// equal sub-vectors must produce identical (node, weight) pairs so the
/// unique table can share them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Divide both outgoing weights by the left-most non-zero weight
    /// (classical QMDD normalization, Fig. 4b of the paper).
    LeftMost,
    /// Divide both outgoing weights by the 2-norm of the weight pair and pull
    /// the phase of the first non-zero weight into the incoming edge
    /// (the scheme proposed in Section IV-C, Fig. 4d of the paper).  After
    /// this normalization the squared magnitudes of the two outgoing weights
    /// sum to one, so they can be read directly as branch probabilities
    /// during sampling.
    #[default]
    TwoNorm,
}

// ---------------------------------------------------------------------------
// Sizing knobs for the bounded compute caches.
// ---------------------------------------------------------------------------

/// Maximum entries of the vector-addition compute cache (power of two).
/// Caches start at `COMPUTE_CACHE_MIN_ENTRIES` and double — clearing on
/// each growth step, losing only cached work — whenever eviction pressure
/// shows the working set does not fit, so small packages stay small while
/// million-node builds get the full capacity.
pub const ADD_CACHE_ENTRIES: usize = 1 << 21;
/// Maximum entries of the matrix–vector multiplication compute cache
/// (power of two); see [`ADD_CACHE_ENTRIES`] for the growth policy.
pub const MV_CACHE_ENTRIES: usize = 1 << 21;
/// Maximum entries of the matrix-addition compute cache (power of two).
pub const MADD_CACHE_ENTRIES: usize = 1 << 14;
/// Initial allocation of every compute cache (power of two).
pub const COMPUTE_CACHE_MIN_ENTRIES: usize = 1 << 14;
/// Maximum number of distinct operator DDs memoized by
/// [`DdPackage::cached_operator`]; the cache is wholesale-cleared when full.
const OPERATOR_CACHE_CAP: usize = 4096;

/// Hit/miss/eviction counters of one bounded lookup table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or a stale/colliding entry).
    pub misses: u64,
    /// Live entries overwritten by a colliding insert (lossy caches) or
    /// dropped by a wholesale clear-on-full (the operator cache).
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits as a fraction of all lookups (0.0 when no lookups happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn add(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// Occupancy and per-table hit/miss/eviction statistics of a [`DdPackage`],
/// used in experiment reports and the benchmark JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdStats {
    /// Vector nodes currently stored in the arena (including garbage).
    pub vector_nodes: usize,
    /// Matrix nodes currently stored in the arena (including garbage).
    pub matrix_nodes: usize,
    /// Distinct interned real values.
    pub interned_values: usize,
    /// Hits in the vector unique table.
    pub vector_unique_hits: u64,
    /// Misses (insertions) in the vector unique table.
    pub vector_unique_misses: u64,
    /// Hits in the matrix unique table.
    pub matrix_unique_hits: u64,
    /// Misses (insertions) in the matrix unique table.
    pub matrix_unique_misses: u64,
    /// Vector-addition compute-cache counters.
    pub add_cache: CacheCounters,
    /// Matrix–vector multiplication compute-cache counters.
    pub mv_cache: CacheCounters,
    /// Matrix-addition compute-cache counters.
    pub madd_cache: CacheCounters,
    /// Memoized gate/projector operator-DD cache counters.
    pub operator_cache: CacheCounters,
    /// Number of garbage collections performed.
    pub garbage_collections: u64,
}

impl DdStats {
    /// Total hits across the three node-level compute caches.
    #[must_use]
    pub fn compute_hits(&self) -> u64 {
        self.add_cache.hits + self.mv_cache.hits + self.madd_cache.hits
    }

    /// Total misses across the three node-level compute caches.
    #[must_use]
    pub fn compute_misses(&self) -> u64 {
        self.add_cache.misses + self.mv_cache.misses + self.madd_cache.misses
    }

    /// Hit rate over all three compute caches combined.
    #[must_use]
    pub fn compute_hit_rate(&self) -> f64 {
        let total = self.compute_hits() + self.compute_misses();
        if total == 0 {
            0.0
        } else {
            self.compute_hits() as f64 / total as f64
        }
    }

    /// Hit rate of the vector unique table (node-sharing rate).
    #[must_use]
    pub fn vector_unique_hit_rate(&self) -> f64 {
        let total = self.vector_unique_hits + self.vector_unique_misses;
        if total == 0 {
            0.0
        } else {
            self.vector_unique_hits as f64 / total as f64
        }
    }

    /// Folds another package's statistics into this one: counters are
    /// summed, occupancy figures take the maximum (the natural aggregation
    /// across the per-worker packages of a parallel trajectory run).
    pub fn merge(&mut self, other: &DdStats) {
        self.vector_nodes = self.vector_nodes.max(other.vector_nodes);
        self.matrix_nodes = self.matrix_nodes.max(other.matrix_nodes);
        self.interned_values = self.interned_values.max(other.interned_values);
        self.vector_unique_hits += other.vector_unique_hits;
        self.vector_unique_misses += other.vector_unique_misses;
        self.matrix_unique_hits += other.matrix_unique_hits;
        self.matrix_unique_misses += other.matrix_unique_misses;
        self.add_cache.add(&other.add_cache);
        self.mv_cache.add(&other.mv_cache);
        self.madd_cache.add(&other.madd_cache);
        self.operator_cache.add(&other.operator_cache);
        self.garbage_collections += other.garbage_collections;
    }
}

// ---------------------------------------------------------------------------
// Open-addressing unique tables.
// ---------------------------------------------------------------------------

/// Sentinel marking an empty unique-table slot (the terminal sentinel
/// `u32::MAX` is never a valid arena id, so it can double as "empty").
const UNIQUE_EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct UniqueSlot {
    hash: u64,
    id: u32,
}

const EMPTY_SLOT: UniqueSlot = UniqueSlot {
    hash: 0,
    id: UNIQUE_EMPTY,
};

/// An open-addressing `(hash, arena id)` table with linear probing and no
/// deletion.  The node payload stays in the arena; the caller supplies an
/// equality predicate over arena ids, which is only consulted when the
/// stored 64-bit hash matches — so node structs are hashed once per lookup
/// and compared only on probable hits.
#[derive(Debug)]
struct UniqueTable {
    slots: Vec<UniqueSlot>,
    len: usize,
}

impl UniqueTable {
    fn new() -> Self {
        Self::with_slots(1 << 12)
    }

    fn with_slots(slots: usize) -> Self {
        let slots = slots.next_power_of_two().max(16);
        Self {
            slots: vec![EMPTY_SLOT; slots],
            len: 0,
        }
    }

    #[inline]
    fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == UNIQUE_EMPTY {
                return None;
            }
            if slot.hash == hash && eq(slot.id) {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts an id the caller has verified to be absent.
    fn insert(&mut self, hash: u64, id: u32) {
        // Grow at 3/4 load so probe chains stay short.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        Self::place(&mut self.slots, UniqueSlot { hash, id });
        self.len += 1;
    }

    fn place(slots: &mut [UniqueSlot], slot: UniqueSlot) {
        let mask = slots.len() - 1;
        let mut i = (slot.hash as usize) & mask;
        while slots[i].id != UNIQUE_EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = slot;
    }

    fn grow(&mut self) {
        let mut new_slots = vec![EMPTY_SLOT; self.slots.len() * 2];
        for slot in &self.slots {
            if slot.id != UNIQUE_EMPTY {
                Self::place(&mut new_slots, *slot);
            }
        }
        self.slots = new_slots;
    }

    fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.len = 0;
    }
}

/// Hashes a vector node payload (once, by field folding).
#[inline]
fn vnode_hash(node: &VectorNode) -> u64 {
    let mut h = hash_mix(0, u64::from(node.var));
    for child in node.children {
        h = hash_mix(h, vedge_word(child));
    }
    // Final avalanche so low slot bits depend on every field.
    hash_finish(h)
}

/// Hashes a matrix node payload.
#[inline]
fn mnode_hash(node: &MatrixNode) -> u64 {
    let mut h = hash_mix(0, u64::from(node.var));
    for child in node.children {
        h = hash_mix(h, medge_word(child));
    }
    hash_finish(h)
}

/// Packs a vector edge into a pair of mixable words folded to one.
#[inline]
fn vedge_word(e: VectorEdge) -> u64 {
    let w = ((e.weight.re.index() as u64) << 32) | e.weight.im.index() as u64;
    hash_mix(u64::from(e.target.0), w)
}

/// Packs a matrix edge into one mixable word.
#[inline]
fn medge_word(e: MatrixEdge) -> u64 {
    let w = ((e.weight.re.index() as u64) << 32) | e.weight.im.index() as u64;
    hash_mix(u64::from(e.target.0), w)
}

// ---------------------------------------------------------------------------
// Bounded, lossy compute caches.
// ---------------------------------------------------------------------------

/// A key type usable in a [`ComputeCache`]: exact equality plus a cheap
/// precomputed hash.
pub(crate) trait CacheKey: Copy + PartialEq {
    fn key_hash(&self) -> u64;
}

impl CacheKey for (VectorEdge, VectorEdge) {
    #[inline]
    fn key_hash(&self) -> u64 {
        hash_mix(vedge_word(self.0), vedge_word(self.1))
    }
}

impl CacheKey for (MatrixEdge, MatrixEdge) {
    #[inline]
    fn key_hash(&self) -> u64 {
        hash_mix(medge_word(self.0), medge_word(self.1))
    }
}

impl CacheKey for (MatrixNodeId, VectorNodeId) {
    #[inline]
    fn key_hash(&self) -> u64 {
        hash_mix(u64::from(self.0 .0), u64::from(self.1 .0))
    }
}

impl CacheKey for (MatrixNodeId, MatrixNodeId) {
    #[inline]
    fn key_hash(&self) -> u64 {
        hash_mix(u64::from(self.0 .0), u64::from(self.1 .0))
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry<K, V> {
    /// Generation stamp; an entry is live only when it equals the cache's
    /// current generation, which is what makes `clear` O(1).
    stamp: u32,
    key: K,
    value: V,
}

/// A bounded direct-mapped lossy cache with generation-stamped entries.
///
/// Memory is bounded by the configured maximum capacity regardless of how
/// many distinct keys are inserted; a colliding insert overwrites (lossy).
/// The backing storage is allocated lazily on the first insert (starting at
/// [`COMPUTE_CACHE_MIN_ENTRIES`]) and doubles — dropping its contents,
/// which only costs recomputation — whenever the evictions since the last
/// growth step exceed the current size, i.e. when the working set visibly
/// does not fit.  Cheap throwaway packages therefore never pay for the full
/// capacity, while million-node builds grow to the maximum within a few
/// generations.
#[derive(Debug)]
pub(crate) struct ComputeCache<K, V> {
    entries: Vec<CacheEntry<K, V>>,
    capacity: usize,
    max_capacity: usize,
    generation: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
    evictions_since_grow: u64,
    /// Placeholder key/value pair used to initialize the lazy allocation
    /// (never observable: stamp 0 is below every live generation).
    dummy: (K, V),
}

impl<K: CacheKey, V: Copy> ComputeCache<K, V> {
    fn new(max_capacity: usize, dummy: (K, V)) -> Self {
        debug_assert!(max_capacity == 0 || max_capacity.is_power_of_two());
        Self {
            entries: Vec::new(),
            capacity: max_capacity.min(COMPUTE_CACHE_MIN_ENTRIES),
            max_capacity,
            generation: 1,
            hits: 0,
            misses: 0,
            evictions: 0,
            evictions_since_grow: 0,
            dummy,
        }
    }

    #[inline]
    pub(crate) fn lookup(&mut self, key: K) -> Option<V> {
        if self.entries.is_empty() {
            self.misses += 1;
            return None;
        }
        let slot = (key.key_hash() as usize) & (self.entries.len() - 1);
        let entry = &self.entries[slot];
        if entry.stamp == self.generation && entry.key == key {
            self.hits += 1;
            Some(entry.value)
        } else {
            self.misses += 1;
            None
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.is_empty() {
            self.allocate();
        } else if self.evictions_since_grow > self.entries.len() as u64
            && self.capacity < self.max_capacity
        {
            // The working set visibly exceeds the table: double it.  The old
            // entries are dropped (lossy — recomputation, not correctness).
            self.capacity *= 2;
            self.allocate();
        }
        let slot = (key.key_hash() as usize) & (self.entries.len() - 1);
        let entry = &mut self.entries[slot];
        if entry.stamp == self.generation && entry.key != key {
            self.evictions += 1;
            self.evictions_since_grow += 1;
        }
        *entry = CacheEntry {
            stamp: self.generation,
            key,
            value,
        };
    }

    fn allocate(&mut self) {
        let dummy = CacheEntry {
            stamp: 0,
            key: self.dummy.0,
            value: self.dummy.1,
        };
        self.entries = vec![dummy; self.capacity];
        self.evictions_since_grow = 0;
    }

    /// O(1) clear: stale entries are invalidated by bumping the generation.
    fn clear(&mut self) {
        if self.generation == u32::MAX {
            // Generation wrap: hard-reset the stamps once every 2^32 clears.
            for entry in &mut self.entries {
                entry.stamp = 0;
            }
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Frees the backing storage and resets the growth state to the minimum
    /// capacity (the configured maximum is unchanged), so the cache re-grows
    /// on demand.  Used when degrading under memory pressure.
    fn shrink(&mut self) {
        self.capacity = self.max_capacity.min(COMPUTE_CACHE_MIN_ENTRIES);
        self.entries = Vec::new();
        self.evictions_since_grow = 0;
    }

    /// Bytes held by the backing storage right now.
    fn allocated_bytes(&self) -> usize {
        self.entries.len() * size_of::<CacheEntry<K, V>>()
    }

    /// Resizes (and clears) the cache; 0 disables caching entirely.
    fn set_capacity(&mut self, capacity: usize) {
        self.max_capacity = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two()
        };
        self.capacity = self.max_capacity.min(COMPUTE_CACHE_MIN_ENTRIES);
        self.entries = Vec::new();
    }

    fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

// ---------------------------------------------------------------------------
// Operator-DD memo keys.
// ---------------------------------------------------------------------------

/// Memo key identifying one operator-DD construction: a (controlled) gate,
/// a measurement projector or an amplitude-damping no-decay operator, on a
/// specific target/control layout over a specific register width.
///
/// Angle parameters are keyed by the bit pattern of their radian value, so
/// two angles that produce identical matrices share an entry while any
/// numerically distinct angle gets its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct OperatorKey {
    kind: u8,
    params: [u64; 3],
    target: u16,
    controls: Vec<u16>,
    num_qubits: u16,
}

impl OperatorKey {
    /// Key for a (multi-)controlled single-qubit gate.
    pub(crate) fn gate(
        num_qubits: u16,
        gate: OneQubitGate,
        target: Qubit,
        controls: &[Qubit],
    ) -> Self {
        let (kind, params) = gate_fingerprint(gate);
        Self {
            kind,
            params,
            target: target.0,
            controls: controls.iter().map(|q| q.0).collect(),
            num_qubits,
        }
    }

    /// Key for the diagonal projector `|bit><bit|` on `qubit`.
    pub(crate) fn projector(num_qubits: u16, qubit: Qubit, bit: u8) -> Self {
        Self {
            kind: 32 + bit,
            params: [0; 3],
            target: qubit.0,
            controls: Vec::new(),
            num_qubits,
        }
    }

    /// Key for the amplitude-damping no-decay operator
    /// `diag(1, sqrt(1 - gamma))` on `qubit`.
    pub(crate) fn damp_keep(num_qubits: u16, qubit: Qubit, gamma: f64) -> Self {
        Self {
            kind: 40,
            params: [gamma.to_bits(), 0, 0],
            target: qubit.0,
            controls: Vec::new(),
            num_qubits,
        }
    }
}

/// Discriminant + parameter fingerprint of a gate (exact for the fixed
/// alphabet, bit-pattern of the radian value for parametrized gates).
fn gate_fingerprint(gate: OneQubitGate) -> (u8, [u64; 3]) {
    use OneQubitGate as G;
    match gate {
        G::I => (0, [0; 3]),
        G::X => (1, [0; 3]),
        G::Y => (2, [0; 3]),
        G::Z => (3, [0; 3]),
        G::H => (4, [0; 3]),
        G::S => (5, [0; 3]),
        G::Sdg => (6, [0; 3]),
        G::T => (7, [0; 3]),
        G::Tdg => (8, [0; 3]),
        G::SqrtX => (9, [0; 3]),
        G::SqrtXdg => (10, [0; 3]),
        G::SqrtY => (11, [0; 3]),
        G::SqrtYdg => (12, [0; 3]),
        G::Phase(a) => (13, [a.radians().to_bits(), 0, 0]),
        G::Rx(a) => (14, [a.radians().to_bits(), 0, 0]),
        G::Ry(a) => (15, [a.radians().to_bits(), 0, 0]),
        G::Rz(a) => (16, [a.radians().to_bits(), 0, 0]),
        G::U { theta, phi, lambda } => (
            17,
            [
                theta.radians().to_bits(),
                phi.radians().to_bits(),
                lambda.radians().to_bits(),
            ],
        ),
    }
}

// ---------------------------------------------------------------------------
// The package.
// ---------------------------------------------------------------------------

/// The arena owning every decision-diagram node together with the canonical
/// complex-value table, the unique tables and the compute caches.
///
/// All decision diagrams ([`StateDd`](crate::StateDd),
/// [`OperatorDd`](crate::OperatorDd)) are plain edge handles into a package;
/// the package must outlive them and be passed to every operation.
///
/// # Examples
///
/// ```
/// use dd::{DdPackage, Normalization};
///
/// let mut package = DdPackage::with_normalization(Normalization::LeftMost);
/// let state = dd::StateDd::zero_state(&mut package, 3).unwrap();
/// assert_eq!(state.node_count(&package), 3);
/// ```
#[derive(Debug)]
pub struct DdPackage {
    vnodes: Vec<VectorNode>,
    mnodes: Vec<MatrixNode>,
    /// `midentity[i]` marks matrix node `i` as an identity chain: the exact
    /// identity operator over levels `0..=var`.  Multiplications shortcut
    /// through these nodes without descending (see `ops.rs`), which removes
    /// the below-target part of every gate cone from the compute working
    /// set.
    midentity: Vec<bool>,
    /// `identity_chain[k]` is the identity operator over levels `0..k`
    /// (entry 0 is the terminal one), built bottom-up on first use by
    /// [`identity_chain`](Self::identity_chain) and dropped with the matrix
    /// arena.
    identity_chain: Vec<MatrixEdge>,
    vunique: UniqueTable,
    munique: UniqueTable,
    ctable: CTable,
    normalization: Normalization,
    pub(crate) add_cache: ComputeCache<(VectorEdge, VectorEdge), VectorEdge>,
    pub(crate) mv_cache: ComputeCache<(MatrixNodeId, VectorNodeId), VectorEdge>,
    pub(crate) madd_cache: ComputeCache<(MatrixEdge, MatrixEdge), MatrixEdge>,
    operator_cache: FxHashMap<OperatorKey, MatrixEdge>,
    vunique_hits: u64,
    vunique_misses: u64,
    munique_hits: u64,
    munique_misses: u64,
    operator_hits: u64,
    operator_misses: u64,
    operator_evictions: u64,
    garbage_collections: u64,
    /// Budgets / deadline / cancellation for every make-node call; the
    /// default is unlimited, which short-circuits to a single branch.
    governor: Governor,
}

impl DdPackage {
    /// Creates a package with the paper's proposed
    /// [2-norm normalization](Normalization::TwoNorm) and the default
    /// numerical tolerance.
    #[must_use]
    pub fn new() -> Self {
        Self::with_normalization(Normalization::default())
    }

    /// Creates a package using the given normalization scheme.
    #[must_use]
    pub fn with_normalization(normalization: Normalization) -> Self {
        let vv_dummy = (VectorEdge::ZERO, VectorEdge::ZERO);
        let mm_dummy = (MatrixEdge::ZERO, MatrixEdge::ZERO);
        let mv_id_dummy = (MatrixNodeId::TERMINAL, VectorNodeId::TERMINAL);
        Self {
            vnodes: Vec::new(),
            mnodes: Vec::new(),
            midentity: Vec::new(),
            identity_chain: vec![MatrixEdge::ONE],
            vunique: UniqueTable::new(),
            munique: UniqueTable::new(),
            ctable: CTable::new(),
            normalization,
            add_cache: ComputeCache::new(ADD_CACHE_ENTRIES, (vv_dummy, VectorEdge::ZERO)),
            mv_cache: ComputeCache::new(MV_CACHE_ENTRIES, (mv_id_dummy, VectorEdge::ZERO)),
            madd_cache: ComputeCache::new(MADD_CACHE_ENTRIES, (mm_dummy, MatrixEdge::ZERO)),
            operator_cache: FxHashMap::default(),
            vunique_hits: 0,
            vunique_misses: 0,
            munique_hits: 0,
            munique_misses: 0,
            operator_hits: 0,
            operator_misses: 0,
            operator_evictions: 0,
            garbage_collections: 0,
            governor: Governor::unlimited(),
        }
    }

    /// Creates a package whose unique tables start at `slots` slots each
    /// (rounded up to a power of two, minimum 16) instead of the tuned
    /// default.  Intended for table-growth stress tests: starting at the
    /// minimum capacity forces the open-addressing tables to rehash under
    /// load almost immediately, which is exactly the pressure the
    /// table soak suite wants to exercise.
    #[must_use]
    pub fn with_unique_table_slots(slots: usize) -> Self {
        let mut package = Self::new();
        package.vunique = UniqueTable::with_slots(slots);
        package.munique = UniqueTable::with_slots(slots);
        package
    }

    /// Installs a [`Governor`] checked by every subsequent make-node call
    /// (see the [`govern`](crate::govern) module docs for the amortization
    /// scheme).  Replacing the governor mid-run is allowed; the default is
    /// [`Governor::unlimited`].
    pub fn set_governor(&mut self, governor: Governor) {
        self.governor = governor;
    }

    /// The governor currently installed on this package.
    #[must_use]
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// The normalization scheme used for vector nodes.
    #[must_use]
    pub fn normalization(&self) -> Normalization {
        self.normalization
    }

    /// Resizes all three node-level compute caches to `entries` slots each
    /// (rounded up to a power of two); `0` disables compute caching
    /// entirely, which is useful as a reference configuration when testing
    /// that lossy evictions never change results.  Resizing clears the
    /// caches.
    pub fn set_compute_cache_capacity(&mut self, entries: usize) {
        self.add_cache.set_capacity(entries);
        self.mv_cache.set_capacity(entries);
        self.madd_cache.set_capacity(entries);
    }

    /// Frees the compute caches' backing storage and resets their growth
    /// state to the minimum footprint (their configured maxima are kept, so
    /// they re-grow on demand).  Part of the graceful-degradation path:
    /// under budget pressure the caches are shrunk before the run fails.
    pub fn shrink_compute_caches(&mut self) {
        self.add_cache.shrink();
        self.mv_cache.shrink();
        self.madd_cache.shrink();
    }

    /// Approximate bytes held by the package right now: node arenas, unique
    /// tables, compute caches and the interned-value table (the operator
    /// memo is comparatively small and not counted).  This is the figure the
    /// governor's byte budget is checked against.
    ///
    /// The value table belongs in the figure: construction interns every
    /// transient product weight, so it can hold tens of values per live node
    /// until garbage collection rebuilds it.
    #[must_use]
    pub fn approx_allocated_bytes(&self) -> u64 {
        let vnodes = self.vnodes.len() * size_of::<VectorNode>();
        let mnodes = self.mnodes.len() * (size_of::<MatrixNode>() + size_of::<bool>());
        let tables =
            (self.vunique.slots.len() + self.munique.slots.len()) * size_of::<UniqueSlot>();
        let caches = self.add_cache.allocated_bytes()
            + self.mv_cache.allocated_bytes()
            + self.madd_cache.allocated_bytes();
        (vnodes + mnodes + tables + caches + self.ctable.heap_bytes()) as u64
    }

    /// Current occupancy and hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> DdStats {
        DdStats {
            vector_nodes: self.vnodes.len(),
            matrix_nodes: self.mnodes.len(),
            interned_values: self.ctable.len(),
            vector_unique_hits: self.vunique_hits,
            vector_unique_misses: self.vunique_misses,
            matrix_unique_hits: self.munique_hits,
            matrix_unique_misses: self.munique_misses,
            add_cache: self.add_cache.counters(),
            mv_cache: self.mv_cache.counters(),
            madd_cache: self.madd_cache.counters(),
            operator_cache: CacheCounters {
                hits: self.operator_hits,
                misses: self.operator_misses,
                evictions: self.operator_evictions,
            },
            garbage_collections: self.garbage_collections,
        }
    }

    // ----- weights -------------------------------------------------------

    /// Interns a complex number as an edge weight.
    pub fn weight(&mut self, value: Complex) -> WeightId {
        let tol = self.ctable.tolerance().eps();
        // Snap to exact zero/one so the canonical constants are used.
        let re = if value.re.abs() <= tol { 0.0 } else { value.re };
        let im = if value.im.abs() <= tol { 0.0 } else { value.im };
        let (re, im) = self.ctable.intern_complex(Complex::new(re, im));
        WeightId { re, im }
    }

    /// The complex value of an interned weight.
    #[must_use]
    pub fn weight_value(&self, id: WeightId) -> Complex {
        self.ctable.complex(id.re, id.im)
    }

    // ----- vector nodes --------------------------------------------------

    /// The vector node stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is the terminal node or not in this package.
    #[must_use]
    pub fn vnode(&self, id: VectorNodeId) -> &VectorNode {
        &self.vnodes[id.index()]
    }

    /// The matrix node stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is the terminal node or not in this package.
    #[must_use]
    pub fn mnode(&self, id: MatrixNodeId) -> &MatrixNode {
        &self.mnodes[id.index()]
    }

    /// Builds a terminal vector edge with the given complex weight.
    pub fn vector_terminal(&mut self, value: Complex) -> VectorEdge {
        self.vector_edge(VectorNodeId::TERMINAL, value)
    }

    /// An edge to `target` with the interned weight `value`, or the
    /// canonical zero edge when the weight interns to zero.
    pub(crate) fn vector_edge(&mut self, target: VectorNodeId, value: Complex) -> VectorEdge {
        let weight = self.weight(value);
        if weight.is_zero() {
            VectorEdge::ZERO
        } else {
            VectorEdge { target, weight }
        }
    }

    /// The matrix counterpart of [`vector_edge`](Self::vector_edge).
    pub(crate) fn matrix_edge(&mut self, target: MatrixNodeId, value: Complex) -> MatrixEdge {
        let weight = self.weight(value);
        if weight.is_zero() {
            MatrixEdge::ZERO
        } else {
            MatrixEdge { target, weight }
        }
    }

    /// Multiplies an edge weight by a complex scalar, preserving canonical
    /// zero edges.
    pub fn scale_vedge(&mut self, edge: VectorEdge, factor: Complex) -> VectorEdge {
        if edge.is_zero() {
            return VectorEdge::ZERO;
        }
        self.vector_edge(edge.target, self.weight_value(edge.weight) * factor)
    }

    /// Multiplies a matrix edge weight by a complex scalar.
    pub fn scale_medge(&mut self, edge: MatrixEdge, factor: Complex) -> MatrixEdge {
        if edge.is_zero() {
            return MatrixEdge::ZERO;
        }
        self.matrix_edge(edge.target, self.weight_value(edge.weight) * factor)
    }

    /// Creates (or reuses) a vector node at level `var` with the given
    /// successors and returns the normalized edge pointing to it.
    ///
    /// The successors' weights are normalized according to the package's
    /// [`Normalization`]; the factor pulled out is returned as the weight of
    /// the resulting edge.
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the installed [`Governor`] interrupts
    /// the run (budget, deadline, cancellation) or the arena outgrows the
    /// `u32` id space; with the default unlimited governor only the latter
    /// is possible.
    pub fn make_vnode(
        &mut self,
        var: u16,
        zero: VectorEdge,
        one: VectorEdge,
    ) -> Result<VectorEdge, DdError> {
        self.governor.checkpoint()?;
        let w0 = if zero.is_zero() {
            Complex::ZERO
        } else {
            self.weight_value(zero.weight)
        };
        let w1 = if one.is_zero() {
            Complex::ZERO
        } else {
            self.weight_value(one.weight)
        };
        if w0.is_zero() && w1.is_zero() {
            return Ok(VectorEdge::ZERO);
        }

        let factor = match self.normalization {
            Normalization::LeftMost => {
                if !w0.is_zero() {
                    w0
                } else {
                    w1
                }
            }
            Normalization::TwoNorm => {
                let mag = (w0.norm_sqr() + w1.norm_sqr()).sqrt();
                let phase_source = if !w0.is_zero() { w0 } else { w1 };
                // `mag` times the unit phase of `phase_source`, with no
                // atan2/sin/cos round trip.
                phase_source.scale(mag / phase_source.norm())
            }
        };

        let nw0 = w0 / factor;
        let nw1 = w1 / factor;
        let zero_edge = self.canonical_child(zero, nw0);
        let one_edge = self.canonical_child(one, nw1);

        let node = VectorNode {
            var,
            children: [zero_edge, one_edge],
        };
        let id = self.intern_vnode(node)?;
        Ok(VectorEdge {
            target: id,
            weight: self.weight(factor),
        })
    }

    /// Canonically interns a fully-normalized vector node, creating it on a
    /// unique-table miss.
    fn intern_vnode(&mut self, node: VectorNode) -> Result<VectorNodeId, DdError> {
        let hash = vnode_hash(&node);
        let vnodes = &self.vnodes;
        match self.vunique.find(hash, |id| vnodes[id as usize] == node) {
            Some(id) => {
                self.vunique_hits += 1;
                Ok(VectorNodeId(id))
            }
            None => {
                self.vunique_misses += 1;
                // A miss is the only place the arena grows, so budget
                // arithmetic runs here (two compares) rather than per call.
                if self.governor.is_limited() {
                    self.governor.check_budget(
                        (self.vnodes.len() + self.mnodes.len() + 1) as u64,
                        self.approx_allocated_bytes(),
                    )?;
                }
                let id = u32::try_from(self.vnodes.len())
                    .ok()
                    .filter(|&id| id != UNIQUE_EMPTY)
                    .ok_or(DdError::ArenaOverflow { arena: "vector" })?;
                self.vnodes.push(node);
                self.vunique.insert(hash, id);
                Ok(VectorNodeId(id))
            }
        }
    }

    fn canonical_child(&mut self, child: VectorEdge, normalized_weight: Complex) -> VectorEdge {
        let weight = self.weight(normalized_weight);
        if weight.is_zero() {
            VectorEdge::ZERO
        } else {
            VectorEdge {
                target: child.target,
                weight,
            }
        }
    }

    // ----- matrix nodes --------------------------------------------------

    /// Builds a terminal matrix edge with the given complex weight.
    pub fn matrix_terminal(&mut self, value: Complex) -> MatrixEdge {
        self.matrix_edge(MatrixNodeId::TERMINAL, value)
    }

    /// Creates (or reuses) a matrix node at level `var` with the four
    /// sub-blocks `children[2*row + col]`, returning the normalized edge.
    ///
    /// Matrix nodes always use left-most normalization (the 2-norm scheme is
    /// specific to sampling from state DDs).
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the installed [`Governor`] interrupts
    /// the run or the arena outgrows the `u32` id space; see
    /// [`make_vnode`](DdPackage::make_vnode).
    pub fn make_mnode(
        &mut self,
        var: u16,
        children: [MatrixEdge; 4],
    ) -> Result<MatrixEdge, DdError> {
        self.governor.checkpoint()?;
        let mut weights = [Complex::ZERO; 4];
        for (w, e) in weights.iter_mut().zip(&children) {
            if !e.is_zero() {
                *w = self.weight_value(e.weight);
            }
        }
        let Some(factor) = weights.iter().copied().find(|w| !w.is_zero()) else {
            return Ok(MatrixEdge::ZERO);
        };

        let mut normalized = [MatrixEdge::ZERO; 4];
        for (i, (edge, w)) in children.iter().zip(&weights).enumerate() {
            let weight = self.weight(*w / factor);
            normalized[i] = if weight.is_zero() {
                MatrixEdge::ZERO
            } else {
                MatrixEdge {
                    target: edge.target,
                    weight,
                }
            };
        }

        let node = MatrixNode {
            var,
            children: normalized,
        };
        let hash = mnode_hash(&node);
        let mnodes = &self.mnodes;
        let id = match self.munique.find(hash, |id| mnodes[id as usize] == node) {
            Some(id) => {
                self.munique_hits += 1;
                MatrixNodeId(id)
            }
            None => {
                self.munique_misses += 1;
                if self.governor.is_limited() {
                    self.governor.check_budget(
                        (self.vnodes.len() + self.mnodes.len() + 1) as u64,
                        self.approx_allocated_bytes(),
                    )?;
                }
                let id = u32::try_from(self.mnodes.len())
                    .ok()
                    .filter(|&id| id != UNIQUE_EMPTY)
                    .ok_or(DdError::ArenaOverflow { arena: "matrix" })?;
                self.midentity.push(self.is_identity_node(&node));
                self.mnodes.push(node);
                self.munique.insert(hash, id);
                MatrixNodeId(id)
            }
        };
        Ok(MatrixEdge {
            target: id,
            weight: self.weight(factor),
        })
    }

    /// The identity operator over levels `0..num_qubits` — the one place
    /// identity chains are built.  The chain is memoized per package: the
    /// first request for `n` levels creates the missing levels bottom-up,
    /// and every later request for at most `n` levels is an array read.
    /// Garbage collection drops the memo together with the matrix arena.
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the governor interrupts a level's
    /// construction; the levels built before it stay memoized.
    pub(crate) fn identity_chain(&mut self, num_qubits: u16) -> Result<MatrixEdge, DdError> {
        let levels = usize::from(num_qubits);
        while self.identity_chain.len() <= levels {
            let var = (self.identity_chain.len() - 1) as u16;
            let below = self.identity_chain[usize::from(var)];
            let edge = self.make_mnode(var, [below, MatrixEdge::ZERO, MatrixEdge::ZERO, below])?;
            self.identity_chain.push(edge);
        }
        Ok(self.identity_chain[levels])
    }

    /// Whether `node` is an exact identity chain: diagonal blocks equal with
    /// weight one, off-diagonal blocks zero, and the shared child either the
    /// terminal or itself an identity chain one level down.
    fn is_identity_node(&self, node: &MatrixNode) -> bool {
        let diag = node.children[0];
        node.children[1].is_zero()
            && node.children[2].is_zero()
            && node.children[3] == diag
            && diag.weight.is_one()
            && (diag.target.is_terminal() || self.midentity[diag.target.index()])
    }

    /// Whether the matrix node `id` represents the exact identity operator
    /// over its levels (the terminal does not count — callers handle the
    /// terminal separately).
    #[inline]
    pub(crate) fn is_identity_mnode(&self, id: MatrixNodeId) -> bool {
        !id.is_terminal() && self.midentity[id.index()]
    }

    // ----- operator memoization ------------------------------------------

    /// Returns the memoized operator DD for `key`, building it with `build`
    /// on the first request.  Reuse is sound because matrix nodes are only
    /// ever dropped wholesale (by garbage collection, which clears this
    /// cache too).
    pub(crate) fn cached_operator(
        &mut self,
        key: OperatorKey,
        build: impl FnOnce(&mut Self) -> Result<MatrixEdge, DdError>,
    ) -> Result<MatrixEdge, DdError> {
        if let Some(&edge) = self.operator_cache.get(&key) {
            self.operator_hits += 1;
            return Ok(edge);
        }
        self.operator_misses += 1;
        // An interrupted build inserts nothing, so the memo only ever holds
        // results of completed constructions.
        let edge = build(self)?;
        if self.operator_cache.len() >= OPERATOR_CACHE_CAP {
            self.operator_evictions += self.operator_cache.len() as u64;
            self.operator_cache.clear();
        }
        self.operator_cache.insert(key, edge);
        Ok(edge)
    }

    // ----- compute-table maintenance --------------------------------------

    /// Clears the add/multiply compute caches and the operator memo (the
    /// unique tables and nodes are untouched).  O(1) for the node-level
    /// caches: each just bumps its generation stamp.
    pub fn clear_compute_tables(&mut self) {
        self.add_cache.clear();
        self.mv_cache.clear();
        self.madd_cache.clear();
        self.operator_cache.clear();
    }

    // ----- garbage collection --------------------------------------------

    /// The number of nodes currently held in the vector arena, including
    /// nodes that are no longer reachable from any root.
    #[must_use]
    pub fn allocated_vector_nodes(&self) -> usize {
        self.vnodes.len()
    }

    /// The number of nodes currently held in the matrix arena.
    #[must_use]
    pub fn allocated_matrix_nodes(&self) -> usize {
        self.mnodes.len()
    }

    /// Counts the vector nodes reachable from `root` (excluding the
    /// terminal), i.e. the "size" column reported for DD-based sampling in
    /// Table I of the paper.
    ///
    /// The visited set is a bitset over the arena: `apply_circuit` counts
    /// after every gate once the arena passes its garbage-collection
    /// threshold, so the count must stay cheap for million-node states.
    #[must_use]
    pub fn reachable_vector_nodes(&self, root: VectorEdge) -> usize {
        count_reachable(self.vnodes.len(), root.target.0, |id| {
            self.vnodes[id as usize]
                .children
                .map(|child| (!child.is_zero()).then_some(child.target.0))
        })
    }

    /// Counts the matrix nodes reachable from `root` (excluding the
    /// terminal).
    #[must_use]
    pub fn reachable_matrix_nodes(&self, root: MatrixEdge) -> usize {
        count_reachable(self.mnodes.len(), root.target.0, |id| {
            self.mnodes[id as usize]
                .children
                .map(|child| (!child.is_zero()).then_some(child.target.0))
        })
    }

    /// Reclaims every node not reachable from the given root edges and
    /// returns the updated roots.
    ///
    /// Garbage collection compacts the vector arena, rebuilds the unique
    /// table from the compacted arena (no per-entry map rewrites), drops the
    /// matrix arena and the identity-chain memo, clears the compute caches
    /// and the operator memo (both may refer to collected nodes) and — new
    /// since the bounded-cache overhaul — rebuilds the canonical
    /// complex-value table so interned weights unreachable from the
    /// surviving arena are dropped too, keeping the value table from growing
    /// monotonically over long runs.
    ///
    /// Any [`VectorEdge`]/[`MatrixEdge`]/[`WeightId`] not reachable from a
    /// root is invalidated; the returned vector contains the remapped root
    /// edges in the same order as the input.
    pub fn collect_garbage(&mut self, roots: &[VectorEdge]) -> Vec<VectorEdge> {
        self.garbage_collections += 1;

        let old_nodes = std::mem::take(&mut self.vnodes);
        let fresh = CTable::with_tolerance(self.ctable.tolerance());
        let old_ctable = std::mem::replace(&mut self.ctable, fresh);

        let mut state = GcState {
            old_nodes: &old_nodes,
            old_ctable: &old_ctable,
            new_ctable: &mut self.ctable,
            node_remap: vec![UNMAPPED; old_nodes.len()],
            value_remap: vec![None; old_ctable.len()],
            new_nodes: Vec::new(),
            table: UniqueTable::new(),
        };

        let mut new_roots = Vec::with_capacity(roots.len());
        for root in roots {
            if root.is_zero() {
                new_roots.push(VectorEdge::ZERO);
                continue;
            }
            let target = if root.target.is_terminal() {
                VectorNodeId::TERMINAL
            } else {
                state.rewrite(root.target.0)
            };
            let weight = state.remap_weight(root.weight);
            new_roots.push(if weight.is_zero() {
                VectorEdge::ZERO
            } else {
                VectorEdge { target, weight }
            });
        }

        let GcState {
            new_nodes, table, ..
        } = state;
        self.vnodes = new_nodes;
        self.vunique = table;

        // Matrix nodes are cheap to rebuild per gate; drop them all, along
        // with every cache that may point at collected nodes.
        self.mnodes.clear();
        self.midentity.clear();
        self.identity_chain.truncate(1);
        self.munique.clear();
        self.clear_compute_tables();
        new_roots
    }
}

/// Counts the arena nodes reachable from `root` (the terminal excluded) by
/// a depth-first walk with a visited bitset; `children` lists a node's
/// non-zero child targets.  Vector and matrix ids share the terminal
/// sentinel `u32::MAX`.
fn count_reachable<const N: usize>(
    arena_len: usize,
    root: u32,
    children: impl Fn(u32) -> [Option<u32>; N],
) -> usize {
    debug_assert_eq!(VectorNodeId::TERMINAL.0, MatrixNodeId::TERMINAL.0);
    let mut seen = vec![0u64; arena_len.div_ceil(64)];
    let mut count = 0;
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if id == VectorNodeId::TERMINAL.0 {
            continue;
        }
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if seen[word] & bit != 0 {
            continue;
        }
        seen[word] |= bit;
        count += 1;
        stack.extend(children(id).into_iter().flatten());
    }
    count
}

/// Working state of one garbage-collection pass: rewrites the reachable
/// sub-DAG bottom-up into a fresh arena, re-interning every surviving edge
/// weight into a fresh value table and re-deduplicating nodes through a
/// fresh unique table (weight re-interning can merge representatives, which
/// can in turn make two previously distinct nodes equal).
///
/// Both remaps are dense arrays indexed by old id (`UNMAPPED` or `None`
/// until visited).
struct GcState<'a> {
    old_nodes: &'a [VectorNode],
    old_ctable: &'a CTable,
    new_ctable: &'a mut CTable,
    /// New node id per old node id.
    node_remap: Vec<u32>,
    /// New value id per old value id.
    value_remap: Vec<Option<ValueId>>,
    new_nodes: Vec<VectorNode>,
    table: UniqueTable,
}

/// Marks an old node the pass has not rewritten yet.
const UNMAPPED: u32 = u32::MAX;

impl GcState<'_> {
    fn remap_value(&mut self, old: ValueId) -> ValueId {
        if let Some(mapped) = self.value_remap[old.index()] {
            return mapped;
        }
        let mapped = self.new_ctable.intern(self.old_ctable.value(old));
        self.value_remap[old.index()] = Some(mapped);
        mapped
    }

    fn remap_weight(&mut self, weight: WeightId) -> WeightId {
        WeightId {
            re: self.remap_value(weight.re),
            im: self.remap_value(weight.im),
        }
    }

    fn is_mapped(&self, old: u32) -> bool {
        self.node_remap[old as usize] != UNMAPPED
    }

    /// Rewrites the sub-DAG under old node `id` into the fresh arena and
    /// returns its new id.
    ///
    /// Uses an explicit work stack instead of recursion (depth-first
    /// post-order: a node stays on the stack until both non-terminal
    /// children are remapped), so diagrams whose depth equals the qubit
    /// count — e.g. chain states over tens of thousands of qubits — cannot
    /// overflow the call stack during garbage collection.
    fn rewrite(&mut self, id: u32) -> VectorNodeId {
        let mut stack: Vec<u32> = vec![id];
        while let Some(&top) = stack.last() {
            if self.is_mapped(top) {
                stack.pop();
                continue;
            }
            let node = self.old_nodes[top as usize];
            let mut children_ready = true;
            for child in node.children {
                if !child.is_zero()
                    && !child.target.is_terminal()
                    && !self.is_mapped(child.target.0)
                {
                    stack.push(child.target.0);
                    children_ready = false;
                }
            }
            if !children_ready {
                continue;
            }

            let mut children = [VectorEdge::ZERO; 2];
            for (slot, child) in children.iter_mut().zip(node.children) {
                if child.is_zero() {
                    continue;
                }
                let target = if child.target.is_terminal() {
                    VectorNodeId::TERMINAL
                } else {
                    VectorNodeId(self.node_remap[child.target.index()])
                };
                let weight = self.remap_weight(child.weight);
                *slot = if weight.is_zero() {
                    VectorEdge::ZERO
                } else {
                    VectorEdge { target, weight }
                };
            }
            let new_node = VectorNode {
                var: node.var,
                children,
            };
            let hash = vnode_hash(&new_node);
            let new_nodes = &self.new_nodes;
            let new_id = match self
                .table
                .find(hash, |nid| new_nodes[nid as usize] == new_node)
            {
                Some(nid) => nid,
                None => {
                    // Infallible: the compacted arena only ever shrinks, and
                    // the input arena already fit in the u32 id space.
                    #[allow(clippy::expect_used)]
                    let nid = u32::try_from(self.new_nodes.len()).expect("arena overflow");
                    self.new_nodes.push(new_node);
                    self.table.insert(hash, nid);
                    nid
                }
            };
            self.node_remap[top as usize] = new_id;
            stack.pop();
        }
        VectorNodeId(self.node_remap[id as usize])
    }
}

impl Default for DdPackage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::SQRT1_2;

    #[test]
    fn weight_interning_round_trips() {
        let mut p = DdPackage::new();
        let w = p.weight(Complex::new(0.25, -0.5));
        assert_eq!(p.weight_value(w), Complex::new(0.25, -0.5));
        assert!(p.weight(Complex::ZERO).is_zero());
        assert!(p.weight(Complex::ONE).is_one());
    }

    #[test]
    fn tiny_values_snap_to_zero() {
        let mut p = DdPackage::new();
        assert!(p.weight(Complex::new(1e-14, -1e-14)).is_zero());
    }

    #[test]
    fn make_vnode_shares_identical_nodes() {
        let mut p = DdPackage::new();
        let t = p.vector_terminal(Complex::ONE);
        let a = p.make_vnode(0, t, t).unwrap();
        let b = p.make_vnode(0, t, t).unwrap();
        assert_eq!(a.target, b.target);
        assert_eq!(p.allocated_vector_nodes(), 1);
    }

    #[test]
    fn make_vnode_zero_children_give_zero_edge() {
        let mut p = DdPackage::new();
        let e = p.make_vnode(2, VectorEdge::ZERO, VectorEdge::ZERO).unwrap();
        assert!(e.is_zero());
    }

    #[test]
    fn unique_table_survives_growth() {
        // Insert far more distinct nodes than the initial table size and
        // verify every one is still found (exercises open-addressing growth
        // and probe-chain correctness).
        // Weights 1.0, 1.001, ... are spaced far beyond the interning
        // tolerance even after normalization, so every node is distinct and
        // exactly reproducible.
        let weight = |i: usize| Complex::from_real(1.0 + i as f64 * 1e-3);
        let mut p = DdPackage::new();
        let t = p.vector_terminal(Complex::ONE);
        let mut edges = Vec::new();
        for i in 0..20_000 {
            let w = p.scale_vedge(t, weight(i));
            edges.push(p.make_vnode(0, w, t).unwrap());
        }
        assert_eq!(p.allocated_vector_nodes(), 20_000);
        // Re-creating each node hits the unique table instead of allocating.
        for (i, edge) in edges.iter().enumerate() {
            let w = p.scale_vedge(t, weight(i));
            let again = p.make_vnode(0, w, t).unwrap();
            assert_eq!(again.target, edge.target, "node {i} not shared");
        }
        assert_eq!(p.allocated_vector_nodes(), 20_000);
        assert_eq!(p.stats().vector_unique_hits, 20_000);
    }

    #[test]
    fn two_norm_normalization_makes_weights_unit_norm() {
        let mut p = DdPackage::with_normalization(Normalization::TwoNorm);
        let t = p.vector_terminal(Complex::ONE);
        let a = p.scale_vedge(t, Complex::new(3.0, 0.0));
        let b = p.scale_vedge(t, Complex::new(0.0, 4.0));
        let edge = p.make_vnode(0, a, b).unwrap();
        let node = p.vnode(edge.target);
        let w0 = p.weight_value(node.children[0].weight);
        let w1 = p.weight_value(node.children[1].weight);
        assert!((w0.norm_sqr() + w1.norm_sqr() - 1.0).abs() < 1e-12);
        // The factor carries the full magnitude (5) and the phase of w0.
        assert!((p.weight_value(edge.weight).norm() - 5.0).abs() < 1e-12);
        // First nonzero normalized weight is real positive.
        assert!(w0.im.abs() < 1e-12 && w0.re > 0.0);
    }

    #[test]
    fn leftmost_normalization_sets_first_weight_to_one() {
        let mut p = DdPackage::with_normalization(Normalization::LeftMost);
        let t = p.vector_terminal(Complex::ONE);
        let a = p.scale_vedge(t, Complex::from_real(SQRT1_2));
        let b = p.scale_vedge(t, Complex::from_real(-SQRT1_2));
        let edge = p.make_vnode(0, a, b).unwrap();
        let node = p.vnode(edge.target);
        assert!(node.children[0].weight.is_one());
        let w1 = p.weight_value(node.children[1].weight);
        assert!((w1 - Complex::from_real(-1.0)).norm() < 1e-12);
    }

    #[test]
    fn normalization_makes_scaled_subvectors_share_nodes() {
        for norm in [Normalization::LeftMost, Normalization::TwoNorm] {
            let mut p = DdPackage::with_normalization(norm);
            let t = p.vector_terminal(Complex::ONE);
            // (1, 2) and (3i, 6i) are scalar multiples of each other.
            let a1 = p.scale_vedge(t, Complex::from_real(1.0));
            let b1 = p.scale_vedge(t, Complex::from_real(2.0));
            let a2 = p.scale_vedge(t, Complex::new(0.0, 3.0));
            let b2 = p.scale_vedge(t, Complex::new(0.0, 6.0));
            let e1 = p.make_vnode(0, a1, b1).unwrap();
            let e2 = p.make_vnode(0, a2, b2).unwrap();
            assert_eq!(e1.target, e2.target, "normalization {norm:?}");
        }
    }

    #[test]
    fn make_mnode_normalizes_and_shares() {
        let mut p = DdPackage::new();
        let one = p.matrix_terminal(Complex::ONE);
        let half = p.matrix_terminal(Complex::from_real(0.5));
        let a = p
            .make_mnode(0, [half, MatrixEdge::ZERO, MatrixEdge::ZERO, half])
            .unwrap();
        let b = p
            .make_mnode(0, [one, MatrixEdge::ZERO, MatrixEdge::ZERO, one])
            .unwrap();
        // Both are scalar multiples of the identity block, so they share a node.
        assert_eq!(a.target, b.target);
        assert!((p.weight_value(a.weight).re - 0.5).abs() < 1e-12);
        assert!(p.make_mnode(1, [MatrixEdge::ZERO; 4]).unwrap().is_zero());
        let s = p.stats();
        assert_eq!(s.matrix_unique_hits, 1);
        assert_eq!(s.matrix_unique_misses, 1);
    }

    #[test]
    fn stats_report_counts() {
        let mut p = DdPackage::new();
        let t = p.vector_terminal(Complex::ONE);
        let _ = p.make_vnode(0, t, VectorEdge::ZERO).unwrap();
        let s = p.stats();
        assert_eq!(s.vector_nodes, 1);
        assert!(s.interned_values >= 2);
        assert_eq!(s.vector_unique_misses, 1);
    }

    #[test]
    fn compute_cache_is_lossy_and_generation_cleared() {
        let mut p = DdPackage::new();
        let t = p.vector_terminal(Complex::ONE);
        let a = p.make_vnode(0, t, VectorEdge::ZERO).unwrap();
        let b = p.make_vnode(0, VectorEdge::ZERO, t).unwrap();
        let key = (a, b);
        assert_eq!(p.add_cache.lookup(key), None);
        p.add_cache.insert(key, a);
        assert_eq!(p.add_cache.lookup(key), Some(a));
        // O(1) clear invalidates by generation stamp.
        p.clear_compute_tables();
        assert_eq!(p.add_cache.lookup(key), None);
        // Re-inserting after the clear works.
        p.add_cache.insert(key, b);
        assert_eq!(p.add_cache.lookup(key), Some(b));
        let counters = p.add_cache.counters();
        assert_eq!(counters.hits, 2);
        assert_eq!(counters.misses, 2);
    }

    #[test]
    fn compute_cache_capacity_zero_disables_caching() {
        let mut p = DdPackage::new();
        p.set_compute_cache_capacity(0);
        let t = p.vector_terminal(Complex::ONE);
        let a = p.make_vnode(0, t, VectorEdge::ZERO).unwrap();
        p.add_cache.insert((a, a), a);
        assert_eq!(p.add_cache.lookup((a, a)), None);
    }

    #[test]
    fn reachable_count_ignores_garbage() {
        let mut p = DdPackage::new();
        let t = p.vector_terminal(Complex::ONE);
        let keep = p.make_vnode(0, t, VectorEdge::ZERO).unwrap();
        let keep = p.make_vnode(1, keep, VectorEdge::ZERO).unwrap();
        // Create garbage.
        let _ = p.make_vnode(0, t, t).unwrap();
        assert_eq!(p.allocated_vector_nodes(), 3);
        assert_eq!(p.reachable_vector_nodes(keep), 2);
    }

    #[test]
    fn garbage_collection_compacts_and_remaps() {
        let mut p = DdPackage::new();
        let t = p.vector_terminal(Complex::ONE);
        let keep = p.make_vnode(0, t, VectorEdge::ZERO).unwrap();
        let keep = p.make_vnode(1, keep, t).unwrap();
        for i in 0..10 {
            let x = p.scale_vedge(t, Complex::from_real(f64::from(i) + 2.0));
            let _ = p.make_vnode(0, x, t).unwrap();
        }
        assert!(p.allocated_vector_nodes() > 2);
        let roots = p.collect_garbage(&[keep]);
        assert_eq!(p.allocated_vector_nodes(), 2);
        assert_eq!(p.reachable_vector_nodes(roots[0]), 2);
        // The structure survives: level-1 node over a level-0 node.
        let top = p.vnode(roots[0].target);
        assert_eq!(top.var, 1);
        assert_eq!(p.vnode(top.children[0].target).var, 0);
        assert_eq!(p.stats().garbage_collections, 1);
    }

    #[test]
    fn garbage_collection_drops_unreachable_interned_weights() {
        let mut p = DdPackage::new();
        let t = p.vector_terminal(Complex::ONE);
        let h = p.scale_vedge(t, Complex::from_real(SQRT1_2));
        let keep = p.make_vnode(0, h, h).unwrap();
        // A pile of garbage nodes with distinct weights bloats the table.
        for i in 0..5_000 {
            let w = p.scale_vedge(t, Complex::from_real(2.0 + f64::from(i) * 1e-3));
            let _ = p.make_vnode(0, w, t).unwrap();
        }
        let before = p.stats().interned_values;
        assert!(before > 5_000, "value table should have grown: {before}");
        let roots = p.collect_garbage(&[keep]);
        let after = p.stats().interned_values;
        assert!(
            after < 10,
            "value table must shrink to the surviving weights, got {after}"
        );
        // The kept state still reads back correctly.
        let node = p.vnode(roots[0].target);
        let w0 = p.weight_value(node.children[0].weight);
        let w1 = p.weight_value(node.children[1].weight);
        assert!((w0 - w1).norm() < 1e-12);
        assert!(
            (p.weight_value(roots[0].weight).norm() - 1.0).abs() < 1e-9,
            "kept root stays normalized"
        );
    }

    #[test]
    fn garbage_collection_survives_very_deep_diagrams() {
        // A chain diagram far deeper than the call stack could take if the
        // GC rewrite were recursive (the sampler-side traversals are
        // explicitly iterative for the same reason).
        let mut p = DdPackage::new();
        let mut edge = p.vector_terminal(Complex::ONE);
        let depth = 60_000u32;
        for var in 0..depth {
            let var = u16::try_from(var % u32::from(u16::MAX)).unwrap();
            edge = p.make_vnode(var, edge, VectorEdge::ZERO).unwrap();
        }
        let _garbage = p.make_vnode(0, edge, edge).unwrap();
        let roots = p.collect_garbage(&[edge]);
        assert_eq!(p.allocated_vector_nodes(), depth as usize);
        assert_eq!(p.reachable_vector_nodes(roots[0]), depth as usize);
    }

    #[test]
    fn unique_table_rebuild_after_gc_still_shares() {
        let mut p = DdPackage::new();
        let t = p.vector_terminal(Complex::ONE);
        let keep = p.make_vnode(0, t, VectorEdge::ZERO).unwrap();
        let _garbage = p.make_vnode(0, t, t).unwrap();
        let roots = p.collect_garbage(&[keep]);
        // Re-creating the kept node after GC must find it, not duplicate it.
        let t = p.vector_terminal(Complex::ONE);
        let again = p.make_vnode(0, t, VectorEdge::ZERO).unwrap();
        assert_eq!(again.target, roots[0].target);
        assert_eq!(p.allocated_vector_nodes(), 1);
    }

    #[test]
    fn operator_cache_memoizes_gate_builds() {
        let mut p = DdPackage::new();
        let key = OperatorKey::gate(2, OneQubitGate::H, Qubit(0), &[]);
        let mut builds = 0;
        let a = p
            .cached_operator(key.clone(), |p| {
                builds += 1;
                Ok(
                    crate::OperatorDd::controlled_gate(p, 2, OneQubitGate::H, Qubit(0), &[])?
                        .root(),
                )
            })
            .unwrap();
        let b = p
            .cached_operator(key, |p| {
                builds += 1;
                Ok(
                    crate::OperatorDd::controlled_gate(p, 2, OneQubitGate::H, Qubit(0), &[])?
                        .root(),
                )
            })
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(builds, 1, "second request must be served from the memo");
        let s = p.stats();
        assert_eq!(s.operator_cache.hits, 1);
        assert_eq!(s.operator_cache.misses, 1);
        // Distinct layouts get distinct entries.
        let key2 = OperatorKey::gate(2, OneQubitGate::H, Qubit(1), &[]);
        let c = p
            .cached_operator(key2, |p| {
                Ok(
                    crate::OperatorDd::controlled_gate(p, 2, OneQubitGate::H, Qubit(1), &[])?
                        .root(),
                )
            })
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn operator_cache_is_cleared_by_gc() {
        let mut p = DdPackage::new();
        let key = OperatorKey::gate(1, OneQubitGate::X, Qubit(0), &[]);
        let _ = p
            .cached_operator(key.clone(), |p| {
                Ok(
                    crate::OperatorDd::controlled_gate(p, 1, OneQubitGate::X, Qubit(0), &[])?
                        .root(),
                )
            })
            .unwrap();
        let t = p.vector_terminal(Complex::ONE);
        let keep = p.make_vnode(0, t, VectorEdge::ZERO).unwrap();
        let _ = p.collect_garbage(&[keep]);
        // The matrix arena is gone; the memo must rebuild, not return a
        // dangling edge.
        let mut rebuilt = false;
        let edge = p
            .cached_operator(key, |p| {
                rebuilt = true;
                Ok(
                    crate::OperatorDd::controlled_gate(p, 1, OneQubitGate::X, Qubit(0), &[])?
                        .root(),
                )
            })
            .unwrap();
        assert!(rebuilt, "memo must be cleared by garbage collection");
        assert!(!edge.is_zero());
    }
}
