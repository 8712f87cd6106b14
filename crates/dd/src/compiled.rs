//! The compiled flat-arena sampler: the DD sampling hot path reduced to a
//! pure array walk, plus deterministic parallel shot batching.
//!
//! # Why compile?
//!
//! [`DdSampler`](crate::DdSampler) draws a sample by walking the decision
//! diagram root-to-terminal, paying per level for
//!
//! * a [`DdPackage`] node lookup (one indirection into the node arena),
//! * two complex-table reads to resolve the outgoing edge weights, and
//! * up to two hash-map lookups for the children's downstream probabilities.
//!
//! All of that is invariant across shots, so [`CompiledSampler::new`] folds
//! it into a one-time compilation pass: the subgraph reachable from the root
//! is flattened into a contiguous arena of packed 16-byte node records, each
//! holding the *precomputed* probability of taking the 0-branch (downstream
//! mass already folded in, so both
//! [`Normalization::LeftMost`](crate::Normalization) and
//! [`Normalization::TwoNorm`](crate::Normalization) compile to the same
//! representation) and the compact `[u32; 2]` child indices.
//!
//! # The walk
//!
//! State diagrams are level-complete: every root-to-terminal path with
//! positive probability visits exactly one node per qubit, most significant
//! qubit first.  So a shot is `num_qubits` repetitions of one shift step —
//!
//! ```text
//! bit   = (u >= p_zero)        // u uniform in [0, 1)
//! index = index << 1 | bit
//! at    = children[bit]
//! ```
//!
//! — one `f64` compare, one shift, one `u32` hop.  The bit value only ever
//! selects an address, never a branch, and a visited node costs at most one
//! cache line (a parallel-array layout would touch two).
//!
//! # Lockstep blocks
//!
//! A single walk is a chain of dependent loads: the next node's address is
//! known only after the current one arrives.  [`CompiledSampler::sample_many`]
//! and the parallel chunks therefore draw shots in blocks of eight: a block
//! first draws its `8 · num_qubits` uniforms in stream order (shot by shot,
//! level by level — exactly the order eight consecutive
//! [`CompiledSampler::sample`] calls consume them), then advances the eight
//! walks one level at a time, so eight independent loads are in flight per
//! level.  Shots left over after the last whole block are drawn one by one.
//! Every draw path consumes the RNG identically, so a seed gives the same
//! samples whichever path draws them.
//!
//! # Parallel shot batching
//!
//! [`CompiledSampler::sample_many_parallel`] splits the requested shots into
//! fixed-size chunks of [`PARALLEL_CHUNK_SHOTS`] samples.  Chunk `i` is drawn
//! by a dedicated [`SmallRng`] stream seeded from `(master_seed, i)` through
//! SplitMix64, and every chunk writes into its own disjoint slice of the
//! output vector — so the result is **bit-identical for a given master seed
//! regardless of the number of worker threads** (chunks are merely
//! distributed round-robin over workers; their content never depends on who
//! runs them).  [`CompiledSampler::sample_chunk`] draws one such chunk into
//! a caller's buffer, for callers that draw on their own thread.  See the
//! module docs of [`crate`] for the seeding scheme.

use crate::edge::VectorNodeId;
use crate::govern::DdError;
use crate::{DdPackage, StateDd};
use mathkit::SnapshotReader;
use rand::rngs::SmallRng;
use rand::{splitmix64, Rng, SeedableRng};

/// Number of shots drawn per deterministic RNG chunk in
/// [`CompiledSampler::sample_many_parallel`] and
/// [`CompiledSampler::sample_chunk`].
///
/// The value trades scheduling granularity against per-chunk seeding
/// overhead; it is a fixed constant because changing it changes which RNG
/// stream produces which shot (and therefore the sampled values for a given
/// master seed).
pub const PARALLEL_CHUNK_SHOTS: usize = 1024;

/// Sentinel index marking the terminal (or an unreachable zero branch).
const TERMINAL: u32 = u32::MAX;

/// Shots walked in lockstep by one block of the batched draw loops.
const LANES: usize = 8;

/// One compiled node: everything a traversal step needs, packed into 16
/// bytes so a visited node costs (at most) one cache line.
#[derive(Debug, Clone, Copy)]
struct CompiledNode {
    /// Probability of taking the 0-branch, downstream mass folded in.
    p_zero: f64,
    /// Compact indices of the 0/1 successors ([`TERMINAL`] below level 0
    /// and on zero branches).
    children: [u32; 2],
}

/// A weak-simulation sampler compiled into a flat arena of node records.
///
/// Compilation snapshots the reachable part of the decision diagram, so the
/// sampler stays valid even if the [`DdPackage`] is mutated or dropped
/// afterwards — unlike [`DdSampler`](crate::DdSampler), no package reference
/// is needed while sampling.  The arena is an owned `Vec` of plain data, so
/// the sampler is `Send + Sync + 'static`: it can be wrapped in an `Arc`
/// and shared across threads and across runs — the `weaksim` artifact
/// cache relies on exactly this to serve warm requests without re-running
/// strong simulation.
///
/// # Examples
///
/// ```
/// use circuit::{Circuit, Qubit};
/// use dd::{CompiledSampler, DdPackage};
/// use rand::SeedableRng;
///
/// let mut ghz = Circuit::new(3);
/// ghz.h(Qubit(0));
/// ghz.cx(Qubit(0), Qubit(1));
/// ghz.cx(Qubit(1), Qubit(2));
///
/// let mut package = DdPackage::new();
/// let state = dd::simulate(&mut package, &ghz)?;
/// let sampler = CompiledSampler::new(&package, &state)?;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
/// let shot = sampler.sample(&mut rng);
/// assert!(shot == 0 || shot == 0b111);
///
/// // Deterministic parallel batching: same master seed, same samples,
/// // independent of the worker-thread count.
/// let a = sampler.sample_many_parallel(11, 4096);
/// let b = sampler.sample_many_parallel_with_threads(11, 4096, 3);
/// assert_eq!(a, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSampler {
    /// The flat arena, indexed by compact node id in breadth-first order;
    /// the root is id 0 and the arena is empty only for 0 qubits.
    nodes: Vec<CompiledNode>,
    num_qubits: u16,
}

impl CompiledSampler {
    /// Compiles the subgraph reachable from the state's root.
    ///
    /// Work is linear in the number of reachable nodes plus one `u32` per
    /// *allocated* arena slot (a single dense discovery array — memset-cheap
    /// even for arenas holding millions of garbage nodes); every other side
    /// table is sized by the reachable set and indexed by compact id, so on
    /// million-node diagrams no hash map is touched at all — the former
    /// hash-map-memoized passes dominated the compile time.  The package's
    /// normalization scheme is irrelevant: branch probabilities are computed
    /// from edge weights *times* downstream mass, which is exact for both
    /// schemes.
    ///
    /// # Errors
    ///
    /// Fails with a [`DdError`] when the package's governor interrupts the
    /// compilation (deadline or cancellation — the compile allocates no DD
    /// nodes, so node/byte budgets cannot trip here) or the reachable set
    /// exceeds the compact `u32` id space.
    ///
    /// # Panics
    ///
    /// Panics if the state is the zero vector (no probability mass to
    /// sample), has more than 64 qubits (samples are `u64` bitstrings), or
    /// is not level-complete: the root must decide qubit `n - 1`, and every
    /// non-zero edge out of a node on qubit `v` must lead to a node on qubit
    /// `v - 1`, or to the terminal when `v = 0`.  Every diagram the
    /// package's own operations build has this shape; the walk relies on it
    /// to visit exactly one node per qubit.
    pub fn new(package: &DdPackage, state: &StateDd) -> Result<Self, DdError> {
        let root_edge = state.root();
        let num_qubits = state.num_qubits();
        assert!(!root_edge.is_zero(), "cannot sample from the zero vector");
        assert!(
            num_qubits <= 64,
            "samples are u64 bitstrings; {num_qubits} qubits do not fit"
        );
        assert!(
            if root_edge.target.is_terminal() {
                num_qubits == 0
            } else {
                package.vnode(root_edge.target).var + 1 == num_qubits
            },
            "the root of a {num_qubits}-qubit state must decide its top qubit"
        );

        let arena = package.allocated_vector_nodes();
        // Breadth-first discovery assigns compact indices root-first, so a
        // traversal touches the arena roughly front to back.  `index_of` is
        // the only arena-sized allocation of the compile.
        let mut index_of = vec![TERMINAL; arena];
        let mut order: Vec<VectorNodeId> = Vec::new();
        if !root_edge.target.is_terminal() {
            index_of[root_edge.target.index()] = 0;
            order.push(root_edge.target);
            let mut cursor = 0;
            while cursor < order.len() {
                package.governor().checkpoint()?;
                let node = package.vnode(order[cursor]);
                cursor += 1;
                for child in node.children {
                    if child.is_zero() || child.target.is_terminal() {
                        continue;
                    }
                    if index_of[child.target.index()] == TERMINAL {
                        // `< MAX`, not `<= MAX`: id u32::MAX is the TERMINAL
                        // sentinel and must never name a real node.
                        if order.len() >= u32::MAX as usize {
                            return Err(DdError::ArenaOverflow { arena: "compiled" });
                        }
                        index_of[child.target.index()] = order.len() as u32;
                        order.push(child.target);
                    }
                }
            }
        }

        // Downstream probability per *compact* id (NaN = not yet computed;
        // downstream masses are finite by construction).
        let mut downstream = vec![f64::NAN; order.len()];
        if !root_edge.target.is_terminal() {
            downstream_compact(package, &order, &index_of, &mut downstream);
        }

        let mut nodes = Vec::with_capacity(order.len());
        for &id in &order {
            package.governor().checkpoint()?;
            let node = package.vnode(id);
            let mut mass = [0.0f64; 2];
            let mut child_idx = [TERMINAL; 2];
            for bit in 0..2 {
                let child = node.children[bit];
                if child.is_zero() {
                    continue;
                }
                assert!(
                    if node.var == 0 {
                        child.target.is_terminal()
                    } else {
                        !child.target.is_terminal()
                            && package.vnode(child.target).var + 1 == node.var
                    },
                    "state diagrams must be level-complete: an edge out of qubit {} skips a level",
                    node.var
                );
                let down = if child.target.is_terminal() {
                    1.0
                } else {
                    downstream[index_of[child.target.index()] as usize]
                };
                mass[bit] = package.weight_value(child.weight).norm_sqr() * down;
                if !child.target.is_terminal() {
                    child_idx[bit] = index_of[child.target.index()];
                }
            }
            let total = mass[0] + mass[1];
            // A node with zero total mass is only reachable through a
            // zero-probability branch, i.e. never during sampling; park it
            // on the 0-branch, or on the 1-branch when only that one leads
            // on, so that no walk can ever step onto a missing child.
            let p_zero = if total > 0.0 {
                mass[0] / total
            } else if child_idx[0] == TERMINAL && child_idx[1] != TERMINAL {
                0.0
            } else {
                1.0
            };
            nodes.push(CompiledNode {
                p_zero,
                children: child_idx,
            });
        }

        Ok(Self { nodes, num_qubits })
    }

    /// The number of qubits in each output sample.
    #[must_use]
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// The number of nodes in the compiled arena.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Heap bytes held by the compiled arena (16 packed bytes per node),
    /// the quantity an artifact cache charges against its byte budget for a
    /// retained sampler.
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<CompiledNode>()
    }

    /// One level of a walk: takes the branch `u` selects at node `at` and
    /// shifts its bit into `index` (see the module docs).
    #[inline(always)]
    fn step(&self, index: u64, at: u32, u: f64) -> (u64, u32) {
        let node = &self.nodes[at as usize];
        let bit = u >= node.p_zero;
        (index << 1 | u64::from(bit), node.children[usize::from(bit)])
    }

    /// Draws one basis-state sample: a pure array walk, one uniform and
    /// one node per qubit.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut index = 0u64;
        let mut at = 0u32;
        for _ in 0..self.num_qubits {
            (index, at) = self.step(index, at, rng.gen());
        }
        index
    }

    /// Draws `shots` samples sequentially from the given RNG, eight walks
    /// at a time (see the module docs); the same samples as `shots`
    /// consecutive [`sample`](Self::sample) calls.
    #[must_use = "the samples are the result of the weak simulation"]
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<u64> {
        let mut out = vec![0u64; shots];
        self.fill(rng, &mut out);
        out
    }

    /// Fills `out` with consecutive samples from `rng`: whole blocks of
    /// [`LANES`] shots in lockstep, the remainder one by one.
    fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        let levels = usize::from(self.num_qubits);
        let mut blocks = out.chunks_exact_mut(LANES);
        // `uniforms[level][lane]`: one row per level, so the lockstep loop
        // reads a fixed-size row and needs no bounds checks.
        let mut uniforms = [[0.0f64; LANES]; 64];
        for block in &mut blocks {
            for lane in 0..LANES {
                for row in &mut uniforms[..levels] {
                    row[lane] = rng.gen();
                }
            }
            let mut index = [0u64; LANES];
            let mut at = [0u32; LANES];
            for row in &uniforms[..levels] {
                for lane in 0..LANES {
                    (index[lane], at[lane]) = self.step(index[lane], at[lane], row[lane]);
                }
            }
            block.copy_from_slice(&index);
        }
        for slot in blocks.into_remainder() {
            *slot = self.sample(rng);
        }
    }

    /// Draws `shots` samples using every available worker thread (see
    /// [`rayon::current_num_threads`]).
    ///
    /// The output is bit-identical for a given `master_seed` regardless of
    /// the thread count; see the module docs for the chunked seeding scheme.
    #[must_use = "the samples are the result of the weak simulation"]
    pub fn sample_many_parallel(&self, master_seed: u64, shots: usize) -> Vec<u64> {
        self.sample_many_parallel_with_threads(master_seed, shots, rayon::current_num_threads())
    }

    /// [`sample_many_parallel`](Self::sample_many_parallel) with an explicit
    /// worker count (primarily for tests and scaling measurements).
    #[must_use = "the samples are the result of the weak simulation"]
    pub fn sample_many_parallel_with_threads(
        &self,
        master_seed: u64,
        shots: usize,
        threads: usize,
    ) -> Vec<u64> {
        let threads = threads.max(1);
        let mut out = vec![0u64; shots];

        if threads == 1 || shots <= PARALLEL_CHUNK_SHOTS {
            for (chunk_index, chunk) in out.chunks_mut(PARALLEL_CHUNK_SHOTS).enumerate() {
                self.sample_chunk(master_seed, chunk_index as u64, chunk);
            }
            return out;
        }

        // Round-robin the fixed-size chunks over the workers.  The
        // assignment only decides *who* draws a chunk, never *what* it
        // contains, so any distribution yields identical output.
        let mut assignments: Vec<Vec<(u64, &mut [u64])>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (chunk_index, chunk) in out.chunks_mut(PARALLEL_CHUNK_SHOTS).enumerate() {
            assignments[chunk_index % threads].push((chunk_index as u64, chunk));
        }
        // The calling thread draws the first share itself instead of idling
        // in the join: one spawn fewer per call.
        let fill_all = |work: Vec<(u64, &mut [u64])>| {
            for (chunk_index, chunk) in work {
                self.sample_chunk(master_seed, chunk_index, chunk);
            }
        };
        let mut assignments = assignments.into_iter();
        let own = assignments.next().unwrap_or_default();
        rayon::scope(|scope| {
            for work in assignments {
                scope.spawn(move || fill_all(work));
            }
            fill_all(own);
        });
        out
    }

    /// Fills `chunk` with the samples of global chunk `chunk_index`: chunk
    /// `i` always uses the same [`SmallRng`] stream derived from
    /// `(master_seed, i)`.  Drawing chunks `0, 1, …` in order into
    /// consecutive [`PARALLEL_CHUNK_SHOTS`]-shot slices (the last may be
    /// shorter) reproduces [`sample_many_parallel`](Self::sample_many_parallel)
    /// on the calling thread, one chunk-sized buffer at a time.
    pub fn sample_chunk(&self, master_seed: u64, chunk_index: u64, chunk: &mut [u64]) {
        let mut rng = SmallRng::seed_from_u64(chunk_stream_seed(master_seed, chunk_index));
        self.fill(&mut rng, chunk);
    }

    /// The qubit each node decides on, propagated from the root (qubit
    /// `n - 1`) one level down per edge.  The arena is in breadth-first
    /// order, so every node's level is known before its children's.
    fn levels(&self) -> Vec<u16> {
        let mut levels = vec![0u16; self.nodes.len()];
        if let Some(root) = levels.first_mut() {
            *root = self.num_qubits - 1;
        }
        for (at, node) in self.nodes.iter().enumerate() {
            for child in node.children {
                if child != TERMINAL {
                    levels[child as usize] = levels[at].saturating_sub(1);
                }
            }
        }
        levels
    }

    /// Serializes the arena into `out` as little-endian plain data, the
    /// payload format of the `weaksim` artifact-cache snapshot.  Everything
    /// a [`decode_snapshot`](Self::decode_snapshot) on another process needs
    /// to reproduce bit-identical samples: `num_qubits`, the root index (0,
    /// or `u32::MAX` for 0 qubits) and each node's `(p_zero bits, children,
    /// one_bit)` 24-byte record in arena order, where `one_bit = 1 << v`
    /// for the qubit `v` the node decides on (derived from its level; the
    /// arena itself does not store it).
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        let root = if self.nodes.is_empty() { TERMINAL } else { 0 };
        out.extend_from_slice(&self.num_qubits.to_le_bytes());
        out.extend_from_slice(&root.to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        for (node, level) in self.nodes.iter().zip(self.levels()) {
            out.extend_from_slice(&node.p_zero.to_bits().to_le_bytes());
            out.extend_from_slice(&node.children[0].to_le_bytes());
            out.extend_from_slice(&node.children[1].to_le_bytes());
            out.extend_from_slice(&(1u64 << level).to_le_bytes());
        }
    }

    /// Reconstructs a sampler from [`encode_snapshot`](Self::encode_snapshot)
    /// bytes, validating every structural invariant the walk relies on:
    /// probabilities in `[0, 1]`, in-range child indices, the root (id 0)
    /// on qubit `n - 1`, every child edge pointing to a later node exactly
    /// one qubit down, every node but the root reached by such an edge, and
    /// no positive-probability branch ending above qubit 0.  So every walk
    /// visits exactly `n` nodes, and re-encoding reproduces the payload.
    /// Returns `None` for any truncated, oversized or inconsistent payload:
    /// a corrupted snapshot section must never panic a loader.
    #[must_use]
    pub fn decode_snapshot(bytes: &[u8]) -> Option<Self> {
        let mut cursor = SnapshotReader::new(bytes);
        let num_qubits = cursor.u16()?;
        let root = cursor.u32()?;
        let node_count = usize::try_from(cursor.u64()?).ok()?;
        if num_qubits > 64
            || cursor.remaining() != node_count.checked_mul(24)?
            || (num_qubits == 0) != (node_count == 0)
            || root != if node_count == 0 { TERMINAL } else { 0 }
        {
            return None;
        }
        let mut nodes = Vec::with_capacity(node_count);
        let mut one_bits = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let p_zero = f64::from_bits(cursor.u64()?);
            let children = [cursor.u32()?, cursor.u32()?];
            let one_bit = cursor.u64()?;
            if !(0.0..=1.0).contains(&p_zero)
                || !children
                    .into_iter()
                    .all(|child| child == TERMINAL || (child as usize) < node_count)
                || one_bit.count_ones() != 1
                || one_bit.trailing_zeros() >= u32::from(num_qubits)
            {
                return None;
            }
            nodes.push(CompiledNode { p_zero, children });
            one_bits.push(one_bit);
        }
        if let Some(&root_bit) = one_bits.first() {
            if root_bit != 1u64 << (num_qubits - 1) {
                return None;
            }
        }
        let mut reached = vec![false; node_count];
        for (at, node) in nodes.iter().enumerate() {
            for (bit, child) in node.children.into_iter().enumerate() {
                let positive = if bit == 0 {
                    node.p_zero > 0.0
                } else {
                    node.p_zero < 1.0
                };
                if child == TERMINAL {
                    if positive && one_bits[at] != 1 {
                        return None;
                    }
                } else if child as usize <= at || one_bits[child as usize] != one_bits[at] >> 1 {
                    return None;
                } else {
                    reached[child as usize] = true;
                }
            }
        }
        if reached.iter().skip(1).any(|&r| !r) {
            return None;
        }
        Some(Self { nodes, num_qubits })
    }
}

/// Computes downstream probabilities for every discovered node into a dense
/// array indexed by *compact* id (`NaN` = unvisited); `index_of` translates
/// arena slots to compact ids (every reachable node is already discovered).
///
/// Uses an explicit work stack instead of recursion, so diagrams whose depth
/// equals the qubit count (e.g. basis states over tens of thousands of
/// qubits) cannot overflow the call stack.
fn downstream_compact(
    package: &DdPackage,
    order: &[VectorNodeId],
    index_of: &[u32],
    memo: &mut [f64],
) {
    // Depth-first post-order over the DAG: a node stays on the stack until
    // both non-terminal children are memoized, then its own mass is the
    // weight-squared-weighted sum of theirs.  Compact id 0 is the root.
    let mut stack: Vec<u32> = vec![0];
    while let Some(&compact) = stack.last() {
        if !memo[compact as usize].is_nan() {
            stack.pop();
            continue;
        }
        let node = package.vnode(order[compact as usize]);
        let mut children_ready = true;
        for child in node.children {
            if child.is_zero() || child.target.is_terminal() {
                continue;
            }
            let child_compact = index_of[child.target.index()];
            if memo[child_compact as usize].is_nan() {
                stack.push(child_compact);
                children_ready = false;
            }
        }
        if children_ready {
            let mut total = 0.0;
            for child in node.children {
                if child.is_zero() {
                    continue;
                }
                let down = if child.target.is_terminal() {
                    1.0
                } else {
                    memo[index_of[child.target.index()] as usize]
                };
                total += package.weight_value(child.weight).norm_sqr() * down;
            }
            memo[compact as usize] = total;
            stack.pop();
        }
    }
}

/// Derives the RNG seed of parallel chunk `chunk_index` from the master
/// seed: one SplitMix64 step over the pair, which decorrelates neighbouring
/// chunk indices and master seeds.
///
/// This is *the* seeding scheme of every deterministic batched sampler in
/// the workspace: [`CompiledSampler::sample_many_parallel`] uses it for its
/// fixed [`PARALLEL_CHUNK_SHOTS`]-shot chunks, and the trajectory engine of
/// the `weaksim` crate reuses it so per-shot trajectory simulation of
/// dynamic circuits is seed-deterministic independent of the thread count,
/// too.
#[must_use]
pub fn chunk_stream_seed(master_seed: u64, chunk_index: u64) -> u64 {
    let mut state = master_seed ^ (chunk_index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "comparison-samplers")]
    use crate::DdSampler;
    use crate::{Normalization, VectorEdge};
    use mathkit::Complex;
    use rand::rngs::StdRng;

    fn paper_example(package: &mut DdPackage) -> StateDd {
        let a = Complex::new(0.0, -(3.0_f64 / 8.0).sqrt());
        let b = Complex::from_real((1.0_f64 / 8.0).sqrt());
        StateDd::from_amplitudes(
            package,
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
        )
        .unwrap()
    }

    #[test]
    fn compiled_matches_exact_distribution() {
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        let mut rng = StdRng::seed_from_u64(2020);
        let shots = 200_000;
        let mut counts = [0u64; 8];
        for _ in 0..shots {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        let expected = [0.0, 0.375, 0.0, 0.375, 0.125, 0.0, 0.0, 0.125];
        for (i, &e) in expected.iter().enumerate() {
            let freq = counts[i] as f64 / shots as f64;
            assert!((freq - e).abs() < 0.01, "index {i}: {freq} vs {e}");
            if e == 0.0 {
                assert_eq!(counts[i], 0, "impossible outcome {i} was sampled");
            }
        }
    }

    #[test]
    fn both_normalizations_compile_to_the_same_distribution() {
        let shots = 100_000;
        let mut freqs: Vec<[f64; 8]> = Vec::new();
        for norm in [Normalization::TwoNorm, Normalization::LeftMost] {
            let mut p = DdPackage::with_normalization(norm);
            let s = paper_example(&mut p);
            let sampler = CompiledSampler::new(&p, &s).unwrap();
            let samples = sampler.sample_many_parallel(7, shots);
            let mut counts = [0u64; 8];
            for s in samples {
                counts[s as usize] += 1;
            }
            freqs.push(std::array::from_fn(|i| counts[i] as f64 / shots as f64));
        }
        #[allow(clippy::needless_range_loop)] // i indexes two parallel arrays
        for i in 0..8 {
            assert!(
                (freqs[0][i] - freqs[1][i]).abs() < 0.01,
                "index {i}: {} vs {}",
                freqs[0][i],
                freqs[1][i]
            );
        }
    }

    #[test]
    fn parallel_sampling_is_thread_count_invariant() {
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        // A shot count that is deliberately not a multiple of the chunk size.
        let shots = 3 * PARALLEL_CHUNK_SHOTS + 17;
        let reference = sampler.sample_many_parallel_with_threads(42, shots, 1);
        for threads in [2, 3, 8] {
            let run = sampler.sample_many_parallel_with_threads(42, shots, threads);
            assert_eq!(reference, run, "thread count {threads} changed the samples");
        }
        assert_ne!(
            reference,
            sampler.sample_many_parallel_with_threads(43, shots, 1),
            "different master seeds must give different samples"
        );
    }

    #[test]
    fn compiled_survives_package_mutation() {
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        // Fill the package with unrelated garbage; the compiled arena must
        // not care.
        for i in 0..100 {
            let t = p.vector_terminal(Complex::from_real(f64::from(i) + 2.0));
            let _ = p.make_vnode(0, t, t);
        }
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let shot = sampler.sample(&mut rng);
            assert!(matches!(shot, 1 | 3 | 4 | 7), "impossible outcome {shot}");
        }
    }

    #[test]
    fn compiled_sampler_is_send_sync_and_static() {
        // The artifact cache hands out `Arc<CompiledSampler>`-carrying
        // values to concurrent tenants; these bounds are its contract.
        fn assert_shareable<T: Send + Sync + 'static>() {}
        assert_shareable::<CompiledSampler>();
    }

    #[test]
    fn arena_bytes_tracks_the_node_count() {
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        assert_eq!(
            sampler.arena_bytes(),
            sampler.node_count() * std::mem::size_of::<CompiledNode>()
        );
        assert!(sampler.arena_bytes() > 0);
    }

    #[test]
    fn basis_state_always_samples_itself() {
        let mut p = DdPackage::new();
        let s = StateDd::basis_state(&mut p, 6, 0b101101).unwrap();
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        assert_eq!(sampler.num_qubits(), 6);
        assert_eq!(sampler.node_count(), 6);
        for shot in sampler.sample_many_parallel(9, 5000) {
            assert_eq!(shot, 0b101101);
        }
    }

    #[cfg(feature = "comparison-samplers")]
    #[test]
    fn agrees_with_dd_sampler_on_shared_seeded_histograms() {
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let general = DdSampler::new(&p, &s);
        let compiled = CompiledSampler::new(&p, &s).unwrap();
        let shots = 100_000;
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts_general = [0u64; 8];
        for _ in 0..shots {
            counts_general[general.sample(&p, &mut rng) as usize] += 1;
        }
        let mut counts_compiled = [0u64; 8];
        for _ in 0..shots {
            counts_compiled[compiled.sample(&mut rng) as usize] += 1;
        }
        for i in 0..8 {
            let fg = counts_general[i] as f64 / shots as f64;
            let fc = counts_compiled[i] as f64 / shots as f64;
            assert!((fg - fc).abs() < 0.01, "index {i}: {fg} vs {fc}");
        }
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn compiling_the_zero_vector_panics() {
        let mut p = DdPackage::new();
        let s = StateDd::from_amplitudes(&mut p, &[Complex::ZERO; 4]).unwrap();
        let _ = CompiledSampler::new(&p, &s);
    }

    #[test]
    fn scalar_state_samples_the_empty_bitstring() {
        let mut p = DdPackage::new();
        let s = StateDd::basis_state(&mut p, 0, 0).unwrap();
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sampler.sample(&mut rng), 0);
        assert_eq!(sampler.node_count(), 0);
    }

    #[test]
    fn chunks_drawn_one_by_one_match_one_parallel_call() {
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        let shots = 5 * PARALLEL_CHUNK_SHOTS + 123;
        let reference = sampler.sample_many_parallel_with_threads(7, shots, 2);
        // One reused chunk-sized block, the last chunk short.
        let mut block = vec![0u64; PARALLEL_CHUNK_SHOTS];
        let mut stitched = Vec::new();
        for (index, expected) in reference.chunks(PARALLEL_CHUNK_SHOTS).enumerate() {
            let chunk = &mut block[..expected.len()];
            sampler.sample_chunk(7, index as u64, chunk);
            stitched.extend_from_slice(chunk);
        }
        assert_eq!(reference, stitched);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        let mut bytes = Vec::new();
        sampler.encode_snapshot(&mut bytes);
        let decoded = CompiledSampler::decode_snapshot(&bytes).expect("round trip");
        assert_eq!(decoded.num_qubits(), sampler.num_qubits());
        assert_eq!(decoded.node_count(), sampler.node_count());
        assert_eq!(
            sampler.sample_many_parallel(77, 4096),
            decoded.sample_many_parallel(77, 4096),
            "decoded sampler must reproduce bit-identical samples"
        );
    }

    #[test]
    fn snapshot_decode_rejects_corruption_without_panicking() {
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let sampler = CompiledSampler::new(&p, &s).unwrap();
        let mut bytes = Vec::new();
        sampler.encode_snapshot(&mut bytes);

        // Truncation at every prefix length must fail cleanly.
        for len in 0..bytes.len() {
            assert!(CompiledSampler::decode_snapshot(&bytes[..len]).is_none());
        }
        // An out-of-range child index must be rejected.
        let mut oob = bytes.clone();
        let first_child = 2 + 4 + 8 + 8; // header + p_zero of node 0
        oob[first_child..first_child + 4].copy_from_slice(&u32::MAX.wrapping_sub(1).to_le_bytes());
        assert!(CompiledSampler::decode_snapshot(&oob).is_none());
        // A probability outside [0, 1] must be rejected.
        let mut bad_p = bytes.clone();
        bad_p[14..22].copy_from_slice(&2.5f64.to_bits().to_le_bytes());
        assert!(CompiledSampler::decode_snapshot(&bad_p).is_none());
    }

    /// Hand-written `(p_zero, children, one_bit)` records in the snapshot
    /// payload format.
    fn payload(num_qubits: u16, root: u32, nodes: &[(f64, [u32; 2], u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&num_qubits.to_le_bytes());
        out.extend_from_slice(&root.to_le_bytes());
        out.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
        for &(p_zero, children, one_bit) in nodes {
            out.extend_from_slice(&p_zero.to_bits().to_le_bytes());
            out.extend_from_slice(&children[0].to_le_bytes());
            out.extend_from_slice(&children[1].to_le_bytes());
            out.extend_from_slice(&one_bit.to_le_bytes());
        }
        out
    }

    #[test]
    fn snapshot_decode_rejects_arenas_the_walk_cannot_finish() {
        const T: u32 = TERMINAL;
        let valid = [(0.5, [1, 2], 0b10), (0.25, [T, T], 1), (1.0, [T, T], 1)];
        assert!(CompiledSampler::decode_snapshot(&payload(2, 0, &valid)).is_some());
        let rejected: [(&str, Vec<u8>); 9] = [
            // The root decides qubit 1 of a 3-qubit register.
            ("root below the top level", payload(3, 0, &valid)),
            ("root index not 0", payload(2, 1, &valid)),
            (
                "edge skipping a level",
                payload(3, 0, &[(0.5, [1, 1], 0b100), (0.5, [T, T], 1)]),
            ),
            (
                "terminal on a positive-probability branch above level 0",
                payload(2, 0, &[(0.5, [1, T], 0b10), (0.5, [T, T], 1)]),
            ),
            (
                "zero-mass node parked onto a missing child",
                payload(
                    2,
                    0,
                    &[(1.0, [2, 1], 0b10), (1.0, [T, 2], 0b10), (0.5, [T, T], 1)],
                ),
            ),
            (
                "child below level 0",
                payload(2, 0, &[(0.5, [1, 1], 0b10), (0.5, [1, 1], 1)]),
            ),
            (
                "edge pointing backwards",
                payload(
                    3,
                    0,
                    &[
                        (0.5, [2, 3], 0b100),
                        (0.5, [T, T], 1),
                        (0.5, [1, 1], 0b10),
                        (0.5, [1, 1], 0b10),
                    ],
                ),
            ),
            (
                "node no edge reaches",
                payload(1, 0, &[(0.5, [T, T], 1), (0.5, [T, T], 1)]),
            ),
            ("nodes without qubits", payload(0, 0, &[(0.5, [T, T], 1)])),
        ];
        for (what, bytes) in rejected {
            assert!(
                CompiledSampler::decode_snapshot(&bytes).is_none(),
                "accepted: {what}"
            );
        }
    }

    #[test]
    fn arenas_with_parked_zero_mass_nodes_round_trip() {
        const T: u32 = TERMINAL;
        // Node 2 is reached only through the root's zero-probability
        // 1-branch and parks its walk on its only child; node 3 sits below
        // it on the same dead path.
        let bytes = payload(
            3,
            0,
            &[
                (1.0, [1, 2], 0b100),
                (0.5, [4, 4], 0b10),
                (0.0, [T, 3], 0b10),
                (1.0, [T, T], 1),
                (0.25, [T, T], 1),
            ],
        );
        let sampler = CompiledSampler::decode_snapshot(&bytes).expect("genuine shape");
        let mut again = Vec::new();
        sampler.encode_snapshot(&mut again);
        assert_eq!(again, bytes);
        for shot in sampler.sample_many_parallel(3, 5000) {
            assert!(shot < 0b100, "dead path sampled: {shot:#b}");
        }
    }

    #[test]
    #[should_panic(expected = "level-complete")]
    fn compiling_a_level_skipping_diagram_panics() {
        let mut p = DdPackage::new();
        let one = p.vector_terminal(Complex::ONE);
        let top = p.make_vnode(2, one, VectorEdge::ZERO).unwrap();
        let _ = CompiledSampler::new(&p, &StateDd::from_root(top, 3));
    }

    /// The walk the lockstep kernel replaced, kept as the bit-identity
    /// reference: records read back from the snapshot payload (so their
    /// `one_bit` masks are the ones the 24-byte format stores), walked until
    /// the terminal, OR-ing in `one_bit` on every 1-branch.
    struct ReferenceWalk {
        nodes: Vec<(f64, [u32; 2], u64)>,
        root: u32,
    }

    impl ReferenceWalk {
        fn new(sampler: &CompiledSampler) -> Self {
            let mut bytes = Vec::new();
            sampler.encode_snapshot(&mut bytes);
            let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let half = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let nodes = (14..bytes.len())
                .step_by(24)
                .map(|at| {
                    (
                        f64::from_bits(word(at)),
                        [half(at + 8), half(at + 12)],
                        word(at + 16),
                    )
                })
                .collect();
            Self {
                nodes,
                root: half(2),
            }
        }

        fn sample(&self, rng: &mut impl Rng) -> u64 {
            let mut index = 0u64;
            let mut at = self.root;
            while at != TERMINAL {
                let (p_zero, children, one_bit) = self.nodes[at as usize];
                let one = u64::from(rng.gen::<f64>() >= p_zero);
                index |= one_bit & one.wrapping_neg();
                at = children[one as usize];
            }
            index
        }

        fn sample_parallel(&self, master_seed: u64, shots: usize) -> Vec<u64> {
            let mut out = Vec::with_capacity(shots);
            for chunk in 0..shots.div_ceil(PARALLEL_CHUNK_SHOTS) {
                let len = PARALLEL_CHUNK_SHOTS.min(shots - out.len());
                let mut rng = SmallRng::seed_from_u64(chunk_stream_seed(master_seed, chunk as u64));
                out.extend((0..len).map(|_| self.sample(&mut rng)));
            }
            out
        }
    }

    /// Every draw path of `sampler` against the reference walk, including
    /// how far each path advances the RNG.
    fn assert_matches_reference(sampler: &CompiledSampler, label: &str) {
        let reference = ReferenceWalk::new(sampler);
        for shots in [0, 1, 7, 8, 9, 17, 1023, 1024, 1025, 2 * 1024 + 3] {
            let mut ours = SmallRng::seed_from_u64(shots as u64);
            let mut theirs = ours.clone();
            let expected: Vec<u64> = (0..shots).map(|_| reference.sample(&mut theirs)).collect();
            assert_eq!(
                sampler.sample_many(&mut ours, shots),
                expected,
                "{label}: sample_many({shots})"
            );
            assert_eq!(ours.gen::<u64>(), theirs.gen::<u64>(), "{label}: RNG drift");
            let mut ours = SmallRng::seed_from_u64(shots as u64);
            let single: Vec<u64> = (0..shots).map(|_| sampler.sample(&mut ours)).collect();
            assert_eq!(single, expected, "{label}: sample x {shots}");
            let expected = reference.sample_parallel(99, shots);
            for threads in [1, 3] {
                assert_eq!(
                    sampler.sample_many_parallel_with_threads(99, shots, threads),
                    expected,
                    "{label}: {shots} parallel shots on {threads} threads"
                );
            }
        }
    }

    #[test]
    fn lockstep_walk_matches_the_reference_on_random_states() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for norm in [Normalization::TwoNorm, Normalization::LeftMost] {
            for n in 1..=9u16 {
                let amplitudes: Vec<Complex> = (0..1usize << n)
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            Complex::ZERO
                        } else {
                            Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
                        }
                    })
                    .collect();
                let mut p = DdPackage::with_normalization(norm);
                let Ok(s) = StateDd::from_amplitudes(&mut p, &amplitudes) else {
                    continue;
                };
                if s.root().is_zero() {
                    continue;
                }
                let sampler = CompiledSampler::new(&p, &s).unwrap();
                assert_matches_reference(&sampler, &format!("random {n} qubits, {norm:?}"));
            }
        }
    }

    #[test]
    fn lockstep_walk_matches_the_reference_on_catalogue_states() {
        let mut cases: Vec<(String, circuit::Circuit)> = vec![
            ("ghz_1".into(), algorithms::ghz(1)),
            ("ghz_12".into(), algorithms::ghz(12)),
            ("qft_9".into(), algorithms::qft(9, true)),
            (
                "supremacy_3x3_8".into(),
                algorithms::supremacy(3, 3, 8, 2).0,
            ),
        ];
        let mut one = circuit::Circuit::new(1);
        one.x(circuit::Qubit(0));
        cases.push(("x".into(), one));
        for (label, circuit) in cases {
            let mut p = DdPackage::new();
            let s = crate::simulate(&mut p, &circuit).unwrap();
            assert_matches_reference(&CompiledSampler::new(&p, &s).unwrap(), &label);
        }
        for (n, index) in [(0, 0), (1, 1), (6, 0b101101), (40, 0xab_cdef_0123)] {
            let mut p = DdPackage::new();
            let s = StateDd::basis_state(&mut p, n, index).unwrap();
            let sampler = CompiledSampler::new(&p, &s).unwrap();
            assert_matches_reference(&sampler, &format!("basis {index:#x} of {n}"));
            assert_eq!(
                sampler.sample_many(&mut StdRng::seed_from_u64(1), 9),
                vec![index; 9]
            );
        }
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        assert_matches_reference(&CompiledSampler::new(&p, &s).unwrap(), "paper example");
    }

    /// FNV-1a of a snapshot payload.
    fn payload_digest(sampler: &CompiledSampler) -> u64 {
        let mut bytes = Vec::new();
        sampler.encode_snapshot(&mut bytes);
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn snapshot_payloads_keep_the_24_byte_record_format() {
        // Digests of payloads written when nodes still stored `one_bit`:
        // deriving it from the level must reproduce them byte for byte.
        let mut p = DdPackage::new();
        let s = paper_example(&mut p);
        let paper = CompiledSampler::new(&p, &s).unwrap();
        let mut cases = vec![("paper example", paper, 0x7b69_546e_0c50_5e37)];
        for (label, circuit, digest) in [
            ("ghz_6", algorithms::ghz(6), 0xf5c5_be52_5e71_df5f_u64),
            ("qft_5", algorithms::qft(5, true), 0x0050_53b9_1daf_276b),
            (
                "supremacy_3x3_6",
                algorithms::supremacy(3, 3, 6, 1).0,
                0x8ddd_3242_6046_21f5,
            ),
        ] {
            let mut p = DdPackage::new();
            let s = crate::simulate(&mut p, &circuit).unwrap();
            cases.push((label, CompiledSampler::new(&p, &s).unwrap(), digest));
        }
        for (label, sampler, digest) in cases {
            assert_eq!(
                payload_digest(&sampler),
                digest,
                "{label}: {:#018x}",
                payload_digest(&sampler)
            );
        }
    }

    #[test]
    fn chunk_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for master in 0..4u64 {
            for chunk in 0..1000u64 {
                assert!(
                    seen.insert(chunk_stream_seed(master, chunk)),
                    "seed collision at master {master}, chunk {chunk}"
                );
            }
        }
    }
}
