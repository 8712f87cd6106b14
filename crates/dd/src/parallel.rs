//! Parallel decision-diagram construction with deterministic merging.
//!
//! # Why sharded overlays instead of one shared concurrent table
//!
//! The contract of this module is brutal: the root edge produced with `N`
//! construction workers must be **bit-identical** — same arena ids, same
//! interned-value ids, same unique-table statistics-relevant structure — to
//! the root produced with one worker, for every `N`.  A single shared
//! unique/compute table mutated by racing workers cannot deliver that:
//! tolerance-based value interning is *order dependent* (the first value to
//! claim a tolerance ball becomes its canonical representative), so any
//! schedule-dependent interleaving of inserts leaks into canonical ids and
//! from there into every downstream hash.  The design that survives the
//! requirement is the one implemented here:
//!
//! 1. **Freeze the master.**  During a gate's matrix–vector multiply the
//!    master package is read-only.  Workers probe its unique table
//!    (`DdPackage::find_vnode`) and value table ([`mathkit::CTable::probe`])
//!    through a plain shared reference — no locks, no contention, and no
//!    way for one worker to observe another.
//! 2. **Shard the growth.**  Each unit of work runs against a private
//!    *overlay*: a worker-local node arena, open-addressing unique table
//!    (the same `UniqueTable` type the master uses, keyed by the same
//!    precomputed 64-bit `hash_mix`/`hash_finish` digest) and tolerance
//!    value table, all offset-coded above the frozen master's watermarks.
//! 3. **Re-intern canonically at the sync point.**  After the workers join,
//!    overlay results are grafted into the master *in fixed task order*,
//!    value-by-value and node-by-node, through the same interning primitives
//!    the sequential path uses (`DdPackage::intern_vnode`).  The master
//!    therefore evolves through the exact same sequence of inserts no matter
//!    how many workers computed the overlays, which is what makes the merged
//!    root worker-count invariant.
//!
//! The overlay is fresh **per task**, not per worker: reusing one overlay
//! across a worker's whole task list would make its interning order depend
//! on *which* tasks the scheduler handed that worker, silently breaking
//! invariance.  A fresh overlay's content is a pure function of its task.
//!
//! # Work decomposition
//!
//! `build_plan` deterministically unrolls the top `SPLIT_DEPTH` levels
//! of the `multiply_nodes` recursion against the master (resolving terminal,
//! identity-shortcut and compute-cache hits on the spot) into a plan tree
//! whose leaves are the independent sub-cones of the gate.  Leaves are
//! deduplicated by their `(matrix node, vector node)` key — the same key the
//! sequential compute cache uses — and become the task list.  Workers claim
//! contiguous task chunks under a `rayon`-shim scoped pool; the plan itself
//! is evaluated sequentially in the master after the graft, re-using the
//! grafted task results through the master compute cache.
//!
//! Note that the task list, the graft order and the plan evaluation are all
//! independent of the worker count; workers only decide *who* computes an
//! overlay, never what it contains or when it lands in the master.
//!
//! # Governance
//!
//! Every overlay checkpoints through a [`Governor::worker_view`], which
//! shares the master governor's amortization counter, deadline, cancellation
//! token and fault-injection plan — so budget/deadline/cancel checkpoints
//! (and injected faults) aggregate *across* workers exactly as they would
//! accumulate in a single-threaded run.  Node-budget pressure is aggregated
//! through a `SharedAlloc`: each overlay unique-table miss bumps one
//! shared atomic and re-checks the combined footprint, so a fleet of workers
//! cannot overshoot the budget by a factor of the worker count.  A failing
//! task surfaces the lowest-task-index error after the join; since workers
//! never touch the master, the package stays fully usable and a retry (or a
//! fresh run) is unaffected.

use crate::edge::{MatrixEdge, MatrixNodeId, VectorEdge, VectorNodeId, WeightId};
use crate::govern::{DdError, Governor};
use crate::node::VectorNode;
use crate::ops;
use crate::package::{DdPackage, Normalization, UniqueTable};
use mathkit::{hash_finish, hash_mix, CTable, Complex, FxHashMap};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of top recursion levels unrolled into the task plan.  Up to
/// `4^SPLIT_DEPTH` leaves before deduplication — enough independent cones to
/// feed a small worker pool without fragmenting the work into cache-hostile
/// crumbs.
const SPLIT_DEPTH: u16 = 3;

/// Offset-code for the terminal node (mirrors `VectorNodeId::TERMINAL`).
const O_TERMINAL: u32 = u32::MAX;

/// Approximate cost of one overlay node charged against the byte budget:
/// the node payload plus one unique-table slot.
const NODE_COST: u64 = (size_of::<VectorNode>() + 16) as u64;

/// Cross-worker allocation aggregate for budget checks.
///
/// `base_*` snapshot the master's footprint at spawn time; every overlay
/// unique-table miss adds one node to `extra_nodes`, so each worker checks
/// the governor against the *combined* fleet footprint, not its own slice.
struct SharedAlloc {
    extra_nodes: AtomicU64,
    base_nodes: u64,
    base_bytes: u64,
}

/// An offset-coded interned weight: component indexes `< cbase` address the
/// frozen master value table, anything above is `cbase +` a worker-local
/// value id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct OWeight {
    re: u32,
    im: u32,
}

impl OWeight {
    /// Master ids 0/1 are the pre-interned `0.0`/`1.0`, so the canonical
    /// zero/one weights are representable without touching any table.
    const ZERO: OWeight = OWeight { re: 0, im: 0 };
    const ONE: OWeight = OWeight { re: 1, im: 0 };

    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }
}

/// An offset-coded edge: targets `< vbase` are frozen master nodes,
/// [`O_TERMINAL`] is the terminal, anything else is `vbase +` a local index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct OEdge {
    target: u32,
    weight: OWeight,
}

impl OEdge {
    const ZERO: OEdge = OEdge {
        target: O_TERMINAL,
        weight: OWeight::ZERO,
    };
    const ONE: OEdge = OEdge {
        target: O_TERMINAL,
        weight: OWeight::ONE,
    };

    #[inline]
    fn is_zero(self) -> bool {
        self.weight.is_zero()
    }
}

/// A worker-local vector node over offset-coded edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ONode {
    var: u16,
    children: [OEdge; 2],
}

/// Hashes an overlay node with the same fold/finish scheme as the master's
/// `vnode_hash`, over the offset-coded payload.
#[inline]
fn onode_hash(node: &ONode) -> u64 {
    let mut h = hash_mix(0, u64::from(node.var));
    for child in node.children {
        h = hash_mix(h, u64::from(child.target));
        h = hash_mix(
            h,
            (u64::from(child.weight.re) << 32) | u64::from(child.weight.im),
        );
    }
    hash_finish(h)
}

/// The result of one task: an offset-coded root plus the worker-local node
/// arena and value table it refers into.  Everything needed to graft, and
/// nothing referencing the worker that produced it.
struct TaskOutput {
    root: OEdge,
    nodes: Vec<ONode>,
    values: Vec<f64>,
}

/// A worker-private construction shard over a frozen master package.
///
/// Mirrors the sequential `multiply_nodes`/`add`/`make_vnode` recursion of
/// `ops.rs`/`package.rs` step for step — same shortcuts, same normalization,
/// same tolerance snapping — so an overlay computes the same *values* the
/// sequential path would, merely under local ids.
struct Overlay<'a> {
    master: &'a DdPackage,
    /// Master node-arena watermark: targets below are shared, frozen nodes.
    vbase: u32,
    /// Master value-table watermark: indexes below are shared, frozen values.
    cbase: u32,
    normalization: Normalization,
    nodes: Vec<ONode>,
    table: UniqueTable,
    values: CTable,
    add_cache: FxHashMap<(OEdge, OEdge), OEdge>,
    mul_cache: FxHashMap<(u32, u32), OEdge>,
    governor: Governor,
    shared: &'a SharedAlloc,
}

impl<'a> Overlay<'a> {
    fn new(master: &'a DdPackage, shared: &'a SharedAlloc) -> Self {
        let tolerance = master.ctable().tolerance();
        Self {
            master,
            vbase: master.vnode_base(),
            cbase: master.ctable().len() as u32,
            normalization: master.normalization(),
            nodes: Vec::new(),
            table: UniqueTable::with_slots(1 << 8),
            values: CTable::with_tolerance(tolerance),
            add_cache: FxHashMap::default(),
            mul_cache: FxHashMap::default(),
            governor: master.governor().worker_view(),
            shared,
        }
    }

    /// Decodes an offset-coded value index.
    #[inline]
    fn value(&self, index: u32) -> f64 {
        if index < self.cbase {
            self.master.ctable().values()[index as usize]
        } else {
            self.values.values()[(index - self.cbase) as usize]
        }
    }

    #[inline]
    fn weight_value(&self, w: OWeight) -> Complex {
        Complex::new(self.value(w.re), self.value(w.im))
    }

    /// Interns one real component: the frozen master is probed first so
    /// master-known values keep their canonical ids; only genuinely new
    /// values land in the worker-local table (offset above `cbase`).
    fn intern(&mut self, value: f64) -> u32 {
        if let Some(id) = self.master.ctable().probe(value) {
            return id.index() as u32;
        }
        self.cbase + self.values.intern(value).index() as u32
    }

    /// Mirrors `DdPackage::weight`: snap components within tolerance of zero
    /// to the canonical `0.0`, then intern both.
    fn weight(&mut self, value: Complex) -> OWeight {
        let tol = self.values.tolerance().eps();
        let re = if value.re.abs() <= tol { 0.0 } else { value.re };
        let im = if value.im.abs() <= tol { 0.0 } else { value.im };
        OWeight {
            re: self.intern(re),
            im: self.intern(im),
        }
    }

    /// Mirrors `DdPackage::vector_edge`.
    fn edge(&mut self, target: u32, value: Complex) -> OEdge {
        let weight = self.weight(value);
        if weight.is_zero() {
            OEdge::ZERO
        } else {
            OEdge { target, weight }
        }
    }

    /// Mirrors `DdPackage::scale_vedge`.
    fn scale(&mut self, edge: OEdge, factor: Complex) -> OEdge {
        if edge.is_zero() {
            return OEdge::ZERO;
        }
        self.edge(edge.target, self.weight_value(edge.weight) * factor)
    }

    /// Re-codes a frozen master edge; master value ids are below `cbase` by
    /// construction, so the raw indexes transfer unchanged.
    #[inline]
    fn of_master(&self, edge: VectorEdge) -> OEdge {
        OEdge {
            target: if edge.target.is_terminal() {
                O_TERMINAL
            } else {
                edge.target.0
            },
            weight: OWeight {
                re: edge.weight.re.index() as u32,
                im: edge.weight.im.index() as u32,
            },
        }
    }

    /// The node behind a non-terminal offset-coded target.
    fn node(&self, target: u32) -> ONode {
        if target >= self.vbase {
            self.nodes[(target - self.vbase) as usize]
        } else {
            let node = self.master.vnode(VectorNodeId(target));
            ONode {
                var: node.var,
                children: [
                    self.of_master(node.children[0]),
                    self.of_master(node.children[1]),
                ],
            }
        }
    }

    /// If every component of `node` lives in the frozen master, the
    /// equivalent `VectorNode` (so the master unique table can be probed).
    fn as_master_node(&self, node: &ONode) -> Option<VectorNode> {
        let mut children = [VectorEdge::ZERO; 2];
        for (slot, child) in children.iter_mut().zip(node.children) {
            if child.is_zero() {
                continue;
            }
            if child.target != O_TERMINAL && child.target >= self.vbase {
                return None;
            }
            if child.weight.re >= self.cbase || child.weight.im >= self.cbase {
                return None;
            }
            *slot = VectorEdge {
                target: if child.target == O_TERMINAL {
                    VectorNodeId::TERMINAL
                } else {
                    VectorNodeId(child.target)
                },
                weight: WeightId {
                    re: self.master.ctable().id_at(child.weight.re as usize),
                    im: self.master.ctable().id_at(child.weight.im as usize),
                },
            };
        }
        Some(VectorNode {
            var: node.var,
            children,
        })
    }

    /// Mirrors `DdPackage::make_vnode`: checkpoint, normalize, canonicalize
    /// children, dedup — first against the frozen master, then the local
    /// shard — and charge the shared budget on a genuine allocation.
    fn make_node(&mut self, var: u16, zero: OEdge, one: OEdge) -> Result<OEdge, DdError> {
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
            return Ok(OEdge::ZERO);
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
        let node = ONode {
            var,
            children: [zero_edge, one_edge],
        };
        let target = self.intern_node(node)?;
        let weight = self.weight(factor);
        Ok(OEdge { target, weight })
    }

    fn canonical_child(&mut self, child: OEdge, normalized_weight: Complex) -> OEdge {
        let weight = self.weight(normalized_weight);
        if weight.is_zero() {
            OEdge::ZERO
        } else {
            OEdge {
                target: child.target,
                weight,
            }
        }
    }

    fn intern_node(&mut self, node: ONode) -> Result<u32, DdError> {
        // A node whose components are all master-frozen may already exist
        // canonically in the master; recognising it keeps the overlay (and
        // the graft) proportional to the genuinely new diagram.
        if let Some(master_node) = self.as_master_node(&node) {
            if let Some(id) = self.master.find_vnode(&master_node) {
                return Ok(id.0);
            }
        }
        let hash = onode_hash(&node);
        let nodes = &self.nodes;
        if let Some(local) = self.table.find(hash, |id| nodes[id as usize] == node) {
            return Ok(self.vbase + local);
        }
        // A miss is the only place the shard grows: charge the shared
        // cross-worker aggregate and re-check the combined footprint.
        let extra = self.shared.extra_nodes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.governor.is_limited() {
            self.governor.check_budget(
                self.shared.base_nodes + extra,
                self.shared.base_bytes + extra * NODE_COST,
            )?;
        }
        let local = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| self.vbase.checked_add(id).is_some_and(|t| t != O_TERMINAL))
            .ok_or(DdError::ArenaOverflow { arena: "vector" })?;
        self.nodes.push(node);
        self.table.insert(hash, local);
        Ok(self.vbase + local)
    }

    /// Mirrors `ops::add` over offset-coded edges.
    fn add(&mut self, a: OEdge, b: OEdge) -> Result<OEdge, DdError> {
        if a.is_zero() {
            return Ok(b);
        }
        if b.is_zero() {
            return Ok(a);
        }
        if a.target == b.target {
            let value = self.weight_value(a.weight) + self.weight_value(b.weight);
            return Ok(self.edge(a.target, value));
        }

        let key = if (a.target, a.weight) <= (b.target, b.weight) {
            (a, b)
        } else {
            (b, a)
        };
        if let Some(&cached) = self.add_cache.get(&key) {
            return Ok(cached);
        }

        let a_node = self.node(a.target);
        let b_node = self.node(b.target);
        debug_assert_eq!(a_node.var, b_node.var);
        let wa = self.weight_value(a.weight);
        let wb = self.weight_value(b.weight);

        let mut children = [OEdge::ZERO; 2];
        for (bit, child) in children.iter_mut().enumerate() {
            let left = self.scale(a_node.children[bit], wa);
            let right = self.scale(b_node.children[bit], wb);
            *child = self.add(left, right)?;
        }
        let result = self.make_node(a_node.var, children[0], children[1])?;
        self.add_cache.insert(key, result);
        Ok(result)
    }

    /// Mirrors `ops::multiply_nodes`: the product of the sub-diagrams below
    /// `m` and `v`, incoming weights applied by the caller.  `m` is always a
    /// frozen master matrix node (overlays never build operators), and `v`
    /// descends through master state nodes only — locals arise purely as
    /// results.
    fn mul(&mut self, m: MatrixNodeId, v: u32) -> Result<OEdge, DdError> {
        if m.is_terminal() && v == O_TERMINAL {
            return Ok(OEdge::ONE);
        }
        debug_assert!(
            !m.is_terminal() && v != O_TERMINAL,
            "operator and state DDs must span the same qubits"
        );

        if self.master.is_identity_mnode(m) {
            return Ok(OEdge {
                target: v,
                weight: OWeight::ONE,
            });
        }

        let key = (m.0, v);
        if let Some(&cached) = self.mul_cache.get(&key) {
            return Ok(cached);
        }

        let m_node = *self.master.mnode(m);
        let v_node = self.node(v);
        debug_assert_eq!(
            m_node.var, v_node.var,
            "operator level {} does not match state level {}",
            m_node.var, v_node.var
        );

        let mut children = [OEdge::ZERO; 2];
        for (row, child) in children.iter_mut().enumerate() {
            let mut acc = OEdge::ZERO;
            for col in 0..2 {
                let m_child = m_node.children[2 * row + col];
                let v_child = v_node.children[col];
                if m_child.is_zero() || v_child.is_zero() {
                    continue;
                }
                let sub = self.mul(m_child.target, v_child.target)?;
                let factor =
                    self.master.weight_value(m_child.weight) * self.weight_value(v_child.weight);
                let term = self.scale(sub, factor);
                acc = self.add(acc, term)?;
            }
            *child = acc;
        }
        let result = self.make_node(m_node.var, children[0], children[1])?;
        self.mul_cache.insert(key, result);
        Ok(result)
    }
}

/// One fully-private task: build the product cone below `(m, v)` in a fresh
/// overlay.  The output is a pure function of `(master, m, v)` — never of
/// which worker ran it or what ran before it on the same thread.
fn run_task(
    master: &DdPackage,
    shared: &SharedAlloc,
    m: MatrixNodeId,
    v: VectorNodeId,
) -> Result<TaskOutput, DdError> {
    let mut overlay = Overlay::new(master, shared);
    let v_code = if v.is_terminal() { O_TERMINAL } else { v.0 };
    let root = overlay.mul(m, v_code)?;
    Ok(TaskOutput {
        root,
        nodes: overlay.nodes,
        values: overlay.values.values().to_vec(),
    })
}

/// The deterministic decomposition of a multiply into master-resolved edges,
/// task references and sequential combine steps.
enum Plan {
    /// Resolved against the master while planning (terminal pair, identity
    /// shortcut or compute-cache hit).
    Ready(VectorEdge),
    /// The result of the task at this index in the task list.
    Task(usize),
    /// A combine node: each row's weighted terms are summed and the two row
    /// results become the children of a fresh node at `var`; the result is
    /// entered into the master compute cache under `key`.
    Split {
        key: (MatrixNodeId, VectorNodeId),
        var: u16,
        rows: [Vec<(Complex, Plan)>; 2],
    },
}

/// Unrolls the top `depth` levels of the multiply recursion against the
/// master, deduplicating leaves into `tasks` by their compute-cache key.
fn build_plan(
    package: &mut DdPackage,
    m: MatrixNodeId,
    v: VectorNodeId,
    depth: u16,
    tasks: &mut Vec<(MatrixNodeId, VectorNodeId)>,
    index: &mut FxHashMap<(MatrixNodeId, VectorNodeId), usize>,
) -> Plan {
    if m.is_terminal() && v.is_terminal() {
        return Plan::Ready(VectorEdge::ONE);
    }
    if package.is_identity_mnode(m) {
        return Plan::Ready(VectorEdge {
            target: v,
            weight: WeightId::ONE,
        });
    }
    if let Some(cached) = package.mv_cache.lookup((m, v)) {
        return Plan::Ready(cached);
    }
    if depth == 0 {
        let task = *index.entry((m, v)).or_insert_with(|| {
            tasks.push((m, v));
            tasks.len() - 1
        });
        return Plan::Task(task);
    }

    let m_node = *package.mnode(m);
    let v_node = *package.vnode(v);
    debug_assert_eq!(m_node.var, v_node.var);

    let mut rows: [Vec<(Complex, Plan)>; 2] = [Vec::new(), Vec::new()];
    for (row, terms) in rows.iter_mut().enumerate() {
        for col in 0..2 {
            let m_child = m_node.children[2 * row + col];
            let v_child = v_node.children[col];
            if m_child.is_zero() || v_child.is_zero() {
                continue;
            }
            let factor =
                package.weight_value(m_child.weight) * package.weight_value(v_child.weight);
            let sub = build_plan(
                package,
                m_child.target,
                v_child.target,
                depth - 1,
                tasks,
                index,
            );
            terms.push((factor, sub));
        }
    }
    Plan::Split {
        key: (m, v),
        var: m_node.var,
        rows,
    }
}

/// Combines grafted task results through the master, mirroring the term
/// order of the sequential `multiply_nodes` loop.
fn eval_plan(
    package: &mut DdPackage,
    plan: &Plan,
    task_edges: &[VectorEdge],
) -> Result<VectorEdge, DdError> {
    match plan {
        Plan::Ready(edge) => Ok(*edge),
        Plan::Task(i) => Ok(task_edges[*i]),
        Plan::Split { key, var, rows } => {
            let mut children = [VectorEdge::ZERO; 2];
            for (row, terms) in rows.iter().enumerate() {
                let mut acc = VectorEdge::ZERO;
                for (factor, sub) in terms {
                    let sub_edge = eval_plan(package, sub, task_edges)?;
                    let term = package.scale_vedge(sub_edge, *factor);
                    acc = ops::add(package, acc, term)?;
                }
                children[row] = acc;
            }
            let result = package.make_vnode(*var, children[0], children[1])?;
            package.mv_cache.insert(*key, result);
            Ok(result)
        }
    }
}

/// Canonically re-interns one task's overlay into the master, in arena order
/// (a topological order: overlay children always precede their parents), and
/// returns the task root as a master edge.
fn graft(
    package: &mut DdPackage,
    vbase: u32,
    cbase: u32,
    out: &TaskOutput,
) -> Result<VectorEdge, DdError> {
    let mut map: Vec<VectorNodeId> = Vec::with_capacity(out.nodes.len());
    for onode in &out.nodes {
        let mut children = [VectorEdge::ZERO; 2];
        for (slot, child) in children.iter_mut().zip(onode.children) {
            *slot = decode_edge(package, vbase, cbase, &out.values, &map, child);
        }
        let id = package.intern_vnode(VectorNode {
            var: onode.var,
            children,
        })?;
        map.push(id);
    }
    Ok(decode_edge(
        package,
        vbase,
        cbase,
        &out.values,
        &map,
        out.root,
    ))
}

/// Decodes an offset-coded edge into a master edge: master targets transfer
/// unchanged, local targets go through the graft map, and weights are
/// re-interned by value through the master table (master-known values keep
/// their canonical ids — stored values are pairwise farther than the
/// tolerance apart, so re-interning an exactly-stored value is a hit on
/// itself).
fn decode_edge(
    package: &mut DdPackage,
    vbase: u32,
    cbase: u32,
    values: &[f64],
    map: &[VectorNodeId],
    edge: OEdge,
) -> VectorEdge {
    if edge.is_zero() {
        return VectorEdge::ZERO;
    }
    let component = |package: &DdPackage, index: u32| -> f64 {
        if index < cbase {
            package.ctable().values()[index as usize]
        } else {
            values[(index - cbase) as usize]
        }
    };
    let re = component(package, edge.weight.re);
    let im = component(package, edge.weight.im);
    let weight = package.weight(Complex::new(re, im));
    if weight.is_zero() {
        return VectorEdge::ZERO;
    }
    let target = if edge.target == O_TERMINAL {
        VectorNodeId::TERMINAL
    } else if edge.target < vbase {
        VectorNodeId(edge.target)
    } else {
        map[(edge.target - vbase) as usize]
    };
    VectorEdge { target, weight }
}

/// Matrix–vector multiply with the gate cone fanned out over `workers`
/// construction workers.
///
/// For any `workers >= 1` the result — and the master package's entire
/// post-call state — is bit-identical to the `workers == 1` run: the task
/// decomposition, graft order and combine order are fixed, and worker
/// overlays are pure functions of the frozen master.  (The result is
/// numerically equal, but not bit-identical, to the fully sequential
/// [`ops::matrix_vector_multiply`], whose interning order differs.)
///
/// # Errors
///
/// Fails with a [`DdError`] when the governor interrupts any worker or the
/// merge (budget, deadline, cancellation, injected fault) or an arena
/// overflows.  The first error in task order wins; the master package is
/// never left half-mutated by a failing worker, because workers only read it.
pub(crate) fn matrix_vector_multiply_parallel(
    package: &mut DdPackage,
    m: MatrixEdge,
    v: VectorEdge,
    workers: usize,
) -> Result<VectorEdge, DdError> {
    if m.is_zero() || v.is_zero() {
        return Ok(VectorEdge::ZERO);
    }
    let factor = package.weight_value(m.weight) * package.weight_value(v.weight);

    let mut tasks = Vec::new();
    let mut index = FxHashMap::default();
    let plan = build_plan(
        package,
        m.target,
        v.target,
        SPLIT_DEPTH,
        &mut tasks,
        &mut index,
    );

    let vbase = package.vnode_base();
    let cbase = package.ctable().len() as u32;

    let mut outputs: Vec<TaskOutput> = Vec::with_capacity(tasks.len());
    if !tasks.is_empty() {
        let shared = SharedAlloc {
            extra_nodes: AtomicU64::new(0),
            base_nodes: (package.allocated_vector_nodes() + package.allocated_matrix_nodes())
                as u64,
            base_bytes: package.approx_allocated_bytes(),
        };
        let workers = workers.max(1).min(tasks.len());
        let chunk = tasks.len().div_ceil(workers);
        let mut slots: Vec<Option<Result<TaskOutput, DdError>>> = Vec::new();
        slots.resize_with(tasks.len(), || None);
        {
            let master: &DdPackage = package;
            let shared = &shared;
            rayon::scope(|scope| {
                for (task_chunk, out_chunk) in tasks.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (&(tm, tv), out) in task_chunk.iter().zip(out_chunk.iter_mut()) {
                            *out = Some(run_task(master, shared, tm, tv));
                        }
                    });
                }
            });
        }
        for slot in slots {
            match slot {
                Some(Ok(output)) => outputs.push(output),
                // First error in task order wins, so failures are
                // reported identically for every worker count.
                Some(Err(e)) => return Err(e),
                // The scoped pool joins every worker before returning, and
                // a worker panic propagates out of `scope`.
                None => unreachable!("scoped worker exited without reporting"),
            }
        }
    }

    let mut task_edges = Vec::with_capacity(outputs.len());
    for (task, output) in tasks.iter().zip(&outputs) {
        let edge = graft(package, vbase, cbase, output)?;
        // Feed the master compute cache so sibling cones and later gates
        // reuse the grafted result exactly as the sequential path would.
        package.mv_cache.insert(*task, edge);
        task_edges.push(edge);
    }

    let normalized = eval_plan(package, &plan, &task_edges)?;
    Ok(package.scale_vedge(normalized, factor))
}
