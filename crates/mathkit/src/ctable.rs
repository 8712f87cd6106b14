//! Canonical complex-value interning.
//!
//! Decision-diagram node sharing requires that edge weights which are "the
//! same number up to floating-point round-off" compare equal and hash to the
//! same bucket.  Following the implementation strategy of Zulehner, Hillmich
//! and Wille ("How to efficiently handle complex values?", ICCAD 2019 —
//! reference \[24\] of the reproduced paper), the [`CTable`] interns `f64`
//! values under an absolute tolerance and hands out stable [`ValueId`]s.
//! Two interned values are equal if and only if their ids are equal, so
//! downstream hash tables can key on the ids directly.
//!
//! # Layout
//!
//! Values are filed under *buckets* of width `2 * eps`, so a value and
//! everything within tolerance of it lie in its own or an adjacent bucket.
//! The table is two flat arrays:
//!
//! * `values`, the interned `f64`s indexed by [`ValueId`], and
//! * `slots`, an open-addressing index with linear probing.  Each slot holds
//!   the low 32 bits of a value's bucket number and the value's id (8 bytes).
//!
//! Entries are never deleted, so the entries of one bucket sit along its
//! probe sequence in insertion order.  A lookup scans the value's own bucket,
//! then the lower and the upper neighbour, and returns the first entry within
//! tolerance: the oldest match in the nearest bucket.  Buckets whose numbers
//! agree in the low 32 bits are at least `2^32 - 1` bucket widths apart, so
//! their values never pass the tolerance check and the truncated key cannot
//! cause a false match.  A hit allocates nothing.  A miss pushes one value
//! and writes one slot.  The only allocations are the two arrays doubling:
//! `values` as a `Vec` does, the index (by a linear rehash of `values`)
//! when it is half full.

use crate::tolerance::Tolerance;
use crate::Complex;
use crate::HASH_AVALANCHE;

/// A stable identifier for an interned real value in a [`CTable`].
///
/// Ids are never reused; comparing ids is equivalent to comparing the
/// underlying values under the table's tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// The id of the pre-interned value `0.0`.
    pub const ZERO: ValueId = ValueId(0);
    /// The id of the pre-interned value `1.0`.
    pub const ONE: ValueId = ValueId(1);

    /// The raw index of this id (useful for dense side tables).
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Occupancy statistics of a [`CTable`], useful when reporting memory use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CTableStats {
    /// Number of distinct interned values.
    pub entries: usize,
    /// Number of lookups that found an existing entry.
    pub hits: u64,
    /// Number of lookups that inserted a new entry.
    pub misses: u64,
}

/// A tolerance-based interning table for real values.
///
/// # Examples
///
/// ```
/// use mathkit::CTable;
///
/// let mut table = CTable::new();
/// let a = table.intern(std::f64::consts::FRAC_1_SQRT_2);
/// let b = table.intern(1.0 / 2.0_f64.sqrt());
/// assert_eq!(a, b); // same value up to round-off, same id
/// ```
#[derive(Debug, Clone)]
pub struct CTable {
    values: Vec<f64>,
    /// Open-addressing index over `values` (power-of-two length, at most
    /// half full).
    slots: Vec<Slot>,
    /// Bucket width, `2 * eps` (at least `f64::MIN_POSITIVE`).
    width: f64,
    tolerance: Tolerance,
    hits: u64,
    misses: u64,
}

/// Marks an empty index slot; `ValueId`s stop below it (see `intern`).
const EMPTY: u32 = u32::MAX;

/// Initial number of index slots.
const INITIAL_SLOTS: usize = 1 << 7;

/// One index entry: the low 32 bits of the value's bucket and its id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    bucket: u32,
    id: u32,
}

const EMPTY_SLOT: Slot = Slot {
    bucket: 0,
    id: EMPTY,
};

impl CTable {
    /// Creates a table with the [default tolerance](crate::DEFAULT_TOLERANCE),
    /// pre-populated with `0.0` and `1.0` (ids [`ValueId::ZERO`] and
    /// [`ValueId::ONE`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_tolerance(Tolerance::default())
    }

    /// Creates a table with an explicit tolerance.
    #[must_use]
    pub fn with_tolerance(tolerance: Tolerance) -> Self {
        let mut table = Self {
            values: Vec::with_capacity(INITIAL_SLOTS / 2),
            slots: vec![EMPTY_SLOT; INITIAL_SLOTS],
            // A value and anything within tolerance of it land in the same
            // or an adjacent bucket.
            width: (tolerance.eps() * 2.0).max(f64::MIN_POSITIVE),
            tolerance,
            hits: 0,
            misses: 0,
        };
        for (id, value) in [(ValueId::ZERO, 0.0), (ValueId::ONE, 1.0)] {
            table.values.push(value);
            table.place(table.bucket_of(value), id.0);
        }
        table
    }

    /// The tolerance used for equality.
    #[must_use]
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }

    #[inline]
    fn bucket_of(&self, value: f64) -> i64 {
        (value / self.width).round() as i64
    }

    /// The home slot of `bucket` (Fibonacci hashing: consecutive buckets
    /// spread over the whole index).
    #[inline]
    fn home(&self, bucket: i64) -> usize {
        let hash = (bucket as u64).wrapping_mul(HASH_AVALANCHE);
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The oldest entry of `bucket` within tolerance of `value`.
    #[inline]
    fn find_in(&self, bucket: i64, value: f64) -> Option<ValueId> {
        let mask = self.slots.len() - 1;
        let key = bucket as u32;
        let mut i = self.home(bucket);
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.bucket == key && self.tolerance.eq(self.values[slot.id as usize], value) {
                return Some(ValueId(slot.id));
            }
            i = (i + 1) & mask;
        }
    }

    /// The lookup phase shared by [`intern`](Self::intern) and
    /// [`probe`](Self::probe): the value's own bucket first, then its lower
    /// and upper neighbours.  Returns the bucket for a following insert.
    #[inline]
    fn find(&self, value: f64) -> (i64, Option<ValueId>) {
        let bucket = self.bucket_of(value);
        let found = self
            .find_in(bucket, value)
            .or_else(|| self.find_in(bucket.wrapping_sub(1), value))
            .or_else(|| self.find_in(bucket.wrapping_add(1), value));
        (bucket, found)
    }

    /// Writes the index entry of `id` into the first free slot of its
    /// bucket's probe sequence, after all older entries of that bucket.
    fn place(&mut self, bucket: i64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(bucket);
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot {
            bucket: bucket as u32,
            id,
        };
    }

    /// Doubles the index and re-places every value in id order, which keeps
    /// each bucket's entries in insertion order.
    fn grow(&mut self) {
        self.slots = vec![EMPTY_SLOT; self.slots.len() * 2];
        for id in 0..self.values.len() {
            let bucket = self.bucket_of(self.values[id]);
            self.place(bucket, id as u32);
        }
    }

    /// Interns `value`, returning the id of an existing entry within
    /// tolerance or inserting a new entry.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite — non-finite amplitudes always
    /// indicate a bug further up the stack and must not be silently interned.
    pub fn intern(&mut self, value: f64) -> ValueId {
        assert!(value.is_finite(), "cannot intern non-finite value {value}");
        // The pre-interned constants are the oldest entries of their buckets,
        // so the search would return them; zero (either sign) is the most
        // common component of all.
        if value == 0.0 || value == 1.0 {
            self.hits += 1;
            return if value == 0.0 {
                ValueId::ZERO
            } else {
                ValueId::ONE
            };
        }
        let (bucket, found) = self.find(value);
        if let Some(id) = found {
            self.hits += 1;
            return id;
        }
        let id = u32::try_from(self.values.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("complex table overflow");
        self.values.push(value);
        if self.values.len() * 2 > self.slots.len() {
            // The new value is placed by the rehash.
            self.grow();
        } else {
            self.place(bucket, id);
        }
        self.misses += 1;
        ValueId(id)
    }

    /// Interns both components of a complex number.
    pub fn intern_complex(&mut self, z: Complex) -> (ValueId, ValueId) {
        (self.intern(z.re), self.intern(z.im))
    }

    /// Read-only lookup: the id of an existing entry within tolerance of
    /// `value`, or `None` without interning anything.
    ///
    /// This is the concurrent-interning primitive used by parallel
    /// decision-diagram construction: worker threads probe a *frozen* master
    /// table through a shared reference (no lock needed — the table is not
    /// mutated during the parallel region) and only values the master does
    /// not know yet go into a worker-private table, to be canonically
    /// re-interned at the sync point.  The search is exactly the lookup
    /// phase of [`intern`](Self::intern), so `probe(x).is_none()` guarantees
    /// a subsequent `intern(x)` on the same (unmodified) table would insert.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite, like [`intern`](Self::intern).
    #[must_use]
    pub fn probe(&self, value: f64) -> Option<ValueId> {
        assert!(value.is_finite(), "cannot probe non-finite value {value}");
        let value = if value == 0.0 { 0.0 } else { value };
        self.find(value).1
    }

    /// The interned values as a dense slice, indexed by
    /// [`ValueId::index`].  Useful for offset-coded side tables that address
    /// a frozen table's values without constructing ids.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The id addressing the entry at `index` — the inverse of
    /// [`ValueId::index`], validated against this table so ids cannot be
    /// fabricated for slots that do not exist.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn id_at(&self, index: usize) -> ValueId {
        assert!(
            index < self.values.len(),
            "value index {index} out of range (table has {} entries)",
            self.values.len()
        );
        ValueId(index as u32)
    }

    /// The value stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    #[must_use]
    pub fn value(&self, id: ValueId) -> f64 {
        self.values[id.index()]
    }

    /// Reconstructs a complex number from a pair of interned components.
    #[must_use]
    pub fn complex(&self, re: ValueId, im: ValueId) -> Complex {
        Complex::new(self.value(re), self.value(im))
    }

    /// The number of distinct interned values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Bytes held by the value array and the index.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
            + self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// Returns `true` if only the pre-populated constants are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.len() <= 2
    }

    /// Lookup statistics.
    #[must_use]
    pub fn stats(&self) -> CTableStats {
        CTableStats {
            entries: self.values.len(),
            hits: self.hits,
            misses: self.misses,
        }
    }
}

impl Default for CTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preinterned_constants() {
        let mut t = CTable::new();
        assert_eq!(t.intern(0.0), ValueId::ZERO);
        assert_eq!(t.intern(1.0), ValueId::ONE);
        assert_eq!(t.value(ValueId::ZERO), 0.0);
        assert_eq!(t.value(ValueId::ONE), 1.0);
    }

    #[test]
    fn values_within_tolerance_share_an_id() {
        let mut t = CTable::new();
        let a = t.intern(0.5);
        let b = t.intern(0.5 + 1e-12);
        let c = t.intern(0.5 - 1e-12);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(t.len(), 3); // 0, 1, 0.5
    }

    #[test]
    fn values_outside_tolerance_get_fresh_ids() {
        let mut t = CTable::new();
        let a = t.intern(0.5);
        let b = t.intern(0.5001);
        assert_ne!(a, b);
    }

    #[test]
    fn negative_zero_is_zero() {
        let mut t = CTable::new();
        assert_eq!(t.intern(-0.0), ValueId::ZERO);
    }

    #[test]
    fn complex_roundtrip() {
        let mut t = CTable::new();
        let z = Complex::new(0.25, -0.75);
        let (re, im) = t.intern_complex(z);
        assert_eq!(t.complex(re, im), z);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut t = CTable::new();
        t.intern(0.3);
        t.intern(0.3);
        t.intern(0.7);
        let s = t.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn boundary_values_near_bucket_edges_still_match() {
        let mut t = CTable::new();
        // Construct values straddling a bucket boundary but within tolerance.
        let eps = t.tolerance().eps();
        let base = 123.0 * (2.0 * eps) + eps; // sits exactly on a boundary
        let a = t.intern(base - 0.4 * eps);
        let b = t.intern(base + 0.4 * eps);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn interning_nan_panics() {
        let mut t = CTable::new();
        let _ = t.intern(f64::NAN);
    }

    #[test]
    fn many_distinct_values() {
        let mut t = CTable::new();
        let ids: Vec<_> = (0..1000).map(|i| t.intern(i as f64 * 0.001)).collect();
        // Re-interning returns the identical ids.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(t.intern(i as f64 * 0.001), id);
        }
    }
}
