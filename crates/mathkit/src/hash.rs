//! A small, fast, deterministic hasher for hot lookup tables.
//!
//! The decision-diagram unique table and compute table perform a hash lookup
//! per recursive call; the default SipHash hasher of `std::collections`
//! dominates profiles there.  This module provides an `FxHash`-style
//! multiply-xor hasher (the same construction used inside rustc) so no
//! external hashing crate is needed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// The `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-xor hasher in the style of Firefox/rustc `FxHash`.
///
/// Not cryptographically secure; intended purely for in-memory tables keyed
/// by small integers and packed structs.
///
/// # Examples
///
/// ```
/// use mathkit::FxHashMap;
///
/// let mut m: FxHashMap<u64, &str> = FxHashMap::default();
/// m.insert(42, "answer");
/// assert_eq!(m.get(&42), Some(&"answer"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Hashes a single `u64` with the Fx mixing function.
///
/// Useful for building composite hash keys by hand (e.g. compute-table keys).
#[inline]
#[must_use]
pub fn hash_u64(x: u64) -> u64 {
    x.rotate_left(5).wrapping_mul(SEED)
}

/// Folds one word into a running Fx hash state (the stateful form of
/// [`hash_u64`], identical to the internal mixing step of [`FxHasher`]).
///
/// This is the building block for hashing small packed structs by hand —
/// e.g. decision-diagram node payloads and compute-table keys — without
/// going through the `Hasher` trait machinery: start from `0` (or any
/// constant) and fold each field in order.
#[inline]
#[must_use]
pub fn hash_mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// The avalanche word folded in as the final [`hash_mix`] step of a
/// hand-rolled struct hash (see [`hash_finish`]).
pub const HASH_AVALANCHE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalises a running Fx hash state built with [`hash_mix`] by folding in
/// one avalanche constant, so the low bits — the ones an open-addressing
/// table actually indexes with — depend on every field folded so far.
///
/// The decision-diagram unique tables hash node payloads with `hash_mix` +
/// `hash_finish`, once per lookup, and store the result beside the node id.
#[inline]
#[must_use]
pub fn hash_finish(state: u64) -> u64 {
    hash_mix(state, HASH_AVALANCHE)
}

/// Hashes an `f64` by its bit pattern after normalising `-0.0` to `+0.0`.
///
/// Interned complex values are compared by tolerance before hashing, so two
/// values that should share a hash bucket are first snapped to a canonical
/// representative; this function then gives a stable bucket for that
/// representative.
#[inline]
#[must_use]
pub fn hash_f64(x: f64) -> u64 {
    let canonical = if x == 0.0 { 0.0_f64 } else { x };
    hash_u64(canonical.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_one(&12345u64), hash_one(&12345u64));
        assert_eq!(hash_one(&"hello"), hash_one(&"hello"));
    }

    #[test]
    fn different_keys_usually_differ() {
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        assert_ne!(hash_one(&(1u32, 2u32)), hash_one(&(2u32, 1u32)));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(10, 11)], 10);

        let s: FxHashSet<u64> = (0..100).collect();
        assert!(s.contains(&99));
        assert!(!s.contains(&100));
    }

    #[test]
    fn negative_zero_hashes_like_positive_zero() {
        assert_eq!(hash_f64(0.0), hash_f64(-0.0));
        assert_ne!(hash_f64(0.0), hash_f64(1.0));
    }

    #[test]
    fn write_paths_cover_all_widths() {
        let mut h = FxHasher::default();
        h.write_u8(1);
        h.write_u16(2);
        h.write_u32(3);
        h.write_u64(4);
        h.write_usize(5);
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_ne!(h.finish(), 0);
    }
}
