//! Property-based tests of the numeric substrate.
//!
//! Written as seeded randomized tests (the offline build cannot fetch
//! `proptest`): each property draws a few hundred random cases from a
//! deterministic RNG, so failures reproduce exactly.

use mathkit::{approx_eq_with, CTable, Complex, KahanSum, Tolerance, ValueId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

/// Complex multiplication is commutative and associative up to round-off,
/// and conjugation distributes over it.
#[test]
fn complex_field_axioms() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..CASES {
        let mut draw = || Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3));
        let (a, b, c) = (draw(), draw(), draw());
        assert!((a * b - b * a).norm() < 1e-6);
        assert!(((a * b) * c - a * (b * c)).norm() < 1e-3);
        assert!((a * (b + c) - (a * b + a * c)).norm() < 1e-3);
        assert!(((a * b).conj() - a.conj() * b.conj()).norm() < 1e-6);
    }
}

/// `norm_sqr` equals `z * conj(z)` and is preserved by phases.
#[test]
fn norms_behave() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..CASES {
        let z = Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3));
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        assert!((z.norm_sqr() - (z * z.conj()).re).abs() < 1e-6);
        let rotated = z * Complex::phase(theta);
        assert!(approx_eq_with(
            z.norm_sqr(),
            rotated.norm_sqr(),
            1e-6 * (1.0 + z.norm_sqr())
        ));
    }
}

/// Division inverts multiplication away from zero.
#[test]
fn division_inverts() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for _ in 0..CASES {
        let divisor = Complex::new(rng.gen_range(0.001..1e3), rng.gen_range(0.001..1e3));
        let value = Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3));
        let back = (value / divisor) * divisor;
        assert!((back - value).norm() < 1e-6 * (1.0 + value.norm()));
    }
}

/// The Kahan sum of split values matches the sum of the halves far better
/// than the naive order-dependent drift bound.
#[test]
fn kahan_sum_is_accurate() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..64 {
        let len = rng.gen_range(1..2000usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let compensated: KahanSum = values.iter().copied().collect();
        // Compare against summation in two halves, which would expose
        // catastrophic error accumulation if compensation were broken.
        let mid = values.len() / 2;
        let left: KahanSum = values[..mid].iter().copied().collect();
        let right: KahanSum = values[mid..].iter().copied().collect();
        assert!((compensated.value() - (left.value() + right.value())).abs() < 1e-9);
    }
}

/// Interning is idempotent and respects the tolerance: re-interning an
/// interned value (or anything within epsilon of it) returns the same id.
#[test]
fn ctable_interning_is_stable() {
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    for _ in 0..64 {
        let len = rng.gen_range(1..200usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let mut table = CTable::new();
        let ids: Vec<_> = values.iter().map(|&v| table.intern(v)).collect();
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(table.intern(v), id);
            assert_eq!(table.intern(v + 1e-12), id);
            assert!((table.value(id) - v).abs() <= 1e-10 + 1e-12);
        }
    }
}

/// Distinct values far apart never collide in the table.
#[test]
fn ctable_separates_distinct_values() {
    let mut rng = StdRng::seed_from_u64(0xFA4);
    for _ in 0..CASES {
        let a = rng.gen_range(-10.0..10.0);
        let delta = rng.gen_range(0.001..10.0);
        let mut table = CTable::with_tolerance(Tolerance::new(1e-10));
        let x = table.intern(a);
        let y = table.intern(a + delta);
        assert_ne!(x, y);
    }
}

/// The bucket-list interning rule, written out naively: search the value's
/// own bucket, then the lower and the upper neighbour, and return the
/// oldest entry within tolerance.
struct ReferenceTable {
    values: Vec<f64>,
    buckets: std::collections::BTreeMap<i64, Vec<usize>>,
    tolerance: Tolerance,
}

impl ReferenceTable {
    fn new(tolerance: Tolerance) -> Self {
        let mut table = Self {
            values: Vec::new(),
            buckets: std::collections::BTreeMap::new(),
            tolerance,
        };
        table.intern(0.0);
        table.intern(1.0);
        table
    }

    fn bucket_of(&self, value: f64) -> i64 {
        (value / (self.tolerance.eps() * 2.0)).round() as i64
    }

    fn probe(&self, value: f64) -> Option<usize> {
        let bucket = self.bucket_of(value);
        [bucket, bucket - 1, bucket + 1].into_iter().find_map(|b| {
            self.buckets.get(&b).and_then(|ids| {
                ids.iter()
                    .copied()
                    .find(|&id| self.tolerance.eq(self.values[id], value))
            })
        })
    }

    fn intern(&mut self, value: f64) -> usize {
        let value = if value == 0.0 { 0.0 } else { value };
        if let Some(id) = self.probe(value) {
            return id;
        }
        self.values.push(value);
        let bucket = self.bucket_of(value);
        self.buckets
            .entry(bucket)
            .or_default()
            .push(self.values.len() - 1);
        self.values.len() - 1
    }
}

/// The open-addressing table picks exactly the representative the bucket
/// lists would: values are drawn in tight clusters around bucket edges, so
/// many lie within tolerance of two stored values, and enough of them are
/// distinct that the index grows several times.
#[test]
fn ctable_matches_the_bucket_list_reference() {
    let mut rng = StdRng::seed_from_u64(0xB0C4E7);
    for case in 0..32 {
        let eps = [1e-10, 1e-6, 1e-3][case % 3];
        let tolerance = Tolerance::new(eps);
        let mut table = CTable::with_tolerance(tolerance);
        let mut reference = ReferenceTable::new(tolerance);
        let mut ids = vec![ValueId::ZERO, ValueId::ONE];
        for _ in 0..4000 {
            let edge = f64::from(rng.gen_range(-400..400)) + 0.5;
            let value = match rng.gen_range(0..4) {
                // Near a bucket edge, within two tolerances either side.
                0 | 1 => (edge + rng.gen_range(-4.0..4.0)) * eps,
                // Exact repeats of stored values and the constants.
                2 => reference.values[rng.gen_range(0..reference.values.len())],
                _ => rng.gen_range(-1.0..1.0),
            };
            if rng.gen_bool(0.25) {
                assert_eq!(
                    table.probe(value).map(|id| id.index()),
                    reference.probe(if value == 0.0 { 0.0 } else { value }),
                    "probe({value}) at eps {eps}"
                );
            }
            let id = table.intern(value);
            assert_eq!(
                id.index(),
                reference.intern(value),
                "intern({value}) at eps {eps}"
            );
            ids.push(id);
        }
        // Every entry's id was returned by the intern that stored it.
        assert_eq!(table.len(), reference.values.len());
        for id in ids {
            assert_eq!(table.value(id), reference.values[id.index()]);
        }
    }
}
