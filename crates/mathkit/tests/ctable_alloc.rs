//! The value table's hit path allocates nothing, and its miss path
//! allocates only when a flat array doubles.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary; the counter is per thread so concurrently running tests do not
//! disturb each other.

use mathkit::CTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a thread-local counter, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Distinct values well apart under the default tolerance.
fn value(i: u32) -> f64 {
    f64::from(i) * 1e-7 - 0.05
}

#[test]
fn interning_hits_never_allocate() {
    let mut table = CTable::new();
    for i in 0..50_000 {
        table.intern(value(i));
    }
    let before = allocations();
    for round in 0..3 {
        for i in 0..50_000 {
            // Within tolerance of the stored value, so every call is a hit.
            let jitter = f64::from(round) * 1e-12;
            table.intern(value(i) + jitter);
            assert!(table.probe(value(i)).is_some());
        }
    }
    table.intern(0.0);
    table.intern(1.0);
    assert_eq!(allocations() - before, 0);
}

#[test]
fn interning_misses_allocate_only_when_the_arrays_double() {
    let mut table = CTable::new();
    let before = allocations();
    let n = 200_000;
    for i in 0..n {
        table.intern(value(i));
    }
    assert_eq!(table.len(), n as usize + 2);
    // Two flat arrays, each doubling from its initial size: a few dozen
    // allocations for 200k distinct values, not one per value or bucket.
    let allocated = allocations() - before;
    assert!(allocated <= 40, "{allocated} allocations for {n} misses");
}
