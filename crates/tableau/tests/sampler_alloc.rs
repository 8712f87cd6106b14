//! Drawing a `u64` shot from a [`tableau::MeasurementSampler`] allocates
//! nothing, however wide the register.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary; the counter is per thread so concurrently running tests do not
//! disturb each other.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tableau::Tableau;

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

#[test]
fn sample_u64_never_allocates() {
    // A 1000-qubit GHZ state: 16 packed words per shot.
    let mut tab = Tableau::zero_state(1000);
    tab.h(0);
    for q in 1..1000 {
        tab.cx(q - 1, q);
    }
    let sampler = tab.measurement_sampler();
    let mut rng = SmallRng::seed_from_u64(1);
    let before = allocations();
    let mut ones = 0u32;
    for _ in 0..10_000 {
        let shot = sampler.sample_u64(&mut rng);
        assert!(shot == 0 || shot == u64::MAX, "{shot:x}");
        ones += u32::from(shot != 0);
    }
    assert_eq!(allocations() - before, 0);
    assert!((4_000..=6_000).contains(&ones), "ones = {ones}");
}
