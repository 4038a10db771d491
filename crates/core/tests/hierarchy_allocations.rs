//! One refinement step of Lemma 3 keeps no heap state per super-vertex:
//! the fault-aware `hierarchy::refine` that turns the `R^5` into the
//! `R^4` allocates as many times on the 42-super-vertex ring of `S_7` as
//! on the 336-super-vertex ring of `S_8`. Its seam scan, its feasibility
//! probes and its paths live on the stack; what it allocates is a fixed
//! number of whole-ring buffers.
//!
//! This file is its own test binary so that it can install a counting
//! global allocator; the count is per thread, so concurrent tests cannot
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use star_fault::{gen, FaultSet};
use star_graph::SuperRing;
use star_perm::Parity;
use star_ring::hierarchy::{initial_ring, refine};
use star_ring::positions::select_positions;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made.
fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The allocations of the last, fault-aware refinement at dimension `n`
/// under `n - 3` worst-case faults, with the `R^5` it refines.
fn last_refinement(n: usize) -> (SuperRing, usize) {
    let faults: FaultSet = gen::worst_case_same_partite(n, n - 3, Parity::Even, 1).unwrap();
    let plan = select_positions(n, &faults).unwrap();
    let (last, levels) = plan.sequence.split_last().unwrap();
    let mut ring = initial_ring(n, levels[0]).unwrap();
    for &pos in &levels[1..] {
        ring = refine(&ring, pos, &faults, false).unwrap();
    }
    assert_eq!(ring.r(), 5, "n = {n}: the ring before the last step");
    let (r4, allocations) = counting(|| refine(&ring, *last, &faults, true));
    assert_eq!(r4.unwrap().len(), ring.len() * 5);
    (ring, allocations)
}

#[test]
fn the_fault_aware_refinement_allocates_independently_of_the_ring_length() {
    let (r5_7, at_7) = last_refinement(7);
    let (r5_8, at_8) = last_refinement(8);
    assert_eq!((r5_7.len(), r5_8.len()), (42, 336));
    assert!(at_7 > 0, "the refined ring itself is allocated");
    assert_eq!(
        at_7, at_8,
        "allocations of one fault-aware refine: {at_7} on 42 super-vertices, {at_8} on 336"
    );
}
