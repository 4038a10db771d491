//! `oracle::block_path` rejects bad inputs up front: an endpoint outside
//! the block, a target outside `1..=24`, a pattern that is not a
//! 4-vertex and a fault set of another dimension return `None` without a
//! panic and without touching the heap.
//!
//! This file is its own test binary so that it can install a counting
//! global allocator; the count is per thread, so concurrent tests cannot
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use star_fault::FaultSet;
use star_graph::Pattern;
use star_perm::Perm;
use star_ring::oracle::block_path;

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

#[test]
fn bad_inputs_return_none_without_allocating() {
    let block = Pattern::from_spec(&[0, 3, 0, 0, 6, 0]).unwrap();
    let members: Vec<Perm> = block.vertices().collect();
    let (u, v) = (members[0], members[1]);
    let outside = Perm::identity(6);
    assert!(!block.contains(&outside));
    let other_dimension = Perm::identity(4);
    let faults = FaultSet::from_vertices(6, [members[7]]).unwrap();
    let s5 = Pattern::from_spec(&[0, 0, 0, 0, 6, 0]).unwrap();
    let faults_s7 = FaultSet::empty(7);
    // Sanity: the same block answers a good query, and the counter sees
    // the allocation of the returned path.
    let (path, allocations) = counting(|| block_path(&block, &u, &v, &faults, 22));
    assert_eq!(path.map(|p| p.len()), Some(22));
    assert!(allocations > 0);

    type Case<'a> = (
        &'a str,
        &'a Pattern,
        &'a Perm,
        &'a Perm,
        &'a FaultSet,
        usize,
    );
    let cases: [Case; 9] = [
        ("entry outside the block", &block, &outside, &v, &faults, 22),
        ("exit outside the block", &block, &u, &outside, &faults, 22),
        (
            "entry of another dimension",
            &block,
            &other_dimension,
            &v,
            &faults,
            22,
        ),
        ("target 0", &block, &u, &v, &faults, 0),
        ("target 25", &block, &u, &v, &faults, 25),
        ("target usize::MAX", &block, &u, &v, &faults, usize::MAX),
        (
            "outside endpoint and bad target",
            &block,
            &outside,
            &v,
            &faults,
            30,
        ),
        ("not a 4-vertex", &s5, &u, &v, &faults, 22),
        (
            "faults of another dimension",
            &block,
            &u,
            &v,
            &faults_s7,
            24,
        ),
    ];
    for (what, pattern, entry, exit, faults, target) in cases {
        let (path, allocations) = counting(|| block_path(pattern, entry, exit, faults, target));
        assert_eq!(path, None, "{what}");
        assert_eq!(allocations, 0, "{what}: block_path allocated");
    }
}
