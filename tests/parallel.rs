//! Batch conformance: `embed_many` must match the one-by-one path, and
//! the worker count it spreads scenarios over must never change a ring.
//!
//! These tests mutate the process-wide `pool::set_threads` knob; that is
//! safe to race with other tests in this binary precisely because of the
//! invariant under test — the output is independent of the knob.

use star_rings::fault::{gen, FaultSet};
use star_rings::pool;
use star_rings::ring::{embed_longest_ring, embed_many};
use star_rings::verify::check_ring;

#[test]
fn embed_many_matches_serial_loop() {
    let n = 6;
    let scenarios: Vec<FaultSet> = (0..10)
        .map(|seed| gen::random_vertex_faults(n, (seed % 4) as usize, 300 + seed).unwrap())
        .collect();
    let batch = star_rings::ring::embed_many(n, &scenarios);
    for (faults, got) in scenarios.iter().zip(&batch) {
        let got = got.as_ref().unwrap();
        let solo = embed_longest_ring(n, faults).unwrap();
        assert_eq!(got.vertices(), solo.vertices());
        check_ring(n, got.vertices(), faults).unwrap();
    }
}

#[test]
fn embed_many_respects_thread_override() {
    // The batch API must produce identical results forced serial and
    // forced wide.
    let n = 5;
    let scenarios: Vec<FaultSet> = (0..8)
        .map(|seed| gen::random_vertex_faults(n, 2, 400 + seed).unwrap())
        .collect();
    pool::set_threads(1);
    let serial = embed_many(n, &scenarios);
    pool::set_threads(4);
    let wide = embed_many(n, &scenarios);
    pool::set_threads(0);
    for (a, b) in serial.iter().zip(&wide) {
        assert_eq!(
            a.as_ref().unwrap().vertices(),
            b.as_ref().unwrap().vertices()
        );
    }
}
