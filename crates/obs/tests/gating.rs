//! End-to-end gating behavior. These tests flip the *global* tracing
//! flag, so they live in one integration binary and run as a single
//! sequential test function (unit tests in the library run in a separate
//! process and are unaffected).

use std::sync::Arc;

use star_obs::{
    add_sink, capture, clear_sinks, counter, set_trace_enabled, snapshot, span, trace_enabled,
    RingBufferSink,
};

#[test]
fn gating_controls_every_layer() {
    // --- Default: tracing off. ---
    assert!(!trace_enabled());

    // --- Metrics: spans time into histograms. ---
    drop(span("gate.enabled"));
    assert_eq!(snapshot().histogram("gate.enabled").unwrap().count, 1);
    counter("gate.ctr").incr(5);
    assert_eq!(snapshot().counter("gate.ctr"), Some(5));

    // --- Tracing: spans reach sinks only while enabled. ---
    let ring = Arc::new(RingBufferSink::new(16));
    add_sink(ring.clone());
    drop(span("gate.untraced"));
    assert!(
        ring.is_empty(),
        "sinks must stay silent until tracing is on"
    );
    set_trace_enabled(true);
    {
        let _outer = span("gate.outer");
        drop(span("gate.inner"));
    }
    set_trace_enabled(false);
    let spans = ring.drain();
    assert_eq!(
        spans.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["gate.inner", "gate.outer"]
    );
    assert_eq!(spans[0].parent, Some(spans[1].id));
    clear_sinks();

    // --- Capture works with tracing off. ---
    let cap = capture();
    drop(span("gate.captured"));
    let spans = cap.finish();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name, "gate.captured");
}
