//! The traced update path must do exactly the work of `BatSet::insert` /
//! `BatSet::remove`: same seed, one thread, identical final contents and
//! identical work counters.

use std::sync::atomic::Ordering;
use std::time::Instant;

use perfbench::structure::{traced_update, Bat, OpGen, Shape};
use perfbench::trace::{OpKind, Span, Tracer};

/// Every counter the two layers below the API keep, read together.
fn counters(set: &Bat) -> (cbat_core::StatsSnapshot, u64, u64, Vec<u64>) {
    let ts = &set.as_map().node_tree().stats;
    (
        set.stats().snapshot(),
        ts.scx_commits.load(Ordering::SeqCst),
        ts.scx_failures.load(Ordering::SeqCst),
        ts.rebalance_steps
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect(),
    )
}

#[test]
fn traced_updates_do_the_work_of_the_public_api() {
    let shape = Shape::update_heavy(true);
    let plain = Bat::new();
    let traced = Bat::new();
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut gen = OpGen::new(shape, 7, 0, None);
    let (mut changed_plain, mut changed_traced) = (0, 0);
    for _ in 0..20_000 {
        let op = gen.next_op();
        let insert = op.kind == OpKind::Insert;
        assert!(op.kind.is_update());
        changed_plain += if insert {
            plain.insert(op.a)
        } else {
            plain.remove(&op.a)
        } as u64;
        tr.begin(Instant::now());
        let (changed, at) = traced_update(&traced, op.a, insert, &mut tr);
        tr.end(op.kind, at);
        changed_traced += changed as u64;
    }
    assert_eq!(changed_plain, changed_traced);
    let keys = |s: &Bat| s.snapshot().keys();
    assert_eq!(keys(&plain), keys(&traced), "final contents differ");
    assert_eq!(plain.len(), traced.len());
    assert_eq!(counters(&plain), counters(&traced), "work counters differ");
    assert!(counters(&plain).0.propagates == 20_000);
    traced
        .as_map()
        .node_tree()
        .validate(true)
        .expect("valid tree");

    // Every traced op recorded its four layer calls under one root span.
    assert_eq!(tr.span(Span::Propagate).count, 20_000);
    assert_eq!(tr.span(Span::ChromaticUpdate).count, 20_000);
    let ops = tr.ops_where(OpKind::is_update);
    assert_eq!(ops.op.count, 20_000);
    assert!(ops.layers.ns <= ops.op.ns);
    ebr::flush();
}
