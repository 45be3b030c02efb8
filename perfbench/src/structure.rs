//! `update-heavy` and `query-heavy`: a closed loop of worker threads
//! calling one BAT-EagerDel `BatSet` directly.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use cbat_core::propagate::propagate;
use cbat_core::{BatSet, SizeOnly, StatsSnapshot};
use chromatic::SentKey;
use workloads::{scramble, Xorshift, Zipf};

use crate::hist::Hist;
use crate::host::{peak_rss_mb, WaitClock};
use crate::report::{median, Report};
use crate::trace::{OpKind, Span, Tracer, OP_KINDS};
use crate::{gate, Params, SLICES, THREADS};

pub type Bat = BatSet<u64, SizeOnly>;

/// Shape of one structure workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub max_key: u64,
    pub prefill: u64,
    /// Zipf parameter of the (scrambled) key draw; `None` is uniform.
    pub zipf: Option<f64>,
    /// Percent of ops per kind, in [`OP_KINDS`] order; sums to 100.
    pub mix: [u64; 6],
    /// `range_count` covers `[lo, lo + span)`.
    pub span: u64,
    /// Whether `op_*` latencies time the queries (else the updates).
    pub queries_headline: bool,
}

impl Shape {
    pub fn update_heavy(tiny: bool) -> Shape {
        let max_key = if tiny { 1 << 12 } else { 1 << 20 };
        Shape {
            max_key,
            prefill: max_key / 2,
            zipf: None,
            mix: [50, 50, 0, 0, 0, 0],
            span: 1000,
            queries_headline: false,
        }
    }

    pub fn query_heavy(tiny: bool) -> Shape {
        let max_key = if tiny { 1 << 12 } else { 1 << 16 };
        Shape {
            max_key,
            prefill: max_key / 2,
            zipf: Some(0.99),
            mix: [1, 1, 38, 20, 20, 20],
            span: 1000,
            queries_headline: true,
        }
    }

    fn headline(&self, k: OpKind) -> bool {
        match k {
            OpKind::Rank | OpKind::Select | OpKind::RangeCount => self.queries_headline,
            OpKind::Insert | OpKind::Remove => !self.queries_headline,
            OpKind::Contains => false,
        }
    }

    /// `select` indexes stay below this so they exist while the size
    /// drifts around the prefill count.
    fn select_bound(&self) -> u64 {
        (self.prefill - self.prefill / 8).max(1)
    }
}

/// The seed-determined keys of the prefill, in insertion order.
pub fn prefill_keys(max_key: u64, prefill: u64, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..max_key).collect();
    let mut rng = Xorshift::new(seed ^ 0x5eed_f111);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys.truncate(prefill as usize);
    keys
}

/// Insert `keys` from `threads` threads; every key must be new.
pub fn prefill_with(keys: &[u64], threads: usize, insert: impl Fn(u64) -> bool + Sync) {
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for part in keys.chunks(chunk) {
            let insert = &insert;
            s.spawn(move || {
                for &k in part {
                    assert!(insert(k), "prefill key {k} inserted twice");
                }
            });
        }
    });
}

/// How long to set the structure up, `reps` times; returns the median
/// and the last structure built (the earlier ones are dropped first).
pub fn timed_setups<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        ebr::flush();
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    ebr::flush();
    (median(&times), last.expect("at least one setup"))
}

// ---------------------------------------------------------------------------
// The layer calls. The traced forms make exactly the calls `BatMap::insert`
// / `BatMap::remove` / `BatSet::<query>` make, with a timestamp between.
// ---------------------------------------------------------------------------

/// `BatSet::insert` (`remove` when `!insert`), decomposed into its layer
/// calls: pin, chromatic update, propagate, unpin.
pub fn traced_update(set: &Bat, k: u64, insert: bool, tr: &mut Tracer) -> (bool, Instant) {
    let map = set.as_map();
    let tree = map.node_tree();
    let t0 = Instant::now();
    let guard = ebr::pin();
    let t1 = Instant::now();
    let changed = if insert {
        tree.insert(k, (), &guard).changed
    } else {
        tree.delete(&k, &guard).changed
    };
    let t2 = Instant::now();
    propagate(
        tree.entry(),
        &SentKey::Key(k),
        map.policy(),
        set.stats(),
        &guard,
    );
    let t3 = Instant::now();
    drop(guard);
    let t4 = Instant::now();
    tr.child(Span::Pin, t0, t1);
    tr.child(Span::ChromaticUpdate, t1, t2);
    tr.child(Span::Propagate, t2, t3);
    tr.child(Span::Unpin, t3, t4);
    (changed, t4)
}

/// One op's arguments.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub a: u64,
}

/// Run `op` through the public `BatSet` API. Answers are encoded as u64
/// (`select` → key or `u64::MAX`).
pub fn exec(set: &Bat, op: Op, span: u64) -> u64 {
    match op.kind {
        OpKind::Insert => set.insert(op.a) as u64,
        OpKind::Remove => set.remove(&op.a) as u64,
        OpKind::Contains => set.contains(&op.a) as u64,
        OpKind::Rank => set.rank(&op.a),
        OpKind::Select => set.select(op.a).unwrap_or(u64::MAX),
        OpKind::RangeCount => set.range_count(&op.a, &(op.a + span - 1)),
    }
}

/// [`exec`] with every layer call timed.
pub fn exec_traced(set: &Bat, op: Op, span: u64, tr: &mut Tracer) -> (u64, Instant) {
    match op.kind {
        OpKind::Insert | OpKind::Remove => {
            let (changed, at) = traced_update(set, op.a, op.kind == OpKind::Insert, tr);
            (changed as u64, at)
        }
        _ => {
            let t0 = Instant::now();
            let snap = set.snapshot();
            let t1 = Instant::now();
            let r = match op.kind {
                OpKind::Contains => snap.contains(&op.a) as u64,
                OpKind::Rank => snap.rank(&op.a),
                OpKind::Select => snap.select(op.a).map_or(u64::MAX, |(k, ())| k),
                _ => snap.range_count(&op.a, &(op.a + span - 1)),
            };
            let t2 = Instant::now();
            drop(snap);
            let t3 = Instant::now();
            tr.child(Span::Snapshot, t0, t1);
            tr.child(Span::Descent, t1, t2);
            tr.child(Span::Unpin, t2, t3);
            (r, t3)
        }
    }
}

/// Whether answer `r` to `op` is impossible for any set over
/// `[0, max_key)`.
pub fn impossible(op: Op, r: u64, max_key: u64, span: u64) -> bool {
    match op.kind {
        OpKind::Rank => r > op.a + 1 || r > max_key,
        OpKind::Select => r >= max_key,
        OpKind::RangeCount => r > span,
        _ => false,
    }
}

/// The seed-determined op stream of one worker.
pub struct OpGen {
    rng: Xorshift,
    shape: Shape,
    zipf: Option<std::sync::Arc<Zipf>>,
    cum: [u64; 6],
}

impl OpGen {
    pub fn new(shape: Shape, seed: u64, worker: usize, zipf: Option<std::sync::Arc<Zipf>>) -> Self {
        let mut cum = [0u64; 6];
        let mut acc = 0;
        for (c, p) in cum.iter_mut().zip(shape.mix) {
            acc += p;
            *c = acc;
        }
        assert_eq!(acc, 100, "op mix must sum to 100 %");
        OpGen {
            rng: Xorshift::new(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(worker as u64 + 1)),
            shape,
            zipf,
            cum,
        }
    }

    #[inline]
    fn key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => scramble(z.sample(&mut self.rng), self.shape.max_key),
            None => self.rng.below(self.shape.max_key),
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.below(100);
        let kind = OP_KINDS[self.cum.iter().position(|&c| r < c).expect("r < 100")];
        let a = if kind == OpKind::Select {
            self.rng.below(self.shape.select_bound())
        } else {
            self.key()
        };
        Op { kind, a }
    }
}

// ---------------------------------------------------------------------------
// The measured phase.
// ---------------------------------------------------------------------------

/// Timing of the measured window: warm-up until `t0`, then `slices`
/// slices of `slice` each. In a traced run odd slices are traced and even
/// slices are not, so the two interleave under the same host conditions.
#[derive(Clone, Copy)]
pub struct Window {
    pub t0: Instant,
    pub slice: Duration,
    pub slices: usize,
    pub trace: bool,
}

impl Window {
    pub fn new(warmup: Duration, measure: Duration, slices: usize, trace: bool) -> Self {
        Window {
            t0: Instant::now() + warmup,
            slice: measure / slices as u32,
            slices,
            trace,
        }
    }

    pub fn end(&self) -> Instant {
        self.t0 + self.slice * self.slices as u32
    }

    /// Slice index of `at`, `None` during warm-up.
    #[inline]
    pub fn slice_of(&self, at: Instant) -> Option<usize> {
        let d = at.checked_duration_since(self.t0)?;
        Some(((d.as_nanos() / self.slice.as_nanos()) as usize).min(self.slices - 1))
    }

    #[inline]
    pub fn traced(&self, slice: usize) -> bool {
        self.trace && slice % 2 == 1
    }
}

/// What one worker measured.
pub struct WorkerOut {
    pub id: usize,
    /// Ops started in each slice.
    pub slice_ops: Vec<u64>,
    /// Latency per op kind, untraced slices only.
    pub kinds: Vec<Hist>,
    pub attempted: u64,
    pub failed: u64,
    pub updates: u64,
    /// Successful inserts and removes, warm-up included (for the gate).
    pub inserted: u64,
    pub removed: u64,
    pub wait_share: f64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub unreclaimed_peak: u64,
    pub tracer: Tracer,
}

fn unreclaimed() -> u64 {
    let s = ebr::stats();
    s.retired.saturating_sub(s.freed) as u64
}

fn worker(set: &Bat, shape: Shape, mut gen: OpGen, win: Window, id: usize) -> WorkerOut {
    let mut out = WorkerOut {
        id,
        slice_ops: vec![0; win.slices],
        kinds: vec![Hist::default(); OP_KINDS.len()],
        attempted: 0,
        failed: 0,
        updates: 0,
        inserted: 0,
        removed: 0,
        wait_share: f64::NAN,
        pool_hits: 0,
        pool_misses: 0,
        unreclaimed_peak: 0,
        tracer: Tracer::new(win.t0, id),
    };
    let end = win.end();
    let mut clock: Option<(WaitClock, (u64, u64, u64))> = None;
    let mut now = Instant::now();
    while now < end {
        let slice = win.slice_of(now);
        if slice.is_some() && clock.is_none() {
            clock = Some((WaitClock::start(), ebr::pool::local_stats()));
        }
        let traced = slice.is_some_and(|s| win.traced(s));
        let op = gen.next_op();
        let r = if traced {
            out.tracer.begin(Instant::now());
            let (r, at) = exec_traced(set, op, shape.span, &mut out.tracer);
            out.tracer.end(op.kind, at);
            now = at;
            r
        } else {
            let a = Instant::now();
            let r = std::hint::black_box(exec(set, std::hint::black_box(op), shape.span));
            now = Instant::now();
            if slice.is_some() {
                out.kinds[op.kind as usize]
                    .record(now.saturating_duration_since(a).as_nanos() as u64);
            }
            r
        };
        match op.kind {
            OpKind::Insert => out.inserted += r,
            OpKind::Remove => out.removed += r,
            _ => {}
        }
        if let Some(s) = slice {
            out.slice_ops[s] += 1;
            out.attempted += 1;
            out.updates += op.kind.is_update() as u64;
            out.failed += impossible(op, r, shape.max_key, shape.span) as u64;
            if out.attempted.is_multiple_of(1024) {
                out.unreclaimed_peak = out.unreclaimed_peak.max(unreclaimed());
            }
        }
    }
    if let Some((clock, (h0, m0, _))) = clock {
        out.wait_share = clock.share();
        let (h1, m1, _) = ebr::pool::local_stats();
        out.pool_hits = h1 - h0;
        out.pool_misses = m1 - m0;
    }
    out
}

/// Work counters of every layer, read together.
#[derive(Clone, Copy)]
pub struct Counters {
    pub bat: StatsSnapshot,
    pub scx_commits: u64,
    pub scx_failures: u64,
    pub rebalances: u64,
    pub retired: u64,
    pub freed: u64,
}

impl Counters {
    pub fn read<'a>(sets: impl IntoIterator<Item = &'a Bat>) -> Counters {
        let e = ebr::stats();
        let mut c = Counters {
            bat: StatsSnapshot::default(),
            scx_commits: 0,
            scx_failures: 0,
            rebalances: 0,
            retired: e.retired as u64,
            freed: e.freed as u64,
        };
        for set in sets {
            let s = set.stats().snapshot();
            c.bat.propagates += s.propagates;
            c.bat.nodes_visited += s.nodes_visited;
            c.bat.nil_fixes += s.nil_fixes;
            c.bat.cas_attempts += s.cas_attempts;
            c.bat.cas_failures += s.cas_failures;
            c.bat.delegations += s.delegations;
            c.bat.delegation_timeouts += s.delegation_timeouts;
            let ts = &set.as_map().node_tree().stats;
            // ordering: reporting-only reads of monotone work counters.
            c.scx_commits += ts.scx_commits.load(Ordering::Relaxed);
            c.scx_failures += ts.scx_failures.load(Ordering::Relaxed);
            c.rebalances += ts.total_rebalances();
        }
        c
    }

    /// Per-layer work metrics of the updates made between `self` and `end`.
    pub fn report_delta(&self, end: &Counters, updates: u64, rep: &mut Report) {
        let b = end.bat.delta(&self.bat);
        let u = updates.max(1) as f64;
        let commits = end.scx_commits - self.scx_commits;
        let fails = end.scx_failures - self.scx_failures;
        rep.add("chromatic.scx_per_update", commits as f64 / u, "count");
        rep.add(
            "chromatic.scx_fail_ratio",
            fails as f64 / (commits + fails).max(1) as f64,
            "ratio",
        );
        rep.add(
            "chromatic.rebalance_per_update",
            (end.rebalances - self.rebalances) as f64 / u,
            "count",
        );
        rep.add(
            "propagate.nodes_per_update",
            b.nodes_visited as f64 / u,
            "count",
        );
        rep.add(
            "propagate.cas_per_update",
            b.cas_attempts as f64 / u,
            "count",
        );
        rep.add(
            "propagate.cas_fail_ratio",
            b.cas_failures as f64 / b.cas_attempts.max(1) as f64,
            "ratio",
        );
        rep.add(
            "propagate.nil_fixes_per_update",
            b.nil_fixes as f64 / u,
            "count",
        );
        rep.add(
            "propagate.delegations_per_update",
            b.delegations as f64 / u,
            "count",
        );
        rep.add(
            "propagate.delegation_timeouts",
            b.delegation_timeouts as f64,
            "count",
        );
        rep.add(
            "ebr.retired_per_update",
            (end.retired - self.retired) as f64 / u,
            "count",
        );
        rep.add(
            "ebr.freed_per_update",
            (end.freed - self.freed) as f64 / u,
            "count",
        );
    }
}

/// Per-layer times from a tracer's spans.
pub fn report_spans(tr: &Tracer, rep: &mut Report) {
    let upd = tr.ops_where(OpKind::is_update);
    rep.add("core.update_ns", upd.layers.mean(), "ns");
    rep.add(
        "chromatic.update_ns",
        tr.span(Span::ChromaticUpdate).mean(),
        "ns",
    );
    rep.add("propagate.ns", tr.span(Span::Propagate).mean(), "ns");
    rep.add(
        "ebr.pin_ns",
        tr.span(Span::Pin).mean() + tr.span(Span::Unpin).mean(),
        "ns",
    );
    rep.add("bench.self_share", tr.bench_self_share(), "ratio");
}

/// Run one structure workload end to end.
pub fn run(shape: Shape, p: &Params) -> Report {
    let mut rep = Report::default();
    let keys = prefill_keys(shape.max_key, shape.prefill, p.seed);
    let (setup_s, set) = timed_setups(p.setup_reps, || {
        let set = Bat::new();
        prefill_with(&keys, THREADS, |k| set.insert(k));
        set
    });
    drop(keys);
    let zipf = shape
        .zipf
        .map(|theta| std::sync::Arc::new(Zipf::new(shape.max_key, theta)));

    let win = Window::new(p.warmup(), p.measure(), SLICES, p.trace);
    let (c0, outs, c1) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let gen = OpGen::new(shape, p.seed, w, zipf.clone());
                let set = &set;
                s.spawn(move || worker(set, shape, gen, win, w))
            })
            .collect();
        std::thread::sleep(win.t0.saturating_duration_since(Instant::now()));
        let c0 = Counters::read([&set]);
        let outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (c0, outs, Counters::read([&set]))
    });

    // Throughput per slice, summed over workers.
    let slice_s = win.slice.as_secs_f64();
    let slice_mops =
        |i: usize| outs.iter().map(|o| o.slice_ops[i]).sum::<u64>() as f64 / slice_s / 1e6;
    let plain: Vec<usize> = (0..win.slices).filter(|&i| !win.traced(i)).collect();
    let throughput = median(&plain.iter().map(|&i| slice_mops(i)).collect::<Vec<_>>());
    let mut kinds = vec![Hist::default(); OP_KINDS.len()];
    for o in &outs {
        for (a, b) in kinds.iter_mut().zip(&o.kinds) {
            a.merge(b);
        }
    }
    rep.attempted = outs.iter().map(|o| o.attempted).sum();
    rep.failed = outs.iter().map(|o| o.failed).sum();
    let updates: u64 = outs.iter().map(|o| o.updates).sum();

    let merged = |keep: &dyn Fn(OpKind) -> bool| {
        let mut h = Hist::default();
        for k in OP_KINDS.into_iter().filter(|&k| keep(k)) {
            h.merge(&kinds[k as usize]);
        }
        h
    };
    let head = merged(&|k| shape.headline(k));
    rep.add("throughput_mops", throughput, "Mop/s");
    rep.add_pct("op_p50_us", head.quantile(0.5) / 1e3, "us", head.count());
    rep.add_pct("op_p99_us", head.quantile(0.99) / 1e3, "us", head.count());
    rep.add("setup_s", setup_s, "s");
    let mut by_class = |name: &str, keep: &dyn Fn(OpKind) -> bool| {
        let h = merged(keep);
        if h.count() > 0 {
            rep.add_pct(
                &format!("{name}_p50_us"),
                h.quantile(0.5) / 1e3,
                "us",
                h.count(),
            );
            if h.supports(0.99) {
                rep.add_pct(
                    &format!("{name}_p99_us"),
                    h.quantile(0.99) / 1e3,
                    "us",
                    h.count(),
                );
            }
        }
    };
    by_class("update", &OpKind::is_update);
    by_class("query", &|k| {
        matches!(k, OpKind::Rank | OpKind::Select | OpKind::RangeCount)
    });
    by_class("contains", &|k| k == OpKind::Contains);

    // Host interference, every run.
    for o in &outs {
        rep.add(&format!("host.wait_share.w{}", o.id), o.wait_share, "ratio");
    }
    rep.add(
        "host.wait_share",
        median(&outs.iter().map(|o| o.wait_share).collect::<Vec<_>>()),
        "ratio",
    );

    if p.trace {
        let mut tr = Tracer::new(win.t0, 0);
        for o in &outs {
            tr.merge(&o.tracer);
        }
        report_spans(&tr, &mut rep);
        for k in [
            OpKind::Contains,
            OpKind::Rank,
            OpKind::Select,
            OpKind::RangeCount,
        ] {
            let a = tr.op(k);
            if a.op.count > 0 {
                rep.add(&format!("core.{}_ns", k.name()), a.layers.mean(), "ns");
            }
        }
        if tr.span(Span::Snapshot).count > 0 {
            rep.add("core.snapshot_ns", tr.span(Span::Snapshot).mean(), "ns");
            rep.add("core.descent_ns", tr.span(Span::Descent).mean(), "ns");
        }
        c0.report_delta(&c1, updates, &mut rep);
        rep.add(
            "ebr.unreclaimed_peak",
            outs.iter().map(|o| o.unreclaimed_peak).max().unwrap_or(0) as f64,
            "count",
        );
        let hits: u64 = outs.iter().map(|o| o.pool_hits).sum();
        let misses: u64 = outs.iter().map(|o| o.pool_misses).sum();
        rep.add(
            "pool.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        rep.add(
            "pool.miss_per_update",
            misses as f64 / updates.max(1) as f64,
            "count",
        );
        let traced: Vec<f64> = (0..win.slices)
            .filter(|&i| win.traced(i))
            .map(slice_mops)
            .collect();
        rep.add(
            "trace.overhead_share",
            1.0 - median(&traced) / throughput,
            "ratio",
        );
        p.write_trace(&tr);
        eprint!("{}", tr.table());
    }

    let inserted: u64 = outs.iter().map(|o| o.inserted).sum();
    let removed: u64 = outs.iter().map(|o| o.removed).sum();
    let expected = shape.prefill as i64 + inserted as i64 - removed as i64;
    gate::check_bat(
        &set,
        Some(expected),
        shape.max_key,
        shape.span,
        p.seed,
        "set",
        &mut rep.gate_errors,
    );
    if rep.failed > 0 {
        rep.gate_errors
            .push(format!("{} ops returned impossible answers", rep.failed));
    }
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    rep
}
