//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. Nothing inside the program is instrumented.
//!
//! Every traced op opens a root `bench.op` span; the layer calls it makes
//! are its children and share its op id. A layer's self time is its span
//! (children here are leaves); the benchmark's own self time is `bench.op`
//! minus its children. Sums and counts are kept for every op; the first
//! [`RAW_CAP`] spans of each thread are also kept verbatim and written out
//! as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Layer calls, named after the function they time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `ebr::pin()`.
    Pin,
    /// `node_tree().insert` / `node_tree().delete`.
    ChromaticUpdate,
    /// `cbat_core::propagate::propagate`.
    Propagate,
    /// Dropping the epoch guard (or the snapshot that owns one).
    Unpin,
    /// `BatSet::snapshot`.
    Snapshot,
    /// A query on a held `Snapshot`.
    Descent,
    /// `ShardedSet::contains`.
    ShardContains,
    /// `BatSet::contains` on the owning member, same key.
    MemberContains,
    /// `ShardedSet::snapshot` (the consistent cut).
    ShardCut,
    /// `BatSet::snapshot` on every member, back to back.
    MemberSnapshots,
    /// A query on a held `ShardedSnapshot`.
    ShardDescent,
    /// Owner lookup through `ShardedSet::partition().shard_of`.
    ShardRoute,
}

pub const SPANS: [Span; 12] = [
    Span::Pin,
    Span::ChromaticUpdate,
    Span::Propagate,
    Span::Unpin,
    Span::Snapshot,
    Span::Descent,
    Span::ShardContains,
    Span::MemberContains,
    Span::ShardCut,
    Span::MemberSnapshots,
    Span::ShardDescent,
    Span::ShardRoute,
];

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::Pin => "ebr.pin",
            Span::ChromaticUpdate => "chromatic.update",
            Span::Propagate => "core.propagate",
            Span::Unpin => "ebr.unpin",
            Span::Snapshot => "core.snapshot",
            Span::Descent => "core.descent",
            Span::ShardContains => "shard.contains",
            Span::MemberContains => "core.contains",
            Span::ShardCut => "shard.snapshot",
            Span::MemberSnapshots => "core.member_snapshots",
            Span::ShardDescent => "shard.descent",
            Span::ShardRoute => "shard.route",
        }
    }
}

/// Root-span classes: one `bench.op` per op, aggregated by kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Remove,
    Contains,
    Rank,
    Select,
    RangeCount,
}

pub const OP_KINDS: [OpKind; 6] = [
    OpKind::Insert,
    OpKind::Remove,
    OpKind::Contains,
    OpKind::Rank,
    OpKind::Select,
    OpKind::RangeCount,
];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Contains => "contains",
            OpKind::Rank => "rank",
            OpKind::Select => "select",
            OpKind::RangeCount => "range_count",
        }
    }

    pub fn is_update(self) -> bool {
        matches!(self, OpKind::Insert | OpKind::Remove)
    }
}

/// Count and summed duration.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    pub count: u64,
    pub ns: u64,
}

impl Agg {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }

    fn merge(&mut self, o: &Agg) {
        self.count += o.count;
        self.ns += o.ns;
    }

    /// Mean ns per call (NaN when never called).
    pub fn mean(&self) -> f64 {
        self.ns as f64 / self.count as f64
    }
}

/// Per-kind root totals: `op` is the whole `bench.op` span, `layers` the
/// part its children cover.
#[derive(Clone, Copy, Default, Debug)]
pub struct OpAgg {
    pub op: Agg,
    pub layers: Agg,
}

pub const RAW_CAP: usize = 1 << 15;

#[derive(Clone, Copy)]
struct Raw {
    thread: usize,
    op: u64,
    name: &'static str,
    root: bool,
    start: u64,
    end: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    t0: Instant,
    thread: usize,
    next_op: u64,
    cur_start: Option<Instant>,
    cur_layers: u64,
    pub spans: [Agg; SPANS.len()],
    pub ops: [OpAgg; OP_KINDS.len()],
    raw: Vec<Raw>,
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

impl Tracer {
    pub fn new(t0: Instant, thread: usize) -> Self {
        Tracer {
            t0,
            thread,
            next_op: 0,
            cur_start: None,
            cur_layers: 0,
            spans: [Agg::default(); SPANS.len()],
            ops: [OpAgg::default(); OP_KINDS.len()],
            raw: Vec::new(),
        }
    }

    /// Open the root span of an op.
    #[inline]
    pub fn begin(&mut self, at: Instant) {
        self.cur_start = Some(at);
        self.cur_layers = 0;
    }

    /// Record one child span of the open op.
    #[inline]
    pub fn child(&mut self, span: Span, a: Instant, b: Instant) {
        let d = ns(a, b);
        self.spans[span as usize].add(d);
        self.cur_layers += d;
        if self.raw.len() < RAW_CAP {
            self.raw.push(Raw {
                thread: self.thread,
                op: self.next_op,
                name: span.name(),
                root: false,
                start: ns(self.t0, a),
                end: ns(self.t0, b),
            });
        }
    }

    /// Close the open op's root span.
    #[inline]
    pub fn end(&mut self, kind: OpKind, at: Instant) {
        let start = self.cur_start.take().expect("end without begin");
        let agg = &mut self.ops[kind as usize];
        agg.op.add(ns(start, at));
        agg.layers.add(self.cur_layers);
        if self.raw.len() < RAW_CAP {
            self.raw.push(Raw {
                thread: self.thread,
                op: self.next_op,
                name: "bench.op",
                root: true,
                start: ns(self.t0, start),
                end: ns(self.t0, at),
            });
        }
        self.next_op += 1;
    }

    /// Fold another thread's sums into this one (raw spans are appended).
    pub fn merge(&mut self, o: &Tracer) {
        for (a, b) in self.spans.iter_mut().zip(&o.spans) {
            a.merge(b);
        }
        for (a, b) in self.ops.iter_mut().zip(&o.ops) {
            a.op.merge(&b.op);
            a.layers.merge(&b.layers);
        }
        self.raw.extend_from_slice(&o.raw);
    }

    pub fn span(&self, s: Span) -> Agg {
        self.spans[s as usize]
    }

    pub fn op(&self, k: OpKind) -> OpAgg {
        self.ops[k as usize]
    }

    /// Summed root and covered time over the given kinds.
    pub fn ops_where(&self, keep: impl Fn(OpKind) -> bool) -> OpAgg {
        let mut out = OpAgg::default();
        for k in OP_KINDS.into_iter().filter(|&k| keep(k)) {
            out.op.merge(&self.ops[k as usize].op);
            out.layers.merge(&self.ops[k as usize].layers);
        }
        out
    }

    /// Share of `bench.op` time not covered by a layer span.
    pub fn bench_self_share(&self) -> f64 {
        let all = self.ops_where(|_| true);
        1.0 - all.layers.ns as f64 / all.op.ns as f64
    }

    /// The kept raw spans as JSON lines.
    pub fn raw_jsonl(&self) -> String {
        let mut s = String::new();
        for r in &self.raw {
            let parent = if r.root { "null" } else { "\"bench.op\"" };
            let _ = writeln!(
                s,
                "{{\"thread\":{},\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.thread, r.op, r.name, parent, r.start, r.end
            );
        }
        s
    }

    /// The per-span table, one line per layer call and op kind.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for k in OP_KINDS {
            let a = self.op(k);
            if a.op.count > 0 {
                let _ = writeln!(
                    s,
                    "span bench.op[{}] count={} mean_ns={:.1} self_ns={:.1}",
                    k.name(),
                    a.op.count,
                    a.op.mean(),
                    (a.op.ns - a.layers.ns.min(a.op.ns)) as f64 / a.op.count as f64
                );
            }
        }
        for sp in SPANS {
            let a = self.span(sp);
            if a.count > 0 {
                let _ = writeln!(
                    s,
                    "span {} count={} mean_ns={:.1}",
                    sp.name(),
                    a.count,
                    a.mean()
                );
            }
        }
        s
    }
}
