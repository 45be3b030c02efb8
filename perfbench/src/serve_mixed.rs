//! `serve-mixed`: `serve::run_serve` over a 2-shard hash-partitioned BAT
//! forest, driven by one open-loop pipelined client (window 16).
//!
//! 60 % of the measured window goes to `serve`: fixed-rate runs of about a
//! second at 25k requests/s, one run per ladder rate, and saturation runs
//! of about half a second; figures of repeated runs are their median.
//! The other 40 % is a direct-call phase: one thread makes the same mix of
//! calls on the forest without `serve`, so the serve overhead and the
//! shard and core layers can be told apart.
//!
//! The gated `throughput_mops` and `op_p50_us` come from the direct-call
//! phase. Serve's own figures hinge on how the host schedules its four
//! spinning threads on two CPUs and swing by 2x between runs of the same
//! code, so they are printed but not gated.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serve::{run_serve, ClassMix, ServeConfig, ServeReport};
use shard::{Partition, ShardedBatSet};
use workloads::Xorshift;

use crate::hist::Hist;
use crate::host::{all_thread_schedstats, peak_rss_mb};
use crate::report::{median, Report};
use crate::structure::{prefill_keys, prefill_with, report_spans, timed_setups, traced_update};
use crate::structure::{Counters, Window};
use crate::trace::{OpKind, Span, Tracer};
use crate::{gate, Params, SLICES, THREADS};

const SHARDS: usize = 2;
const FIXED_RPS: u64 = 25_000;
const LADDER_RPS: [u64; 4] = [25_000, 50_000, 100_000, 150_000];
/// Latency limit of the ladder: p99 over all classes.
const P99_LIMIT_US: f64 = 2_000.0;

/// Cut `total` into at least two runs of about `piece` each.
fn runs(total: Duration, piece: Duration) -> (usize, Duration) {
    let n = ((total.as_secs_f64() / piece.as_secs_f64()).round() as usize).max(2);
    (n, total / n as u32)
}

fn config(p: &Params, max_key: u64, rps: u64, dur: Duration, run: u64) -> ServeConfig {
    ServeConfig {
        clients: 1,
        window: 16,
        duration: dur,
        offered_rps: rps,
        mix: ClassMix {
            stat_pm: 150,
            range_pm: 50,
        },
        max_key,
        lease: Duration::from_millis(10),
        seed: p.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ run,
        ..ServeConfig::default()
    }
}

/// The p-quantile of raw ns samples, in µs.
fn pct_us(samples: &[u64], p: f64) -> f64 {
    let mut h = Hist::default();
    for &s in samples {
        h.record(s);
    }
    h.quantile(p) / 1e3
}

fn class_samples(r: &ServeReport, classes: &[usize]) -> Vec<u64> {
    classes
        .iter()
        .flat_map(|&c| r.classes[c].samples.iter().copied())
        .collect()
}

/// How far behind schedule the generator was when a paced run stopped, µs.
fn late_at_end_us(r: &ServeReport, rps: u64, dur: Duration) -> f64 {
    let issued: u64 = r.classes.iter().map(|c| c.submitted + c.rejected).sum();
    let due = dur.as_secs_f64() * rps as f64;
    ((due - issued as f64) / rps as f64 * 1e6).max(0.0)
}

/// First and last `(wall ns, wait ns)` seen of one thread.
type Seen = ((u64, u64), (u64, u64));

/// Samples every thread's run-queue wait and the unreclaimed-garbage
/// count while the serve runs, from a thread of its own.
#[derive(Default)]
struct Sampler {
    /// Per thread id.
    seen: std::collections::BTreeMap<u64, Seen>,
    unreclaimed_peak: u64,
}

fn own_tid() -> Option<u64> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

impl Sampler {
    fn run(&mut self, stop: &AtomicBool, skip: &[Option<u64>]) {
        let t0 = Instant::now();
        while !stop.load(Ordering::Acquire) {
            let now = t0.elapsed().as_nanos() as u64;
            for (tid, (_, wait)) in all_thread_schedstats() {
                if skip.contains(&Some(tid)) {
                    continue;
                }
                let e = self.seen.entry(tid).or_insert(((now, wait), (now, wait)));
                e.1 = (now, wait);
            }
            let s = ebr::stats();
            self.unreclaimed_peak = self
                .unreclaimed_peak
                .max(s.retired.saturating_sub(s.freed) as u64);
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Wait share of every thread seen for at least 100 ms.
    fn shares(&self) -> Vec<f64> {
        self.seen
            .values()
            .filter(|((t0, _), (t1, _))| t1 - t0 >= 100_000_000)
            .map(|((t0, w0), (t1, w1))| (w1 - w0) as f64 / (t1 - t0) as f64)
            .collect()
    }
}

/// Per-run figures of the fixed-rate phase.
#[derive(Default)]
struct Fixed {
    point_p50: Vec<f64>,
    point_p99: Vec<f64>,
    analytics_p50: Vec<f64>,
    analytics_p99: Vec<f64>,
    point_n: u64,
    analytics_n: u64,
    late_us: Vec<f64>,
}

pub fn run(p: &Params) -> Report {
    let mut rep = Report::default();
    let max_key: u64 = if p.tiny { 1 << 12 } else { 1 << 17 };
    let prefill = max_key / 2;
    let keys = prefill_keys(max_key, prefill, p.seed);
    let (setup_s, forest) = timed_setups(p.setup_reps, || {
        let f = ShardedBatSet::new(SHARDS, Partition::Hash);
        prefill_with(&keys, THREADS, |k| f.insert(k));
        f
    });
    drop(keys);

    let window = p.measure();
    let (fixed_runs, fixed_dur) = runs(window.mul_f64(0.24), Duration::from_secs(1));
    let rung_dur = window.mul_f64(0.06);
    let (sat_runs, sat_dur) = runs(window.mul_f64(0.12), Duration::from_millis(500));
    let mut run_id = 0u64;
    let mut serve = |rps: u64, dur: Duration| {
        run_id += 1;
        run_serve(&forest, &config(p, max_key, rps, dur, run_id))
    };
    serve(FIXED_RPS, p.warmup());

    let stop = AtomicBool::new(false);
    let skip = [own_tid()];
    let mut sampler = Sampler::default();
    let mut fixed = Fixed::default();
    let mut ladder = Vec::new();
    let mut sat_rps = Vec::new();
    let mut attempted = 0;
    let mut rejected = 0;
    let mut renewals = 0;
    std::thread::scope(|s| {
        let sampler = &mut sampler;
        let stop = &stop;
        let skip = &skip;
        s.spawn(move || {
            let mut skip = skip.to_vec();
            skip.push(own_tid());
            sampler.run(stop, &skip)
        });
        let mut account = |r: &ServeReport| {
            attempted += r
                .classes
                .iter()
                .map(|c| c.submitted + c.rejected)
                .sum::<u64>();
            rejected += r.rejected();
            renewals += r.lease_renewals;
        };
        for _ in 0..fixed_runs {
            let r = serve(FIXED_RPS, fixed_dur);
            account(&r);
            let point = class_samples(&r, &[serve::Class::Point as usize]);
            let analytics = class_samples(
                &r,
                &[serve::Class::Stat as usize, serve::Class::Range as usize],
            );
            fixed.point_p50.push(pct_us(&point, 0.5));
            fixed.point_p99.push(pct_us(&point, 0.99));
            fixed.analytics_p50.push(pct_us(&analytics, 0.5));
            fixed.analytics_p99.push(pct_us(&analytics, 0.99));
            fixed.point_n += point.len() as u64;
            fixed.analytics_n += analytics.len() as u64;
            fixed.late_us.push(late_at_end_us(&r, FIXED_RPS, fixed_dur));
        }
        for rps in LADDER_RPS {
            let r = serve(rps, rung_dur);
            account(&r);
            let all = class_samples(&r, &[0, 1, 2]);
            ladder.push((
                rps,
                pct_us(&all, 0.99),
                r.rejected(),
                late_at_end_us(&r, rps, rung_dur),
            ));
        }
        for _ in 0..sat_runs {
            let r = serve(0, sat_dur);
            account(&r);
            sat_rps.push(r.rps());
        }
        stop.store(true, Ordering::Release);
    });
    rep.attempted = attempted;
    rep.failed = rejected;

    rep.add("serve_rps", median(&sat_rps), "1/s");
    rep.add("setup_s", setup_s, "s");
    // Medians over the fixed-rate runs; `n` is the samples of one run.
    let per_run = |n: u64| n / fixed_runs as u64;
    for (name, runs, n) in [
        ("point_p50_us", &fixed.point_p50, fixed.point_n),
        ("point_p99_us", &fixed.point_p99, fixed.point_n),
        ("analytics_p50_us", &fixed.analytics_p50, fixed.analytics_n),
        ("analytics_p99_us", &fixed.analytics_p99, fixed.analytics_n),
    ] {
        rep.add_pct(name, median(runs), "us", per_run(n));
    }
    let mut at_p99 = 0;
    for &(rps, p99, rej, late) in &ladder {
        rep.add(&format!("ladder.{rps}.p99_us"), p99, "us");
        rep.add(&format!("ladder.{rps}.late_us_end"), late, "us");
        if p99 <= P99_LIMIT_US && rej == 0 && late < P99_LIMIT_US {
            at_p99 = rps;
        }
    }
    rep.add("serve_rps_at_p99", at_p99 as f64, "1/s");
    rep.add(
        "serve.rejected_share",
        rejected as f64 / attempted.max(1) as f64,
        "ratio",
    );
    rep.add("serve.lease_renewals", renewals as f64, "count");
    rep.add(
        "client.late_us_end",
        fixed.late_us.iter().copied().fold(0.0, f64::max),
        "us",
    );
    let shares = sampler.shares();
    rep.add("host.wait_share", median(&shares), "ratio");
    rep.add(
        "host.wait_share_max",
        shares.iter().copied().fold(0.0, f64::max),
        "ratio",
    );

    direct_phase(
        &forest,
        p,
        max_key,
        window.mul_f64(0.4),
        median(&fixed.point_p50),
        sampler.unreclaimed_peak,
        &mut rep,
    );

    gate::check_forest(
        &forest,
        max_key,
        serve::ServeConfig::default().range_span,
        p.seed,
        &mut rep.gate_errors,
    );
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    rep
}

/// The direct-call phase: one thread makes the serve mix of calls on the
/// forest itself, closed loop. Untraced ops are timed whole; in a traced
/// run odd slices are traced instead.
fn direct_phase(
    forest: &ShardedBatSet,
    p: &Params,
    max_key: u64,
    length: Duration,
    serve_point_p50: f64,
    serve_unreclaimed_peak: u64,
    rep: &mut Report,
) {
    let span = serve::ServeConfig::default().range_span;
    let win = Window::new(Duration::ZERO, length, SLICES, p.trace);
    let members: Vec<_> = forest.shards().collect();
    let sets = || forest.shards();
    let part = forest.partition();
    let mut rng = Xorshift::new(p.seed ^ 0x00d1_2ec7);
    let mut tr = Tracer::new(win.t0, 0);
    let mut slice_ops = vec![0u64; win.slices];
    let mut point = Hist::default();
    let mut updates = 0u64;
    let mut unreclaimed = serve_unreclaimed_peak;
    let (h0, m0, _) = ebr::pool::local_stats();
    let c0 = Counters::read(sets());
    let end = win.end();
    let mut now = Instant::now();
    while now < end {
        let slice = win.slice_of(now).expect("no warm-up");
        let traced = win.traced(slice);
        let pm = rng.below(1000);
        let k = rng.below(max_key);
        let kind = if pm < 150 {
            if rng.below(2) == 0 {
                OpKind::Rank
            } else {
                OpKind::Select
            }
        } else if pm < 200 {
            OpKind::RangeCount
        } else {
            match rng.below(10) {
                0..=3 => OpKind::Insert,
                4..=6 => OpKind::Remove,
                _ => OpKind::Contains,
            }
        };
        let a = if kind == OpKind::Select {
            k % (max_key / 2)
        } else {
            k
        };
        updates += kind.is_update() as u64;
        if traced {
            tr.begin(Instant::now());
            now = match kind {
                OpKind::Insert | OpKind::Remove => {
                    let t0 = Instant::now();
                    let m = members[part.shard_of(a, members.len())];
                    let t1 = Instant::now();
                    tr.child(Span::ShardRoute, t0, t1);
                    traced_update(m, a, kind == OpKind::Insert, &mut tr).1
                }
                OpKind::Contains => {
                    // The forest call and the member call on the same key,
                    // in alternating order so neither always finds the
                    // path already cached.
                    let m = members[part.shard_of(a, members.len())];
                    let forest_first = slice_ops[slice].is_multiple_of(2);
                    let call = |forest_call: bool| {
                        std::hint::black_box(if forest_call {
                            forest.contains(a)
                        } else {
                            m.contains(&a)
                        })
                    };
                    let t0 = Instant::now();
                    call(forest_first);
                    let t1 = Instant::now();
                    call(!forest_first);
                    let t2 = Instant::now();
                    let (f, m) = if forest_first {
                        ((t0, t1), (t1, t2))
                    } else {
                        ((t1, t2), (t0, t1))
                    };
                    tr.child(Span::ShardContains, f.0, f.1);
                    tr.child(Span::MemberContains, m.0, m.1);
                    t2
                }
                _ => {
                    // The member snapshots are taken before the cut on
                    // even ops and after it on odd ones, as above.
                    let members_first = slice_ops[slice].is_multiple_of(2);
                    let member_snaps = |tr: &mut Tracer| {
                        let t0 = Instant::now();
                        let snaps: Vec<_> = members.iter().map(|m| m.snapshot()).collect();
                        let t1 = Instant::now();
                        drop(snaps);
                        let t2 = Instant::now();
                        tr.child(Span::MemberSnapshots, t0, t1);
                        tr.child(Span::Unpin, t1, t2);
                        t2
                    };
                    if members_first {
                        member_snaps(&mut tr);
                    }
                    let t0 = Instant::now();
                    let cut = forest.snapshot();
                    let t1 = Instant::now();
                    std::hint::black_box(match kind {
                        OpKind::Rank => cut.rank(a),
                        OpKind::Select => cut.select(a).unwrap_or(u64::MAX),
                        _ => cut.range_count(a, a + span),
                    });
                    let t2 = Instant::now();
                    drop(cut);
                    let t3 = Instant::now();
                    tr.child(Span::ShardCut, t0, t1);
                    tr.child(Span::ShardDescent, t1, t2);
                    tr.child(Span::Unpin, t2, t3);
                    if members_first {
                        t3
                    } else {
                        member_snaps(&mut tr)
                    }
                }
            };
            tr.end(kind, now);
        } else {
            let t0 = Instant::now();
            std::hint::black_box(match kind {
                OpKind::Insert => forest.insert(a) as u64,
                OpKind::Remove => forest.remove(a) as u64,
                OpKind::Contains => forest.contains(a) as u64,
                OpKind::Rank => forest.rank(a),
                OpKind::Select => forest.select(a).unwrap_or(u64::MAX),
                OpKind::RangeCount => forest.range_count(a, a + span),
            });
            now = Instant::now();
            if !matches!(kind, OpKind::Rank | OpKind::Select | OpKind::RangeCount) {
                point.record(now.saturating_duration_since(t0).as_nanos() as u64);
            }
        }
        slice_ops[slice] += 1;
        if slice_ops[slice].is_multiple_of(1024) {
            let s = ebr::stats();
            unreclaimed = unreclaimed.max(s.retired.saturating_sub(s.freed) as u64);
        }
    }
    let c1 = Counters::read(sets());
    let (h1, m1, _) = ebr::pool::local_stats();

    let slice_s = win.slice.as_secs_f64();
    let rate = |traced: bool| {
        median(
            &(0..win.slices)
                .filter(|&i| win.traced(i) == traced)
                .map(|i| slice_ops[i] as f64 / slice_s / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let point_p50 = point.quantile(0.5) / 1e3;
    rep.add("throughput_mops", rate(false), "Mop/s");
    rep.add_pct("op_p50_us", point_p50, "us", point.count());
    rep.add_pct("op_p99_us", point.quantile(0.99) / 1e3, "us", point.count());
    rep.add("serve.overhead_us", serve_point_p50 - point_p50, "us");
    if !p.trace {
        return;
    }

    report_spans(&tr, rep);
    c0.report_delta(&c1, updates, rep);
    rep.add("ebr.unreclaimed_peak", unreclaimed as f64, "count");
    let (hits, misses) = (h1 - h0, m1 - m0);
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
    rep.add(
        "trace.overhead_share",
        1.0 - rate(true) / rate(false),
        "ratio",
    );
    let contains = tr.span(Span::MemberContains).mean();
    rep.add("core.contains_ns", contains, "ns");
    rep.add(
        "shard.route_ns",
        tr.span(Span::ShardContains).mean() - contains,
        "ns",
    );
    rep.add(
        "shard.cut_ns",
        tr.span(Span::ShardCut).mean() - tr.span(Span::MemberSnapshots).mean(),
        "ns",
    );
    rep.add("shard.descent_ns", tr.span(Span::ShardDescent).mean(), "ns");
    p.write_trace(&tr);
    eprint!("{}", tr.table());
}
