//! Reproducer harness for the rare BAT liveness/memory bug tracked in
//! the ROADMAP forensics (one livelock and one SIGSEGV, both seen while
//! a since-deleted pool-bypassing hot-path mode was on). Two modes:
//!
//! * **Wall-clock mode** (default): 3 mixes × TT 1,2,4,8 × 3 trials of
//!   600 ms on `BatAdapter::plain`, the sweep shape under which the two
//!   failures were observed. `cargo run --release -p bench --example
//!   bat_hunt -- <iterations>`.
//!
//! * **Deterministic-scheduler mode** (`--sched [schedules]`):
//!   explores seeded interleavings of a 3-thread
//!   insert/remove/contains/rank mix on `BatSet` under the cooperative
//!   scheduler, with reclamation poisoning (debug builds) and the
//!   `refresh.rs` crash fences armed. Build with `--features
//!   bench/sched-test` so every atomic access is a preemption point; a
//!   reproduction dumps the seed + trace for exact replay.
//!   `cargo run -p bench --features sched-test --example bat_hunt --
//!   --sched 2000`
use std::time::Duration;

use cbat_core::sched_hunt::hunt_body;
use sched::{explore, ExploreConfig, Policy};
use workloads::{OpMix, QueryKind, RunConfig};

fn sched_mode(schedules: usize) {
    if !cfg!(feature = "sched-test") {
        eprintln!(
            "WARNING: built without --features sched-test — atomics are not \
             preemption points, so exploration only branches at spawn/join. \
             Rebuild with `--features bench/sched-test` for a real hunt."
        );
    }
    let per_cell = (schedules / 2).max(1);
    let mut explored = 0usize;
    let mut failures = 0usize;
    for (opseed_base, policy) in [
        (0x0BA7_1000u64, Policy::RandomWalk),
        (0x0BA7_2000, Policy::Pct { depth: 3 }),
    ] {
        // Rotate op-stream seeds so long campaigns vary the workload too.
        let mut remaining = per_cell;
        let mut round = 0u64;
        while remaining > 0 {
            let chunk = remaining.min(100);
            let opseed = opseed_base ^ round;
            let cfg = ExploreConfig {
                schedules: chunk,
                seed: opseed_base ^ (round << 32) ^ 0x5EED,
                max_steps: 3_000_000,
                policy,
                stop_on_failure: false,
            };
            let report = explore(&cfg, move || hunt_body(opseed));
            explored += report.schedules;
            failures += report.failures.len();
            remaining -= chunk;
            round += 1;
            eprintln!(
                "sched hunt: {explored} schedules explored, {failures} failures \
                 (policy {policy:?})"
            );
        }
    }
    if failures == 0 {
        eprintln!("ALL OK: {explored} schedules clean");
    } else {
        eprintln!("{failures} failing schedules — seeds+traces above");
        std::process::exit(1);
    }
}

fn wall_clock_mode(iters: usize) {
    let mixes = [[50u32, 50, 0, 0], [25, 25, 40, 10], [5, 5, 60, 30]];
    for it in 0..iters {
        for (mi, mix) in mixes.iter().enumerate() {
            for tt in [1usize, 2, 4, 8] {
                for trial in 0..3usize {
                    let mut c = RunConfig::new(tt, 1 << 15);
                    c.mix = OpMix::percent(mix[0], mix[1], mix[2], mix[3]);
                    c.query = QueryKind::RangeCount { size: 100 };
                    c.duration = Duration::from_millis(600);
                    c.seed = 0x00BE_9C42 ^ (trial as u64) << 32 ^ tt as u64;
                    let s = bench::BatAdapter::plain();
                    workloads::run(&s, &c);
                    ebr::flush();
                }
                eprintln!("iter {it} mix {mi} TT={tt} ok");
            }
        }
        eprintln!("== iter {it} done ==");
    }
    eprintln!("ALL OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--sched") {
        let schedules: usize = args
            .get(1)
            .map(|s| s.parse().expect("--sched <schedules>"))
            .unwrap_or(500);
        sched_mode(schedules);
    } else {
        let iters: usize = args
            .first()
            .map(|s| s.parse().expect("<iterations>"))
            .unwrap_or(10);
        wall_clock_mode(iters);
    }
}
