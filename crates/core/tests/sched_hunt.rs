//! sched-driven hunt for the ROADMAP's rare BAT reclamation race
//! (one livelock + one SIGSEGV on a null `BatNode` in `read_version →
//! VersionSlot::load`, `crates/core/src/refresh.rs`, seen twice in ~6
//! wall-clock bench sweeps and never in ~430 wall-clock reruns).
//!
//! Under the deterministic scheduler every shared-memory access of the
//! insert/remove/contains/rank mix is a preemption point, reclamation
//! poisoning (`ebr::pool`, debug builds) turns use-after-retire into loud
//! recognizable failures, the `refresh.rs` fences turn the historical
//! null/poisoned-child crash into a diagnostic panic, and the scheduler's
//! step budget turns the historical livelock into a failed schedule with
//! a replayable trace. A reproduction therefore surfaces as a *seeded,
//! byte-replayable* failure instead of a once-in-430-runs SIGSEGV.
//!
//! The default corpus is sized for CI; set `CBAT_SCHED_HUNT_SCHEDULES`
//! for long campaigns (`bench --example bat_hunt -- --sched N` wraps the
//! same body for out-of-CI hunting).
#![cfg(feature = "sched-test")]

use cbat_core::sched_hunt::hunt_body;
use sched::{explore, ExploreConfig, Policy};

#[test]
fn bat_reclamation_hunt_under_explored_schedules() {
    let budget: usize = std::env::var("CBAT_SCHED_HUNT_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    // Split the budget across op-stream seeds and the two policies, so a
    // campaign varies both the workload and the preemption shape.
    let per_cell = (budget / 4).max(1);
    let mut explored = 0usize;
    for (opseed, policy, seed) in [
        (0x0BA7_0001u64, Policy::RandomWalk, 0x4017_0001u64),
        (0x0BA7_0001, Policy::Pct { depth: 3 }, 0x4017_0002),
        (0x0BA7_0002, Policy::RandomWalk, 0x4017_0003),
        (0x0BA7_0002, Policy::Pct { depth: 3 }, 0x4017_0004),
    ] {
        let cfg = ExploreConfig {
            schedules: per_cell,
            seed,
            max_steps: 3_000_000,
            policy,
            stop_on_failure: true,
        };
        let report = explore(&cfg, move || hunt_body(opseed));
        report.assert_clean("BAT reclamation hunt");
        explored += report.schedules;
    }
    eprintln!(
        "sched hunt: {explored} schedules clean (poisoning + fences armed); \
         scale with CBAT_SCHED_HUNT_SCHEDULES"
    );
}
