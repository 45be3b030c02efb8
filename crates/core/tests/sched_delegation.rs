//! Deterministic-scheduler check of `wait_for_delegatee`'s timeout.
//!
//! Under `sched-test` the delegation wait's wall-clock deadline is a
//! yield-count budget. Replaying the same seed twice must produce
//! byte-identical traces, proving no wall-clock read leaks into
//! scheduled code.
//!
//! The check lives in its own test binary: a trace is only a function
//! of its seed while no other test in the process uses the global EBR
//! epoch and thread-slot registry. A concurrent test's threads can change
//! how many slots `ebr` scans on registration and whether an epoch
//! advance returns early, so the same seed can take a different number
//! of scheduled steps (merged into the `sched_hunt` binary, the two
//! replays diverged in 9 of 228 runs on a 2-vCPU host).
#![cfg(feature = "sched-test")]

use std::sync::Arc;

use cbat_core::{BatSet, DelegationPolicy};
use sched::run_random;

#[test]
fn delegation_timeout_is_deterministic_yield_budget() {
    // With the wall-clock deadline modeled as a yield budget, a schedule
    // is a pure function of its seed. Any Instant::now() left on a
    // scheduled path would make these traces diverge (the timeout would
    // fire at host-dependent moments).
    fn body() {
        let set = Arc::new(BatSet::<u64>::with_policy(DelegationPolicy::Del {
            timeout: Some(std::time::Duration::from_nanos(1)),
        }));
        set.insert(1_000);
        let hs: Vec<_> = (0..2u64)
            .map(|t| {
                let set = set.clone();
                sched::spawn(move || {
                    // Same-key contention so refreshes collide, delegation
                    // triggers, and the yield-budget timeout path runs.
                    for i in 0..6u64 {
                        let k = (t + i) % 2;
                        if i % 2 == 0 {
                            set.insert(k);
                        } else {
                            set.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        let snap = set.snapshot();
        assert_eq!(snap.len(), snap.keys().len() as u64);
    }
    let a = run_random(0xD37E_2217, 3_000_000, body);
    assert!(a.failure.is_none(), "run 1 failed: {:?}", a.failure);
    let b = run_random(0xD37E_2217, 3_000_000, body);
    assert!(b.failure.is_none(), "run 2 failed: {:?}", b.failure);
    assert_eq!(
        a.trace.render(),
        b.trace.render(),
        "schedule must be a pure function of the seed (wall clock leaked?)"
    );
    assert_eq!(a.steps, b.steps);
}
