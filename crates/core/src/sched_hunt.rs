//! The shared body of the deterministic BAT reclamation hunt, aimed at the
//! rare, unreproduced BAT liveness/memory bug of the ROADMAP forensics.
//!
//! Lives here — not duplicated in the test and the bench example — so the
//! CI corpus (`crates/core/tests/sched_hunt.rs`) and long campaigns
//! (`bench --example bat_hunt -- --sched N`) always run the
//! *same* scenario with the *same* post-race oracle; a divergence found
//! by either is reproducible in the other from its seed. The module is
//! compiled unconditionally (the scheduler API exists without the
//! `sched-test` feature), but only instrumented builds explore real
//! preemptions.

use std::sync::Arc;

use crate::{BatSet, DelegationPolicy};

/// Key space of the hunt mix: small enough that every operation contends
/// on structure and version-tree state.
pub const KEY_SPACE: u64 = 24;

/// One hunt scenario: three vthreads running a mixed workload whose op
/// streams derive from `opseed` (fixed per exploration; the schedule
/// supplies the interleaving diversity). The rank/len shares exercise the
/// `read_version` walk — the historical crash site — concurrently with
/// structural updates and version retirement. Ends with a version-tree
/// self-consistency oracle.
pub fn hunt_body(opseed: u64) {
    let set = Arc::new(BatSet::<u64>::with_policy(DelegationPolicy::None));
    for k in (0..KEY_SPACE).step_by(3) {
        set.insert(k);
    }
    let hs: Vec<_> = (0..3u64)
        .map(|t| {
            let set = set.clone();
            sched::spawn(move || {
                let mut x = opseed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..10 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % KEY_SPACE;
                    match x % 4 {
                        0 => {
                            set.insert(k);
                        }
                        1 => {
                            set.remove(&k);
                        }
                        2 => {
                            set.contains(&k);
                        }
                        _ => {
                            // The read_version-heavy path: a rank query
                            // reads the root version and walks the
                            // version tree.
                            set.rank(&k);
                        }
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join();
    }
    // Post-race consistency: the version tree agrees with itself.
    let n = set.len();
    assert_eq!(
        set.range_count(&0, &(KEY_SPACE - 1)),
        n,
        "root size and range count diverged"
    );
    assert_eq!(set.rank(&(KEY_SPACE - 1)), n);
}
