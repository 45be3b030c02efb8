//! The correctness gate passes on a correct structure and reports a
//! wrong expected size.

use perfbench::gate::{check_bat, check_forest};
use perfbench::structure::Bat;
use shard::{Partition, ShardedBatSet};

#[test]
fn gate_passes_a_correct_set_and_flags_a_wrong_len() {
    let set = Bat::new();
    for k in (0..4096).step_by(3) {
        set.insert(k);
    }
    let n = set.len() as i64;
    let mut errs = Vec::new();
    check_bat(&set, Some(n), 4096, 100, 1, "set", &mut errs);
    assert!(errs.is_empty(), "{errs:?}");
    check_bat(&set, Some(n + 1), 4096, 100, 1, "set", &mut errs);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(errs[0].contains("len"), "{errs:?}");
}

#[test]
fn gate_passes_a_correct_forest() {
    let forest = ShardedBatSet::new(2, Partition::Hash);
    for k in (0..4096).step_by(5) {
        forest.insert(k);
    }
    let mut errs = Vec::new();
    check_forest(&forest, 4096, 100, 2, &mut errs);
    assert!(errs.is_empty(), "{errs:?}");
}
