//! The correctness gate, run on the quiescent structure after the
//! measured phase. Each mismatch becomes one line in the report; any line
//! fails the run.

use shard::ShardedBatSet;
use workloads::Xorshift;

use crate::structure::Bat;

const PROBES: usize = 1000;

/// The sorted oracle: every key of `set`, from `range_collect`.
fn oracle(set: &Bat) -> Vec<u64> {
    set.snapshot()
        .range_collect(&0, &u64::MAX)
        .into_iter()
        .map(|(k, ())| k)
        .collect()
}

fn count_le(keys: &[u64], k: u64) -> u64 {
    keys.partition_point(|&x| x <= k) as u64
}

fn count_in(keys: &[u64], lo: u64, hi: u64) -> u64 {
    count_le(keys, hi) - keys.partition_point(|&x| x < lo) as u64
}

/// Check `rank`, `select`, `range_count` and `contains` answers against
/// the sorted `keys` on seed-chosen probes.
fn probe(
    label: &str,
    keys: &[u64],
    max_key: u64,
    span: u64,
    seed: u64,
    ask: &dyn Fn(Query) -> u64,
    errs: &mut Vec<String>,
) {
    let mut rng = Xorshift::new(seed ^ 0x6a7e);
    let before = errs.len();
    for _ in 0..PROBES {
        let k = rng.below(max_key);
        let checks = [
            (Query::Rank(k), count_le(keys, k)),
            (
                Query::RangeCount(k, k + span - 1),
                count_in(keys, k, k + span - 1),
            ),
            (Query::Contains(k), keys.binary_search(&k).is_ok() as u64),
        ];
        for (q, want) in checks {
            let got = ask(q);
            if got != want {
                errs.push(format!("{label}: {q:?} = {got}, oracle says {want}"));
            }
        }
        if !keys.is_empty() {
            let i = rng.below(keys.len() as u64);
            let got = ask(Query::Select(i));
            if got != keys[i as usize] {
                errs.push(format!(
                    "{label}: select({i}) = {got}, oracle says {}",
                    keys[i as usize]
                ));
            }
        }
        if errs.len() - before >= 10 {
            errs.push(format!("{label}: further probe mismatches not listed"));
            return;
        }
    }
}

/// One gate query; answers are encoded as u64 (`select` → key or
/// `u64::MAX`, `contains` → 0/1).
#[derive(Clone, Copy, Debug)]
pub enum Query {
    Rank(u64),
    Select(u64),
    RangeCount(u64, u64),
    Contains(u64),
}

/// Gate one `BatSet`: node-tree invariants, `len` against the expected
/// count (when the caller knows it), and the query probes.
pub fn check_bat(
    set: &Bat,
    expected_len: Option<i64>,
    max_key: u64,
    span: u64,
    seed: u64,
    label: &str,
    errs: &mut Vec<String>,
) {
    if let Err(e) = set.as_map().node_tree().validate(true) {
        errs.push(format!("{label}: node tree invalid: {e:?}"));
    }
    let len = set.len();
    if let Some(want) = expected_len {
        if len as i64 != want {
            errs.push(format!(
                "{label}: len {len} != prefill + inserts - removes = {want}"
            ));
        }
    }
    let keys = oracle(set);
    if keys.len() as u64 != len || keys.windows(2).any(|w| w[0] >= w[1]) {
        errs.push(format!(
            "{label}: range_collect gave {} keys (sorted: {}), len says {len}",
            keys.len(),
            keys.windows(2).all(|w| w[0] < w[1])
        ));
    }
    let ask = |q: Query| match q {
        Query::Rank(k) => set.rank(&k),
        Query::Select(i) => set.select(i).unwrap_or(u64::MAX),
        Query::RangeCount(lo, hi) => set.range_count(&lo, &hi),
        Query::Contains(k) => set.contains(&k) as u64,
    };
    probe(label, &keys, max_key, span, seed, &ask, errs);
}

/// Gate a BAT forest: every member as above, the forest's `len` against
/// the sum of its members' and against its own consistent cut, and the
/// forest-level queries against the merged oracle.
pub fn check_forest(
    forest: &ShardedBatSet,
    max_key: u64,
    span: u64,
    seed: u64,
    errs: &mut Vec<String>,
) {
    let mut all = Vec::new();
    let mut sum = 0;
    for (i, m) in forest.shards().enumerate() {
        check_bat(
            m,
            None,
            max_key,
            span,
            seed ^ i as u64,
            &format!("shard {i}"),
            errs,
        );
        sum += m.len();
        all.extend(oracle(m));
    }
    all.sort_unstable();
    let cut = forest.snapshot().len();
    if forest.len() != sum || cut != sum || all.len() as u64 != sum {
        errs.push(format!(
            "forest: len {} / cut len {cut} / oracle {} != sum of shard lens {sum}",
            forest.len(),
            all.len()
        ));
    }
    let ask = |q: Query| match q {
        Query::Rank(k) => forest.rank(k),
        Query::Select(i) => forest.select(i).unwrap_or(u64::MAX),
        Query::RangeCount(lo, hi) => forest.range_count(lo, hi),
        Query::Contains(k) => forest.contains(k) as u64,
    };
    probe("forest", &all, max_key, span, seed, &ask, errs);
}
