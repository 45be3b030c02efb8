//! The pre-PR 3 fanout tree: one atomic root pointer, whole-path COW.
//!
//! Kept as the **ablation baseline** for the contended-writers benchmark
//! (`bench_pr10` section 2): every update copies the full root-to-leaf path and
//! publishes with a single root `compare_exchange`, so concurrent writers
//! — even on disjoint subtrees — serialize on one word and retry each
//! other. [`crate::FanoutSet`] replaces this scheme with per-subtree
//! versioned edges; the measured gap between the two is the point of the
//! PR 3 tentpole. Allocation discipline (EBR-pooled fixed-layout nodes,
//! thread-local replaced-path scratch) is identical in both, so the
//! benchmark isolates the publication scheme.

use sched::atomic::{AtomicU64, Ordering};
use std::cell::RefCell;

use crate::{PubSnapshot, PubStats, LEAF_CAP, NODE_CAP};

/// A fixed-capacity copy-on-write tree node. Both variants carry their
/// arrays inline so the whole enum is one `(size, align)` class for the
/// EBR pool; `len` tracks the occupied prefix.
enum BNode {
    /// Sorted keys in `keys[..len]`.
    Leaf { len: u8, keys: [u64; LEAF_CAP] },
    /// `children[..len]` are occupied; `seps[i]` is the smallest key
    /// reachable under `children[i + 1]` (so `len - 1` separators).
    Internal {
        len: u8,
        seps: [u64; NODE_CAP - 1],
        children: [u64; NODE_CAP],
    },
}

impl BNode {
    /// Build a leaf from a sorted slice (`keys.len() <= LEAF_CAP`).
    fn leaf(src: &[u64]) -> u64 {
        debug_assert!(src.len() <= LEAF_CAP);
        let mut keys = [0u64; LEAF_CAP];
        keys[..src.len()].copy_from_slice(src);
        Self::alloc(BNode::Leaf {
            len: src.len() as u8,
            keys,
        })
    }

    /// Build an internal node from slices (`ch.len() <= NODE_CAP`,
    /// `sp.len() == ch.len() - 1`).
    fn internal(sp: &[u64], ch: &[u64]) -> u64 {
        debug_assert!(ch.len() <= NODE_CAP && sp.len() + 1 == ch.len());
        let mut seps = [0u64; NODE_CAP - 1];
        let mut children = [0u64; NODE_CAP];
        seps[..sp.len()].copy_from_slice(sp);
        children[..ch.len()].copy_from_slice(ch);
        Self::alloc(BNode::Internal {
            len: ch.len() as u8,
            seps,
            children,
        })
    }

    fn alloc(self) -> u64 {
        ebr::pool::alloc_pooled(self) as u64
    }

    #[inline]
    unsafe fn from_raw<'g>(raw: u64) -> &'g BNode {
        unsafe { &*(raw as *const BNode) }
    }

    /// The occupied key prefix (leaves only).
    #[inline]
    fn keys(&self) -> &[u64] {
        match self {
            BNode::Leaf { len, keys } => &keys[..*len as usize],
            BNode::Internal { .. } => unreachable!("keys() on internal node"),
        }
    }

    /// The occupied `(seps, children)` prefixes (internal nodes only).
    #[inline]
    fn fan(&self) -> (&[u64], &[u64]) {
        match self {
            BNode::Internal {
                len,
                seps,
                children,
            } => (&seps[..*len as usize - 1], &children[..*len as usize]),
            BNode::Leaf { .. } => unreachable!("fan() on leaf node"),
        }
    }
}

thread_local! {
    /// Reusable buffer for the root-to-leaf path an update replaces
    /// (capacity is retained across updates: no per-update allocation).
    static REPLACED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The single-root-CAS fanout set (ablation baseline; see module docs).
pub struct SingleRootFanoutSet {
    root: AtomicU64,
    /// Root-CAS outcome counters, comparable to [`crate::FanoutSet`]'s
    /// publication stats: every writer's publish is one root CAS, so the
    /// abort rate here measures whole-tree publication contention.
    stats: PubStats,
}

unsafe impl Send for SingleRootFanoutSet {}
unsafe impl Sync for SingleRootFanoutSet {}

/// An O(1) snapshot: the root as of some instant, pinned by a guard.
pub struct SingleRootSnapshot {
    root: u64,
    _guard: ebr::Guard,
}

/// Result of a path-copying update attempt.
enum Updated {
    /// New subtree root.
    One(u64),
    /// The subtree split: (left, separator, right).
    Split(u64, u64, u64),
    /// No change needed (key already present/absent).
    Noop,
}

impl SingleRootFanoutSet {
    /// Empty set.
    pub fn new() -> Self {
        SingleRootFanoutSet {
            root: AtomicU64::new(BNode::leaf(&[])),
            stats: PubStats::default(),
        }
    }

    /// Cumulative root-CAS publication counters for this set.
    pub fn pub_stats(&self) -> PubSnapshot {
        self.stats.snapshot()
    }

    /// Insert `k`; `true` iff newly added.
    pub fn insert(&self, k: u64) -> bool {
        self.update(k, true)
    }

    /// Remove `k`; `true` iff present.
    pub fn remove(&self, k: u64) -> bool {
        self.update(k, false)
    }

    fn update(&self, k: u64, insert: bool) -> bool {
        REPLACED.with(|cell| {
            let mut replaced = cell.borrow_mut();
            loop {
                let guard = ebr::pin();
                let root = self.root.load(Ordering::Acquire);
                replaced.clear();
                let outcome = Self::update_rec(root, k, insert, &mut replaced);
                let new_root = match outcome {
                    Updated::Noop => return false,
                    Updated::One(r) => r,
                    Updated::Split(l, sep, r) => BNode::internal(&[sep], &[l, r]),
                };
                self.stats.incr_attempt();
                if self
                    .root
                    .compare_exchange(root, new_root, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.stats.incr_commit();
                    for &raw in replaced.iter() {
                        unsafe { ebr::pool::retire_pooled(&guard, raw as *mut BNode) };
                    }
                    return true;
                }
                // Lost the race: free the unpublished copies and retry.
                self.stats.incr_abort();
                self.stats.incr_retry();
                Self::dispose_new(new_root, &replaced);
            }
        })
    }

    /// Recursively copy the path for an update. `replaced` collects the
    /// old nodes to retire on success.
    fn update_rec(raw: u64, k: u64, insert: bool, replaced: &mut Vec<u64>) -> Updated {
        match unsafe { BNode::from_raw(raw) } {
            node @ BNode::Leaf { .. } => {
                let keys = node.keys();
                match keys.binary_search(&k) {
                    Ok(i) => {
                        if insert {
                            return Updated::Noop;
                        }
                        let mut new = [0u64; LEAF_CAP];
                        new[..i].copy_from_slice(&keys[..i]);
                        new[i..keys.len() - 1].copy_from_slice(&keys[i + 1..]);
                        replaced.push(raw);
                        Updated::One(BNode::leaf(&new[..keys.len() - 1]))
                    }
                    Err(i) => {
                        if !insert {
                            return Updated::Noop;
                        }
                        let mut new = [0u64; LEAF_CAP + 1];
                        new[..i].copy_from_slice(&keys[..i]);
                        new[i] = k;
                        new[i + 1..keys.len() + 1].copy_from_slice(&keys[i..]);
                        let n = keys.len() + 1;
                        replaced.push(raw);
                        if n <= LEAF_CAP {
                            Updated::One(BNode::leaf(&new[..n]))
                        } else {
                            let mid = n / 2;
                            Updated::Split(
                                BNode::leaf(&new[..mid]),
                                new[mid],
                                BNode::leaf(&new[mid..n]),
                            )
                        }
                    }
                }
            }
            node @ BNode::Internal { .. } => {
                let (seps, children) = node.fan();
                let idx = seps.partition_point(|s| *s <= k);
                match Self::update_rec(children[idx], k, insert, replaced) {
                    Updated::Noop => Updated::Noop,
                    Updated::One(c) => {
                        let mut ch = [0u64; NODE_CAP];
                        ch[..children.len()].copy_from_slice(children);
                        ch[idx] = c;
                        replaced.push(raw);
                        Updated::One(BNode::internal(seps, &ch[..children.len()]))
                    }
                    Updated::Split(l, sep, r) => {
                        let mut ch = [0u64; NODE_CAP + 1];
                        let mut sp = [0u64; NODE_CAP];
                        ch[..children.len()].copy_from_slice(children);
                        sp[..seps.len()].copy_from_slice(seps);
                        ch[idx] = l;
                        ch.copy_within(idx + 1..children.len(), idx + 2);
                        ch[idx + 1] = r;
                        sp.copy_within(idx..seps.len(), idx + 1);
                        sp[idx] = sep;
                        let n = children.len() + 1;
                        replaced.push(raw);
                        if n <= NODE_CAP {
                            Updated::One(BNode::internal(&sp[..n - 1], &ch[..n]))
                        } else {
                            // With `n` children there are `n - 1` seps:
                            // left keeps mid children / mid - 1 seps, the
                            // mid-th sep is promoted, the rest go right.
                            let mid = n / 2;
                            Updated::Split(
                                BNode::internal(&sp[..mid - 1], &ch[..mid]),
                                sp[mid - 1],
                                BNode::internal(&sp[mid..n - 1], &ch[mid..n]),
                            )
                        }
                    }
                }
            }
        }
    }

    /// Free the freshly allocated copies of a failed update. Old nodes
    /// (in `replaced`) are shared with the live tree and must survive, as
    /// must their children (the copies share subtrees with them).
    fn dispose_new(new_root: u64, replaced: &[u64]) {
        fn is_shared(raw: u64, replaced: &[u64]) -> bool {
            replaced.iter().any(|&r| {
                r == raw
                    || match unsafe { BNode::from_raw(r) } {
                        node @ BNode::Internal { .. } => node.fan().1.contains(&raw),
                        BNode::Leaf { .. } => false,
                    }
            })
        }
        fn rec(raw: u64, replaced: &[u64]) {
            if is_shared(raw, replaced) {
                return;
            }
            if let node @ BNode::Internal { .. } = unsafe { BNode::from_raw(raw) } {
                for &c in node.fan().1 {
                    rec(c, replaced);
                }
            }
            unsafe { ebr::pool::dispose_pooled(raw as *mut BNode) };
        }
        rec(new_root, replaced);
    }

    /// Take an O(1) snapshot.
    pub fn snapshot(&self) -> SingleRootSnapshot {
        let guard = ebr::pin();
        SingleRootSnapshot {
            root: self.root.load(Ordering::Acquire),
            _guard: guard,
        }
    }

    /// Linearizable membership.
    pub fn contains(&self, k: u64) -> bool {
        self.snapshot().contains(k)
    }

    /// Θ(n) size (unaugmented).
    pub fn len_slow(&self) -> u64 {
        self.snapshot().range_count(0, u64::MAX)
    }
}

impl Default for SingleRootFanoutSet {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SingleRootFanoutSet {
    fn drop(&mut self) {
        fn walk(raw: u64) {
            if let node @ BNode::Internal { .. } = unsafe { BNode::from_raw(raw) } {
                for &c in node.fan().1 {
                    walk(c);
                }
            }
            unsafe { ebr::pool::dispose_pooled(raw as *mut BNode) };
        }
        walk(self.root.load(Ordering::Acquire));
    }
}

impl SingleRootSnapshot {
    /// Membership within the snapshot, O(log_F n).
    pub fn contains(&self, k: u64) -> bool {
        let mut raw = self.root;
        loop {
            match unsafe { BNode::from_raw(raw) } {
                node @ BNode::Leaf { .. } => return node.keys().binary_search(&k).is_ok(),
                node @ BNode::Internal { .. } => {
                    let (seps, children) = node.fan();
                    raw = children[seps.partition_point(|s| *s <= k)];
                }
            }
        }
    }

    /// Count keys in `[lo, hi]` — Θ(log n + range/F) snapshot traversal.
    pub fn range_count(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        fn rec(raw: u64, lo: u64, hi: u64) -> u64 {
            match unsafe { BNode::from_raw(raw) } {
                node @ BNode::Leaf { .. } => {
                    let keys = node.keys();
                    let a = keys.partition_point(|k| *k < lo);
                    let b = keys.partition_point(|k| *k <= hi);
                    (b - a) as u64
                }
                node @ BNode::Internal { .. } => {
                    let (seps, children) = node.fan();
                    let first = seps.partition_point(|s| *s <= lo);
                    let last = seps.partition_point(|s| *s <= hi);
                    (first..=last).map(|i| rec(children[i], lo, hi)).sum()
                }
            }
        }
        rec(self.root, lo, hi)
    }

    /// Collect keys in `[lo, hi]`.
    pub fn range_collect(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        fn rec(raw: u64, lo: u64, hi: u64, out: &mut Vec<u64>) {
            match unsafe { BNode::from_raw(raw) } {
                node @ BNode::Leaf { .. } => {
                    for &k in node.keys().iter().filter(|k| **k >= lo && **k <= hi) {
                        out.push(k);
                    }
                }
                node @ BNode::Internal { .. } => {
                    let (seps, children) = node.fan();
                    let first = seps.partition_point(|s| *s <= lo);
                    let last = seps.partition_point(|s| *s <= hi);
                    for &child in &children[first..=last] {
                        rec(child, lo, hi, out);
                    }
                }
            }
        }
        if lo <= hi {
            rec(self.root, lo, hi, &mut out);
        }
        out
    }

    /// Rank (keys ≤ k) — Θ(#keys ≤ k) scan: unaugmented cost model.
    pub fn rank(&self, k: u64) -> u64 {
        self.range_count(0, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_oracle() {
        use std::collections::BTreeSet;
        let s = SingleRootFanoutSet::new();
        let mut oracle = BTreeSet::new();
        let mut x = 31337u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 300;
            if x & 1 == 0 {
                assert_eq!(s.insert(k), oracle.insert(k), "insert {k}");
            } else {
                assert_eq!(s.remove(k), oracle.remove(&k), "remove {k}");
            }
        }
        let got = s.snapshot().range_collect(0, u64::MAX);
        let want: Vec<u64> = oracle.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_writers_no_lost_updates() {
        let s = Arc::new(SingleRootFanoutSet::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        assert!(s.insert(t * 10_000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len_slow(), 4000);
        ebr::flush();
    }
}
