//! Log-linear latency histogram: fixed memory whatever the run length, so
//! a faster program does not pay for its extra samples in `peak_rss_mb`.
//!
//! Values below 128 ns get one bucket each; above that every power of two
//! is split into 64 equal buckets (under 1.6 % relative width).
//! Percentiles interpolate linearly inside the bucket that holds the
//! requested rank.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS; // buckets per power of two
const LINEAR: u64 = 2 * SUB; // values below this are exact
const MAX_SHIFT: u32 = 40; // clamp at ~2^46 ns
const BUCKETS: usize = (LINEAR + MAX_SHIFT as u64 * SUB) as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = (msb - SUB_BITS).min(MAX_SHIFT);
    let top = (v >> shift).min(2 * SUB - 1); // in [SUB, 2*SUB)
    (LINEAR + (shift as u64 - 1) * SUB + (top - SUB)) as usize
}

/// Inclusive lower bound and width of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < LINEAR {
        return (i as f64, 1.0);
    }
    let shift = (i - LINEAR) / SUB + 1;
    let top = (i - LINEAR) % SUB + SUB;
    ((top << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `p`-quantile (`p` in [0, 1]) in ns; NaN when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        // Rank of the requested sample, 0-based, as a real number.
        let rank = p.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > rank {
                let (lo, width) = bounds(i);
                let frac = (rank - below as f64 + 0.5) / c as f64;
                return lo + frac.min(1.0) * width;
            }
            below += c;
        }
        let (lo, width) = bounds(BUCKETS - 1);
        lo + width
    }

    /// Whether the sample leaves at least ten values beyond quantile `p`.
    pub fn supports(&self, p: f64) -> bool {
        (self.n as f64 * (1.0 - p)) >= 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0usize;
        for v in 0..1_000_000u64 {
            let i = index(v);
            assert!(i == last || i == last + 1, "gap at {v}");
            let (lo, w) = bounds(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + w,
                "{v} not in bucket {i}"
            );
            last = i;
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_track_exact_values() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [0.5, 0.9, 0.99] {
            let exact = p * 100_000.0;
            let got = h.quantile(p);
            assert!((got - exact).abs() / exact < 0.02, "p{p}: {got} vs {exact}");
        }
        assert!(h.supports(0.99));
    }
}
