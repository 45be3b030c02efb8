//! What the host did to the run: per-thread run-queue wait from
//! `/proc/.../schedstat`, the speed of a fixed reference loop, and the
//! process's peak resident set.

use std::fs;
use std::time::Instant;

/// `(on-CPU ns, run-queue wait ns)` of the calling thread, or `None`
/// where the kernel does not expose schedstat.
pub fn thread_schedstat() -> Option<(u64, u64)> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// `(on-CPU ns, run-queue wait ns)` of every live thread of this
/// process, keyed by thread id.
pub fn all_thread_schedstats() -> Vec<(u64, (u64, u64))> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(s) = fs::read_to_string(e.path().join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t))
        {
            out.push((tid, s));
        }
    }
    out
}

fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run-queue wait of one thread over a window, as a share of the window.
pub struct WaitClock {
    start: Option<(u64, u64)>,
    at: std::time::Instant,
}

impl WaitClock {
    pub fn start() -> Self {
        WaitClock {
            start: thread_schedstat(),
            at: std::time::Instant::now(),
        }
    }

    /// Wait ns ÷ wall ns since [`WaitClock::start`] (NaN without schedstat).
    pub fn share(&self) -> f64 {
        let wall = self.at.elapsed().as_nanos() as f64;
        match (self.start, thread_schedstat()) {
            (Some((_, w0)), Some((_, w1))) => w1.saturating_sub(w0) as f64 / wall,
            _ => f64::NAN,
        }
    }
}

/// Speed of a fixed loop that runs none of the program's code: a chase
/// through one random cycle over a 4 MiB table, in million steps per
/// second. Shared hosts slow everything down in spells (2x spells were
/// seen on a 2-CPU cloud VM); a run whose figures moved together with this
/// one was disturbed, not regressed. Run it after `peak_rss_mb` is read,
/// so its table does not count.
pub fn reference_mops() -> f64 {
    const LEN: usize = 1 << 19;
    const STEPS: u32 = 1 << 21;
    // Sattolo's shuffle: `next` is a single cycle through every slot.
    let mut next: Vec<u32> = (0..LEN as u32).collect();
    let mut rng = workloads::Xorshift::new(0x7ef);
    for i in (1..LEN).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let mut at = 0u32;
    let t = Instant::now();
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}
