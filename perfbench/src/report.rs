//! Named metrics with units, the gated subsets, and the result line.

use std::fmt::Write as _;

/// The metrics `BENCHMARK.json` gates with a bound (untraced runs). Every
/// workload reports each of them; see `perfbench/README.md` for what
/// `op_p50_us` times on each workload.
pub const END_TO_END: [&str; 4] = ["throughput_mops", "op_p50_us", "setup_s", "peak_rss_mb"];

/// The per-layer metrics every workload's traced run reports.
pub const PER_LAYER: [&str; 21] = [
    "core.update_ns",
    "chromatic.update_ns",
    "chromatic.scx_per_update",
    "chromatic.scx_fail_ratio",
    "chromatic.rebalance_per_update",
    "propagate.ns",
    "propagate.nodes_per_update",
    "propagate.cas_per_update",
    "propagate.cas_fail_ratio",
    "propagate.nil_fixes_per_update",
    "propagate.delegations_per_update",
    "propagate.delegation_timeouts",
    "ebr.pin_ns",
    "ebr.retired_per_update",
    "ebr.freed_per_update",
    "ebr.unreclaimed_peak",
    "pool.hit_ratio",
    "pool.miss_per_update",
    "host.wait_share",
    "bench.self_share",
    "trace.overhead_share",
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile.
    pub samples: Option<u64>,
}

#[derive(Default, Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures, one line each; empty when the gate passed.
    pub gate_errors: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    /// A percentile and the number of samples it was taken from.
    pub fn add_pct(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: Some(samples),
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.gate_errors.is_empty()
    }

    /// Every metric, one `metric <name> <value> <unit> [n=<samples>]` line.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = write!(s, "metric {} {} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(s, " n={n}");
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "metric failed_share {} ratio n={}",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted
        );
        for e in &self.gate_errors {
            let _ = writeln!(s, "gate FAILED: {e}");
        }
        s
    }

    /// The result line: the gated metrics named in `names`.
    pub fn result_json(&self, names: &[&str]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .get(name)
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            assert!(m.value.is_finite(), "{name} is not a number: {}", m.value);
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of a sample (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut v: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
