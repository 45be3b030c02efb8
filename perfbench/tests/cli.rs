//! A tiny-size run of every workload, untraced and traced, prints every
//! named metric with its unit and ends with the result line.

use std::process::Command;

use perfbench::{Workload, END_TO_END, PER_LAYER};

/// Metrics each workload names besides the gated ones, per trace mode.
fn named(w: Workload, trace: bool) -> Vec<&'static str> {
    let mut v = vec![
        "setup_s",
        "peak_rss_mb",
        "failed_share",
        "host.wait_share",
        "host.ref_mops",
    ];
    match (w, trace) {
        (Workload::UpdateHeavy, false) => v.extend(["op_p99_us", "update_p50_us", "update_p99_us"]),
        (Workload::QueryHeavy, false) => v.extend([
            "op_p99_us",
            "update_p50_us",
            "update_p99_us",
            "query_p50_us",
            "query_p99_us",
        ]),
        (Workload::ServeMixed, false) => v.extend([
            "op_p99_us",
            "serve_rps",
            "point_p50_us",
            "point_p99_us",
            "analytics_p50_us",
            "analytics_p99_us",
            "serve_rps_at_p99",
            "serve.rejected_share",
            "serve.lease_renewals",
            "client.late_us_end",
        ]),
        (Workload::UpdateHeavy, true) => {}
        (Workload::QueryHeavy, true) => v.extend([
            "core.contains_ns",
            "core.rank_ns",
            "core.select_ns",
            "core.range_count_ns",
            "core.snapshot_ns",
            "core.descent_ns",
        ]),
        (Workload::ServeMixed, true) => v.extend([
            "core.contains_ns",
            "shard.route_ns",
            "shard.cut_ns",
            "serve.overhead_us",
        ]),
    }
    v
}

#[test]
fn tiny_runs_print_every_named_metric() {
    let trace_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans");
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w.name(), "--seed", "3", "--seconds", "1"])
                .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
                .arg("--trace-dir")
                .arg(&trace_dir)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let ctx = format!("{} trace {trace}:\n{stdout}", w.name());
            assert!(out.status.success(), "{ctx}");
            let gated: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
            for name in gated.iter().chain(&named(w, trace)) {
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().nth(1) == Some(name))
                    .unwrap_or_else(|| panic!("{name} missing in {ctx}"));
                let f: Vec<&str> = line.split_whitespace().collect();
                assert!(f.len() >= 4, "{name} has no unit in {ctx}");
                assert!(
                    f[2].parse::<f64>().is_ok(),
                    "{name} is not a number in {ctx}"
                );
            }
            let last = stdout.lines().last().expect("result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{ctx}"
            );
            for name in gated {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} not in result line of {ctx}"
                );
            }
            assert!(last.contains("\"failed\": 0,"), "{ctx}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "update-heavy",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "update-heavy",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
