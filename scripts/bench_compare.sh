#!/usr/bin/env bash
# Compare BENCH_PR*.json trajectory points and fail on a throughput
# regression.
#
# Two-file mode: any *optimized* result row present in both files
# (matched on mix, threads and shards — rows without a "shards" field,
# i.e. every pre-PR-6 file, default to 1) whose new throughput is more
# than the threshold below the old one fails the check, and any
# (mix, threads, shards) point present in the old file but MISSING from
# the new one fails too — a dropped trajectory point used to slip
# through silently, letting a regression hide by simply not being
# measured. Rows that record p99
# update latency in BOTH files are additionally checked for latency
# regressions: a p99 that grew by more than the latency threshold
# (default: 3x the throughput threshold — tail latencies on shared hosts
# are far noisier than means) fails too.
#
# Host-drift normalization: successive trajectory files are recorded on
# different container instances of a shared host, whose absolute speed
# varies by tens of percent with tenant load. The *baseline* rows run
# comparator code that behaves identically across PRs, so the median
# new/old ratio over shared baseline points estimates pure host drift;
# optimized rows are compared after dividing that factor out (both for
# throughput and for p99). A real optimization regression moves
# optimized rows relative to baseline rows and is still caught; absolute
# drift that moves both identically is not a code change. Requires >= 3
# shared baseline points, else the factor stays 1. Files up to
# BENCH_PR10.json also carry BAT rows with mode "baseline"; newly
# recorded files carry only the fanout comparator rows (contended-writers
# single-root and same-slice per-holder), so drift against a new file is
# estimated from those alone.
#
# Self mode (--self): within ONE file, every (mix, threads) point must
# have optimized throughput at least (100 - threshold)% of its baseline
# twin — in newly recorded files, the fanout comparator pairs
# (contended-writers single-root vs versioned-edge, same-slice per-holder
# vs per-edge). Both ran in the same process on the same machine, so
# this is host-independent — it is the check CI runs on a fresh smoke
# file to catch a code change that destroys the fanout publication wins.
#
# Usage:
#   scripts/bench_compare.sh OLD.json NEW.json [threshold-pct] [lat-threshold-pct]
#   scripts/bench_compare.sh --self NEW.json [threshold-pct]
# threshold-pct defaults to 10; lat-threshold-pct to 3x threshold-pct.
set -euo pipefail

if [ "${1:-}" = "--self" ]; then
    MODE=self
    shift
    OLD="${1:?usage: bench_compare.sh --self NEW.json [threshold-pct]}"
    NEW="$OLD"
    THRESH="${2:-10}"
    LAT_THRESH="${3:-0}" # latency check is pair-mode only
else
    MODE=pair
    OLD="${1:?usage: bench_compare.sh OLD.json NEW.json [threshold-pct] [lat-threshold-pct]}"
    NEW="${2:?usage: bench_compare.sh OLD.json NEW.json [threshold-pct] [lat-threshold-pct]}"
    THRESH="${3:-10}"
    LAT_THRESH="${4:-$((3 * THRESH))}"
fi

python3 - "$MODE" "$OLD" "$NEW" "$THRESH" "$LAT_THRESH" <<'EOF'
import json
import sys

mode, old_path, new_path, thresh_pct, lat_thresh_pct = (
    sys.argv[1],
    sys.argv[2],
    sys.argv[3],
    float(sys.argv[4]),
    float(sys.argv[5]),
)


def rows(path, mode_filter):
    with open(path) as f:
        doc = json.load(f)
    # BENCH_PR1.json rows carry no per-row mix; the whole file is one mix,
    # recorded in the workload header.
    default_mix = doc.get("workload", {}).get("mix", "?")
    out = {}
    for r in doc.get("results", []):
        if r.get("mode") != mode_filter:
            continue
        key = (
            r.get("mix", default_mix),
            r["threads"],
            r.get("shards", 1),
        )
        out[key] = (r["mops"], r.get("upd_p99_ns"))
    return out


drift_mops, drift_p99 = 1.0, 1.0
if mode == "self":
    old, new = rows(old_path, "baseline"), rows(new_path, "optimized")
    what = f"optimized vs baseline within {new_path}"
else:
    old, new = rows(old_path, "optimized"), rows(new_path, "optimized")
    what = f"{old_path} vs {new_path} (optimized rows)"
    # Estimate host drift from the shared baseline (comparator) rows.
    ob, nb = rows(old_path, "baseline"), rows(new_path, "baseline")
    shared = sorted(set(ob) & set(nb))
    if len(shared) >= 3:
        ratios = sorted(nb[k][0] / ob[k][0] for k in shared)
        drift_mops = ratios[len(ratios) // 2]
        lat = sorted(
            nb[k][1] / ob[k][1] for k in shared if ob[k][1] and nb[k][1]
        )
        if len(lat) >= 3:
            drift_p99 = lat[len(lat) // 2]
        print(
            f"host drift over {len(shared)} baseline point(s): "
            f"throughput x{drift_mops:.3f}, upd p99 x{drift_p99:.3f} "
            f"(normalized out below)"
        )

common = sorted(set(old) & set(new))
if not common:
    sys.exit(f"no comparable rows: {what}")

if mode == "pair":
    # Every point of the old trajectory must still be measured: a row
    # that disappears cannot be regression-checked, so it is an error.
    missing = sorted(set(old) - set(new))
    for mix, threads, shards in missing:
        print(
            f"   MISSING  {mix:<16} TT={threads} S={shards}: "
            f"present in {old_path}, absent from {new_path}"
        )
    if missing:
        sys.exit(
            f"{len(missing)} (mix, threads, shards) point(s) from "
            f"{old_path} missing in {new_path}"
        )

failures = []
for key in common:
    mix, threads, shards = key
    old_mops, old_p99 = old[key]
    new_mops, new_p99 = new[key]
    delta = new_mops / old_mops / drift_mops - 1.0
    status = "OK"
    if delta < -thresh_pct / 100.0:
        status = "REGRESSION"
        failures.append(key)
    print(
        f"{status:>10}  {mix:<16} TT={threads} S={shards}: "
        f"{old_mops:.3f} -> {new_mops:.3f} Mops/s ({delta:+.1%})"
    )
    # p99 update-latency guard (pair mode, rows that record it in both
    # files): a tail that grew past the latency threshold is a regression
    # even if the mean throughput held.
    if mode == "pair" and old_p99 and new_p99 and lat_thresh_pct > 0:
        lat_delta = new_p99 / old_p99 / drift_p99 - 1.0
        if lat_delta > lat_thresh_pct / 100.0:
            if key not in failures:
                failures.append(key)
            print(
                f"{'LAT-REGRESSION':>14}  {mix:<16} TT={threads} S={shards}: "
                f"upd p99 {old_p99:.0f} -> {new_p99:.0f} ns ({lat_delta:+.1%})"
            )

if failures:
    sys.exit(
        f"{len(failures)} row(s) regressed more than {thresh_pct:.0f}% "
        f"(or p99 latency more than {lat_thresh_pct:.0f}%) ({what})"
    )
print(
    f"{len(common)} row(s) compared ({what}), none regressed more than "
    f"{thresh_pct:.0f}% (p99 latency guard: {lat_thresh_pct:.0f}%)"
)
EOF
