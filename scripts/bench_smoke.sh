#!/usr/bin/env bash
# Short benchmark of the hot paths across workload mixes.
# Writes BENCH_PR<n>.json to the repo root. <n> defaults to one past the
# highest committed trajectory point, so a plain run always *adds* a
# point and can never silently overwrite recorded perf history; set
# BENCH_PR=<n> explicitly to regenerate an existing point.
#
# Usage: [BENCH_PR=<n>] scripts/bench_smoke.sh [extra bench_pr10 args...]
#   scripts/bench_smoke.sh                      # writes BENCH_PR<latest+1>.json
#   BENCH_PR=2 scripts/bench_smoke.sh           # regenerates BENCH_PR2.json
#   scripts/bench_smoke.sh --out custom.json    # explicit output file
set -euo pipefail
cd "$(dirname "$0")/.."

latest=$(ls BENCH_PR*.json 2>/dev/null | sed -E 's/^BENCH_PR([0-9]+)\.json$/\1/' | sort -n | tail -1)
PR="${BENCH_PR:-$(( ${latest:-0} + 1 ))}"
cargo build --release -p bench
# The timeout turns a (rare, pre-existing, unreproduced) BAT liveness bug —
# tracked in ROADMAP.md — into a loud failure instead of a wedged CI job.
timeout 2400 cargo run --release -p bench --bin bench_pr10 -- \
    --pr "$PR" --threads 1,2,4,8 --duration-ms 600 --trials 3 --max-key 32768 \
    "$@"
