#!/usr/bin/env bash
# Bench-trajectory regression check: rerun the serving benchmark with the
# committed baseline's parameters and gate the delta with srna-bench-report
# (docs/OBSERVABILITY.md).
#
# The committed baseline is BENCH_serving_throughput.json at the repo root
# (refresh it by rerunning the srna-loadgen command recorded in its
# "command_line" field). The gate uses the same 25% slack as the
# micro-kernel smoke test; machine noise on shared CI boxes is real, which
# is why this check is opt-in (-DSRNA_BENCH_REPORT_CHECK=ON, or run this
# script by hand before publishing perf-sensitive changes).
#
# Usage: scripts/check_bench_report.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
LOADGEN="$BUILD_DIR/tools/srna-loadgen"
PROFILE="$BUILD_DIR/tools/srna-profile"
REPORT="$BUILD_DIR/tools/srna-bench-report"
BASELINE="BENCH_serving_throughput.json"
FRESH="$BUILD_DIR/BENCH_serving_throughput_fresh.json"
PROFILE_BASELINE="BENCH_parallel_analysis.json"
PROFILE_FRESH="$BUILD_DIR/BENCH_parallel_analysis_fresh.json"
LONGSEQ="$BUILD_DIR/bench/longseq_memory"
LONGSEQ_BASELINE="BENCH_longseq_memory.json"
LONGSEQ_FRESH="$BUILD_DIR/BENCH_longseq_memory_fresh.json"
DISTBENCH="$BUILD_DIR/tools/srna-dist-bench"
DIST_BASELINE="BENCH_serving_distributed.json"
DIST_FRESH="$BUILD_DIR/BENCH_serving_distributed_fresh.json"
SHARED_BASELINE="BENCH_serving_shared.json"
SHARED_FRESH="$BUILD_DIR/BENCH_serving_shared_fresh.json"

[ -x "$LOADGEN" ] || { echo "missing $LOADGEN (build first)"; exit 1; }
[ -x "$PROFILE" ] || { echo "missing $PROFILE (build first)"; exit 1; }
[ -x "$REPORT" ] || { echo "missing $REPORT (build first)"; exit 1; }
[ -x "$LONGSEQ" ] || { echo "missing $LONGSEQ (build with SRNA_BUILD_BENCH=ON)"; exit 1; }
[ -x "$DISTBENCH" ] || { echo "missing $DISTBENCH (build first)"; exit 1; }
[ -f "$BASELINE" ] || { echo "missing committed baseline $BASELINE"; exit 1; }
[ -f "$PROFILE_BASELINE" ] || { echo "missing committed baseline $PROFILE_BASELINE"; exit 1; }
[ -f "$LONGSEQ_BASELINE" ] || { echo "missing committed baseline $LONGSEQ_BASELINE"; exit 1; }
[ -f "$DIST_BASELINE" ] || { echo "missing committed baseline $DIST_BASELINE"; exit 1; }
[ -f "$SHARED_BASELINE" ] || { echo "missing committed baseline $SHARED_BASELINE"; exit 1; }

# Same workload as the committed baseline (its command_line field).
"$LOADGEN" --requests=2000 --concurrency=8 --length=120 --structures=32 \
  --output="$FRESH"

# --noise-floor-ms=2: the serving reports carry per-phase queueing/solve
# percentiles that sit well under a scheduler quantum on a warm cache — one
# preemption of a sub-millisecond solve multiplies its p99, and 25% of that
# jitter is not a trajectory signal. Sub-floor millisecond timings are
# reported but not gated; anything that climbs past 2 ms is gated as usual,
# and the end-to-end latency percentiles sit above the floor already.
"$REPORT" --baseline="$BASELINE" --fresh="$FRESH" --threshold=0.25 \
  --noise-floor-ms=2 --output="$BUILD_DIR/bench_report_comparison.json"

# Shared-structure workload (one structure A queried against many B's): the
# pattern that leans on result-cache reuse and single-flight coalescing of
# identical in-flight misses — a fresh run that loses either regresses its
# throughput or latency past the slack.
"$LOADGEN" --shared-structure --requests=2000 --concurrency=8 \
  --length=120 --structures=256 --output="$SHARED_FRESH"

"$REPORT" --baseline="$SHARED_BASELINE" --fresh="$SHARED_FRESH" --threshold=0.25 \
  --noise-floor-ms=2 --output="$BUILD_DIR/serving_shared_comparison.json"

# Parallel-analysis series: same default workload as the committed baseline
# (L=400 Table I pair, threads 1,2,4, stealing schedule). Fresh-only metric
# paths — e.g. hardware-counter columns that only exist where perf_event is
# available — are reported and skipped by srna-bench-report, never gated.
"$PROFILE" --report="$PROFILE_FRESH"

"$REPORT" --baseline="$PROFILE_BASELINE" --fresh="$PROFILE_FRESH" --threshold=0.25 \
  --output="$BUILD_DIR/parallel_analysis_comparison.json"

# Long-sequence memory sweep: same full-size (n=20000) hairpin-field pair as
# the committed baseline. The gated rows include the *_bytes peaks (lower is
# better) — a store whose window stopped evicting shows up here as a
# regression even while the scores still agree.
"$LONGSEQ" --report="$LONGSEQ_FRESH"

"$REPORT" --baseline="$LONGSEQ_BASELINE" --fresh="$LONGSEQ_FRESH" --threshold=0.25 \
  --output="$BUILD_DIR/longseq_memory_comparison.json"

# Distributed serving scaling: same 1/2/4-shard closed-loop sweep as the
# committed baseline (real supervised srna-serve processes, so this one is
# the most machine-sensitive of the five). The real gate is absolute —
# router over 2 shards must aggregate enough cache capacity to beat one
# direct process by 1.6x. The trajectory check runs at doubled slack: the
# per-instance p99 here is the 4th-worst of 360 samples of ~90 ms solves
# queued behind a closed loop on shared hardware, where one scheduler stall
# moves it by half — a 2x drift still fails, ordinary tail jitter does not.
"$DISTBENCH" --require-speedup=2:1.6 --output="$DIST_FRESH"

"$REPORT" --baseline="$DIST_BASELINE" --fresh="$DIST_FRESH" --threshold=0.95 \
  --noise-floor-ms=2 --output="$BUILD_DIR/serving_distributed_comparison.json"

echo "bench-report: within threshold of the committed trajectory"
