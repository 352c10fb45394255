#!/usr/bin/env bash
# Builds and runs the concurrency-sensitive suites under ThreadSanitizer.
#
# The tracing and metrics hot paths are lock-free by design (see
# docs/OBSERVABILITY.md); this script is the proof. It configures a separate
# build tree (build-tsan/) with -DSRNA_SANITIZE=thread and runs:
#   * the `tsan`-labelled ctest suites:
#       - obs_tests   — concurrent trace recording, sharded counters,
#                       histogram observers, sliding-window percentile
#                       instruments (with their trace-id exemplar rings),
#                       the rate-limited structured logger, and the flight
#                       recorder's slot-claim ring under concurrent writers
#                       racing a reader (tests/obs/flight_test.cpp),
#       - serve_tests — the query service end to end: worker pool, bounded
#                       admission queue, deadline monitor, sharded result
#                       cache, TCP + offline transports, request-scoped
#                       tracing (thread-local context handoff from the
#                       submitter to the worker that solves the request,
#                       tests/serve/trace_propagation_test.cpp), and the
#                       HTTP admin plane scraping live service state while
#                       workers run (all std::thread / std::mutex, fully
#                       TSan-modeled), and
#   * the mini-MPI runtime tests (std::thread + mutex/condvar, which TSan
#     models exactly), and
#   * the work-stealing PRNA scheduler under its std::thread shim
#     (PrnaOptions::use_std_threads): the Chase-Lev deques, the dependency
#     counters, and the memo-table publication protocol, all fully
#     TSan-modeled (tests/parallel/prna_test.cpp, PrnaStealingShim.*).
#
# The OpenMP solvers (PRNA's static barrier schedule, and the stealing
# schedule's default dispatch) are deliberately excluded: GCC's libgomp is not
# TSan-instrumented, so its barriers are invisible to the tool and every
# barrier-ordered memo-table access reports as a false race. The ordering
# guarantee those barriers provide is tested functionally instead
# (PrnaOptions::validate_memo in tests/parallel/prna_test.cpp).
#
# Configured with -DSRNA_DISABLE_SIMD=ON so worker threads run the scalar
# instantiation of the one slice row routine, under both layouts (pinned
# bit-identical to the SIMD legs by the kernel-equivalence suite), under
# instrumentation.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSRNA_SANITIZE=thread \
  -DSRNA_DISABLE_SIMD=ON \
  -DSRNA_BUILD_BENCH=OFF \
  -DSRNA_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" --target obs_tests serve_tests parallel_tests -j "$(nproc)"

# TSan halts with a non-zero exit on the first data race, so a plain
# pass/fail is the whole signal.
ctest --test-dir "$BUILD_DIR" -L tsan --output-on-failure -j "$(nproc)"
"$BUILD_DIR"/tests/parallel_tests --gtest_filter='MiniMpi*'
"$BUILD_DIR"/tests/parallel_tests --gtest_filter='PrnaStealingShim.*'

echo "tsan: all checked suites clean"
