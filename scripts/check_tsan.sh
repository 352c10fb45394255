#!/usr/bin/env bash
# Builds and runs the concurrency-sensitive suites under ThreadSanitizer.
#
# The tracing and metrics hot paths are lock-free by design (see
# docs/OBSERVABILITY.md); this script is the proof. It configures a separate
# build tree (build-tsan/) with -DSRNA_SANITIZE=thread and runs the
# `tsan`-labelled ctest suites:
#   * obs_tests      — concurrent trace recording, sharded counters,
#                      histogram observers, sliding-window percentile
#                      instruments (with their trace-id exemplar rings), the
#                      rate-limited structured logger, and the flight
#                      recorder's slot-claim ring under concurrent writers
#                      racing a reader (tests/obs/flight_test.cpp),
#   * serve_tests    — the query service end to end: worker pool, bounded
#                      admission queue, deadline monitor, sharded result
#                      cache, TCP + offline transports, request-scoped
#                      tracing (thread-local context handoff from the
#                      submitter to the worker that solves the request,
#                      tests/serve/trace_propagation_test.cpp), and the HTTP
#                      admin plane scraping live service state while workers
#                      run,
#   * parallel_tests — the thread team itself (parallel/team.hpp), PRNA under
#                      both schedules (the static schedule's std::barrier row
#                      publication, the stealing schedule's Chase-Lev deques
#                      and dependency counters), the mini-MPI runtime and
#                      PRNA-MPI, and
#   * db_tests       — the parallel all-pairs and top-k scans, with the
#                      parallel backends nested inside them.
#
# Every parallel path the library ships starts its workers on the one
# std::thread team and synchronizes with std::barrier, atomics, mutexes and
# condition variables, all of which TSan models exactly, so nothing is
# excluded.
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
cmake --build "$BUILD_DIR" --target obs_tests serve_tests parallel_tests db_tests -j "$(nproc)"

# TSan halts with a non-zero exit on the first data race, so a plain
# pass/fail is the whole signal.
ctest --test-dir "$BUILD_DIR" -L tsan --output-on-failure -j "$(nproc)"

echo "tsan: all checked suites clean"
