#!/usr/bin/env bash
# Builds and runs the memory-sensitive suites under AddressSanitizer + UBSan.
#
# The engine refactor pools workspaces (memo table, slice grids, event
# scratch) across solves and threads; this script is the proof that the
# reuse discipline never hands out stale or out-of-bounds storage. It
# configures a separate build tree (build-asan/) with
# -DSRNA_SANITIZE=address,undefined and runs the `asan`-labelled ctest
# suites:
#   * core_tests     — the DP recurrence, slice tabulation, both solvers, and
#                      the one checkpoint loader under truncated, flipped and
#                      padded files (CheckpointFuzz.*),
#   * memstore_tests — the windowed memo store and the space-lean solver:
#                      row eviction/rematerialization and checkpoint resume
#                      are exactly the use-after-free shapes ASan exists for,
#   * engine_tests   — registry dispatch, workspace pooling, backend
#                      agreement across layouts, budget-driven trimming,
#   * db_tests       — the all-pairs / top-k loops that recycle thread-local
#                      workspaces hardest,
#   * serve_tests    — the query service: cancelled solves must leave pooled
#                      workspaces reusable, cache keys own their canonical
#                      forms, connection buffers stay in bounds, and the
#                      request and response parsers under fuzzed lines
#                      (ProtocolFuzz.*),
#   * obs_tests      — the JSON reader under fuzzed input and its nesting
#                      limit (JsonFuzz.*), plus the rest of the
#                      observability suite.
#
# The tree is configured with -DSRNA_DISABLE_SIMD=ON: the scalar
# instantiation of the one slice row routine is the sanitized path by
# contract (intrinsics hide byte-level accesses from the instrumentation).
# Every slice under either layout — srna1/srna2/prna, checkpoint-resume,
# prna-mpi-sim, traceback, enumeration, the compressed event grid and the
# srna-lean row stream — runs that routine, and the kernel-equivalence
# suite pins its SIMD legs bit-identical to the scalar code this run vets.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSRNA_SANITIZE=address,undefined \
  -DSRNA_DISABLE_SIMD=ON \
  -DSRNA_BUILD_BENCH=OFF \
  -DSRNA_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" --target core_tests memstore_tests engine_tests db_tests serve_tests obs_tests -j "$(nproc)"

# ASan aborts with a non-zero exit on the first bad access and UBSan on the
# first undefined operation, so a plain pass/fail is the whole signal.
ctest --test-dir "$BUILD_DIR" -L asan --output-on-failure -j "$(nproc)"

echo "asan: all checked suites clean"
