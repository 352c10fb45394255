#!/usr/bin/env bash
# Builds and runs the arithmetic-heavy suites under UndefinedBehaviorSanitizer
# alone (no ASan shadow memory, so runs stay fast and the diagnostics are
# purely about undefined operations).
#
# The perf/analysis layer leans on exactly the operations UBSan polices:
# 64-bit counter deltas and multiplex scaling (overflow, bad float-to-int
# casts), slice-id arithmetic in the critical-path DAG (a * n2 + b index
# algebra), Brent-bound ratios against possibly-zero denominators, and byte
# accounting sums. This script configures a separate build tree
# (build-ubsan/) with -DSRNA_SANITIZE=undefined and runs the
# `ubsan`-labelled ctest suites:
#   * core_tests     — the DP recurrence and slice tabulation index math,
#   * memstore_tests — windowed-store byte accounting, budget floors, and the
#                      streaming checkpoint offsets of the space-lean solver,
#   * engine_tests   — workspace byte accounting and dispatch,
#   * obs_tests      — counters, histograms, JSON numerics, the counter stub,
#                      and the critical-path analyzer.
#
# Configured with -DSRNA_DISABLE_SIMD=ON so the scalar instantiation of the
# one dense slice kernel — what every dense caller runs, pinned bit-identical
# to the SIMD legs by the kernel-equivalence suite — is the path UBSan
# instruments.
#
# Usage: scripts/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSRNA_SANITIZE=undefined \
  -DSRNA_DISABLE_SIMD=ON \
  -DSRNA_BUILD_BENCH=OFF \
  -DSRNA_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" --target core_tests memstore_tests engine_tests obs_tests -j "$(nproc)"

# Make every UBSan finding fatal (the default only prints); a clean exit is
# the whole signal.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" -L ubsan --output-on-failure -j "$(nproc)"

echo "ubsan: all checked suites clean"
