// Options shared by the MCOS solvers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>

namespace srna {

// Thrown by a solver that observed its cancel flag (see McosOptions::cancel)
// between slices. The partially tabulated state lives entirely in the
// workspace, which the next solve re-shapes, so a cancelled solve leaves no
// torn results behind — callers (the serve subsystem's deadline path) map
// this to a timeout response.
class SolveCancelled : public std::runtime_error {
 public:
  SolveCancelled() : std::runtime_error("MCOS solve cancelled") {}
};

// How a child/parent slice is laid out during tabulation.
//
// kDense is the paper-faithful layout: the slice is a full
// (width × height) grid and every cell is tabulated — the cost model in the
// paper (and the counts in Figure 7) measure exactly these cells.
//
// kCompressed exploits the fact that F only changes at arc right-endpoint
// pairs ("events"): the slice stores one cell per event pair and resolves
// arbitrary coordinates to the last event at or before them. Asymptotically
// identical for the contrived worst case, substantially cheaper for sparse
// structures (ablation: bench/ablation_slice_layout).
enum class SliceLayout : std::uint8_t { kDense, kCompressed };

// Memo-table representation used by SRNA1's lazy lookups.
//
// The paper's Algorithm 1 phrases the probe as "if d2 is KEY_NOT_FOUND" —
// associative-lookup semantics. kArray is the Θ(nm) dense table with an
// unset sentinel (cheapest possible probe); kHashMap memoizes into a hash
// map keyed by the (i1, i2) pair, reproducing the associative-container
// overhead SRNA2 was designed to eliminate (ablation:
// bench/ablation_memoization).
enum class MemoKind : std::uint8_t { kArray, kHashMap };

struct McosOptions {
  SliceLayout layout = SliceLayout::kDense;

  // SRNA1 only: memo-table representation (see MemoKind).
  MemoKind memo_kind = MemoKind::kArray;

  // SRNA1 only: memoize child-slice results (the algorithm as published).
  // Disabling turns SRNA1 into the naive "spawn again and again" variant the
  // paper calls out as "not dynamic programming at all" — exponential
  // redundant work; exposed for the memoization ablation.
  bool memoize = true;

  // Safety valve for the memoize=false ablation: abort (throws
  // std::runtime_error) once this many slices have been spawned. 0 disables
  // the limit.
  std::uint64_t spawn_limit = 0;

  // SRNA2/PRNA only: initialize the memo table with the "unset" sentinel and
  // verify that every stage-one/stage-two d2 lookup hits an explicitly
  // tabulated entry (the ordering guarantee the algorithm rests on). Costs
  // one compare per lookup — the exact overhead SRNA2 exists to remove — so
  // it is off by default and used by the test suite.
  bool validate_memo = false;

  // Cooperative cancellation (SRNA1/SRNA2): when non-null, the solver polls
  // this flag at slice boundaries — one relaxed load per slice, never per
  // cell — and throws SolveCancelled once it reads true. This is how the
  // serve subsystem enforces per-request deadlines without tearing a result:
  // the flag's owner (a deadline monitor thread) flips it, the worker
  // unwinds at the next slice, and the workspace is reusable as-is.
  const std::atomic<bool>* cancel = nullptr;

  // True when the owner of `cancel` has requested a stop.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  // Test seam (SRNA1/SRNA2): invoked at each slice boundary, after the cancel
  // poll and before the slice tabulates, with the number of slices already
  // started. Lets tests flip `cancel` at an exact slice and assert the solver
  // unwinds within one slice. Never set on hot production paths.
  std::function<void(std::uint64_t)> slice_hook;
};

}  // namespace srna
