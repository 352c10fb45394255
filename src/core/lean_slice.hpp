// Streaming slice tabulation for the space-lean solve path.
//
// fill_slice_dense (core/tabulate_slice.hpp) materializes the whole
// width × height grid because the recurrence reads two earlier rows:
//   up  = slice[x-1][·]     — always the previous row, and
//   d1  = slice[k1-1][·]    — the row just above the S1 arc (k1, x)'s left
//                             endpoint, read only on the row where that arc
//                             ends.
// The d1 rows obey a stack discipline: row x must be retained iff position
// x+1 starts an arc closing inside the slice, and because arcs do not cross,
// the arc that closes next is always the one opened last — so the retained
// rows form a LIFO stack, the top of which is exactly the d1 row each arc
// row needs. Streaming therefore needs cur + prev + (one retained row per
// currently-open arc): O((2 + nesting depth) × height) score state instead
// of O(width × height).
//
// Only the row storage differs from fill_slice_dense: each arc row runs the
// dense kernel's own row routine (detail::fill_arc_row) over these rows, so
// scores, the d2 call sequence and the cell and event counts are identical,
// and so are the tracebacks derived from them.
//
// The same sweep drives the lean traceback: a RowVisitor observes every
// finished row together with the retained-row stack, which is what the
// checkpoint-replay grid view in srna_lean.cpp snapshots (every C rows) and
// replays to materialize any block of rows on demand.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/result.hpp"
#include "core/tabulate_slice.hpp"
#include "rna/secondary_structure.hpp"
#include "util/assert.hpp"

namespace srna {

// Reusable row buffers for one streaming sweep. One per recursion level (the
// lean solver's recompute-on-miss path can stream a child slice while the
// parent sweep is live); pooled in Workspace so capacity survives solves.
struct LeanSliceScratch {
  struct Retained {
    Pos row = 0;  // absolute row index this buffer holds
    std::vector<Score> values;
  };

  std::vector<Score> cur, prev;
  std::vector<Retained> stack;       // live retained rows (LIFO, see above)
  std::vector<Retained> free_pool;   // returned buffers, kept for reuse

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    std::size_t total = (cur.capacity() + prev.capacity()) * sizeof(Score);
    for (const Retained& r : stack) total += r.values.capacity() * sizeof(Score);
    for (const Retained& r : free_pool) total += r.values.capacity() * sizeof(Score);
    return total;
  }

  void push_retained(Pos row, const std::vector<Score>& values) {
    Retained r;
    if (!free_pool.empty()) {
      r = std::move(free_pool.back());
      free_pool.pop_back();
    }
    r.row = row;
    r.values.assign(values.begin(), values.end());
    stack.push_back(std::move(r));
  }

  void pop_retained() {
    free_pool.push_back(std::move(stack.back()));
    stack.pop_back();
  }
};

namespace detail {

// Streams rows [x_begin, x_end] of the slice `b`. On entry ws.prev must hold
// row x_begin - 1 (zeros when x_begin == b.lo1) and ws.stack the retained
// rows as of after x_begin - 1 — which is exactly what a checkpoint snapshot
// restores. After each finished row the visitor sees
//   visit(x, row_values, ws.stack)
// and on return ws.prev holds row x_end. `kernel.scratch` holds the slice's
// prepared events for the duration of the call, so it must not be shared
// with a sweep live at another recursion level. `stats` may be null
// (traceback replays do not double-count work).
template <typename D2, typename RowVisitor>
void stream_slice_rows(const SecondaryStructure& s1, const ColumnEvents& col_events,
                       SliceBounds b, Pos x_begin, Pos x_end, LeanSliceScratch& ws,
                       SliceKernel kernel, D2&& d2_of, McosStats* stats, RowVisitor&& visit) {
  const auto cols = static_cast<std::size_t>(b.height());
  const std::span<const Arc> events = col_events.in_range(b.lo2, b.hi2);
  KernelScratch& ks = *kernel.scratch;
  const PreparedEvents prep = prepare_kernel_events(events, b.lo2, ks);

  for (Pos x = x_begin; x <= x_end; ++x) {
    Score* row = ws.cur.data();
    const Score* up = ws.prev.data();

    const Pos k1 = s1.arc_left_of(x);
    if (k1 < b.lo1) {
      // Arc-free row: verbatim copy of the row above (zeros on the first
      // row, where prev was zero-initialized) — same as the dense kernel.
      std::copy(up, up + cols, row);
    } else {
      const Score* d1_row = nullptr;
      if (k1 - 1 >= b.lo1) {
        // Non-crossing arcs make the retained rows LIFO: the arc ending at x
        // is the most recently opened one, so its d1 row is the stack top.
        SRNA_CHECK(!ws.stack.empty() && ws.stack.back().row == k1 - 1,
                   "lean stream: retained-row stack does not hold the d1 row");
        d1_row = ws.stack.back().values.data();
      }
      if (prep.count == 0)  // no events: the whole row is one constant run
        std::fill(row, row + cols, up[0]);
      else
        fill_arc_row(ks, prep, events, cols, k1, x, up, d1_row, row, d2_of, stats);

      // The d1 row was consumed by its one consumer (unique endpoints):
      // release it.
      if (d1_row != nullptr) ws.pop_retained();
    }

    // Retain this row iff position x+1 opens an arc that closes inside the
    // slice — the future d1 row of that arc's ending row.
    if (x + 1 <= b.hi1) {
      const Pos close = s1.arc_right_of(x + 1);
      if (close >= 0 && close <= b.hi1) ws.push_retained(x, ws.cur);
    }

    visit(x, static_cast<const Score*>(row), ws);
    std::swap(ws.cur, ws.prev);
  }
}

}  // namespace detail

struct LeanStreamNoVisit {
  void operator()(Pos, const Score*, const LeanSliceScratch&) const noexcept {}
};

// Streams the whole slice and returns its final value F(lo1, hi1, lo2, hi2),
// with O((2 + open arcs) × height) resident rows plus the kernel's per-event
// scratch. Accounting matches tabulate_slice_dense: every cell is
// conceptually written, the dynamic case fires for the same (row, column)
// pairs.
template <typename D2, typename RowVisitor = LeanStreamNoVisit>
Score stream_slice_dense(const SecondaryStructure& s1, const ColumnEvents& col_events,
                         SliceBounds b, LeanSliceScratch& ws, SliceKernel kernel, D2&& d2_of,
                         McosStats* stats = nullptr, RowVisitor&& visit = RowVisitor{}) {
  if (b.empty()) {
    if (stats != nullptr) ++stats->slices_tabulated;
    return 0;
  }
  const auto cols = static_cast<std::size_t>(b.height());
  if (stats != nullptr) {
    ++stats->slices_tabulated;
    stats->cells_tabulated += static_cast<std::uint64_t>(b.width()) * cols;
  }
  ws.cur.assign(cols, 0);
  ws.prev.assign(cols, 0);
  while (!ws.stack.empty()) ws.pop_retained();
  detail::stream_slice_rows(s1, col_events, b, b.lo1, b.hi1, ws, kernel,
                            static_cast<D2&&>(d2_of), stats,
                            static_cast<RowVisitor&&>(visit));
  return ws.prev[cols - 1];  // after the final swap, prev holds row hi1
}

}  // namespace srna
