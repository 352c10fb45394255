// SliceTabulator — the one slice entry point of a solve.
//
// Every stage-one solver tabulates the same two kinds of slice: the child
// slice under an (S1 arc, S2 arc) pair and the parent slice of the whole
// problem. SRNA1 (spawn and run), SRNA2, PRNA (both schedules and stage
// two), prna-mpi-sim and the checkpointed SRNA2 all ask this object for
// them, so the choice between the dense and compressed layouts
// (DESIGN.md §4.4) is made here and nowhere else.
//
// A SliceTabulator is built once per solve from (s1, s2, the S2 column
// events, layout) and is read-only afterwards: PRNA's stage-one workers
// share one. The mutable per-slice state lives in the caller's SliceScratch,
// one per worker and recursion level (Workspace::slice_scratch).
#pragma once

#include <cstddef>

#include "core/arc_index.hpp"
#include "core/lean_slice.hpp"
#include "core/options.hpp"
#include "core/tabulate_slice.hpp"

namespace srna {

// Everything one live slice works in, whatever its layout: the dense grid,
// the row routine's per-slice metadata, the compressed layout's event grid,
// and srna-lean's streamed rows. Workspace pools one per recursion level.
struct SliceScratch {
  Matrix<Score> grid;
  KernelScratch kernel;
  EventScratch events;
  LeanSliceScratch lean;

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return grid.flat().capacity() * sizeof(Score) + kernel.capacity_bytes() +
           events.capacity_bytes() + lean.capacity_bytes();
  }
};

class SliceTabulator {
 public:
  // `col_events` must be ColumnEvents::build(s2) and outlive this object.
  SliceTabulator(const SecondaryStructure& s1, const SecondaryStructure& s2,
                 const ColumnEvents& col_events, SliceLayout layout)
      : s1_(s1), s2_(s2), col_events_(col_events), idx1_(s1), idx2_(s2), layout_(layout) {}

  // The arcs of S1 / S2 by right endpoint: the row and column order of the
  // memo's arc pairs.
  [[nodiscard]] const ArcIndex& arcs1() const noexcept { return idx1_; }
  [[nodiscard]] const ArcIndex& arcs2() const noexcept { return idx2_; }

  // F of the child slice under S1 arc `a` and S2 arc `b` (ArcIndex
  // ordinals): the value the memo keeps at (left(a) + 1, left(b) + 1).
  template <typename D2>
  Score child(std::size_t a, std::size_t b, SliceScratch& scratch, D2&& d2_of,
              McosStats* stats) const {
    if (layout_ == SliceLayout::kDense) {
      const Arc arc1 = idx1_.arc(a);
      const Arc arc2 = idx2_.arc(b);
      return tabulate_slice_dense(
          s1_, s2_, col_events_, SliceBounds::under(arc1.left, arc1.right, arc2.left, arc2.right),
          scratch.grid, SliceKernel{&scratch.kernel}, static_cast<D2&&>(d2_of), stats);
    }
    return tabulate_slice_compressed(idx1_.interior(a), idx2_.interior(b), scratch.events,
                                     SliceKernel{&scratch.kernel}, static_cast<D2&&>(d2_of),
                                     stats);
  }

  // F(0, n-1, 0, m-1): the parent slice, tabulated last.
  template <typename D2>
  Score parent(SliceScratch& scratch, D2&& d2_of, McosStats* stats) const {
    if (layout_ == SliceLayout::kDense)
      return tabulate_slice_dense(s1_, s2_, col_events_,
                                  SliceBounds{0, s1_.length() - 1, 0, s2_.length() - 1},
                                  scratch.grid, SliceKernel{&scratch.kernel},
                                  static_cast<D2&&>(d2_of), stats);
    return tabulate_slice_compressed(idx1_.all(), idx2_.all(), scratch.events,
                                     SliceKernel{&scratch.kernel}, static_cast<D2&&>(d2_of),
                                     stats);
  }

 private:
  const SecondaryStructure& s1_;
  const SecondaryStructure& s2_;
  const ColumnEvents& col_events_;
  const ArcIndex idx1_;
  const ArcIndex idx2_;
  const SliceLayout layout_;
};

}  // namespace srna
