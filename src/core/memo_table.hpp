// The two-dimensional memoization table M (paper Figure 5).
//
// M(i1, i2) holds the final value of slice_{i1,i2} — the slice spawned by
// matching the arcs whose left endpoints are i1-1 and i2-1. Because each
// position starts at most one arc, the (interval, value) association is
// unambiguous, and because F is constant past the last arc right-endpoint,
// the slice's last tabulated cell is exactly the value every later d2 lookup
// needs. This table is the entire cross-slice state of SRNA1/SRNA2/PRNA —
// the Θ(nm) space bound.
#pragma once

#include "core/memo_store.hpp"
#include "core/result.hpp"
#include "rna/arc.hpp"
#include "util/matrix.hpp"

namespace srna {

// The dense n × m table of SRNA1 (kArray), SRNA2 and PRNA: O(1) get/set/ref
// in the solvers' hot loops. srna-lean keeps M in the windowed store instead
// (core/memo_store.hpp), which shares the kUnset sentinel.
class MemoTable {
 public:
  // Sentinel for "slice not yet tabulated" (valid values are >= 0). SRNA1
  // initializes with the sentinel and spawns on a miss; SRNA2/PRNA
  // initialize with 0 because their stage-one order guarantees every lookup
  // hits (optionally verified via the sentinel — McosOptions::validate_memo).
  static constexpr Score kUnset = kMemoUnset;

  // An empty table; size it with reset() before use. Workspace holds one of
  // these and re-shapes it per solve so the backing storage survives calls.
  MemoTable() = default;

  MemoTable(Pos n, Pos m, Score initial)
      : table_(static_cast<std::size_t>(n), static_cast<std::size_t>(m), initial) {}

  // Re-shapes to n × m and fills with `initial`. The backing vector keeps its
  // capacity, so repeated solves of comparable size allocate nothing.
  void reset(Pos n, Pos m, Score initial) {
    table_.resize(static_cast<std::size_t>(n), static_cast<std::size_t>(m), initial);
  }

  // Bytes of backing storage currently reserved (not the logical size) —
  // feeds the engine.workspace_alloc_bytes accounting.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return table_.flat().capacity() * sizeof(Score);
  }

  [[nodiscard]] Score get(Pos i1, Pos i2) const noexcept {
    return table_(static_cast<std::size_t>(i1), static_cast<std::size_t>(i2));
  }
  void set(Pos i1, Pos i2, Score value) noexcept {
    table_(static_cast<std::size_t>(i1), static_cast<std::size_t>(i2)) = value;
  }
  [[nodiscard]] Score& ref(Pos i1, Pos i2) noexcept {
    return table_(static_cast<std::size_t>(i1), static_cast<std::size_t>(i2));
  }

  // Row access for PRNA's per-row synchronization (the MPI_Allreduce span in
  // the paper; a barrier in the shared-memory implementation).
  [[nodiscard]] Score* row(Pos i1) noexcept {
    return table_.row_data(static_cast<std::size_t>(i1));
  }
  [[nodiscard]] Pos rows() const noexcept { return static_cast<Pos>(table_.rows()); }
  [[nodiscard]] Pos cols() const noexcept { return static_cast<Pos>(table_.cols()); }

  void fill(Score value) { table_.fill(value); }

 private:
  Matrix<Score> table_;
};

}  // namespace srna
