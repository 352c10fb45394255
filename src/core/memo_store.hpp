// WindowedMemoStore — the space-lean cross-slice memo of srna-lean.
//
// M(i1, i2) holds the final value of slice_{i1,i2}, the slice spawned by
// matching the arcs whose left endpoints are i1-1 and i2-1 (paper Figure 5).
// SRNA1, SRNA2 and PRNA keep M in the dense n × m MemoTable
// (core/memo_table.hpp): O(1) get/set, Θ(nm) bytes. This store keeps one row
// per S1 arc over one column per S2 arc — the only cells ever written, since
// each position starts at most one arc — with least-recently-used rows
// evicted under a byte budget. Its probe is associative: a failed
// try_load() means "recompute the child slice" (SRNA1-style spawn), which
// terminates because children are strictly nested. Resident state is
// O(n + m + live window).
//
// The windowed store is what makes genome-scale pairs (n ≈ 10⁴–10⁵) fit: the
// dense table is the hard Θ(nm) memory ceiling, while the windowed store's
// footprint is capped by SolverConfig.memory_budget_bytes (see
// core/srna_lean.hpp for the solver that drives it). Its row shape is also
// the row shape of the checkpoint format (core/checkpoint.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/result.hpp"
#include "rna/secondary_structure.hpp"

namespace srna {

// Sentinel for "slice not yet tabulated" (valid values are >= 0). Shared by
// both memo layouts: MemoTable::kUnset aliases it, and the windowed store
// uses it for cells of a resident row that were never written.
inline constexpr Score kMemoUnset = -1;

// Rows keyed by S1 arc, columns by S2 arc, an LRU window of resident rows
// under a byte budget. Not thread-safe (pool per workspace, like every other
// solve buffer).
class WindowedMemoStore {
 public:
  // Shapes the store for a structure pair and sets the budget (bytes of
  // resident row state; 0 = unlimited). Index maps are rebuilt, all rows
  // start evicted, counters reset. The budget may be smaller than one row
  // plus the maps — the store always keeps at least the most recently
  // touched row resident (minimum_bytes() is the honest floor; the solver
  // validates against it up front).
  void configure(const SecondaryStructure& s1, const SecondaryStructure& s2,
                 std::size_t budget_bytes);

  // Associative probe: true and the value when M(i1, i2) is resident. False
  // means the caller must (re)compute the child slice — before its first
  // tabulation, or after its row was evicted. Inline: the lean solver calls
  // it once per arc-match event.
  bool try_load(Pos i1, Pos i2, Score& out) noexcept {
    const std::int32_t r = row_of_[static_cast<std::size_t>(i1)];
    const std::int32_t c = col_of_[static_cast<std::size_t>(i2)];
    if (r < 0 || c < 0) return false;
    Row& row = rows_[static_cast<std::size_t>(r)];
    if (!row.resident) return false;
    const Score v = row.values[static_cast<std::size_t>(c)];
    if (v == kMemoUnset) return false;
    row.last_used = ++tick_;
    out = v;
    return true;
  }

  // Remembers M(i1, i2) = value (the slice's final cell).
  void store(Pos i1, Pos i2, Score value);

  // Bytes of score state currently resident / the high-water mark. Feed the
  // workspace footprint accounting and the memory ledger.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;
  [[nodiscard]] std::size_t peak_resident_bytes() const noexcept { return peak_bytes_; }

  [[nodiscard]] std::size_t budget_bytes() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::size_t rows_resident() const noexcept { return rows_resident_; }
  [[nodiscard]] std::size_t rows_total() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols_total() const noexcept { return cols_total_; }

  // Frees every resident row (and the index maps' backing storage when
  // `release_maps`). The next configure() rebuilds; used by Workspace::trim.
  void release(bool release_maps = true);

  // Checkpoint support: rows are addressed by their ordinal in the
  // S1 arcs-by-right order. row_key() is the i1 the ordinal stands for.
  [[nodiscard]] bool row_is_resident(std::size_t ordinal) const noexcept {
    return rows_[ordinal].resident;
  }
  [[nodiscard]] std::span<const Score> row_values(std::size_t ordinal) const noexcept {
    return rows_[ordinal].values;
  }
  [[nodiscard]] Pos row_key(std::size_t ordinal) const noexcept { return rows_[ordinal].key; }
  // Reinstates a serialized row (resume path); evicts others if over budget.
  void restore_row(std::size_t ordinal, std::span<const Score> values);

  // The irreducible resident floor for this pair: the index maps plus a
  // single row. A budget below this cannot make progress.
  static std::size_t minimum_bytes(const SecondaryStructure& s1,
                                   const SecondaryStructure& s2) noexcept;

 private:
  struct Row {
    std::vector<Score> values;  // one Score per S2 arc; empty when evicted
    std::uint64_t last_used = 0;
    Pos key = 0;  // the i1 this row memoizes (arc.left + 1)
    bool resident = false;
  };

  void materialize(std::size_t ordinal);
  void evict_over_budget(std::size_t keep_ordinal);
  [[nodiscard]] std::size_t row_bytes() const noexcept {
    return cols_total_ * sizeof(Score);
  }
  [[nodiscard]] std::size_t fixed_bytes() const noexcept;

  std::vector<std::int32_t> row_of_;  // i1 -> row ordinal, -1 if i1-1 starts no S1 arc
  std::vector<std::int32_t> col_of_;  // i2 -> column ordinal, -1 likewise
  std::vector<Row> rows_;
  std::size_t cols_total_ = 0;
  std::size_t budget_ = 0;
  std::size_t rows_resident_ = 0;
  std::size_t row_value_bytes_ = 0;  // resident row payloads (capacity-true)
  std::size_t peak_bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace srna
