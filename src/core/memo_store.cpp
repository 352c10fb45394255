#include "core/memo_store.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace srna {

void WindowedMemoStore::configure(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                  std::size_t budget_bytes) {
  const auto n = static_cast<std::size_t>(s1.length());
  const auto m = static_cast<std::size_t>(s2.length());
  row_of_.assign(n + 1, -1);
  col_of_.assign(m + 1, -1);
  rows_.clear();
  // Exact reservation: fixed_bytes() is capacity-true, and minimum_bytes()
  // promises the floor of a fresh store — push_back growth would overshoot it.
  rows_.reserve(static_cast<std::size_t>(s1.arc_count()));
  cols_total_ = 0;
  for (std::size_t i2 = 0; i2 < m; ++i2) {
    const Pos k2 = s2.arc_left_of(static_cast<Pos>(i2));
    if (k2 < 0) continue;
    col_of_[static_cast<std::size_t>(k2) + 1] = static_cast<std::int32_t>(cols_total_++);
  }
  for (std::size_t i1 = 0; i1 < n; ++i1) {
    const Pos k1 = s1.arc_left_of(static_cast<Pos>(i1));
    if (k1 < 0) continue;
    row_of_[static_cast<std::size_t>(k1) + 1] = static_cast<std::int32_t>(rows_.size());
    Row row;
    row.key = k1 + 1;
    rows_.push_back(std::move(row));
  }
  budget_ = budget_bytes;
  rows_resident_ = 0;
  row_value_bytes_ = 0;
  tick_ = 0;
  evictions_ = 0;
  peak_bytes_ = fixed_bytes();
}

std::size_t WindowedMemoStore::fixed_bytes() const noexcept {
  return row_of_.capacity() * sizeof(std::int32_t) + col_of_.capacity() * sizeof(std::int32_t) +
         rows_.capacity() * sizeof(Row);
}

std::size_t WindowedMemoStore::resident_bytes() const noexcept {
  return fixed_bytes() + row_value_bytes_;
}

void WindowedMemoStore::store(Pos i1, Pos i2, Score value) {
  const std::int32_t r = row_of_[static_cast<std::size_t>(i1)];
  const std::int32_t c = col_of_[static_cast<std::size_t>(i2)];
  SRNA_CHECK(r >= 0 && c >= 0, "windowed memo store: (i1, i2) does not name an arc pair");
  const auto ordinal = static_cast<std::size_t>(r);
  Row& row = rows_[ordinal];
  if (!row.resident) materialize(ordinal);
  row.values[static_cast<std::size_t>(c)] = value;
  row.last_used = ++tick_;
}

void WindowedMemoStore::materialize(std::size_t ordinal) {
  Row& row = rows_[ordinal];
  row.values.assign(cols_total_, kMemoUnset);
  row.resident = true;
  ++rows_resident_;
  row_value_bytes_ += row.values.capacity() * sizeof(Score);
  row.last_used = ++tick_;
  evict_over_budget(ordinal);
  peak_bytes_ = std::max(peak_bytes_, resident_bytes());
}

void WindowedMemoStore::evict_over_budget(std::size_t keep_ordinal) {
  // The window never shrinks below the row just touched: a budget that can't
  // even hold one row is rejected up front (lean_minimum_bytes), so refusing
  // to evict the working row here can't oscillate.
  while (budget_ != 0 && resident_bytes() > budget_ && rows_resident_ > 1) {
    std::size_t victim = rows_.size();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (!rows_[i].resident || i == keep_ordinal) continue;
      if (rows_[i].last_used < oldest) {
        oldest = rows_[i].last_used;
        victim = i;
      }
    }
    if (victim == rows_.size()) break;
    Row& row = rows_[victim];
    row_value_bytes_ -= row.values.capacity() * sizeof(Score);
    std::vector<Score>().swap(row.values);  // actually release, not just clear
    row.resident = false;
    --rows_resident_;
    ++evictions_;
  }
}

void WindowedMemoStore::restore_row(std::size_t ordinal, std::span<const Score> values) {
  SRNA_REQUIRE(ordinal < rows_.size() && values.size() == cols_total_,
               "windowed memo store: restored row does not match the configured shape");
  Row& row = rows_[ordinal];
  if (!row.resident) {
    row.resident = true;
    ++rows_resident_;
  } else {
    row_value_bytes_ -= row.values.capacity() * sizeof(Score);
  }
  row.values.assign(values.begin(), values.end());
  row_value_bytes_ += row.values.capacity() * sizeof(Score);
  row.last_used = ++tick_;
  evict_over_budget(ordinal);
  peak_bytes_ = std::max(peak_bytes_, resident_bytes());
}

void WindowedMemoStore::release(bool release_maps) {
  for (Row& row : rows_) {
    if (row.resident) ++evictions_;
    std::vector<Score>().swap(row.values);
    row.resident = false;
  }
  rows_resident_ = 0;
  row_value_bytes_ = 0;
  if (release_maps) {
    std::vector<std::int32_t>().swap(row_of_);
    std::vector<std::int32_t>().swap(col_of_);
    std::vector<Row>().swap(rows_);
    cols_total_ = 0;
  }
}

std::size_t WindowedMemoStore::minimum_bytes(const SecondaryStructure& s1,
                                             const SecondaryStructure& s2) noexcept {
  const auto n = static_cast<std::size_t>(s1.length());
  const auto m = static_cast<std::size_t>(s2.length());
  const auto arcs1 = static_cast<std::size_t>(s1.arc_count());
  const auto arcs2 = static_cast<std::size_t>(s2.arc_count());
  return (n + 1 + m + 1) * sizeof(std::int32_t) + arcs1 * sizeof(Row) + arcs2 * sizeof(Score);
}

}  // namespace srna
