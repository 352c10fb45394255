// The windowed (space-lean) memo store: probe semantics, LRU eviction under
// a byte budget, peak accounting, and the checkpoint row-restore path.
#include "core/memo_store.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rna/generators.hpp"
#include "testing/builders.hpp"

namespace srna {
namespace {

using testing::db;

// All (i1, i2) keys the solvers ever touch: one per arc pair.
std::vector<std::pair<Pos, Pos>> arc_pair_keys(const SecondaryStructure& s1,
                                               const SecondaryStructure& s2) {
  std::vector<std::pair<Pos, Pos>> keys;
  for (const Arc& a : s1.arcs_by_right())
    for (const Arc& b : s2.arcs_by_right()) keys.emplace_back(a.left + 1, b.left + 1);
  return keys;
}

TEST(WindowedMemoStore, UnlimitedBudgetRetainsEverything) {
  const auto s1 = random_structure(40, 0.6, 3);
  const auto s2 = random_structure(36, 0.6, 4);
  WindowedMemoStore store;
  store.configure(s1, s2, 0);
  EXPECT_EQ(store.rows_total(), s1.arc_count());
  EXPECT_EQ(store.cols_total(), s2.arc_count());

  Score probe = 0;
  Score next = 1;
  for (const auto& [i1, i2] : arc_pair_keys(s1, s2)) {
    EXPECT_FALSE(store.try_load(i1, i2, probe));
    store.store(i1, i2, next++);
  }
  // With no budget nothing is evicted: every value reads back.
  next = 1;
  for (const auto& [i1, i2] : arc_pair_keys(s1, s2)) {
    ASSERT_TRUE(store.try_load(i1, i2, probe)) << i1 << "," << i2;
    EXPECT_EQ(probe, next++);
  }
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(store.rows_resident(), store.rows_total());
  EXPECT_EQ(store.peak_resident_bytes(), store.resident_bytes());
}

TEST(WindowedMemoStore, BudgetCapsResidencyAndEvictsLru) {
  const auto s1 = random_structure(60, 0.7, 5);
  const auto s2 = random_structure(60, 0.7, 6);
  ASSERT_GE(s1.arc_count(), 8);

  // Budget for roughly three rows above the irreducible floor.
  const std::size_t budget =
      WindowedMemoStore::minimum_bytes(s1, s2) + 2 * s2.arc_count() * sizeof(Score);
  WindowedMemoStore store;
  store.configure(s1, s2, budget);

  Score probe = 0;
  for (const auto& [i1, i2] : arc_pair_keys(s1, s2)) {
    store.store(i1, i2, 1);
    // The just-written key is never evicted by its own store.
    ASSERT_TRUE(store.try_load(i1, i2, probe));
    EXPECT_LE(store.resident_bytes(), budget);
  }
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_LT(store.rows_resident(), store.rows_total());
  EXPECT_LE(store.peak_resident_bytes(), budget);

  // An evicted row reads as a miss (recompute signal), not stale data.
  const Arc first = s1.arcs_by_right().front();
  const Arc col = s2.arcs_by_right().front();
  EXPECT_FALSE(store.try_load(first.left + 1, col.left + 1, probe));
}

TEST(WindowedMemoStore, CellsNeverWrittenMissEvenWhenRowResident) {
  const auto s1 = db("((.))");
  const auto s2 = db("(.)(.)");
  WindowedMemoStore store;
  store.configure(s1, s2, 0);
  const Arc a = s1.arcs_by_right().front();
  const Arc b0 = s2.arcs_by_right()[0];
  const Arc b1 = s2.arcs_by_right()[1];
  store.store(a.left + 1, b0.left + 1, 3);
  Score probe = 0;
  ASSERT_TRUE(store.try_load(a.left + 1, b0.left + 1, probe));
  EXPECT_EQ(probe, 3);
  // Same row, other column: resident row but unset cell.
  EXPECT_FALSE(store.try_load(a.left + 1, b1.left + 1, probe));
}

TEST(WindowedMemoStore, NonArcKeysAlwaysMiss) {
  const auto s = db("(.)");
  WindowedMemoStore store;
  store.configure(s, s, 0);
  Score probe = 0;
  // i1 = 0 means "left endpoint -1" — no arc starts there.
  EXPECT_FALSE(store.try_load(0, 1, probe));
  EXPECT_FALSE(store.try_load(2, 2, probe));  // position 1 starts no arc
}

TEST(WindowedMemoStore, RestoreRowRoundTripsThroughSerialization) {
  const auto s1 = random_structure(30, 0.6, 7);
  const auto s2 = random_structure(30, 0.6, 8);
  WindowedMemoStore store;
  store.configure(s1, s2, 0);
  Score next = 10;
  for (const auto& [i1, i2] : arc_pair_keys(s1, s2)) store.store(i1, i2, next++);

  // Serialize every resident row, restore into a fresh store, compare.
  WindowedMemoStore copy;
  copy.configure(s1, s2, 0);
  for (std::size_t ordinal = 0; ordinal < store.rows_total(); ++ordinal) {
    if (!store.row_is_resident(ordinal)) continue;
    const auto values = store.row_values(ordinal);
    copy.restore_row(ordinal, std::vector<Score>(values.begin(), values.end()));
    EXPECT_EQ(copy.row_key(ordinal), store.row_key(ordinal));
  }
  Score a = 0, b = 0;
  for (const auto& [i1, i2] : arc_pair_keys(s1, s2)) {
    ASSERT_TRUE(store.try_load(i1, i2, a));
    ASSERT_TRUE(copy.try_load(i1, i2, b));
    EXPECT_EQ(a, b);
  }
}

TEST(WindowedMemoStore, ReleaseFreesResidentState) {
  const auto s = random_structure(40, 0.6, 9);
  WindowedMemoStore store;
  store.configure(s, s, 0);
  for (const auto& [i1, i2] : arc_pair_keys(s, s)) store.store(i1, i2, 1);
  ASSERT_GT(store.rows_resident(), 0u);
  const std::size_t resident_before = store.resident_bytes();
  store.release();
  EXPECT_EQ(store.rows_resident(), 0u);
  EXPECT_LT(store.resident_bytes(), resident_before);
  // Reconfigure works after a release.
  store.configure(s, s, 0);
  Score probe = 0;
  EXPECT_FALSE(store.try_load(s.arcs_by_right().front().left + 1,
                              s.arcs_by_right().front().left + 1, probe));
}

TEST(WindowedMemoStore, MinimumBytesIsAnHonestFloor) {
  const auto s1 = random_structure(50, 0.6, 11);
  const auto s2 = random_structure(44, 0.6, 12);
  const std::size_t floor = WindowedMemoStore::minimum_bytes(s1, s2);
  WindowedMemoStore store;
  store.configure(s1, s2, floor);
  // At exactly the floor the store still makes progress: every write is
  // immediately readable (one row stays resident).
  Score probe = 0;
  for (const auto& [i1, i2] : arc_pair_keys(s1, s2)) {
    store.store(i1, i2, 2);
    ASSERT_TRUE(store.try_load(i1, i2, probe));
  }
}

}  // namespace
}  // namespace srna
