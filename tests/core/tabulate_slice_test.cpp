#include "core/tabulate_slice.hpp"

#include <gtest/gtest.h>

#include "core/arc_index.hpp"
#include "core/mcos.hpp"
#include "rna/generators.hpp"
#include "testing/builders.hpp"

namespace srna {
namespace {

using testing::db;

// d2 provider that must never be called (slice has no nested structure
// beneath matched arcs, or no matched arcs at all).
Score no_d2(Pos, Pos, Pos, Pos) {
  ADD_FAILURE() << "d2 requested unexpectedly";
  return 0;
}

Score zero_d2(Pos, Pos, Pos, Pos) { return 0; }

TEST(DenseSlice, EmptyBoundsYieldZero) {
  const auto s = db("(...)");
  Matrix<Score> scratch;
  EXPECT_EQ(tabulate_slice_dense(s, s, SliceBounds{1, 0, 0, 4}, scratch, no_d2), 0);
  EXPECT_EQ(tabulate_slice_dense(s, s, SliceBounds{0, 4, 3, 2}, scratch, no_d2), 0);
}

TEST(DenseSlice, NoArcsMeansAllZero) {
  const auto s = db(".....");
  Matrix<Score> scratch;
  EXPECT_EQ(tabulate_slice_dense(s, s, SliceBounds{0, 4, 0, 4}, scratch, no_d2), 0);
  for (const Score v : scratch.flat()) EXPECT_EQ(v, 0);
}

TEST(DenseSlice, SingleMatchedArcPair) {
  const auto s = db(".(..).");
  Matrix<Score> scratch;
  McosStats stats;
  const Score v =
      tabulate_slice_dense(s, s, SliceBounds{0, 5, 0, 5}, scratch, zero_d2, &stats);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(stats.cells_tabulated, 36u);
  EXPECT_EQ(stats.arc_match_events, 1u);
  EXPECT_EQ(stats.slices_tabulated, 1u);
}

TEST(DenseSlice, GridHoldsPrefixValues) {
  // Two sequential hairpins; F over growing prefixes steps 0,1,2.
  const auto s = db("(.)(.)");
  Matrix<Score> grid;
  fill_slice_dense(s, s, SliceBounds{0, 5, 0, 5}, grid, zero_d2);
  // grid(x, y) = F(0, x, 0, y) on the diagonal: first arc closes at 2,
  // second at 5.
  EXPECT_EQ(grid(1, 1), 0);
  EXPECT_EQ(grid(2, 2), 1);
  EXPECT_EQ(grid(4, 4), 1);
  EXPECT_EQ(grid(5, 5), 2);
  // Off-diagonal: comparing prefix ..2 with prefix ..5 still only matches 1.
  EXPECT_EQ(grid(2, 5), 1);
  // Monotone in both coordinates.
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 1; c < 6; ++c) EXPECT_GE(grid(r, c), grid(r, c - 1));
}

TEST(DenseSlice, ArcOutsideLowBoundIgnored) {
  // Arc (0, 3); slice starting at lo1=1 must not see it.
  const auto s = db("(..)");
  Matrix<Score> scratch;
  EXPECT_EQ(tabulate_slice_dense(s, s, SliceBounds{1, 3, 1, 3}, scratch, no_d2), 0);
}

TEST(DenseSlice, D2ReceivesMatchedArcEndpoints) {
  const auto s = db("((..))");
  Matrix<Score> scratch;
  bool saw_outer = false;
  const Score v = tabulate_slice_dense(
      s, s, SliceBounds{0, 5, 0, 5}, scratch,
      [&](Pos k1, Pos x, Pos k2, Pos y) -> Score {
        if (k1 == 0 && x == 5 && k2 == 0 && y == 5) saw_outer = true;
        return 0;  // pretend nothing beneath
      });
  EXPECT_TRUE(saw_outer);
  EXPECT_EQ(v, 1);  // with d2 forced to 0 only one arc can count
}

TEST(DenseSlice, UsesD2Value) {
  const auto s = db("((..))");
  Matrix<Score> scratch;
  const Score v = tabulate_slice_dense(
      s, s, SliceBounds{0, 5, 0, 5}, scratch,
      [](Pos, Pos, Pos k2, Pos) -> Score { return k2 == 0 ? 1 : 0; });
  EXPECT_EQ(v, 2);  // outer match + claimed one nested match
}

TEST(CompressedSlice, EmptySpansYieldZero) {
  EventScratch scratch;
  KernelScratch kernel;
  EXPECT_EQ(tabulate_slice_compressed({}, {}, scratch, SliceKernel{&kernel}, no_d2), 0);
}

TEST(CompressedSlice, MatchesDenseOnRandomSlices) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto s1 = random_structure(50, 0.45, seed);
    const auto s2 = random_structure(44, 0.45, seed + 1000);
    const ArcIndex idx1(s1);
    const ArcIndex idx2(s2);

    Matrix<Score> dense_scratch;
    EventScratch compressed_scratch;
    KernelScratch kernel;
    const Score dense = tabulate_slice_dense(
        s1, s2, SliceBounds{0, s1.length() - 1, 0, s2.length() - 1}, dense_scratch, zero_d2);
    const Score compressed = tabulate_slice_compressed(idx1.all(), idx2.all(), compressed_scratch,
                                                       SliceKernel{&kernel}, zero_d2);
    EXPECT_EQ(dense, compressed) << "seed " << seed;
  }
}

TEST(CompressedSlice, MatchesDenseOnInteriorSlices) {
  const auto s1 = random_structure(60, 0.5, 7);
  const auto s2 = random_structure(60, 0.5, 8);
  const ArcIndex idx1(s1);
  const ArcIndex idx2(s2);
  Matrix<Score> dense_scratch;
  EventScratch compressed_scratch;
  KernelScratch kernel;
  for (std::size_t a = 0; a < idx1.size(); ++a) {
    for (std::size_t b = 0; b < idx2.size(); ++b) {
      const Arc a1 = idx1.arc(a);
      const Arc a2 = idx2.arc(b);
      const Score dense = tabulate_slice_dense(
          s1, s2, SliceBounds::under(a1.left, a1.right, a2.left, a2.right), dense_scratch,
          zero_d2);
      const Score compressed =
          tabulate_slice_compressed(idx1.interior(a), idx2.interior(b), compressed_scratch,
                                    SliceKernel{&kernel}, zero_d2);
      EXPECT_EQ(dense, compressed) << a1 << " x " << a2;
    }
  }
}

TEST(CompressedSlice, SparseEventCountsFarBelowDense) {
  const auto s = rrna_like_structure(600, 100, 3);
  const ArcIndex idx(s);
  McosStats dense_stats;
  McosStats compressed_stats;
  Matrix<Score> dense_scratch;
  EventScratch compressed_scratch;
  KernelScratch kernel;
  (void)tabulate_slice_dense(s, s, SliceBounds{0, s.length() - 1, 0, s.length() - 1},
                             dense_scratch, zero_d2, &dense_stats);
  (void)tabulate_slice_compressed(idx.all(), idx.all(), compressed_scratch,
                                  SliceKernel{&kernel}, zero_d2, &compressed_stats);
  EXPECT_LT(compressed_stats.cells_tabulated * 4, dense_stats.cells_tabulated);
}

TEST(SliceBounds, UnderComputesInterior) {
  const SliceBounds b = SliceBounds::under(2, 9, 4, 7);
  EXPECT_EQ(b.lo1, 3);
  EXPECT_EQ(b.hi1, 8);
  EXPECT_EQ(b.lo2, 5);
  EXPECT_EQ(b.hi2, 6);
  EXPECT_FALSE(b.empty());
  EXPECT_TRUE(SliceBounds::under(2, 3, 0, 9).empty());  // hairpin: empty interior
}

}  // namespace
}  // namespace srna
