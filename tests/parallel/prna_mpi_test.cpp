#include "parallel/prna_mpi.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/mcos.hpp"
#include "parallel/prna.hpp"
#include "rna/generators.hpp"
#include "testing/builders.hpp"

namespace srna {
namespace {

using testing::db;

TEST(PrnaMpi, TrivialInputs) {
  PrnaMpiOptions opt;
  opt.ranks = 2;
  EXPECT_EQ(prna_mpi(SecondaryStructure(0), SecondaryStructure(0), opt).value, 0);
  EXPECT_EQ(prna_mpi(db("(.)"), db("(.)"), opt).value, 1);
  EXPECT_EQ(prna_mpi(db("..."), db("((..))"), opt).value, 0);
}

TEST(PrnaMpi, RejectsBadInputs) {
  const auto knot = SecondaryStructure::from_arcs(6, {{0, 3}, {2, 5}});
  EXPECT_THROW(prna_mpi(knot, knot), std::invalid_argument);
  PrnaMpiOptions opt;
  opt.ranks = 0;
  EXPECT_THROW(prna_mpi(db("(.)"), db("(.)"), opt), std::invalid_argument);
}

class PrnaMpiSweep
    : public ::testing::TestWithParam<std::tuple<int, SliceLayout, std::uint64_t>> {};

TEST_P(PrnaMpiSweep, MatchesSequentialSrna2) {
  const auto [ranks, layout, seed] = GetParam();
  const auto s1 = random_structure(55, 0.5, seed);
  const auto s2 = random_structure(48, 0.5, seed + 1);
  PrnaMpiOptions opt;
  opt.ranks = ranks;
  opt.layout = layout;
  const auto got = prna_mpi(s1, s2, opt);
  EXPECT_EQ(got.value, srna2(s1, s2).value);
  EXPECT_EQ(got.ranks, ranks);
}

INSTANTIATE_TEST_SUITE_P(
    RanksLayouts, PrnaMpiSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(SliceLayout::kDense, SliceLayout::kCompressed),
                       ::testing::Values<std::uint64_t>(300, 301)));

TEST(PrnaMpi, WorstCaseAllRankCounts) {
  const auto s = worst_case_structure(60);
  const Score expected = srna2(s, s).value;
  for (int ranks : {1, 2, 4, 6}) {
    PrnaMpiOptions opt;
    opt.ranks = ranks;
    EXPECT_EQ(prna_mpi(s, s, opt).value, expected) << ranks << " ranks";
  }
}

TEST(PrnaMpi, AgreesWithSharedMemoryPrna) {
  const auto s1 = rrna_like_structure(200, 35, 7);
  const auto s2 = rrna_like_structure(210, 38, 8);
  PrnaMpiOptions mpi_opt;
  mpi_opt.ranks = 3;
  PrnaOptions shared_opt;
  shared_opt.num_threads = 3;
  const auto via_mpi = prna_mpi(s1, s2, mpi_opt);
  const auto via_shared = prna(s1, s2, shared_opt);
  EXPECT_EQ(via_mpi.value, via_shared.value);
  EXPECT_EQ(via_mpi.stats.cells_tabulated, via_shared.stats.cells_tabulated);
  // Identical deterministic preprocessing -> identical ownership plans.
  EXPECT_EQ(via_mpi.assignment.owner, via_shared.assignment.owner);
}

TEST(PrnaMpi, CellAccountingMatchesSequential) {
  const auto s = worst_case_structure(50);
  PrnaMpiOptions opt;
  opt.ranks = 4;
  const auto par = prna_mpi(s, s, opt);
  const auto seq = srna2(s, s);
  EXPECT_EQ(par.stats.cells_tabulated, seq.stats.cells_tabulated);
  EXPECT_EQ(par.stats.slices_tabulated, seq.stats.slices_tabulated);
  const std::uint64_t from_ranks =
      std::accumulate(par.cells_per_rank.begin(), par.cells_per_rank.end(), std::uint64_t{0});
  const std::uint64_t parent =
      static_cast<std::uint64_t>(s.length()) * static_cast<std::uint64_t>(s.length());
  EXPECT_EQ(from_ranks, seq.stats.cells_tabulated - parent);
}

TEST(PrnaMpi, CommVolumeMatchesAlgorithm) {
  // One allreduce per S1 arc, each reducing one m-value row.
  const auto s1 = random_structure(64, 0.5, 41);
  const auto s2 = random_structure(60, 0.5, 42);
  PrnaMpiOptions opt;
  opt.ranks = 4;
  const auto r = prna_mpi(s1, s2, opt);
  ASSERT_EQ(r.comm.size(), 4u);
  for (const auto& c : r.comm) {
    EXPECT_EQ(c.allreduces, s1.arc_count());
    EXPECT_EQ(c.bytes_sent,
              s1.arc_count() * static_cast<std::uint64_t>(s2.length()) * sizeof(Score));
    EXPECT_EQ(c.point_to_point, 0u);
  }
}

TEST(PrnaMpi, SingleRankNeedsNoMerging) {
  const auto s = worst_case_structure(40);
  PrnaMpiOptions opt;
  opt.ranks = 1;
  const auto r = prna_mpi(s, s, opt);
  EXPECT_EQ(r.value, 20);
  // Allreduce still called per row (algorithmic faithfulness), but with
  // p = 1 nothing is merged.
  EXPECT_EQ(r.comm[0].allreduces, s.arc_count());
}

TEST(PrnaMpi, ManyMoreRanksThanColumns) {
  const auto s = db("((..))");
  PrnaMpiOptions opt;
  opt.ranks = 6;
  EXPECT_EQ(prna_mpi(s, s, opt).value, 2);
}

}  // namespace
}  // namespace srna
