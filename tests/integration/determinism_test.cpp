// Bit-level reproducibility: everything seeded must produce identical
// results across repeated invocations within a process — the property the
// whole benchmark harness and the checkpoint fingerprints rest on.
#include <gtest/gtest.h>

#include "core/enumerate.hpp"
#include "core/mcos.hpp"
#include "core/traceback.hpp"
#include "parallel/prna.hpp"
#include "parallel/prna_mpi.hpp"
#include "rna/generators.hpp"
#include "rna/mutations.hpp"
#include "rna/nussinov.hpp"

namespace srna {
namespace {

TEST(Determinism, GeneratorsAreReproducible) {
  for (std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
    EXPECT_EQ(random_structure(120, 0.4, seed), random_structure(120, 0.4, seed));
    EXPECT_EQ(rrna_like_structure(400, 70, seed), rrna_like_structure(400, 70, seed));
    EXPECT_EQ(pseudoknot_structure(50, seed), pseudoknot_structure(50, seed));
    EXPECT_EQ(random_sequence(80, seed), random_sequence(80, seed));
    const auto s = rrna_like_structure(200, 35, seed);
    EXPECT_EQ(sequence_for_structure(s, seed), sequence_for_structure(s, seed));
    EXPECT_EQ(mutate_structure(s, 0.3, seed), mutate_structure(s, 0.3, seed));
  }
}

TEST(Determinism, SolverStatsAreReproducible) {
  const auto s1 = random_structure(60, 0.5, 5);
  const auto s2 = random_structure(55, 0.5, 6);
  const auto a = srna2(s1, s2);
  const auto b = srna2(s1, s2);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.stats.cells_tabulated, b.stats.cells_tabulated);
  EXPECT_EQ(a.stats.slices_tabulated, b.stats.slices_tabulated);
  EXPECT_EQ(a.stats.arc_match_events, b.stats.arc_match_events);
}

TEST(Determinism, TracebackIsStable) {
  const auto s1 = rrna_like_structure(150, 25, 9);
  const auto s2 = rrna_like_structure(140, 22, 10);
  const auto a = mcos_traceback(s1, s2);
  const auto b = mcos_traceback(s1, s2);
  EXPECT_EQ(a.matches, b.matches);
}

TEST(Determinism, EnumerationOrderIsStable) {
  const auto s1 = random_structure(20, 0.4, 21);
  const auto s2 = random_structure(22, 0.4, 22);
  const auto a = enumerate_optimal_matches(s1, s2, 50);
  const auto b = enumerate_optimal_matches(s1, s2, 50);
  EXPECT_EQ(a.witnesses, b.witnesses);
}

TEST(Determinism, ParallelValueIndependentOfConcurrency) {
  // The answer (and the work accounting) must not depend on thread or rank
  // count, schedule, or repetition.
  const auto s1 = rrna_like_structure(180, 30, 31);
  const auto s2 = rrna_like_structure(170, 28, 32);
  const Score expected = srna2(s1, s2).value;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int t : {1, 2, 5}) {
      PrnaOptions opt;
      opt.num_threads = t;
      opt.schedule = repeat % 2 == 0 ? PrnaSchedule::kStaticColumns : PrnaSchedule::kStealing;
      EXPECT_EQ(prna(s1, s2, opt).value, expected);
    }
    PrnaMpiOptions mpi;
    mpi.ranks = 4;
    EXPECT_EQ(prna_mpi(s1, s2, mpi).value, expected);
  }
}

TEST(Determinism, NussinovTracebackIsStable) {
  const auto seq = random_sequence(70, 77);
  EXPECT_EQ(nussinov_fold(seq).structure, nussinov_fold(seq).structure);
}

}  // namespace
}  // namespace srna
