// The cross-validation mega-sweep: every MCOS implementation in the
// repository, driven over one parameterized workload grid, must agree with
// the top-down reference — and, transitively, with the enumerative oracle
// (tests/core/brute_force_oracle_test.cpp validates the reference itself).
//
// Implementations covered per instance:
//   srna1 (dense, compressed, hash-map memo), srna2 (dense, compressed,
//   validated-memo), shared-memory PRNA (1 and 3 threads, static and
//   stealing schedule), PRNA-MPI (1 and 3 ranks),
//   checkpointed SRNA2 (interrupted and resumed), traceback witness size,
//   witness enumeration value, weighted similarity at unit scoring.
#include <gtest/gtest.h>

#include <filesystem>
#include <tuple>

#include "core/checkpoint.hpp"
#include "core/enumerate.hpp"
#include "core/mcos.hpp"
#include "core/traceback.hpp"
#include "core/weighted.hpp"
#include "parallel/prna.hpp"
#include "parallel/prna_mpi.hpp"
#include "rna/generators.hpp"
#include "rna/mfe_fold.hpp"
#include "rna/mutations.hpp"
#include "rna/nussinov.hpp"

namespace srna {
namespace {

enum class Workload { kRandom, kWorstCase, kRrnaLike, kMutatedPair, kFolded };

class CrossValidation : public ::testing::TestWithParam<std::tuple<Workload, std::uint64_t>> {
 protected:
  std::pair<SecondaryStructure, SecondaryStructure> make() const {
    const auto [workload, seed] = GetParam();
    switch (workload) {
      case Workload::kRandom:
        return {random_structure(42, 0.45, seed), random_structure(38, 0.45, seed + 77)};
      case Workload::kWorstCase:
        return {worst_case_structure(36), worst_case_structure(30)};
      case Workload::kRrnaLike:
        return {rrna_like_structure(60, 10, seed), rrna_like_structure(64, 11, seed + 3)};
      case Workload::kMutatedPair: {
        const auto base = rrna_like_structure(70, 12, seed);
        return {base, mutate_structure(base, 0.3, seed + 5)};
      }
      case Workload::kFolded: {
        const auto seq1 = random_sequence(40, seed);
        const auto seq2 = random_sequence(44, seed + 9);
        return {nussinov_fold(seq1).structure, mfe_fold(seq2).structure};
      }
    }
    return {SecondaryStructure(0), SecondaryStructure(0)};
  }
};

TEST_P(CrossValidation, EveryImplementationAgrees) {
  const auto [s1, s2] = make();
  const Score expected = mcos_reference_topdown(s1, s2).value;

  // Sequential algorithms across options.
  {
    McosOptions opt;
    EXPECT_EQ(srna1(s1, s2, opt).value, expected) << "srna1 dense";
    EXPECT_EQ(srna2(s1, s2, opt).value, expected) << "srna2 dense";
    opt.layout = SliceLayout::kCompressed;
    EXPECT_EQ(srna1(s1, s2, opt).value, expected) << "srna1 compressed";
    EXPECT_EQ(srna2(s1, s2, opt).value, expected) << "srna2 compressed";
    McosOptions hash;
    hash.memo_kind = MemoKind::kHashMap;
    EXPECT_EQ(srna1(s1, s2, hash).value, expected) << "srna1 hash memo";
    McosOptions validated;
    validated.validate_memo = true;
    EXPECT_EQ(srna2(s1, s2, validated).value, expected) << "srna2 validated";
  }

  // Shared-memory PRNA.
  for (int threads : {1, 3}) {
    PrnaOptions opt;
    opt.num_threads = threads;
    EXPECT_EQ(prna(s1, s2, opt).value, expected) << "prna static t=" << threads;
    opt.schedule = PrnaSchedule::kStealing;
    EXPECT_EQ(prna(s1, s2, opt).value, expected) << "prna stealing t=" << threads;
  }

  // Message-passing PRNA.
  for (int ranks : {1, 3}) {
    PrnaMpiOptions opt;
    opt.ranks = ranks;
    EXPECT_EQ(prna_mpi(s1, s2, opt).value, expected) << "prna_mpi r=" << ranks;
  }

  // Checkpointed run, interrupted every 2 rows.
  {
    // Key the file on both parameters: cases sharing a seed run concurrently
    // under `ctest -j` and must not fight over one checkpoint.
    const std::string path =
        "/tmp/srna_xval_" + std::to_string(static_cast<int>(std::get<0>(GetParam()))) +
        "_" + std::to_string(std::get<1>(GetParam())) + ".ckpt";
    std::filesystem::remove(path);
    CheckpointPolicy policy{path, 1, 2};
    CheckpointedRun run;
    do {
      run = srna2_checkpointed(s1, s2, {}, policy);
    } while (!run.complete);
    EXPECT_EQ(run.result.value, expected) << "checkpointed";
  }

  // Witness machinery.
  EXPECT_EQ(static_cast<Score>(mcos_traceback(s1, s2).matches.size()), expected)
      << "traceback";
  EXPECT_EQ(enumerate_optimal_matches(s1, s2, 4).value, expected) << "enumeration";

  // Weighted similarity at unit scoring.
  EXPECT_DOUBLE_EQ(weighted_similarity(s1, s2, SimilarityScoring::unit()).value,
                   static_cast<double>(expected))
      << "weighted unit";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrossValidation,
    ::testing::Combine(::testing::Values(Workload::kRandom, Workload::kWorstCase,
                                         Workload::kRrnaLike, Workload::kMutatedPair,
                                         Workload::kFolded),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

}  // namespace
}  // namespace srna
