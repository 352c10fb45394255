#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/mcos.hpp"
#include "rna/generators.hpp"
#include "testing/builders.hpp"

namespace srna {
namespace {

using testing::db;

std::string fresh_path(const std::string& name) {
  const std::string path = "/tmp/srna_ckpt_" + name + ".bin";
  std::filesystem::remove(path);
  return path;
}

TEST(Checkpoint, UninterruptedRunMatchesSrna2) {
  const auto s1 = random_structure(60, 0.5, 1);
  const auto s2 = random_structure(55, 0.5, 2);
  CheckpointPolicy policy{fresh_path("plain"), 8, 0};
  const auto run = srna2_checkpointed(s1, s2, {}, policy);
  EXPECT_TRUE(run.complete);
  EXPECT_FALSE(run.resumed);
  EXPECT_EQ(run.result.value, srna2(s1, s2).value);
  EXPECT_EQ(run.rows_done, s1.arc_count());
  // Checkpoint removed on success.
  EXPECT_FALSE(std::filesystem::exists(policy.path));
}

TEST(Checkpoint, InterruptedAndResumedRunIsExact) {
  const auto s1 = worst_case_structure(60);
  const auto s2 = worst_case_structure(60);
  const auto expected = srna2(s1, s2);

  CheckpointPolicy policy{fresh_path("resume"), 4, 0};
  policy.max_rows_this_run = 7;  // force several interruptions

  CheckpointedRun run;
  int invocations = 0;
  do {
    run = srna2_checkpointed(s1, s2, {}, policy);
    ++invocations;
    ASSERT_LT(invocations, 50) << "not making progress";
  } while (!run.complete);

  EXPECT_GT(invocations, 2);  // it really was interrupted
  EXPECT_TRUE(run.resumed);
  EXPECT_EQ(run.result.value, expected.value);
  // Work counters survive the restarts: total cells equal the direct run.
  EXPECT_EQ(run.result.stats.cells_tabulated, expected.stats.cells_tabulated);
  EXPECT_EQ(run.result.stats.slices_tabulated, expected.stats.slices_tabulated);
  EXPECT_FALSE(std::filesystem::exists(policy.path));
}

TEST(Checkpoint, EveryRowsOneCheckpointsConstantly) {
  const auto s = worst_case_structure(30);
  CheckpointPolicy policy{fresh_path("every1"), 1, 5};
  const auto first = srna2_checkpointed(s, s, {}, policy);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.rows_done, 5u);
  EXPECT_TRUE(std::filesystem::exists(policy.path));

  policy.max_rows_this_run = 0;
  const auto second = srna2_checkpointed(s, s, {}, policy);
  EXPECT_TRUE(second.complete);
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.result.value, 15);
}

TEST(Checkpoint, MismatchedInputsRejected) {
  const auto s1 = worst_case_structure(40);
  CheckpointPolicy policy{fresh_path("mismatch"), 2, 3};
  const auto partial = srna2_checkpointed(s1, s1, {}, policy);
  ASSERT_FALSE(partial.complete);

  // Same sizes, different arcs -> different fingerprint.
  const auto other = random_structure(40, 0.5, 9);
  EXPECT_THROW(srna2_checkpointed(other, other, {}, policy), std::invalid_argument);
  // Different length entirely.
  const auto shorter = worst_case_structure(20);
  EXPECT_THROW(srna2_checkpointed(shorter, shorter, {}, policy), std::invalid_argument);
  std::filesystem::remove(policy.path);
}

TEST(Checkpoint, GarbageFileRejected) {
  const std::string path = fresh_path("garbage");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  const auto s = worst_case_structure(20);
  CheckpointPolicy policy{path, 4, 0};
  EXPECT_THROW(srna2_checkpointed(s, s, {}, policy), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Checkpoint, PolicyValidation) {
  const auto s = db("(.)");
  EXPECT_THROW(srna2_checkpointed(s, s, {}, CheckpointPolicy{"", 4, 0}),
               std::invalid_argument);
  EXPECT_THROW(srna2_checkpointed(s, s, {}, CheckpointPolicy{"/tmp/x", 0, 0}),
               std::invalid_argument);
}

TEST(Checkpoint, ArcFreeInputsCompleteImmediately) {
  const auto run =
      srna2_checkpointed(db("...."), db(".."), {}, CheckpointPolicy{fresh_path("empty"), 4, 0});
  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.result.value, 0);
  EXPECT_EQ(run.rows_total, 0u);
}

TEST(Fingerprint, SensitiveToArcsAndLength) {
  const auto a = worst_case_structure(20);
  const auto b = worst_case_structure(22);
  const auto c = random_structure(20, 0.5, 1);
  EXPECT_NE(structure_fingerprint(a), structure_fingerprint(b));
  EXPECT_NE(structure_fingerprint(a), structure_fingerprint(c));
  EXPECT_EQ(structure_fingerprint(a), structure_fingerprint(worst_case_structure(20)));
}

TEST(Checkpoint, ResumeProducesSameValueOnRandomPairs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto s1 = random_structure(50, 0.6, seed);
    const auto s2 = random_structure(45, 0.6, seed + 77);
    CheckpointPolicy policy{fresh_path("rand" + std::to_string(seed)), 2, 3};
    CheckpointedRun run;
    do {
      run = srna2_checkpointed(s1, s2, {}, policy);
    } while (!run.complete);
    EXPECT_EQ(run.result.value, srna2(s1, s2).value) << seed;
  }
}

TEST(Checkpoint, ResumesUnderTheOtherLayout) {
  // The saved rows are memo values, which do not depend on the layout: stop
  // stage one under one layout and finish it under the other.
  McosOptions dense;
  McosOptions compressed;
  compressed.layout = SliceLayout::kCompressed;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto s1 = random_structure(50, 0.6, 300 + seed);
    const auto s2 = random_structure(46, 0.6, 400 + seed);
    const bool dense_first = seed % 2 == 0;
    CheckpointPolicy policy{fresh_path("layout" + std::to_string(seed)), 2, 0};
    policy.max_rows_this_run = static_cast<std::uint64_t>(s1.arc_count()) / 2;
    ASSERT_GT(policy.max_rows_this_run, 0u);
    const auto first = srna2_checkpointed(s1, s2, dense_first ? dense : compressed, policy);
    ASSERT_FALSE(first.complete) << seed;
    policy.max_rows_this_run = 0;
    const auto second = srna2_checkpointed(s1, s2, dense_first ? compressed : dense, policy);
    ASSERT_TRUE(second.complete) << seed;
    EXPECT_TRUE(second.resumed) << seed;
    EXPECT_EQ(second.result.value, srna2(s1, s2).value) << seed;
  }
}

}  // namespace
}  // namespace srna
