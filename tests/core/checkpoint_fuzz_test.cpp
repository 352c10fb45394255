// Robustness ("fuzz-lite") tests for the one checkpoint loader: starting from
// valid SRNA2 and SRNA-lean checkpoints, truncated, bit-flipped and padded
// files must either resume to the exact MCOS value or be rejected with
// std::invalid_argument — never crash, never read past the end of the file.
// Deterministic in-repo PRNG, no external fuzzer (the
// tests/rna/fuzz_parsers_test.cpp style); core_tests carries the `asan`
// label, so scripts/check_asan.sh runs these under AddressSanitizer.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/mcos.hpp"
#include "core/srna_lean.hpp"
#include "rna/generators.hpp"
#include "util/prng.hpp"

namespace srna {
namespace {

using Bytes = std::vector<char>;
using Header = detail::CheckpointHeader;

struct Subject {
  std::string name;
  std::function<CheckpointedRun(const CheckpointPolicy&)> run;
};

class CheckpointFuzz : public ::testing::Test {
 protected:
  SecondaryStructure s1 = random_structure(44, 0.6, 3);
  SecondaryStructure s2 = random_structure(40, 0.6, 4);
  Score expected = srna2(s1, s2).value;
  std::vector<Subject> subjects = {
      {"srna2",
       [this](const CheckpointPolicy& p) { return srna2_checkpointed(s1, s2, {}, p); }},
      {"srna-lean", [this](const CheckpointPolicy& p) {
         LeanOptions tight;  // evicting, so the file holds a strict subset of rows
         tight.memory_budget_bytes =
             lean_minimum_bytes(s1, s2) + 2 * s2.arc_count() * sizeof(Score);
         return srna_lean_checkpointed(s1, s2, tight, p);
       }}};

  // The file a run of `subject` leaves after `rows` stage-one rows.
  Bytes checkpoint(const Subject& subject, std::uint64_t rows) {
    path_ = "/tmp/srna_ckpt_fuzz_" + subject.name + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
    std::filesystem::remove(path_);
    EXPECT_FALSE(subject.run(CheckpointPolicy{path_, 1000, rows}).complete);
    std::ifstream in(path_, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  // Resumes `subject` from `bytes`: true when the file is rejected with
  // std::invalid_argument; otherwise the run must reach the exact value.
  bool rejected(const Subject& subject, const Bytes& bytes, const std::string& what) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    try {
      const CheckpointedRun run = subject.run(CheckpointPolicy{path_, 1000, 0});
      EXPECT_TRUE(run.complete && run.result.value == expected) << subject.name << ": " << what;
      return false;
    } catch (const std::invalid_argument& e) {
      last_error_ = e.what();
      return true;
    }
  }

  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
  std::string last_error_;
};

TEST_F(CheckpointFuzz, MutatedFilesResumeExactlyOrAreRejected) {
  Xoshiro256 rng(11);
  for (const Subject& subject : subjects) {
    const Bytes valid = checkpoint(subject, 6);
    ASSERT_GT(valid.size(), sizeof(Header));
    EXPECT_FALSE(rejected(subject, valid, "unmodified"));
    Header header{};
    std::memcpy(&header, valid.data(), sizeof(header));
    ASSERT_GT(header.row_count, 0u);

    // Truncation at every header offset, then at random payload offsets.
    for (std::size_t cut = 0; cut < valid.size();
         cut += cut < sizeof(Header) ? 1 : 1 + rng.uniform(97)) {
      const Bytes head(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_TRUE(rejected(subject, head, "truncated at " + std::to_string(cut)));
    }

    // Flipped bytes in n, m, the three counts and every row's ordinal.
    std::vector<std::size_t> fields = {offsetof(Header, n), offsetof(Header, m),
                                       offsetof(Header, rows_done), offsetof(Header, row_count),
                                       offsetof(Header, arcs2)};
    for (std::uint64_t r = 0; r < header.row_count; ++r)
      fields.push_back(sizeof(Header) + r * (8 + header.arcs2 * sizeof(Score)));
    for (int i = 0; i < 200; ++i) {
      Bytes flipped = valid;
      const std::size_t at = fields[rng.uniform(fields.size())] + rng.uniform(8);
      flipped[at] = static_cast<char>(flipped[at] ^ static_cast<char>(1 + rng.uniform(255)));
      rejected(subject, flipped, "byte " + std::to_string(at) + " flipped");
    }

    // Garbage appended after the last row.
    for (int i = 0; i < 20; ++i) {
      Bytes padded = valid;
      for (std::uint64_t k = 0, extra = 1 + rng.uniform(64); k < extra; ++k)
        padded.push_back(static_cast<char>(rng.uniform(256)));
      EXPECT_TRUE(rejected(subject, padded, "garbage appended"));
    }
  }
}

TEST_F(CheckpointFuzz, RowCountAboveTheArcCountIsRejectedBeforeAnyRowIsRead) {
  for (const Subject& subject : subjects) {
    const Bytes valid = checkpoint(subject, 3);
    for (const std::uint64_t rows :
         {static_cast<std::uint64_t>(s1.arc_count()) + 1, std::uint64_t{1} << 60}) {
      // Header only: reading a row would hit end-of-file, and the size and
      // checksum checks name themselves — the count check must fire first.
      Bytes header_only(valid.begin(), valid.begin() + sizeof(Header));  // no rows
      std::memcpy(header_only.data() + offsetof(Header, row_count), &rows, sizeof(rows));
      ASSERT_TRUE(rejected(subject, header_only, "row_count " + std::to_string(rows)));
      EXPECT_NE(last_error_.find("row count exceeds"), std::string::npos) << last_error_;
    }
  }
}

TEST_F(CheckpointFuzz, RetiredFormatsAreRejectedByMagic) {
  for (const Subject& subject : subjects) {
    Bytes old_file = checkpoint(subject, 2);
    for (const char* magic : {"SRNA2CK1", "SRNALCK1"}) {
      std::memcpy(old_file.data(), magic, 8);
      ASSERT_TRUE(rejected(subject, old_file, magic));
      EXPECT_NE(last_error_.find("magic"), std::string::npos) << last_error_;
    }
  }
}

}  // namespace
}  // namespace srna
