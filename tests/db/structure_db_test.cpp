#include "db/structure_db.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/mcos.hpp"
#include "rna/generators.hpp"
#include "testing/builders.hpp"

namespace srna {
namespace {

using testing::db;

StructureDatabase demo_db() {
  StructureDatabase out;
  out.add({"worst20", worst_case_structure(20), std::nullopt});
  out.add({"hairpins", sequential_arcs_structure(20, 8), std::nullopt});
  out.add({"rrna", rrna_like_structure(120, 20, 1), std::nullopt});
  out.add({"empty", SecondaryStructure(15), std::nullopt});
  return out;
}

TEST(StructureDb, AddAndFind) {
  const auto d = demo_db();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.find("rrna"), 2u);
  EXPECT_EQ(d.find("missing"), StructureDatabase::npos);
  EXPECT_EQ(d.record(0).name, "worst20");
}

TEST(StructureDb, RejectsDuplicatesAndBadRecords) {
  StructureDatabase d;
  d.add({"a", SecondaryStructure(4), std::nullopt});
  EXPECT_THROW(d.add({"a", SecondaryStructure(4), std::nullopt}), std::invalid_argument);
  EXPECT_THROW(d.add({"", SecondaryStructure(4), std::nullopt}), std::invalid_argument);
  const auto knot = SecondaryStructure::from_arcs(4, {{0, 2}, {1, 3}});
  EXPECT_THROW(d.add({"knot", knot, std::nullopt}), std::invalid_argument);
}

TEST(StructureDb, DuplicateNameGuardDistinguishesIdenticalFromShadowing) {
  StructureDatabase d;
  d.add({"a", worst_case_structure(10), std::nullopt});
  // Re-adding the identical structure under the same name.
  try {
    d.add({"a", worst_case_structure(10), std::nullopt});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("identical structure"), std::string::npos);
  }
  // Same name, different structure: the dangerous shadowing case.
  try {
    d.add({"a", sequential_arcs_structure(10, 3), std::nullopt});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("different structure"), std::string::npos);
  }
  EXPECT_EQ(d.size(), 1u);
}

TEST(StructureDb, FindEquivalentLocatesContentUnderAnyName) {
  StructureDatabase d;
  d.add({"first", worst_case_structure(12), std::nullopt});
  d.add({"other", sequential_arcs_structure(12, 4), std::nullopt});
  // Same content filed under a second name is found at the lowest index.
  d.add({"alias", worst_case_structure(12), std::nullopt});

  EXPECT_EQ(d.find_equivalent(worst_case_structure(12)), 0u);
  EXPECT_EQ(d.find_equivalent(sequential_arcs_structure(12, 4)), 1u);
  EXPECT_EQ(d.find_equivalent(worst_case_structure(14)), StructureDatabase::npos);
  EXPECT_EQ(d.find_equivalent(SecondaryStructure(12)), StructureDatabase::npos);
}

TEST(StructureDb, DirectoryRoundTrip) {
  const std::filesystem::path dir = "/tmp/srna_db_roundtrip";
  std::filesystem::remove_all(dir);
  const auto original = demo_db();
  original.save_directory(dir);

  const auto loaded = StructureDatabase::load_directory(dir);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const std::size_t j = loaded.find(original.record(i).name);
    ASSERT_NE(j, StructureDatabase::npos) << original.record(i).name;
    EXPECT_EQ(loaded.record(j).structure, original.record(i).structure);
  }
}

TEST(StructureDb, LoadDirectoryRejectsNonDirectory) {
  EXPECT_THROW(StructureDatabase::load_directory("/tmp/definitely_missing_srna_dir"),
               std::invalid_argument);
}

TEST(AllPairs, MatrixIsSymmetricWithUnitDiagonal) {
  const auto d = demo_db();
  const auto m = all_pairs_similarity(d);
  ASSERT_EQ(m.rows(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(m(i, i), 1.0);
    for (std::size_t j = 0; j < d.size(); ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
      EXPECT_GE(m(i, j), 0.0);
      EXPECT_LE(m(i, j), 1.0);
    }
  }
}

// Scan options that run each pair on `algorithm`. The parallel backends ask
// for more workers than the two-worker scan leaves them, so a pair solve
// nested in a scan worker must still tabulate every column: PRNA's static
// schedule once built its column ownership for the four workers it asked
// for and ran only worker 0's columns.
SearchOptions scan_with(const std::string& algorithm) {
  SearchOptions opt;
  opt.metric = SimilarityMetric::kCommonArcs;
  opt.algorithm = algorithm;
  if (algorithm == "prna-mpi-sim") {
    opt.threads = 2;
    opt.config.ranks = 3;
  } else if (algorithm != "srna2") {
    opt.threads = 2;
    opt.config.threads = 4;
  }
  return opt;
}

const char* const kScanAlgorithms[] = {"srna2", "prna", "prna-steal", "prna-mpi-sim"};

TEST(AllPairs, MatchesDirectSrna2) {
  const auto d = demo_db();
  for (const char* algorithm : kScanAlgorithms) {
    const auto m = all_pairs_similarity(d, scan_with(algorithm));
    for (std::size_t i = 0; i < d.size(); ++i) {
      for (std::size_t j = i + 1; j < d.size(); ++j) {
        const Score direct = srna2(d.record(i).structure, d.record(j).structure).value;
        EXPECT_DOUBLE_EQ(m(i, j), static_cast<double>(direct))
            << algorithm << " " << i << "," << j;
      }
    }
  }
}

TEST(AllPairs, ThreadCountDoesNotChangeResults) {
  const auto d = demo_db();
  SearchOptions one;
  one.threads = 1;
  SearchOptions four;
  four.threads = 4;
  EXPECT_EQ(all_pairs_similarity(d, one), all_pairs_similarity(d, four));
}

TEST(AllPairs, EmptyDatabase) {
  const auto m = all_pairs_similarity(StructureDatabase{});
  EXPECT_EQ(m.rows(), 0u);
}

TEST(QueryTopK, RanksSelfFirst) {
  const auto d = demo_db();
  const auto hits = query_top_k(d, d.record(2).structure, 0);
  ASSERT_EQ(hits.size(), d.size());
  EXPECT_EQ(hits[0].index, 2u);
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
  for (std::size_t i = 1; i < hits.size(); ++i)
    EXPECT_LE(hits[i].score, hits[i - 1].score);
}

TEST(QueryTopK, KTruncates) {
  const auto d = demo_db();
  EXPECT_EQ(query_top_k(d, worst_case_structure(10), 2).size(), 2u);
  EXPECT_EQ(query_top_k(d, worst_case_structure(10), 99).size(), d.size());
}

TEST(QueryTopK, RawMetricReportsCommonArcs) {
  const auto d = demo_db();
  for (const char* algorithm : kScanAlgorithms) {
    const auto hits = query_top_k(d, d.record(0).structure, 0, scan_with(algorithm));
    // Best hit: worst20 against itself = 10 common arcs.
    EXPECT_EQ(hits[0].index, 0u) << algorithm;
    EXPECT_EQ(hits[0].common_arcs, 10) << algorithm;
    EXPECT_DOUBLE_EQ(hits[0].score, 10.0) << algorithm;
    // Every candidate carries srna2's value.
    for (const QueryHit& hit : hits)
      EXPECT_EQ(hit.common_arcs,
                srna2(d.record(0).structure, d.record(hit.index).structure).value)
          << algorithm << " candidate " << hit.index;
  }
}

TEST(QueryTopK, RejectsKnottedQuery) {
  const auto knot = SecondaryStructure::from_arcs(4, {{0, 2}, {1, 3}});
  EXPECT_THROW(query_top_k(demo_db(), knot, 1), std::invalid_argument);
}

TEST(Scans, APairThatThrowsFailsTheScanAfterTheJoin) {
  // SRNA1 under a one-slice spawn limit throws on any pair with nested arc
  // matches; the scan must hand that error to its caller.
  SearchOptions opt;
  opt.algorithm = "srna1";
  opt.config.spawn_limit = 1;
  opt.threads = 2;
  const auto d = demo_db();
  EXPECT_THROW((void)all_pairs_similarity(d, opt), std::runtime_error);
  EXPECT_THROW((void)query_top_k(d, d.record(0).structure, 1, opt), std::runtime_error);
}

TEST(QueryTopK, TieBreaksByIndex) {
  StructureDatabase d;
  d.add({"x", db("(.)"), std::nullopt});
  d.add({"y", db("(.)"), std::nullopt});
  const auto hits = query_top_k(d, db("(.)"), 0);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[1].index, 1u);
}

}  // namespace
}  // namespace srna
