#include "cli_app.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace srna::tools {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

template <typename... Args>
CliRun run(Args... args) {
  const std::array<const char*, sizeof...(Args) + 1> argv{"srna", args...};
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  return CliRun{code, out.str(), err.str()};
}

TEST(Cli, NoArgumentsPrintsUsage) {
  const auto r = run();
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(Cli, HelpCommand) {
  const auto r = run("help");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("compare"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = run("frobnicate");
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, CompareDotBracketLiterals) {
  const auto r = run("compare", "((..))", "(.)(.)");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("MCOS value: 1"), std::string::npos);
}

TEST(Cli, CompareAllAlgorithmsAgree) {
  for (const char* algo : {"srna1", "srna2", "topdown", "bottomup"}) {
    const auto r = run("compare", "--algorithm", algo, "((..))((..))", "((..))");
    EXPECT_EQ(r.code, 0) << algo << ": " << r.err;
    EXPECT_NE(r.out.find("MCOS value: 2"), std::string::npos) << algo;
  }
}

TEST(Cli, CompareCompressedLayoutAndThreads) {
  const auto a = run("compare", "--layout=compressed", "((..))", "((..))");
  EXPECT_NE(a.out.find("MCOS value: 2"), std::string::npos);
  const auto b = run("compare", "--threads=2", "((..))", "((..))");
  EXPECT_NE(b.out.find("MCOS value: 2"), std::string::npos);
  EXPECT_NE(b.out.find("PRNA"), std::string::npos);
}

TEST(Cli, CompareTraceback) {
  const auto r = run("compare", "--traceback", "((..))", "((..))");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("<->"), std::string::npos);
  EXPECT_NE(r.out.find("common substructure: (())"), std::string::npos);
}

TEST(Cli, CompareWeighted) {
  const auto r = run("compare", "--weighted", "((..))", "((..))");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("weighted similarity: 2"), std::string::npos);
}

TEST(Cli, CompareRejectsWrongArity) {
  EXPECT_EQ(run("compare", "((..))").code, 2);
  EXPECT_EQ(run("compare").code, 2);
}

TEST(Cli, CompareAcceptsLiteralsLongerThanAFileName) {
  // 300 characters, past NAME_MAX: probing them as file names must not throw.
  const std::string a = std::string(100, '(') + std::string(100, '.') + std::string(100, ')');
  const std::string b = "(" + std::string(298, '.') + ")";
  const auto r = run("compare", a.c_str(), b.c_str());
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("MCOS value: 1"), std::string::npos) << r.out;
}

TEST(Cli, CompareRejectsPseudoknotInput) {
  const auto r = run("compare", "([)]", "(.)");
  EXPECT_NE(r.code, 0);
  EXPECT_FALSE(r.err.empty());
}

TEST(Cli, FoldSequenceLiteral) {
  const auto r = run("fold", "GGGGAAACCCC");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("pairs: 4"), std::string::npos);
}

TEST(Cli, FoldAcceptsSequenceLongerThanAFileName) {
  const std::string seq = std::string(100, 'G') + std::string(100, 'A') + std::string(100, 'C');
  const auto r = run("fold", seq.c_str());
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("pairs: 100"), std::string::npos) << r.out;
}

TEST(Cli, FoldWithDiagramAndMinLoop) {
  const auto r = run("fold", "--min-loop=0", "--diagram", "GC");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("pairs: 1"), std::string::npos);
  EXPECT_NE(r.out.find("GC"), std::string::npos);
}

TEST(Cli, FoldMfeMode) {
  const auto r = run("fold", "--mfe", "GGGGGGAAACCCCCC");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("energy: -40"), std::string::npos);
  EXPECT_NE(r.out.find("pairs: 6"), std::string::npos);
}

TEST(Cli, FoldRejectsGarbage) {
  EXPECT_NE(run("fold", "NOTRNA!").code, 0);
}

TEST(Cli, ShowRendersDiagramAndStats) {
  const auto r = run("show", "((...))");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("/"), std::string::npos);
  EXPECT_NE(r.out.find("arcs=2"), std::string::npos);
}

TEST(Cli, ShowWritesSvgAndLoops) {
  const char* path = "/tmp/srna_cli_show.svg";
  std::filesystem::remove(path);
  const auto r = run("show", "--loops", "--svg", path, "((..((...))..))");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("hairpin: 1"), std::string::npos);
  EXPECT_NE(r.out.find("wrote"), std::string::npos);
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("<svg", 0), 0u);
}

TEST(Cli, AlignDotBracketLiterals) {
  const auto r = run("align", "((..))", "((..))");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("common arcs: 2"), std::string::npos);
  EXPECT_NE(r.out.find("identities:"), std::string::npos);
}

TEST(Cli, AlignCustomScoring) {
  const auto r = run("align", "--gap=-5", "--match=3", "(.)", ".(.)..");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("common arcs: 1"), std::string::npos);
}

TEST(Cli, AlignRejectsWrongArity) {
  EXPECT_EQ(run("align", "((..))").code, 2);
}

TEST(Cli, ValidateCleanStructure) {
  const auto r = run("validate", "((..))");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("OK"), std::string::npos);
}

TEST(Cli, ValidateFlagsPseudoknot) {
  const auto r = run("validate", "([)]");
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("pseudoknotted"), std::string::npos);
}

TEST(Cli, GenerateWorstCase) {
  const auto r = run("generate", "--kind=worst", "--length=8");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("(((())))"), std::string::npos);
}

TEST(Cli, GenerateKindsRun) {
  for (const char* kind : {"random", "rrna", "knot", "sequential"}) {
    const auto r = run("generate", "--kind", kind, "--length=60", "--arcs=8");
    EXPECT_EQ(r.code, 0) << kind << ": " << r.err;
    EXPECT_FALSE(r.out.empty()) << kind;
  }
}

TEST(Cli, GenerateUnknownKindFails) {
  EXPECT_EQ(run("generate", "--kind=banana").code, 2);
}

TEST(Cli, GenerateToFileThenCompareAndConvert) {
  const char* ct_path = "/tmp/srna_cli_gen.ct";
  const auto gen = run("generate", "--kind=rrna", "--length=120", "--arcs=20",
                       "--output", ct_path);
  EXPECT_EQ(gen.code, 0) << gen.err;

  // Self-comparison through file loading: value = arc count.
  const auto cmp = run("compare", ct_path, ct_path);
  EXPECT_EQ(cmp.code, 0) << cmp.err;
  EXPECT_NE(cmp.out.find("MCOS value:"), std::string::npos);

  const char* bpseq_path = "/tmp/srna_cli_gen.bpseq";
  const auto conv = run("convert", ct_path, bpseq_path);
  EXPECT_EQ(conv.code, 0) << conv.err;
  const auto cmp2 = run("compare", ct_path, bpseq_path);
  EXPECT_EQ(cmp2.out, cmp.out);  // identical structure after conversion
}

TEST(Cli, ConvertDotBracketToCt) {
  const char* path = "/tmp/srna_cli_conv.ct";
  const auto r = run("convert", "((..))", path);
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

TEST(Cli, ConvertRejectsUnknownOutputExtension) {
  EXPECT_NE(run("convert", "((..))", "/tmp/srna_cli_conv.xyz").code, 0);
}

TEST(Cli, SubcommandHelpReturnsCleanly) {
  for (const char* cmd : {"compare", "fold", "show", "validate", "generate", "convert",
                          "align", "search", "matrix"}) {
    const auto r = run(cmd, "--help");
    EXPECT_EQ(r.code, 0) << cmd;
  }
}

TEST(Cli, SearchAndMatrixOverGeneratedDirectory) {
  const std::string dir = "/tmp/srna_cli_dbdir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(run("generate", "--kind=rrna", "--length=150", "--arcs=25", "--seed=1",
                "--output", (dir + "/a.ct").c_str())
                .code,
            0);
  ASSERT_EQ(run("generate", "--kind=rrna", "--length=150", "--arcs=25", "--seed=2",
                "--output", (dir + "/b.ct").c_str())
                .code,
            0);
  ASSERT_EQ(run("generate", "--kind=worst", "--length=60",
                "--output", (dir + "/c.ct").c_str())
                .code,
            0);

  const auto search = run("search", (dir + "/a.ct").c_str(), dir.c_str());
  EXPECT_EQ(search.code, 0) << search.err;
  // The query is in the directory: it must rank itself first with score 1
  // (columns are right-aligned, so match on loose fragments and ordering).
  EXPECT_NE(search.out.find("1.000"), std::string::npos) << search.out;
  EXPECT_LT(search.out.find(" a "), search.out.find(" b ")) << search.out;

  const auto matrix = run("matrix", "--csv", dir.c_str());
  EXPECT_EQ(matrix.code, 0) << matrix.err;
  EXPECT_NE(matrix.out.find(",a,b,c"), std::string::npos);

  const auto raw = run("search", "--raw", "--top=1", (dir + "/c.ct").c_str(), dir.c_str());
  EXPECT_EQ(raw.code, 0) << raw.err;
  EXPECT_NE(raw.out.find("30"), std::string::npos);  // worst-case self: 30 arcs
}

TEST(Cli, SearchRejectsMissingDirectory) {
  EXPECT_NE(run("search", "(.)", "/tmp/definitely_missing_dir_srna").code, 0);
  EXPECT_NE(run("matrix", "/tmp/definitely_missing_dir_srna").code, 0);
}

}  // namespace
}  // namespace srna::tools
