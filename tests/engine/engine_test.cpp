// McosEngine registry mechanics: built-in roster, lookup errors, duplicate
// rejection, caps-driven config validation, and the workspace pooling
// accounting solve_with() publishes (engine.workspace_reuse /
// engine.workspace_alloc_bytes).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/mcos.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/generators.hpp"

namespace srna {
namespace {

TEST(EngineRegistry, BuiltinsRegisteredInOrder) {
  const auto names = McosEngine::instance().names();
  const std::vector<std::string> expected = {"srna1",        "srna2",   "prna",
                                             "prna-mpi-sim", "topdown", "bottomup"};
  ASSERT_GE(names.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(names[i], expected[i]);
}

TEST(EngineRegistry, FindAndAt) {
  EXPECT_NE(McosEngine::instance().find("srna2"), nullptr);
  EXPECT_EQ(McosEngine::instance().find("no-such-solver"), nullptr);
  EXPECT_STREQ(McosEngine::instance().at("prna").name(), "prna");
  try {
    (void)McosEngine::instance().at("no-such-solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error lists the registered names so CLI users can self-correct.
    EXPECT_NE(std::string(e.what()).find("srna2"), std::string::npos);
  }
}

TEST(EngineRegistry, RejectsDuplicateName) {
  class Impostor final : public SolverBackend {
   public:
    const char* name() const noexcept override { return "srna2"; }
    const char* description() const noexcept override { return "duplicate"; }
    BackendCaps caps() const noexcept override { return {}; }
    EngineResult solve(const SecondaryStructure&, const SecondaryStructure&,
                       const SolverConfig&, Workspace&) const override {
      return {};
    }
  };
  EXPECT_THROW(McosEngine::instance().register_backend(std::make_unique<Impostor>()),
               std::invalid_argument);
  EXPECT_THROW(McosEngine::instance().register_backend(nullptr), std::invalid_argument);
}

TEST(EngineValidation, RejectsKnobsTheBackendCannotHonor) {
  const auto& engine = McosEngine::instance();

  SolverConfig hash_memo;
  hash_memo.memo_kind = MemoKind::kHashMap;
  EXPECT_NO_THROW(engine.at("srna1").validate(hash_memo));
  EXPECT_THROW(engine.at("srna2").validate(hash_memo), std::invalid_argument);
  EXPECT_THROW(engine.at("prna").validate(hash_memo), std::invalid_argument);

  SolverConfig threaded;
  threaded.threads = 2;
  EXPECT_NO_THROW(engine.at("prna").validate(threaded));
  EXPECT_THROW(engine.at("srna2").validate(threaded), std::invalid_argument);
  EXPECT_THROW(engine.at("prna-mpi-sim").validate(threaded), std::invalid_argument);

  SolverConfig ranked;
  ranked.ranks = 3;
  EXPECT_NO_THROW(engine.at("prna-mpi-sim").validate(ranked));
  EXPECT_THROW(engine.at("prna").validate(ranked), std::invalid_argument);

  // `prna` runs the paper's static schedule, whose column ownership a
  // balance strategy shapes; prna-steal has no owned columns to balance.
  SolverConfig cyclic;
  cyclic.balance = BalanceStrategy::kCyclic;
  EXPECT_NO_THROW(engine.at("prna").validate(cyclic));
  EXPECT_THROW(engine.at("prna-steal").validate(cyclic), std::invalid_argument);

  // layout and validate_memo are accept-and-ignore everywhere, including the
  // references — layout sweeps must be able to cover all backends.
  SolverConfig compressed;
  compressed.layout = SliceLayout::kCompressed;
  compressed.validate_memo = true;
  for (const SolverBackend* backend : engine.backends())
    EXPECT_NO_THROW(backend->validate(compressed)) << backend->name();
}

TEST(EngineValidation, SolveWithRejectsBeforeSolving) {
  const auto s = parse_dot_bracket("((..))");
  SolverConfig bad;
  bad.threads = 2;
  Workspace ws;
  EXPECT_THROW(
      (void)solve_with(McosEngine::instance().at("srna2"), s, s, bad, ws),
      std::invalid_argument);
  EXPECT_EQ(ws.solves(), 0u);
}

TEST(EngineSolve, MatchesDirectSolvers) {
  const auto a = rrna_like_structure(80, 14, 7);
  const auto b = rrna_like_structure(84, 15, 11);
  const Score expected = mcos(a, b, McosAlgorithm::kSrna2).value;
  EXPECT_EQ(engine_solve("srna1", a, b).value, expected);
  EXPECT_EQ(engine_solve("srna2", a, b).value, expected);
  EXPECT_EQ(engine_solve("prna", a, b).value, expected);
  EXPECT_EQ(engine_solve("prna-mpi-sim", a, b).value, expected);
  EXPECT_EQ(engine_solve("topdown", a, b).value, expected);
  EXPECT_EQ(engine_solve("bottomup", a, b).value, expected);
}

TEST(EngineSolve, PrnaDetailCarriesTimeline) {
  const auto s = worst_case_structure(60);
  SolverConfig config;
  config.threads = 2;
  const EngineResult r = engine_solve("prna", s, s, config);
  EXPECT_EQ(r.threads_used, 2);
  ASSERT_TRUE(r.detail.is_object());
  EXPECT_TRUE(r.detail.contains("timeline"));
  EXPECT_TRUE(r.detail.contains("cells_per_thread"));
}

TEST(EngineWorkspace, ReuseAndAllocCounters) {
  const auto s = rrna_like_structure(120, 20, 3);
  const SolverBackend& backend = McosEngine::instance().at("srna2");
  obs::Counter& reuse = obs::Registry::instance().counter("engine.workspace_reuse");
  obs::Counter& alloc = obs::Registry::instance().counter("engine.workspace_alloc_bytes");

  Workspace ws;  // fresh: the first solve must allocate, later ones must not
  const std::uint64_t reuse0 = reuse.value();
  const std::uint64_t alloc0 = alloc.value();

  (void)solve_with(backend, s, s, {}, ws);
  EXPECT_EQ(ws.solves(), 1u);
  EXPECT_EQ(reuse.value(), reuse0);             // first solve is not a reuse
  EXPECT_GT(alloc.value(), alloc0);             // ...but it does allocate
  const std::uint64_t alloc1 = alloc.value();
  const std::size_t footprint = ws.footprint_bytes();
  EXPECT_GT(footprint, 0u);

  for (int i = 0; i < 3; ++i) (void)solve_with(backend, s, s, {}, ws);
  EXPECT_EQ(ws.solves(), 4u);
  EXPECT_EQ(reuse.value(), reuse0 + 3);         // every later solve is a reuse
  EXPECT_EQ(alloc.value(), alloc1);             // ...and allocates nothing new
  EXPECT_EQ(ws.footprint_bytes(), footprint);
}

TEST(EngineWorkspace, SmallerSolveKeepsCapacity) {
  const SolverBackend& backend = McosEngine::instance().at("srna2");
  Workspace ws;
  (void)solve_with(backend, rrna_like_structure(150, 24, 1), rrna_like_structure(150, 24, 2),
                   {}, ws);
  const std::size_t footprint = ws.footprint_bytes();
  // A smaller follow-up problem fits in the reserved capacity: no growth.
  (void)solve_with(backend, rrna_like_structure(60, 10, 3), rrna_like_structure(60, 10, 4),
                   {}, ws);
  EXPECT_EQ(ws.footprint_bytes(), footprint);
}

TEST(EngineWorkspace, ClearReleasesBuffers) {
  Workspace ws;
  ws.memo(32, 32, 0);
  ws.slice_scratch(0).grid.resize(16, 16, 0);
  ws.slice_scratch(1);
  EXPECT_GT(ws.footprint_bytes(), 0u);
  ws.clear();
  EXPECT_EQ(ws.footprint_bytes(), 0u);
}

}  // namespace
}  // namespace srna
