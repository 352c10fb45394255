// Property: every backend registered with the engine returns the top-down
// reference value on randomized non-pseudoknot pairs, under both slice
// layouts, dispatched through the registry exactly as production callers do.
// A future backend registered into McosEngine is covered automatically.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/srna_lean.hpp"
#include "engine/engine.hpp"
#include "rna/generators.hpp"
#include "rna/mutations.hpp"

namespace srna {
namespace {

std::pair<SecondaryStructure, SecondaryStructure> random_pair(std::uint64_t seed) {
  // Mix of shapes: plain random pairs, a related (mutated) pair, and the
  // dense worst case, all small enough for the 4-D references.
  switch (seed % 4) {
    case 0:
      return {random_structure(40, 0.45, seed), random_structure(36, 0.45, seed + 101)};
    case 1: {
      const auto base = rrna_like_structure(56, 9, seed);
      return {base, mutate_structure(base, 0.35, seed + 7)};
    }
    case 2:
      return {worst_case_structure(28), random_structure(32, 0.5, seed + 13)};
    default:
      return {rrna_like_structure(48, 8, seed), rrna_like_structure(52, 9, seed + 29)};
  }
}

class BackendAgreement
    : public ::testing::TestWithParam<std::tuple<SliceLayout, std::uint64_t>> {};

TEST_P(BackendAgreement, AllRegisteredBackendsMatchTopdownReference) {
  const auto [layout, seed] = GetParam();
  const auto [s1, s2] = random_pair(seed);

  SolverConfig config;
  config.layout = layout;
  config.validate_memo = true;  // also exercise the ordering checks

  const Score expected = engine_solve("topdown", s1, s2, config).value;
  for (const SolverBackend* backend : McosEngine::instance().backends()) {
    Workspace workspace;
    const EngineResult r = solve_with(*backend, s1, s2, config, workspace);
    EXPECT_EQ(r.value, expected)
        << backend->name() << " seed=" << seed
        << " layout=" << (layout == SliceLayout::kDense ? "dense" : "compressed");
  }

  // The lean backend again under a budget tight enough to force evictions
  // and recompute-on-miss (the registry sweep above runs it unbudgeted).
  SolverConfig tight = config;
  tight.memory_budget_bytes =
      lean_minimum_bytes(s1, s2) + 2 * s2.arc_count() * sizeof(Score);
  Workspace workspace;
  const EngineResult lean =
      solve_with(McosEngine::instance().at("srna-lean"), s1, s2, tight, workspace);
  EXPECT_EQ(lean.value, expected) << "srna-lean budgeted, seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BackendAgreement,
    ::testing::Combine(::testing::Values(SliceLayout::kDense, SliceLayout::kCompressed),
                       ::testing::Range<std::uint64_t>(0, 12)),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param) == SliceLayout::kDense ? "Dense"
                                                                              : "Compressed") +
             "Seed" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace srna
