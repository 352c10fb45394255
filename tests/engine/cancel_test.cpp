// Cooperative cancellation: the serve deadline path through the engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "engine/engine.hpp"
#include "rna/generators.hpp"

namespace srna {
namespace {

TEST(Cancellation, PreCancelledFlagAbortsSequentialSolvers) {
  const auto s = worst_case_structure(60);
  std::atomic<bool> cancel{true};
  SolverConfig config;
  config.cancel = &cancel;
  for (const char* name : {"srna1", "srna2"}) {
    EXPECT_THROW((void)engine_solve(name, s, s, config), SolveCancelled) << name;
  }
}

TEST(Cancellation, FlagFlippedMidSolveAbortsPromptly) {
  const auto s = worst_case_structure(700);  // long enough to outlive the flip
  std::atomic<bool> cancel{false};
  SolverConfig config;
  config.cancel = &cancel;

  std::thread flipper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.store(true, std::memory_order_relaxed);
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)engine_solve("srna2", s, s, config), SolveCancelled);
  flipper.join();
  // Slice-boundary polling means the abort lands well before a full solve.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

TEST(Cancellation, SolverStateSurvivesACancelledSolve) {
  // Cancel a solve, then reuse the same thread (and pooled workspace) for a
  // real one: the result must be untouched by the aborted attempt.
  const auto big = worst_case_structure(200);
  const auto a = nested_groups_structure(3, 2);
  const auto b = nested_groups_structure(2, 3);
  const Score expected = engine_solve("srna2", a, b).value;

  std::atomic<bool> cancel{true};
  SolverConfig config;
  config.cancel = &cancel;
  EXPECT_THROW((void)engine_solve("srna2", big, big, config), SolveCancelled);
  EXPECT_EQ(engine_solve("srna2", a, b).value, expected);
}

TEST(Cancellation, BackendsWithoutCancelSupportRejectTheConfig) {
  const auto s = worst_case_structure(20);
  std::atomic<bool> cancel{false};
  SolverConfig config;
  config.cancel = &cancel;
  // The PRNA and reference backends do not poll the flag; validate() must
  // refuse rather than silently ignore a deadline.
  for (const char* name : {"prna", "topdown", "bottomup"}) {
    EXPECT_THROW((void)engine_solve(name, s, s, config), std::invalid_argument) << name;
  }
  EXPECT_TRUE(McosEngine::instance().at("srna2").caps().cancel);
  EXPECT_FALSE(McosEngine::instance().at("prna").caps().cancel);
}

TEST(Cancellation, NullFlagMeansNoPolling) {
  const auto s = worst_case_structure(30);
  SolverConfig config;  // cancel == nullptr
  EXPECT_NO_THROW((void)engine_solve("srna1", s, s, config));
  EXPECT_NO_THROW((void)engine_solve("srna2", s, s, config));
}

}  // namespace
}  // namespace srna
