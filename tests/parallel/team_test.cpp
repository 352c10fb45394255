#include "parallel/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace srna {
namespace {

TEST(Team, EveryWorkerRunsOnceWithADistinctId) {
  constexpr int kWorkers = 5;
  std::vector<std::atomic<int>> runs(kWorkers);
  std::vector<std::thread::id> ids(kWorkers);
  run_team(kWorkers, [&](std::size_t worker) {
    runs[worker].fetch_add(1);
    ids[worker] = std::this_thread::get_id();
  });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  // Worker 0 is the caller; every other worker has a thread of its own.
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  for (int a = 0; a < kWorkers; ++a)
    for (int b = a + 1; b < kWorkers; ++b) EXPECT_NE(ids[a], ids[b]) << a << "," << b;
}

TEST(Team, RejectsAnEmptyTeam) {
  EXPECT_THROW(run_team(0, [](std::size_t) {}), std::invalid_argument);
}

TEST(Team, RethrowsTheFirstExceptionAfterEveryWorkerJoined) {
  constexpr int kWorkers = 4;
  std::atomic<int> finished{0};
  std::atomic<bool> thrown{false};
  try {
    run_team(kWorkers, [&](std::size_t worker) {
      if (worker == 2) {
        thrown.store(true);
        throw std::runtime_error("worker 2 failed");
      }
      // The others outlive the failure: they finish only after it happened,
      // and worker 3 throws a second exception well after the first.
      while (!thrown.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (worker == 3) throw std::logic_error("worker 3 failed later");
      finished.fetch_add(1);
    });
    FAIL() << "expected the worker's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 2 failed");
  }
  // Every non-throwing worker ran to completion before the rethrow.
  EXPECT_EQ(finished.load(), 2);
}

TEST(Team, ASingleWorkerIsAPlainCallThatPropagates) {
  std::thread::id ran_on;
  run_team(1, [&](std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_THROW(run_team(1, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
}

TEST(Team, SizeHonorsARequestAndDefaultsToTheAffinityMask) {
  EXPECT_EQ(team_size(3), 3);
  EXPECT_GE(team_size(0), 1);
  EXPECT_EQ(team_size(-2), team_size(0));
}

TEST(Team, TeamsDoNotNest) {
  constexpr int kWorkers = 3;
  std::vector<int> inner(kWorkers, 0);
  run_team(kWorkers, [&](std::size_t worker) { inner[worker] = team_size(8); });
  for (const int size : inner) EXPECT_EQ(size, 1);
  // The caller runs worker 0 and is a plain thread again afterwards.
  EXPECT_EQ(team_size(8), 8);
  // A team of one is not a team: a solve behind a one-worker scan keeps its
  // own parallelism.
  int behind_one = 0;
  run_team(1, [&](std::size_t) { behind_one = team_size(8); });
  EXPECT_EQ(behind_one, 8);
}

}  // namespace
}  // namespace srna
