#include "parallel/team.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace srna {

namespace {

// True while the thread runs a worker of a team of two or more.
thread_local bool t_in_team = false;

int affinity_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return std::max(CPU_COUNT(&set), 1);
  return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

// The spawned workers wait here until the caller has created the whole team.
enum GateState : int { kClosed, kOpen, kCancelled };

}  // namespace

int team_size(int requested) noexcept {
  if (t_in_team) return 1;
  return requested > 0 ? requested : affinity_cpus();
}

void run_team(int n, const std::function<void(std::size_t worker)>& worker) {
  SRNA_REQUIRE(n >= 1, "a team needs at least one worker");
  if (n == 1) {
    worker(0);
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // The caller's own thread runs worker 0 and is unmarked again afterwards.
  auto run_member = [&](std::size_t id) noexcept {
    const bool outer = std::exchange(t_in_team, true);
    try {
      worker(id);
    } catch (...) {
      const std::lock_guard lock(error_mutex);
      if (first_error == nullptr) first_error = std::current_exception();
    }
    t_in_team = outer;
  };

  // A worker may wait on its teammates (a barrier, a collective), so it must
  // not start in a team that could not be completed.
  std::atomic<int> gate{kClosed};
  auto open = [&gate](GateState state) {
    gate.store(state, std::memory_order_release);
    gate.notify_all();
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n) - 1);
  try {
    for (int t = 1; t < n; ++t)
      threads.emplace_back([&gate, &run_member, t] {
        gate.wait(kClosed, std::memory_order_acquire);
        if (gate.load(std::memory_order_acquire) == kOpen)
          run_member(static_cast<std::size_t>(t));
      });
  } catch (...) {
    open(kCancelled);
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  open(kOpen);
  run_member(0);
  for (std::thread& thread : threads) thread.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace srna
