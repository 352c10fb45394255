// A Chase-Lev work-stealing deque (Chase & Lev, SPAA'05), in the C11
// memory-model formulation of Lê, Pop, Cohen & Zappa Nardelli (PPoPP'13).
//
// PRNA's dependency-driven stage one (PrnaSchedule::kStealing) gives each
// worker one of these: the owner pushes newly-ready slices and pops LIFO
// (hot end, cache-warm children first); idle workers steal FIFO from the
// cold end, so a steal grabs the slice that has waited longest — typically
// the root of the largest untouched dependency subtree.
//
// The buffer is sized once per solve and never grows: every slice id is
// pushed exactly once globally (by the worker that observed its dependency
// counter hit zero), so no single deque can ever hold more than the total
// slice count — reset() rounds that up to a power of two and overflow is
// structurally impossible (asserted in debug builds).
//
// Elements are std::atomic so the racy buffer accesses the algorithm relies
// on are data-race-free under the C++ memory model — which is also what
// makes the scheduler TSan-clean (scripts/check_tsan.sh runs it under the
// std::thread shim; see PrnaOptions::use_std_threads).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/assert.hpp"

namespace srna {

class WorkStealingDeque {
 public:
  WorkStealingDeque() = default;
  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  // Re-shape for a run that will push at most `max_items` in total. Not
  // thread-safe; call before the workers start.
  void reset(std::size_t max_items) {
    std::size_t cap = 1;
    while (cap < max_items) cap <<= 1;
    if (cap > capacity_) {
      buffer_ = std::make_unique<std::atomic<std::uint32_t>[]>(cap);
      capacity_ = cap;
    }
    mask_ = static_cast<std::int64_t>(capacity_) - 1;
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
  }

  // Owner only: push at the hot end.
  void push(std::uint32_t item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // Overflow would mean reset() was undersized — see the class comment.
    SRNA_DASSERT(b - top_.load(std::memory_order_acquire) <
                 static_cast<std::int64_t>(capacity_));
    buffer_[static_cast<std::size_t>(b & mask_)].store(item, std::memory_order_relaxed);
    // Publish the element, and everything the owner did before pushing it,
    // to the thief whose acquire load reads this bottom. A release store
    // rather than a release fence plus a relaxed store: same ordering, but
    // ThreadSanitizer does not model fences, so only this form shows it the
    // edge from the pushing worker to the stealing one.
    bottom_.store(b + 1, std::memory_order_release);
  }

  // Owner only: pop from the hot end. False when empty.
  bool pop(std::uint32_t& item) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // Release, like push: a thief that reads this bottom still takes an
    // element an earlier push published.
    bottom_.store(b, std::memory_order_release);
    // The seq_cst fence orders the bottom decrement against the thief's top
    // read — the crux of Chase-Lev's owner/thief race on the last element.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t <= b) {
      item = buffer_[static_cast<std::size_t>(b & mask_)].load(std::memory_order_relaxed);
      if (t == b) {
        // Single element left: race the thieves for it via top.
        const bool won = top_.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
      }
      return true;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // was empty; undo
    return false;
  }

  // Any thread: steal from the cold end. False when empty or a race lost
  // (callers treat both as "try elsewhere").
  bool steal(std::uint32_t& item) noexcept {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t < b) {
      item = buffer_[static_cast<std::size_t>(t & mask_)].load(std::memory_order_relaxed);
      return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed);
    }
    return false;
  }

 private:
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::unique_ptr<std::atomic<std::uint32_t>[]> buffer_;
  std::size_t capacity_ = 0;
  std::int64_t mask_ = 0;
};

}  // namespace srna
