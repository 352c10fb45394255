// Workspace — the reusable working set of one MCOS solve.
//
// The paper's Θ(nm)-space argument is that the entire cross-slice state fits
// in the memo table M plus one live slice grid. That working set is small
// enough to keep around: corpus workloads (all_pairs_similarity,
// query_top_k, the bench sweeps) run millions of independent pair solves,
// and rebuilding M and the slice scratch for each one is pure allocator
// churn. A Workspace owns those buffers and re-shapes them per solve —
// vector capacity survives, so a steady-state solve allocates nothing.
//
// Buffers:
//   * memo(n, m, initial)  — the memo table M, re-shaped per solve
//   * slice_scratch(level) — everything one live slice works in (SliceScratch:
//                            dense grid, row-routine scratch, compressed event
//                            grid, srna-lean's streamed rows); `level` keys
//                            SRNA1's and srna-lean's live recursion levels
//                            and PRNA's stage-one workers (0 for the other
//                            solvers), each level a stable, reusable bundle
//   * column_events()      — the per-solve S2 column-event table the row
//                            routine sweeps between (rebuild per solve;
//                            capacity survives)
//
// Thread pooling: local() hands out one Workspace per thread (thread_local),
// which is what the structure DB's scan workers use — each reuses its own
// buffers across pairs with no synchronization. PRNA's stage-one workers
// instead tabulate in slice_scratch(worker) of the caller's workspace: a
// thread team's threads are new on every call, so their thread-local pools
// would not outlive the solve. The engine wraps solves in
// solve_with(), which counts reuse (engine.workspace_reuse) and capacity
// growth (engine.workspace_alloc_bytes) against these footprints.
//
// A Workspace is NOT thread-safe; share nothing, pool per thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/memo_store.hpp"
#include "core/memo_table.hpp"
#include "core/slice_tabulator.hpp"

namespace srna {

// Compatibility shim for callers written against the retired dense-kernel
// selector (the perfbench harness calls slice_kernel(KernelVariant::kAuto)).
// There is one kernel, so the only value hands out level 0's kernel scratch.
// Drop this and slice_kernel() below with the next benchmark change.
enum class KernelVariant : std::uint8_t { kAuto };

class Workspace {
 public:
  Workspace() = default;

  // Not copyable (the point is to share the buffers, not duplicate them);
  // movable so containers of workspaces work.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) noexcept = default;
  Workspace& operator=(Workspace&&) noexcept = default;

  // The memo table, re-shaped to n × m and filled with `initial`. The
  // reference stays valid until the next memo() call on this workspace.
  MemoTable& memo(Pos n, Pos m, Score initial) {
    memo_.reset(n, m, initial);
    return memo_;
  }
  // The memo as last shaped — for callers that tabulate first and read after
  // (traceback, enumeration).
  [[nodiscard]] MemoTable& memo() noexcept { return memo_; }

  // The slice scratch of recursion level `level` (0 for non-recursive use).
  // Level-indexed because SRNA1 and srna-lean tabulate child slices while the
  // parent slice is live; each live level needs its own bundle (and PRNA
  // gives each stage-one worker its own). Bundles are heap-anchored, so
  // references survive the pool growing for deeper levels.
  SliceScratch& slice_scratch(std::size_t level = 0) {
    while (slice_scratch_.size() <= level)
      slice_scratch_.push_back(std::make_unique<SliceScratch>());
    return *slice_scratch_[level];
  }

  // The S2 column-event table for the row routine. One per workspace (every
  // recursion level of a solve reads the same S2): callers `.build(s2)` it
  // once at solve start and pass it to the slice kernels.
  ColumnEvents& column_events() noexcept { return column_events_; }

  // Compatibility shim (see KernelVariant above): level 0's kernel scratch.
  [[nodiscard]] SliceKernel slice_kernel(KernelVariant /*variant*/) {
    return SliceKernel{&slice_scratch(0).kernel};
  }

  // The windowed (space-lean) memo store for the srna-lean path. The solver
  // configure()s it per solve; resident rows survive for the traceback.
  WindowedMemoStore& lean_store() noexcept { return lean_store_; }

  // Reserved bytes of the cross-slice memo state — the dense table M (the
  // paper's Θ(nm) bound) plus whatever the windowed store holds resident.
  [[nodiscard]] std::size_t memo_bytes() const noexcept {
    return memo_.capacity_bytes() + lean_store_.resident_bytes();
  }

  // Reserved bytes of the per-slice scratch, every level's bundle.
  [[nodiscard]] std::size_t slice_scratch_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& level : slice_scratch_) total += level->capacity_bytes();
    return total;
  }

  // Reserved bytes of the per-solve S2 column-event table.
  [[nodiscard]] std::size_t event_table_bytes() const noexcept {
    return column_events_.capacity_bytes();
  }

  // Slice scratch + event table. Together with memo_bytes() this is the
  // whole footprint, split along the paper's "memo table + one live slice"
  // line.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    return slice_scratch_bytes() + event_table_bytes();
  }

  // Total reserved backing bytes across all buffers. The engine samples this
  // before/after a solve; the delta is what the solve actually allocated.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return memo_bytes() + scratch_bytes();
  }

  // Number of solves this workspace has served (engine bookkeeping: the
  // second and later solves on a workspace are reuses).
  [[nodiscard]] std::uint64_t solves() const noexcept { return solves_; }
  void note_solve() noexcept { ++solves_; }

  // Session memory budget this workspace should stay under between solves
  // (0 = none). solve_with() sets it from SolverConfig.memory_budget_bytes
  // and trims the pool after a solve that overshot it.
  void set_budget(std::size_t bytes) noexcept { budget_ = bytes; }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

  // Releases pooled backing storage until the footprint fits `max_bytes`
  // (deepest recursion levels first — they only exist for rare deep solves —
  // then the lean window, the event table, and finally the memo table).
  // Returns the footprint after trimming and bumps engine.workspace_trims
  // when anything was actually released. The next solve re-allocates what it
  // needs; nothing here is live between solves.
  std::size_t trim(std::size_t max_bytes);

  // Releases all buffers (memory pressure valve; the next solve re-allocates).
  void clear() {
    memo_ = MemoTable{};
    slice_scratch_.clear();
    lean_store_.release();
    column_events_ = ColumnEvents{};
  }

  // The calling thread's pooled workspace. It lives as long as the thread;
  // a database scan's team lives for the whole scan, so the pool amortizes
  // across every pair a worker claims.
  static Workspace& local();

 private:
  MemoTable memo_;
  std::vector<std::unique_ptr<SliceScratch>> slice_scratch_;
  WindowedMemoStore lean_store_;
  ColumnEvents column_events_;
  std::uint64_t solves_ = 0;
  std::size_t budget_ = 0;
};

}  // namespace srna
