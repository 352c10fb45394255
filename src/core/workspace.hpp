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
//   * dense_grid(level)    — dense slice grids; `level` keys SRNA1's live
//                            recursion levels (0 for the non-recursive
//                            solvers), each level a stable, reusable Matrix
//   * events(level)        — EventScratch for the compressed layout, same
//                            level discipline
//   * column_events()      — the per-solve S2 column-event table the dense
//                            kernel sweeps between (rebuild per solve;
//                            capacity survives)
//   * slice_kernel(level)  — the dense kernel's per-slice scratch, same
//                            level discipline as dense_grid()
//
// Thread pooling: local() hands out one Workspace per thread (thread_local),
// which is what the OpenMP pair loops in the structure DB and PRNA's
// stage-one workers use — each worker reuses its own buffers across pairs /
// rows with no synchronization. The engine wraps solves in
// solve_with(), which counts reuse (engine.workspace_reuse) and capacity
// growth (engine.workspace_alloc_bytes) against these footprints.
//
// A Workspace is NOT thread-safe; share nothing, pool per thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/lean_slice.hpp"
#include "core/memo_store.hpp"
#include "core/memo_table.hpp"
#include "core/tabulate_slice.hpp"

namespace srna {

// Compatibility shim for callers written against the retired dense-kernel
// selector (the perfbench harness calls slice_kernel(KernelVariant::kAuto)).
// There is one dense kernel, so the only value forwards to slice_kernel(0).
// Drop this and the overload below with the next benchmark change.
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

  // Dense slice grid for recursion level `level` (0 for non-recursive use).
  // Level-indexed because SRNA1 spawns child slices while the parent grid is
  // live; each live level needs its own grid. Grids are heap-anchored, so
  // references survive the vector growing for deeper levels.
  Matrix<Score>& dense_grid(std::size_t level = 0) {
    while (dense_grids_.size() <= level)
      dense_grids_.push_back(std::make_unique<Matrix<Score>>());
    return *dense_grids_[level];
  }

  // Compressed-layout event scratch, same level discipline as dense_grid().
  EventScratch& events(std::size_t level = 0) {
    while (events_.size() <= level) events_.push_back(std::make_unique<EventScratch>());
    return *events_[level];
  }

  // The S2 column-event table for the dense kernel. One per workspace
  // (every recursion level of a solve reads the same S2): callers
  // `.build(s2)` it once at solve start and pass it to the slice kernels.
  ColumnEvents& column_events() noexcept { return column_events_; }

  // The dense kernel's per-slice scratch for recursion level `level`, same
  // level discipline as dense_grid() (SRNA1 fills child slices while the
  // parent's prepared events are live) — what the solvers pass to
  // tabulate_slice_dense per slice.
  [[nodiscard]] SliceKernel slice_kernel(std::size_t level = 0) {
    while (kernel_scratch_.size() <= level)
      kernel_scratch_.push_back(std::make_unique<KernelScratch>());
    return SliceKernel{kernel_scratch_[level].get()};
  }

  // Compatibility shim (see KernelVariant above): slice_kernel(0).
  [[nodiscard]] SliceKernel slice_kernel(KernelVariant /*variant*/) { return slice_kernel(0); }

  // The windowed (space-lean) memo store for the srna-lean path. The solver
  // configure()s it per solve; resident rows survive for the traceback.
  WindowedMemoStore& lean_store() noexcept { return lean_store_; }

  // Streaming-slice scratch, same level discipline as dense_grid(): the lean
  // recompute-on-miss path streams a child slice while the parent sweep is
  // live, so each live recursion level needs its own rows.
  LeanSliceScratch& lean_scratch(std::size_t level = 0) {
    while (lean_scratch_.size() <= level)
      lean_scratch_.push_back(std::make_unique<LeanSliceScratch>());
    return *lean_scratch_[level];
  }

  // Reserved bytes of the cross-slice memo state — the dense table M (the
  // paper's Θ(nm) bound) plus whatever the windowed store holds resident.
  [[nodiscard]] std::size_t memo_bytes() const noexcept {
    return memo_.capacity_bytes() + lean_store_.resident_bytes();
  }

  // Reserved bytes of the per-slice scratch: dense grids, event scratch, and
  // the streaming rows of the lean path.
  [[nodiscard]] std::size_t slice_scratch_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& g : dense_grids_) total += g->flat().capacity() * sizeof(Score);
    for (const auto& e : events_) total += e->capacity_bytes();
    for (const auto& l : lean_scratch_) total += l->capacity_bytes();
    for (const auto& k : kernel_scratch_) total += k->capacity_bytes();
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
    dense_grids_.clear();
    events_.clear();
    lean_scratch_.clear();
    kernel_scratch_.clear();
    lean_store_.release();
    column_events_ = ColumnEvents{};
  }

  // The calling thread's pooled workspace. OpenMP worker threads persist
  // across parallel regions, so the pool amortizes across an entire pair
  // loop (and across successive loops).
  static Workspace& local();

 private:
  MemoTable memo_;
  std::vector<std::unique_ptr<Matrix<Score>>> dense_grids_;
  std::vector<std::unique_ptr<EventScratch>> events_;
  std::vector<std::unique_ptr<LeanSliceScratch>> lean_scratch_;
  std::vector<std::unique_ptr<KernelScratch>> kernel_scratch_;
  WindowedMemoStore lean_store_;
  ColumnEvents column_events_;
  std::uint64_t solves_ = 0;
  std::size_t budget_ = 0;
};

}  // namespace srna
