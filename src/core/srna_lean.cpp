#include "core/srna_lean.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/arc_index.hpp"
#include "core/lean_slice.hpp"
#include "core/tabulate_slice.hpp"
#include "core/traceback_walk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace srna {

std::size_t lean_scratch_floor_bytes(const SecondaryStructure& s1,
                                     const SecondaryStructure& s2) {
  const auto m = static_cast<std::size_t>(s2.length());
  const auto depth = static_cast<std::size_t>(s1.max_nesting_depth());
  const auto arcs2 = static_cast<std::size_t>(s2.arc_count());
  // cur + prev + one retained row per open arc, all at most height m, the
  // dense kernel's per-event scratch (column, d1 index and value per S2
  // event), plus the S2 column-event table.
  const std::size_t stream_rows = (2 + depth) * m * sizeof(Score);
  const std::size_t kernel =
      arcs2 * (sizeof(std::uint32_t) + sizeof(std::int32_t) + sizeof(Score));
  const std::size_t events =
      arcs2 * sizeof(Arc) + (m + 1) * sizeof(std::uint32_t);
  return stream_rows + kernel + events;
}

std::size_t lean_minimum_bytes(const SecondaryStructure& s1, const SecondaryStructure& s2) {
  return WindowedMemoStore::minimum_bytes(s1, s2) + lean_scratch_floor_bytes(s1, s2);
}

namespace {

// Fails fast on a budget that cannot hold even the irreducible floor — the
// negative path the engine validation contract promises: a clear error
// naming the minimum, never an allocation failure mid-solve.
void require_feasible_budget(const SecondaryStructure& s1, const SecondaryStructure& s2,
                             std::uint64_t budget) {
  if (budget == 0) return;
  const std::size_t floor = lean_minimum_bytes(s1, s2);
  if (budget < floor)
    throw std::invalid_argument(
        "srna-lean: memory_budget_bytes=" + std::to_string(budget) +
        " is below the irreducible minimum of " + std::to_string(floor) + " bytes for n=" +
        std::to_string(s1.length()) + ", m=" + std::to_string(s2.length()) +
        " (index maps + one memo row + streaming rows)");
}

// The store gets whatever the budget leaves after the streaming-scratch
// upper bound; require_feasible_budget guarantees this stays at or above the
// store's own minimum.
std::size_t derive_store_budget(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                std::uint64_t budget) {
  if (budget == 0) return 0;
  const std::size_t scratch = lean_scratch_floor_bytes(s1, s2);
  const auto total = static_cast<std::size_t>(budget);
  const std::size_t left = total > scratch ? total - scratch : 0;
  return std::max(left, WindowedMemoStore::minimum_bytes(s1, s2));
}

// Shared machinery of solve, checkpointing and traceback: stage-one row
// tabulation, the parent sweep, and the recompute-on-miss d2 resolver.
class LeanRunner {
 public:
  LeanRunner(const SecondaryStructure& s1, const SecondaryStructure& s2,
             const LeanOptions& options, McosStats& stats, WindowedMemoStore& store,
             Workspace& ws)
      : s1_(s1),
        s2_(s2),
        options_(options),
        stats_(stats),
        store_(store),
        ws_(ws),
        idx1_(s1),
        idx2_(s2),
        dense_(options.base.layout == SliceLayout::kDense),
        col_events_(ws.column_events().build(s2)) {}

  [[nodiscard]] std::size_t rows_total() const noexcept { return idx1_.size(); }
  [[nodiscard]] const ColumnEvents& col_events() const noexcept { return col_events_; }

  // The d2 oracle: window probe, recompute-on-miss. (k1, x) / (k2, y) are
  // arcs of S1 / S2; a miss streams the child slice at recursion level
  // `level + 1` and re-memoizes its value. Counts one memo lookup.
  Score resolve(Pos k1, Pos x, Pos k2, Pos y, std::size_t level) {
    ++stats_.memo_lookups;
    return probe(k1, x, k2, y, level);
  }

  [[nodiscard]] auto d2_fn(std::size_t level) {
    return [this, level](Pos k1, Pos x, Pos k2, Pos y) {
      return resolve(k1, x, k2, y, level);
    };
  }

  // Stage one, one S1 arc row: tabulate the child slice under (arc a, arc b)
  // for every S2 arc b. One cancel poll per slice, like SRNA2.
  void tabulate_row(std::size_t a) {
    const Arc arc1 = idx1_.arc(a);
    for (std::size_t b = 0; b < idx2_.size(); ++b) {
      if (options_.base.cancelled()) throw SolveCancelled();
      if (options_.base.slice_hook) options_.base.slice_hook(slices_started_);
      ++slices_started_;
      const Score value = eval_child(a, b, 0);
      store_.store(arc1.left + 1, idx2_.arc(b).left + 1, value);
    }
  }

  // Stage two: the parent slice.
  Score parent() {
    if (options_.base.cancelled()) throw SolveCancelled();
    if (options_.base.slice_hook) options_.base.slice_hook(slices_started_);
    ++slices_started_;
    return eval(SliceBounds{0, s1_.length() - 1, 0, s2_.length() - 1}, idx1_.all(),
                idx2_.all(), 0);
  }

 private:
  // resolve() without the lookup count: eval() counts its slice's lookups
  // in a local and adds them to the stats once per slice.
  Score probe(Pos k1, Pos x, Pos k2, Pos y, std::size_t level) {
    Score v = 0;
    if (store_.try_load(k1 + 1, k2 + 1, v)) return v;
    ++stats_.memo_misses;
    stats_.max_spawn_depth =
        std::max(stats_.max_spawn_depth, static_cast<std::uint64_t>(level + 1));
    v = eval_child(idx1_.index_of_right(x), idx2_.index_of_right(y), level + 1);
    store_.store(k1 + 1, k2 + 1, v);
    return v;
  }

  Score eval_child(std::size_t a, std::size_t b, std::size_t level) {
    const Arc arc1 = idx1_.arc(a);
    const Arc arc2 = idx2_.arc(b);
    return eval(SliceBounds::under(arc1.left, arc1.right, arc2.left, arc2.right),
                idx1_.interior(a), idx2_.interior(b), level);
  }

  // One slice at recursion level `level`. Recompute-on-miss evaluates a
  // child slice inside d2_of, as SRNA1 spawns one, so each level has its own
  // slice scratch.
  Score eval(SliceBounds b, std::span<const Arc> rows, std::span<const Arc> cols,
             std::size_t level) {
    SliceScratch& scratch = ws_.slice_scratch(level);
    const SliceKernel kernel{&scratch.kernel};
    std::uint64_t lookups = 0;
    const auto d2 = [this, level, &lookups](Pos k1, Pos x, Pos k2, Pos y) {
      ++lookups;
      return probe(k1, x, k2, y, level);
    };
    const Score value =
        dense_ ? stream_slice_dense(s1_, col_events_, b, scratch.lean, kernel, d2, &stats_)
               : tabulate_slice_compressed(rows, cols, scratch.events, kernel, d2, &stats_);
    stats_.memo_lookups += lookups;
    return value;
  }

  const SecondaryStructure& s1_;
  const SecondaryStructure& s2_;
  const LeanOptions& options_;
  McosStats& stats_;
  WindowedMemoStore& store_;
  Workspace& ws_;
  const ArcIndex idx1_;
  const ArcIndex idx2_;
  const bool dense_;
  const ColumnEvents& col_events_;
  std::uint64_t slices_started_ = 0;
};

// Runs the lean solve and leaves the populated window store in `store`
// (configured by this call) for the traceback.
Score run_srna_lean(const SecondaryStructure& s1, const SecondaryStructure& s2,
                    const LeanOptions& options, McosStats& stats, WindowedMemoStore& store,
                    Workspace& workspace) {
  SRNA_REQUIRE(s1.is_nonpseudoknot() && s2.is_nonpseudoknot(),
               "MCOS model requires non-pseudoknot structures");
  require_feasible_budget(s1, s2, options.memory_budget_bytes);

  WallTimer phase;
  obs::TraceScope preprocess_span("srna_lean", "preprocess");
  store.configure(s1, s2, derive_store_budget(s1, s2, options.memory_budget_bytes));
  LeanRunner runner(s1, s2, options, stats, store, workspace);
  preprocess_span.close();
  stats.preprocess_seconds = phase.seconds();

  phase.reset();
  obs::TraceScope stage1_span("srna_lean", "stage1");
  for (std::size_t a = 0; a < runner.rows_total(); ++a) runner.tabulate_row(a);
  stage1_span.close();
  stats.stage1_seconds = phase.seconds();

  phase.reset();
  obs::TraceScope stage2_span("srna_lean", "stage2");
  const Score answer = runner.parent();
  stage2_span.close();
  stats.stage2_seconds = phase.seconds();
  return answer;
}

void bridge_lean_store_metrics(const WindowedMemoStore& store) {
  auto& registry = obs::Registry::instance();
  registry.counter("lean.store_evictions").add(store.evictions());
  registry.gauge("lean.store_peak_bytes")
      .set_max(static_cast<double>(store.peak_resident_bytes()));
}

}  // namespace

McosResult srna_lean(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const LeanOptions& options) {
  return srna_lean(s1, s2, options, Workspace::local());
}

McosResult srna_lean(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const LeanOptions& options, Workspace& workspace) {
  McosResult result;
  result.value =
      run_srna_lean(s1, s2, options, result.stats, workspace.lean_store(), workspace);
  bridge_stats_to_metrics("srna_lean", result.stats);
  bridge_lean_store_metrics(workspace.lean_store());
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint/restart in the one checkpoint format (core/checkpoint.hpp). The
// serialized rows are the resident window only: completed-but-evicted rows
// are recomputed on demand after resume, which is what keeps a tight-budget
// checkpoint proportional to the window, not to arcs1 × arcs2.

CheckpointedRun srna_lean_checkpointed(const SecondaryStructure& s1,
                                       const SecondaryStructure& s2,
                                       const LeanOptions& options,
                                       const CheckpointPolicy& policy) {
  SRNA_REQUIRE(s1.is_nonpseudoknot() && s2.is_nonpseudoknot(),
               "MCOS model requires non-pseudoknot structures");
  SRNA_REQUIRE(options.base.layout == SliceLayout::kDense,
               "lean checkpointing currently supports the dense layout");
  require_feasible_budget(s1, s2, options.memory_budget_bytes);

  Workspace ws;
  WindowedMemoStore& store = ws.lean_store();
  store.configure(s1, s2, derive_store_budget(s1, s2, options.memory_budget_bytes));
  McosStats stats;
  LeanRunner runner(s1, s2, options, stats, store, ws);

  detail::CheckpointedSolver solver;
  solver.tabulate_row = [&](std::uint64_t a) {
    runner.tabulate_row(static_cast<std::size_t>(a));
  };
  solver.saved = [&](std::uint64_t a, std::uint64_t) {
    return store.row_is_resident(static_cast<std::size_t>(a));
  };
  solver.row = [&](std::uint64_t a) { return store.row_values(static_cast<std::size_t>(a)); };
  solver.restore = [&](std::uint64_t a, std::span<const Score> values) {
    store.restore_row(static_cast<std::size_t>(a), values);
  };
  solver.stage_two = [&] { return runner.parent(); };
  return detail::run_checkpointed(s1, s2, policy, stats, solver);
}

// ---------------------------------------------------------------------------
// Lean traceback: checkpoint-replay grid views + the shared decision kernel.

namespace {

// Read access to one slice's grid without materializing it: a forward
// streaming pass snapshots (row, retained-stack) checkpoints every
// `block_rows` rows and fills a window over the last block; get() serves the
// walk from the window, re-replaying from the nearest checkpoint whenever
// the walk frontier leaves it. The frontier of walk_slice_path is monotone
// non-increasing in x, so every block is replayed at most once — the whole
// walk costs at most two sweeps of the slice. Resident bytes:
// O((block_rows + open-arc depth × width / block_rows) × height).
template <typename D2>
class StreamedSliceView {
 public:
  StreamedSliceView(const SecondaryStructure& s1, const ColumnEvents& col_events,
                    SliceBounds b, D2 d2)
      : s1_(s1), col_events_(col_events), b_(b), d2_(std::move(d2)) {
    const double width = static_cast<double>(b_.width());
    block_rows_ = std::max<Pos>(1, static_cast<Pos>(std::lround(std::ceil(std::sqrt(width)))));
    height_ = static_cast<std::size_t>(b_.height());
    win_lo_ = std::max(b_.lo1, b_.hi1 - block_rows_ + 1);
    win_hi_ = b_.hi1;
    window_.resize(static_cast<std::size_t>(win_hi_ - win_lo_ + 1), height_, 0);
    reset_scratch(nullptr);
    detail::stream_slice_rows(
        s1_, col_events_, b_, b_.lo1, b_.hi1, scratch_, SliceKernel{&kernel_}, d2_, nullptr,
        [&](Pos x, const Score* row, const LeanSliceScratch& ws) {
          if ((x - b_.lo1 + 1) % block_rows_ == 0 && x < b_.hi1)
            checkpoints_.push_back(Checkpoint{
                x, std::vector<Score>(row, row + height_), ws.stack});
          if (x >= win_lo_)
            std::copy(row, row + height_,
                      window_.row_data(static_cast<std::size_t>(x - win_lo_)));
        });
  }

  // Absolute coordinates; the caller guards x >= lo1 && y >= lo2.
  Score get(Pos x, Pos y) {
    const auto c = static_cast<std::size_t>(y - b_.lo2);
    if (x == row_above_x_) return row_above_[c];
    if (x < win_lo_ || x > win_hi_) load_window_ending_at(x);
    return window_(static_cast<std::size_t>(x - win_lo_), c);
  }

 private:
  struct Checkpoint {
    Pos x;  // state "after row x"
    std::vector<Score> row;
    std::vector<LeanSliceScratch::Retained> stack;
  };

  void reset_scratch(const Checkpoint* ck) {
    scratch_.cur.assign(height_, 0);
    while (!scratch_.stack.empty()) scratch_.pop_retained();
    if (ck != nullptr) {
      scratch_.prev = ck->row;
      for (const auto& r : ck->stack) scratch_.push_retained(r.row, r.values);
    } else {
      scratch_.prev.assign(height_, 0);
    }
  }

  void load_window_ending_at(Pos q) {
    // The walk may still read the row just above the new window (the
    // "get(x, y-1) after get(x-1, y)" pattern at a block boundary): keep it.
    if (q + 1 >= win_lo_ && q + 1 <= win_hi_) {
      const Score* kept = window_.row_data(static_cast<std::size_t>(q + 1 - win_lo_));
      row_above_.assign(kept, kept + height_);
      row_above_x_ = q + 1;
    } else {
      row_above_x_ = b_.lo1 - 2;  // nothing kept
    }

    win_hi_ = q;
    win_lo_ = std::max(b_.lo1, q - block_rows_ + 1);
    window_.resize(static_cast<std::size_t>(win_hi_ - win_lo_ + 1), height_, 0);

    const Checkpoint* ck = nullptr;
    for (const Checkpoint& c : checkpoints_) {
      if (c.x <= win_lo_ - 1 && (ck == nullptr || c.x > ck->x)) ck = &c;
    }
    reset_scratch(ck);
    const Pos start = ck != nullptr ? ck->x + 1 : b_.lo1;
    detail::stream_slice_rows(
        s1_, col_events_, b_, start, win_hi_, scratch_, SliceKernel{&kernel_}, d2_, nullptr,
        [&](Pos x, const Score* row, const LeanSliceScratch&) {
          if (x >= win_lo_)
            std::copy(row, row + height_,
                      window_.row_data(static_cast<std::size_t>(x - win_lo_)));
        });
  }

  const SecondaryStructure& s1_;
  const ColumnEvents& col_events_;
  SliceBounds b_;
  D2 d2_;
  Pos block_rows_ = 1;
  std::size_t height_ = 0;
  std::vector<Checkpoint> checkpoints_;
  Matrix<Score> window_;
  Pos win_lo_ = 0, win_hi_ = -1;
  std::vector<Score> row_above_;
  Pos row_above_x_ = -2;
  LeanSliceScratch scratch_;
  // The view's own kernel scratch, as TracebackWalker keeps one: a d2 miss
  // during a replay streams the child slice at the solver's level 1.
  KernelScratch kernel_;
};

class LeanTracebackWalker {
 public:
  LeanTracebackWalker(const SecondaryStructure& s1, const SecondaryStructure& s2,
                      LeanRunner& runner)
      : s1_(s1), s2_(s2), runner_(runner) {}

  void walk(SliceBounds bounds, std::vector<ArcMatch>& out) {
    if (bounds.empty()) return;
    std::vector<SliceBounds> pending;
    {
      StreamedSliceView view(s1_, runner_.col_events(), bounds, runner_.d2_fn(0));
      detail::walk_slice_path(
          s1_, s2_, bounds,
          [&](Pos x, Pos y) -> Score {
            if (x < bounds.lo1 || y < bounds.lo2) return 0;
            return view.get(x, y);
          },
          [&](Pos k1, Pos k2) {
            return runner_.resolve(k1, s1_.arc_right_of(k1), k2, s2_.arc_right_of(k2), 0);
          },
          out, pending);
    }  // view (window + checkpoints) released before descending
    for (const SliceBounds& child : pending) walk(child, out);
  }

 private:
  const SecondaryStructure& s1_;
  const SecondaryStructure& s2_;
  LeanRunner& runner_;
};

}  // namespace

CommonSubstructure mcos_traceback_lean(const SecondaryStructure& s1,
                                       const SecondaryStructure& s2,
                                       const LeanOptions& options) {
  return mcos_traceback_lean(s1, s2, options, Workspace::local());
}

CommonSubstructure mcos_traceback_lean(const SecondaryStructure& s1,
                                       const SecondaryStructure& s2,
                                       const LeanOptions& options, Workspace& workspace) {
  CommonSubstructure result;
  WindowedMemoStore& store = workspace.lean_store();
  result.value = run_srna_lean(s1, s2, options, result.stats, store, workspace);

  if (s1.length() > 0 && s2.length() > 0) {
    LeanRunner runner(s1, s2, options, result.stats, store, workspace);
    LeanTracebackWalker walker(s1, s2, runner);
    walker.walk(SliceBounds{0, s1.length() - 1, 0, s2.length() - 1}, result.matches);
  }

  SRNA_CHECK(static_cast<Score>(result.matches.size()) == result.value,
             "lean traceback recovered a different number of matches than the optimum");
  std::sort(result.matches.begin(), result.matches.end(),
            [](const ArcMatch& a, const ArcMatch& b) { return a.a1.right < b.a1.right; });
  bridge_lean_store_metrics(store);
  return result;
}

}  // namespace srna
