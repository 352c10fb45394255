#include "parallel/prna.hpp"

#include <omp.h>

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/arc_index.hpp"
#include "core/memo_table.hpp"
#include "core/tabulate_slice.hpp"
#include "parallel/work_stealing.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace srna {

namespace {

// Column weight of an S2 arc: the column factor of the product-form work of
// every child slice in that column (cells = interior(a1) × interior(a2)).
std::vector<std::uint64_t> column_weights(const ArcIndex& idx2) {
  std::vector<std::uint64_t> weights(idx2.size());
  for (std::size_t b = 0; b < idx2.size(); ++b)
    weights[b] = static_cast<std::uint64_t>(std::max<Pos>(idx2.arc(b).interior_width(), 0));
  return weights;
}

// Stage two as a parallel wavefront: cells of one anti-diagonal of the
// parent slice are independent (all dependencies — s1, s2, d1 — point at
// strictly earlier diagonals, and d2 reads the completed memo table).
Score tabulate_parent_wavefront(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                const MemoTable& memo, int threads, McosStats& stats,
                                Matrix<Score>& grid) {
  const Pos n = s1.length();
  const Pos m = s2.length();
  if (n == 0 || m == 0) {
    ++stats.slices_tabulated;
    return 0;
  }
  grid.resize(static_cast<std::size_t>(n), static_cast<std::size_t>(m), 0);
  ++stats.slices_tabulated;
  stats.cells_tabulated += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);

#pragma omp parallel num_threads(threads)
  for (Pos d = 0; d <= n + m - 2; ++d) {
    const Pos x_lo = std::max<Pos>(0, d - (m - 1));
    const Pos x_hi = std::min<Pos>(n - 1, d);
#pragma omp for schedule(static)
    for (Pos x = x_lo; x <= x_hi; ++x) {
      const Pos y = d - x;
      const auto ux = static_cast<std::size_t>(x);
      const auto uy = static_cast<std::size_t>(y);
      Score v = std::max(x > 0 ? grid(ux - 1, uy) : Score{0},
                         y > 0 ? grid(ux, uy - 1) : Score{0});
      const Pos k1 = s1.arc_left_of(x);
      if (k1 >= 0) {
        const Pos k2 = s2.arc_left_of(y);
        if (k2 >= 0) {
          const Score d1 = (k1 > 0 && k2 > 0)
                               ? grid(static_cast<std::size_t>(k1 - 1),
                                      static_cast<std::size_t>(k2 - 1))
                               : 0;
          v = std::max(v, static_cast<Score>(1 + d1 + memo.get(k1 + 1, k2 + 1)));
        }
      }
      grid(ux, uy) = v;
    }  // implicit barrier: the diagonal is published
  }
  return grid(static_cast<std::size_t>(n) - 1, static_cast<std::size_t>(m) - 1);
}

}  // namespace

obs::Json PrnaResult::to_json() const {
  obs::Json doc = obs::Json::object();
  doc.set("value", obs::Json(static_cast<std::int64_t>(value)));
  doc.set("threads_used", obs::Json(static_cast<std::int64_t>(threads_used)));
  doc.set("stats", stats.to_json());
  obs::Json cells = obs::Json::array();
  for (const std::uint64_t c : cells_per_thread) cells.push(obs::Json(c));
  doc.set("cells_per_thread", std::move(cells));
  obs::Json lanes = obs::Json::array();
  for (std::size_t tid = 0; tid < timeline.size(); ++tid) {
    const PrnaThreadTimeline& lane = timeline[tid];
    obs::Json entry = obs::Json::object();
    entry.set("thread", obs::Json(static_cast<std::int64_t>(tid)));
    entry.set("cells", obs::Json(lane.cells));
    entry.set("slices", obs::Json(lane.slices));
    entry.set("busy_seconds", obs::Json(lane.busy_seconds));
    entry.set("barrier_wait_seconds", obs::Json(lane.barrier_wait_seconds));
    entry.set("steals", obs::Json(lane.steals));
    entry.set("ready_pushes", obs::Json(lane.ready_pushes));
    entry.set("steal_idle_seconds", obs::Json(lane.steal_idle_seconds));
    entry.set("wall_seconds", obs::Json(lane.wall_seconds));
    entry.set("barrier_wait_fraction", obs::Json(lane.barrier_wait_fraction()));
    entry.set("steal_idle_fraction", obs::Json(lane.steal_idle_fraction()));
    lanes.push(std::move(entry));
  }
  doc.set("timeline", std::move(lanes));
  return doc;
}

PrnaResult prna(const SecondaryStructure& s1, const SecondaryStructure& s2,
                const PrnaOptions& options) {
  return prna(s1, s2, options, Workspace::local());
}

PrnaResult prna(const SecondaryStructure& s1, const SecondaryStructure& s2,
                const PrnaOptions& options, Workspace& workspace) {
  SRNA_REQUIRE(s1.is_nonpseudoknot() && s2.is_nonpseudoknot(),
               "MCOS model requires non-pseudoknot structures");

  PrnaResult result;
  const bool dense = options.layout == SliceLayout::kDense;
  const bool validate = options.validate_memo;
  const bool stealing = options.schedule == PrnaSchedule::kStealing;
  SRNA_REQUIRE(!options.use_std_threads || stealing,
               "use_std_threads applies to the kStealing schedule only");
  SRNA_REQUIRE(!(options.use_std_threads && options.parallel_stage2),
               "use_std_threads is incompatible with parallel_stage2 (an OpenMP wavefront)");

  // --- Preprocessing: arc index, column ownership, memo table. ---
  WallTimer phase;
  obs::TraceScope preprocess_span("prna", "preprocess");
  obs::CounterScope preprocess_counters("prna.preprocess");
  const ArcIndex idx1(s1);
  const ArcIndex idx2(s2);
  MemoTable& memo =
      workspace.memo(s1.length(), s2.length(), validate ? MemoTable::kUnset : Score{0});

  int threads = options.num_threads > 0 ? options.num_threads : omp_get_max_threads();
  threads = std::max(threads, 1);
  result.threads_used = threads;

  std::vector<std::vector<std::size_t>> owned(static_cast<std::size_t>(threads));
  if (!stealing) {
    result.assignment = balance_load(column_weights(idx2),
                                     static_cast<std::size_t>(threads), options.balance);
    // Owned-column lists, so each worker iterates only its own S2 arcs (in
    // increasing right-endpoint order, preserved from idx2). kStealing has no
    // static ownership: slices flow to whichever worker frees up.
    for (std::size_t b = 0; b < idx2.size(); ++b)
      owned[result.assignment.owner[b]].push_back(b);
  }
  // The dense kernel's per-solve S2 column-event table, shared read-only by
  // all stage-one workers and stage two.
  const ColumnEvents& col_events = workspace.column_events().build(s2);
  if (const obs::CounterSample delta = preprocess_counters.close();
      delta.available && preprocess_span.active())
    preprocess_span.set_args(obs::counter_trace_args(delta));
  preprocess_span.close();
  result.stats.preprocess_seconds = phase.seconds();

  // --- Stage one: child slices in parallel — one barrier per M row
  // (static/dynamic) or barrier-free dependency-driven stealing. ---
  phase.reset();
  obs::TraceScope stage1_span("prna", "stage1");
  // The caller's request-scoped trace context does not follow work onto
  // pool threads (thread_local); capture it here and re-establish it on
  // each stage-one worker so their spans stay correlated with the request.
  const std::uint64_t trace_id = obs::trace_context::current();
  const char* schedule_name = stealing ? "stealing"
                              : options.schedule == PrnaSchedule::kDynamic ? "dynamic"
                                                                           : "static";
  if (obs::Logger::instance().enabled(obs::LogLevel::kDebug))
    obs::log_debug(
        "prna.stage1_start",
        obs::log_fields({{"schedule", obs::Json(schedule_name)},
                         {"threads", obs::Json(static_cast<std::int64_t>(threads))},
                         {"slices", obs::Json(static_cast<std::uint64_t>(idx1.size()) *
                                              static_cast<std::uint64_t>(idx2.size()))},
                         {"trace_id", obs::Json(trace_id)}}));
  std::vector<McosStats> thread_stats(static_cast<std::size_t>(threads));
  result.cells_per_thread.assign(static_cast<std::size_t>(threads), 0);
  result.timeline.assign(static_cast<std::size_t>(threads), PrnaThreadTimeline{});

  // Row-granularity instrument handles, resolved once (registry lookups
  // lock; the parallel region must not).
  auto& metrics = obs::Registry::instance();
  obs::Histogram& row_busy_hist = metrics.histogram("prna.row_busy_seconds");
  obs::Histogram& barrier_wait_hist = metrics.histogram("prna.barrier_wait_seconds");
  obs::Counter& rows_counter = metrics.counter("prna.rows");
  // Stealing-schedule instruments: the barrier-wait story replaced by
  // steals, ready-queue pushes, and per-worker idle (no-runnable-slice) time.
  obs::Counter& steals_counter = metrics.counter("prna.steals");
  obs::Counter& ready_counter = metrics.counter("prna.steal_ready_pushes");
  obs::Histogram& steal_idle_hist = metrics.histogram("prna.steal_idle_seconds");
  obs::Histogram& steal_idle_frac_hist = metrics.histogram("prna.steal_idle_fraction");

  auto d2_lookup = [&](Pos k1, Pos /*x*/, Pos k2, Pos /*y*/) -> Score {
    const Score v = memo.get(k1 + 1, k2 + 1);
    if (validate)
      SRNA_CHECK(v != MemoTable::kUnset,
                 "PRNA ordering violated: d2 lookup read an unpublished row");
    return v;
  };

  // First-failure capture: the winning thread stores its exception_ptr; the
  // others only flip the flag and drain the remaining barriers. Rethrown
  // after the region so the caller sees the real error, not a generic check.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto capture_error = [&]() noexcept {
    {
      std::lock_guard lock(error_mutex);
      if (first_error == nullptr) first_error = std::current_exception();
    }
    failed.store(true, std::memory_order_relaxed);
    // Best-effort: the rethrow after the region is the authoritative report;
    // the log line ties the panic to its schedule and request in the stream.
    try {
      std::string what = "unknown";
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
      }
      obs::log_error("prna.worker_panic",
                     obs::log_fields({{"schedule", obs::Json(schedule_name)},
                                      {"what", obs::Json(what)}}));
    } catch (...) {
    }
  };

  if (stealing) {
    // --- Barrier-free stage one: dependency counting + work stealing. ---
    //
    // Slice (a, b) d2-reads only slices under arcs strictly interior to a
    // and b (the same ordering fact the per-row barrier over-enforces), so
    // it may start as soon as its direct children along each coordinate are
    // done: deps(a, b) = child_count1[a] + child_count2[b]. A finished slice
    // decrements exactly its two single-coordinate parents, (parent1[a], b)
    // and (a, parent2[b]); any interior pair is reachable from (a, b) by
    // descending one coordinate at a time, so the acq_rel decrement chain
    // orders every memo read after the write it needs. Leaf pairs seed the
    // deques round-robin; workers drain their own deque LIFO and steal FIFO.
    const std::size_t n1 = idx1.size();
    const std::size_t n2 = idx2.size();
    const std::size_t n_slices = n1 * n2;
    SRNA_CHECK(n2 == 0 || n_slices / n2 == n1, "slice id space overflow");
    SRNA_CHECK(n_slices <= static_cast<std::size_t>(UINT32_MAX),
               "slice ids must fit the deque's 32-bit items");
    const ArcForest forest1 = build_arc_forest(idx1.all());
    const ArcForest forest2 = build_arc_forest(idx2.all());
    std::vector<std::atomic<std::uint32_t>> deps(n_slices);
    std::vector<WorkStealingDeque> queues(static_cast<std::size_t>(threads));
    for (WorkStealingDeque& q : queues) q.reset(n_slices);
    std::atomic<std::uint64_t> remaining{n_slices};
    std::size_t seed_rr = 0;
    for (std::size_t a = 0; a < n1; ++a)
      for (std::size_t b = 0; b < n2; ++b) {
        const std::uint32_t d = forest1.child_count[a] + forest2.child_count[b];
        deps[a * n2 + b].store(d, std::memory_order_relaxed);
        if (d == 0)
          queues[seed_rr++ % queues.size()].push(static_cast<std::uint32_t>(a * n2 + b));
      }

    auto worker = [&](std::size_t tid) {
      const obs::TraceContextScope request_ctx(trace_id);
      // Per-lane wall clock and hardware counters: each worker opens its own
      // thread's counter group, so perf.prna.stage1.* sums real per-thread
      // cycles rather than one lane's view.
      WallTimer lane_wall;
      obs::CounterScope lane_counters("prna.stage1");
      McosStats& local = thread_stats[tid];
      PrnaThreadTimeline& timeline = result.timeline[tid];
      Workspace& pool = Workspace::local();
      Matrix<Score>& dense_scratch = pool.dense_grid(0);
      EventScratch& compressed_scratch = pool.events(0);
      const SliceKernel slice_kernel = pool.slice_kernel(0);
      WorkStealingDeque& mine = queues[tid];

      auto run_slice = [&](std::uint32_t id) {
        const std::size_t a = id / n2;
        const std::size_t b = id % n2;
        WallTimer busy;
        try {
          if (options.stage1_hook) options.stage1_hook(a, b);
          const Arc arc1 = idx1.arc(a);
          const Arc arc2 = idx2.arc(b);
          Score value;
          if (dense) {
            value = tabulate_slice_dense(
                s1, s2, col_events,
                SliceBounds::under(arc1.left, arc1.right, arc2.left, arc2.right),
                dense_scratch, slice_kernel, d2_lookup, &local);
          } else {
            value = tabulate_slice_compressed(idx1.interior(a), idx2.interior(b),
                                              compressed_scratch, d2_lookup, &local);
          }
          memo.set(arc1.left + 1, arc2.left + 1, value);
          // The release half of the decrement publishes the memo write; the
          // acquire half makes the worker that takes the parent ready see
          // every child's writes (transitively, along the decrement chain).
          auto notify = [&](std::size_t parent_id) {
            if (deps[parent_id].fetch_sub(1, std::memory_order_acq_rel) == 1) {
              mine.push(static_cast<std::uint32_t>(parent_id));
              ++timeline.ready_pushes;
            }
          };
          if (forest1.parent[a] != ArcForest::kNoParent)
            notify(forest1.parent[a] * n2 + b);
          if (forest2.parent[b] != ArcForest::kNoParent)
            notify(a * n2 + forest2.parent[b]);
        } catch (...) {
          capture_error();
        }
        remaining.fetch_sub(1, std::memory_order_acq_rel);
        timeline.busy_seconds += busy.seconds();
      };

      std::uint32_t id = 0;
      while (!failed.load(std::memory_order_relaxed)) {
        if (mine.pop(id)) {
          run_slice(id);
          continue;
        }
        bool stolen = false;
        for (std::size_t off = 1; off < queues.size() && !stolen; ++off)
          stolen = queues[(tid + off) % queues.size()].steal(id);
        if (stolen) {
          ++timeline.steals;
          run_slice(id);
          continue;
        }
        if (remaining.load(std::memory_order_acquire) == 0) break;
        // Nothing runnable anywhere right now: somebody is finishing the
        // slices ours depend on. Spin politely and account the gap.
        WallTimer idle;
        std::this_thread::yield();
        timeline.steal_idle_seconds += idle.seconds();
      }

      result.cells_per_thread[tid] = local.cells_tabulated;
      timeline.cells = local.cells_tabulated;
      timeline.slices = local.slices_tabulated;
      timeline.wall_seconds = lane_wall.seconds();
      lane_counters.close();
      steals_counter.add(timeline.steals);
      ready_counter.add(timeline.ready_pushes);
      steal_idle_hist.observe(timeline.steal_idle_seconds);
      steal_idle_frac_hist.observe(timeline.steal_idle_fraction());
    };

    if (options.use_std_threads) {
      // TSan shim: plain std::thread workers (see PrnaOptions::use_std_threads).
      std::vector<std::thread> shim;
      shim.reserve(static_cast<std::size_t>(threads) - 1);
      for (int t = 1; t < threads; ++t) shim.emplace_back(worker, static_cast<std::size_t>(t));
      worker(0);
      for (std::thread& t : shim) t.join();
    } else {
#pragma omp parallel num_threads(threads)
      worker(static_cast<std::size_t>(omp_get_thread_num()));
    }
    rows_counter.add(idx1.size());
  } else {
#pragma omp parallel num_threads(threads)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    const obs::TraceContextScope request_ctx(trace_id);
    WallTimer lane_wall;
    obs::CounterScope lane_counters("prna.stage1");
    McosStats& local = thread_stats[tid];
    PrnaThreadTimeline& timeline = result.timeline[tid];
    // Worker slice scratch comes from the worker's own pooled workspace (a
    // distinct buffer from the caller's memo, even when the master's pool IS
    // the caller workspace); OpenMP threads persist across regions, so these
    // buffers amortize across successive prna() calls too.
    Workspace& pool = Workspace::local();
    Matrix<Score>& dense_scratch = pool.dense_grid(0);
    EventScratch& compressed_scratch = pool.events(0);
    const SliceKernel slice_kernel = pool.slice_kernel(0);

    auto tabulate_pair = [&](std::size_t a, std::size_t b) {
      if (options.stage1_hook) options.stage1_hook(a, b);
      const Arc arc1 = idx1.arc(a);
      const Arc arc2 = idx2.arc(b);
      Score value;
      if (dense) {
        value = tabulate_slice_dense(
            s1, s2, col_events,
            SliceBounds::under(arc1.left, arc1.right, arc2.left, arc2.right),
            dense_scratch, slice_kernel, d2_lookup, &local);
      } else {
        value = tabulate_slice_compressed(idx1.interior(a), idx2.interior(b),
                                          compressed_scratch, d2_lookup, &local);
      }
      memo.set(arc1.left + 1, arc2.left + 1, value);
    };

    for (std::size_t a = 0; a < idx1.size(); ++a) {
      // Busy phase: this worker's owned-column batch of the row (static) or
      // its share of the dynamic pulls. One span per row per thread.
      WallTimer busy;
      {
        obs::TraceScope row_span("prna", "row");
        if (row_span.active())
          row_span.set_args(obs::trace_args(
              {{"row", static_cast<std::int64_t>(a)},
               {"owned", static_cast<std::int64_t>(
                             options.schedule == PrnaSchedule::kDynamic
                                 ? idx2.size()
                                 : owned[tid].size())}}));
        if (options.schedule == PrnaSchedule::kDynamic) {
          // Dynamic alternative: idle workers pull individual slices. nowait
          // + the explicit barrier below publishes the row (and makes the
          // barrier wait measurable, like the static path).
#pragma omp for schedule(dynamic, 1) nowait
          for (std::size_t b = 0; b < idx2.size(); ++b) {
            if (failed.load(std::memory_order_relaxed)) continue;
            try {
              tabulate_pair(a, b);
            } catch (...) {
              capture_error();
            }
          }
        } else if (!failed.load(std::memory_order_relaxed)) {
          try {
            for (const std::size_t b : owned[tid]) tabulate_pair(a, b);
          } catch (...) {
            capture_error();
          }
        }
      }
      const double busy_s = busy.seconds();
      timeline.busy_seconds += busy_s;
      row_busy_hist.observe(busy_s);

      // Publish row arc1.left + 1 of M: the shared-memory stand-in for the
      // paper's per-row MPI_Allreduce(MAX) over the replicated table. The
      // time spent here is the load imbalance made visible.
      WallTimer wait;
      {
        obs::TraceScope barrier_span("prna", "barrier_wait");
#pragma omp barrier
      }
      const double wait_s = wait.seconds();
      timeline.barrier_wait_seconds += wait_s;
      barrier_wait_hist.observe(wait_s);
    }

    result.cells_per_thread[tid] = local.cells_tabulated;
    timeline.cells = local.cells_tabulated;
    timeline.slices = local.slices_tabulated;
    timeline.wall_seconds = lane_wall.seconds();
    lane_counters.close();
  }
  rows_counter.add(idx1.size());
  }

  if (first_error != nullptr) {
    obs::Registry::instance().counter("prna.stage1_errors").add();
    std::rethrow_exception(first_error);
  }
  for (const McosStats& local : thread_stats) {
    result.stats.cells_tabulated += local.cells_tabulated;
    result.stats.slices_tabulated += local.slices_tabulated;
    result.stats.arc_match_events += local.arc_match_events;
  }
  stage1_span.close();
  result.stats.stage1_seconds = phase.seconds();
  if (obs::Logger::instance().enabled(obs::LogLevel::kDebug))
    obs::log_debug(
        "prna.stage1_stop",
        obs::log_fields({{"schedule", obs::Json(schedule_name)},
                         {"stage1_seconds", obs::Json(result.stats.stage1_seconds)},
                         {"cells", obs::Json(result.stats.cells_tabulated)},
                         {"trace_id", obs::Json(trace_id)}}));
  if (result.stats.stage1_seconds > 0.0)
    obs::Registry::instance().gauge("prna.stage1_cells_per_second")
        .set(static_cast<double>(result.stats.cells_tabulated) /
             result.stats.stage1_seconds);

  // --- Stage two: the parent slice (paper: not worth parallelizing;
  // Table III shows it below 0.2% of the runtime — parallel_stage2 exists
  // to measure exactly that). ---
  phase.reset();
  obs::TraceScope stage2_span("prna", "stage2");
  obs::CounterScope stage2_counters("prna.stage2");
  if (options.parallel_stage2) {
    SRNA_REQUIRE(dense, "parallel stage two supports the dense layout only");
    result.value = tabulate_parent_wavefront(s1, s2, memo, threads, result.stats,
                                             workspace.dense_grid(0));
  } else if (dense) {
    result.value = tabulate_slice_dense(s1, s2, col_events,
                                        SliceBounds{0, s1.length() - 1, 0, s2.length() - 1},
                                        workspace.dense_grid(0),
                                        workspace.slice_kernel(0), d2_lookup,
                                        &result.stats);
  } else {
    result.value = tabulate_slice_compressed(idx1.all(), idx2.all(), workspace.events(0),
                                             d2_lookup, &result.stats);
  }
  if (const obs::CounterSample delta = stage2_counters.close();
      delta.available && stage2_span.active())
    stage2_span.set_args(obs::counter_trace_args(delta));
  stage2_span.close();
  result.stats.stage2_seconds = phase.seconds();
  bridge_stats_to_metrics("prna", result.stats);
  return result;
}

}  // namespace srna
