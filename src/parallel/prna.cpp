#include "parallel/prna.hpp"

#include <atomic>
#include <barrier>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/memo_table.hpp"
#include "core/slice_tabulator.hpp"
#include "parallel/team.hpp"
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
  const bool validate = options.validate_memo;
  const bool stealing = options.schedule == PrnaSchedule::kStealing;

  // --- Preprocessing: arc index, column ownership, memo table. ---
  WallTimer phase;
  obs::TraceScope preprocess_span("prna", "preprocess");
  obs::CounterScope preprocess_counters("prna.preprocess");
  // The per-solve slice entry point over the S2 column-event table, shared
  // read-only by all stage-one workers and stage two.
  const SliceTabulator slices(s1, s2, workspace.column_events().build(s2), options.layout);
  const ArcIndex& idx1 = slices.arcs1();
  const ArcIndex& idx2 = slices.arcs2();
  MemoTable& memo =
      workspace.memo(s1.length(), s2.length(), validate ? MemoTable::kUnset : Score{0});

  // The team this solve really gets (1 inside another team's worker): the
  // column ownership below is built for exactly these workers.
  const int threads = team_size(options.num_threads);
  result.threads_used = threads;
  // Each worker's slice scratch is a bundle of the caller's workspace, so it
  // persists across solves; worker 0 shares bundle 0 with stage two.
  std::vector<SliceScratch*> worker_scratch(static_cast<std::size_t>(threads));
  for (std::size_t t = 0; t < worker_scratch.size(); ++t)
    worker_scratch[t] = &workspace.slice_scratch(t);

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
  if (const obs::CounterSample delta = preprocess_counters.close();
      delta.available && preprocess_span.active())
    preprocess_span.set_args(obs::counter_trace_args(delta));
  preprocess_span.close();
  result.stats.preprocess_seconds = phase.seconds();

  // --- Stage one: child slices in parallel — one barrier per M row
  // (static) or barrier-free dependency-driven stealing. ---
  phase.reset();
  obs::TraceScope stage1_span("prna", "stage1");
  // The caller's request-scoped trace context does not follow work onto
  // team threads (thread_local); capture it here and re-establish it on
  // each stage-one worker so their spans stay correlated with the request.
  const std::uint64_t trace_id = obs::trace_context::current();
  const char* schedule_name = stealing ? "stealing" : "static";
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
  // lock; the workers must not).
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
  // after the team joins so the caller sees the real error, not a generic
  // check.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto capture_error = [&]() noexcept {
    {
      std::lock_guard lock(error_mutex);
      if (first_error == nullptr) first_error = std::current_exception();
    }
    failed.store(true, std::memory_order_relaxed);
    // Best-effort: the rethrow after the join is the authoritative report;
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
    // Every worker decrements this after every slice: alone on its cache
    // line, away from the read-mostly locals the slice loop keeps loading.
    struct alignas(64) { std::atomic<std::uint64_t> count; } remaining{n_slices};
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
      SliceScratch& scratch = *worker_scratch[tid];
      WorkStealingDeque& mine = queues[tid];

      auto run_slice = [&](std::uint32_t id) {
        const std::size_t a = id / n2;
        const std::size_t b = id % n2;
        WallTimer busy;
        try {
          if (options.stage1_hook) options.stage1_hook(a, b);
          memo.set(idx1.arc(a).left + 1, idx2.arc(b).left + 1,
                   slices.child(a, b, scratch, d2_lookup, &local));
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
        remaining.count.fetch_sub(1, std::memory_order_acq_rel);
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
        if (remaining.count.load(std::memory_order_acquire) == 0) break;
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

    run_team(threads, worker);
  } else {
    // One barrier per solve; every worker arrives once per row, even after a
    // failure, so nobody is left waiting.
    std::barrier row_barrier(threads);
    run_team(threads, [&](std::size_t tid) {
      const obs::TraceContextScope request_ctx(trace_id);
      WallTimer lane_wall;
      obs::CounterScope lane_counters("prna.stage1");
      McosStats& local = thread_stats[tid];
      PrnaThreadTimeline& timeline = result.timeline[tid];
      SliceScratch& scratch = *worker_scratch[tid];

      for (std::size_t a = 0; a < idx1.size(); ++a) {
        // Busy phase: this worker's owned-column batch of the row. One span
        // per row per thread.
        WallTimer busy;
        {
          obs::TraceScope row_span("prna", "row");
          if (row_span.active())
            row_span.set_args(
                obs::trace_args({{"row", static_cast<std::int64_t>(a)},
                                 {"owned", static_cast<std::int64_t>(owned[tid].size())}}));
          if (!failed.load(std::memory_order_relaxed)) {
            try {
              const Pos i1 = idx1.arc(a).left + 1;
              for (const std::size_t b : owned[tid]) {
                if (options.stage1_hook) options.stage1_hook(a, b);
                memo.set(i1, idx2.arc(b).left + 1,
                         slices.child(a, b, scratch, d2_lookup, &local));
              }
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
          row_barrier.arrive_and_wait();
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
    });
  }
  rows_counter.add(idx1.size());

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

  // --- Stage two: the parent slice, sequential (paper: not worth
  // parallelizing; Table III shows it below 0.2% of the runtime). ---
  phase.reset();
  obs::TraceScope stage2_span("prna", "stage2");
  obs::CounterScope stage2_counters("prna.stage2");
  result.value = slices.parent(workspace.slice_scratch(0), d2_lookup, &result.stats);
  if (const obs::CounterSample delta = stage2_counters.close();
      delta.available && stage2_span.active())
    stage2_span.set_args(obs::counter_trace_args(delta));
  stage2_span.close();
  result.stats.stage2_seconds = phase.seconds();
  bridge_stats_to_metrics("prna", result.stats);
  return result;
}

}  // namespace srna
