// PRNA — the parallel algorithm (paper Algorithm 4), for shared memory.
//
// Structure mirrors SRNA2: preprocessing (arc index + static column
// ownership via load balancing), parallel stage one, sequential stage two.
// In each outer iteration (one S1 arc, i.e. one row of the memo table M)
// every worker tabulates the child slices of the S2 arcs it owns, writing
// disjoint columns of that row; a barrier then publishes the row — the
// shared-memory analogue of the paper's per-row MPI_Allreduce(MAX) over the
// replicated table. Correctness rests on the same ordering fact as SRNA2:
// d2 dependencies always point at rows completed in earlier iterations.
//
// The paper's 64-processor cluster runs are reproduced by the schedule
// simulator in cluster_sim.hpp; this implementation provides real (and
// tested) parallel execution on whatever cores exist.
#pragma once

#include <functional>

#include "core/options.hpp"
#include "core/result.hpp"
#include "core/workspace.hpp"
#include "parallel/load_balance.hpp"
#include "rna/secondary_structure.hpp"

namespace srna {

// How stage-one slices are assigned to workers.
//
// kStaticColumns is the paper's design: one load-balanced column ownership
// computed in preprocessing and reused for every row (valid because the
// per-row work factors as w1(row)·w2(column)). kDynamic hands individual
// slices to idle workers as they finish — the conventional alternative the
// static design is measured against (ablation_dynamic_schedule). Both
// publish each memo row with a barrier.
//
// kStealing drops the barriers entirely: each slice carries an atomic count
// of its unfinished direct-child slices (ArcForest), a finished slice
// decrements its two single-coordinate parents, and slices whose count hits
// zero go onto the finishing worker's Chase-Lev deque — idle workers steal.
// Threads flow across row boundaries instead of waiting on the row's
// straggler; barrier_wait_seconds is structurally zero and the cost of
// scheduling shows up as steal/idle metrics instead.
enum class PrnaSchedule : std::uint8_t { kStaticColumns, kDynamic, kStealing };

struct PrnaOptions {
  // Worker threads; 0 = OpenMP default (typically the core count).
  int num_threads = 0;
  BalanceStrategy balance = BalanceStrategy::kGreedyLpt;
  SliceLayout layout = SliceLayout::kDense;
  PrnaSchedule schedule = PrnaSchedule::kStaticColumns;
  // Tabulate the parent slice (stage two) as a parallel wavefront over
  // anti-diagonals instead of sequentially. The paper deems this not worth
  // the effort (stage two is < 0.01% of the runtime, Table III); this
  // implementation exists to measure that claim (ablation_stage2_parallel).
  // Dense layout only.
  bool parallel_stage2 = false;
  // Verify the ordering guarantee (memo initialized to the unset sentinel,
  // every d2 lookup checked). Test-suite use.
  bool validate_memo = false;
  // kStealing only: run stage one on plain std::thread workers instead of an
  // OpenMP parallel region. ThreadSanitizer cannot see libgomp's internal
  // synchronization (every OpenMP region is a false positive), so
  // scripts/check_tsan.sh exercises the work-stealing scheduler through this
  // shim. Incompatible with parallel_stage2 (an OpenMP wavefront).
  bool use_std_threads = false;
  // Test-only fault injection: called before each stage-one slice with its
  // (row, column) arc indices; a throw from here exercises the parallel
  // error path (first exception captured, rethrown after the region).
  std::function<void(std::size_t a, std::size_t b)> stage1_hook;
};

// What one worker did during stage one: realized work plus where its wall
// time went — tabulating (busy) versus waiting at the per-row barrier
// (static/dynamic) or spinning for stealable work (kStealing). The imbalance
// between the two is the paper's load-balance story (Figure 8); the run
// report serializes this, and `--trace` shows the same data as per-row
// spans.
struct PrnaThreadTimeline {
  std::uint64_t cells = 0;
  std::uint64_t slices = 0;
  double busy_seconds = 0.0;
  double barrier_wait_seconds = 0.0;
  // kStealing only (zero otherwise): slices this worker stole from another
  // deque, ready slices it pushed, and wall time spent with no runnable
  // slice anywhere — the stealing analogue of barrier_wait_seconds.
  std::uint64_t steals = 0;
  std::uint64_t ready_pushes = 0;
  double steal_idle_seconds = 0.0;
  // Wall time this lane spent inside stage one, busy or not — the
  // denominator that turns the wait numbers into fractions. An absolute
  // idle of 50 ms is noise on a 10 s lane and a disaster on a 60 ms one;
  // to_json() reports both forms (…_seconds and …_fraction).
  double wall_seconds = 0.0;

  // barrier_wait_seconds / wall_seconds (0 when the lane has no wall time).
  [[nodiscard]] double barrier_wait_fraction() const noexcept {
    return wall_seconds > 0.0 ? barrier_wait_seconds / wall_seconds : 0.0;
  }
  // steal_idle_seconds / wall_seconds (0 when the lane has no wall time).
  [[nodiscard]] double steal_idle_fraction() const noexcept {
    return wall_seconds > 0.0 ? steal_idle_seconds / wall_seconds : 0.0;
  }
};

struct PrnaResult {
  Score value = 0;
  McosStats stats;             // aggregated over threads
  int threads_used = 0;
  Assignment assignment;       // the stage-one column ownership
  // Cells tabulated by each thread during stage one (work distribution
  // actually realized, for comparing against the load balancer's plan).
  std::vector<std::uint64_t> cells_per_thread;
  // Per-thread stage-one timeline (cells, busy vs. barrier-wait seconds).
  std::vector<PrnaThreadTimeline> timeline;

  // JSON rendering for run reports: value, threads, stats, timeline.
  [[nodiscard]] obs::Json to_json() const;
};

// The Workspace overload takes the memo table M and stage-two slice scratch
// from `workspace`; each stage-one worker additionally pulls its private
// slice scratch from its own pooled Workspace::local() (OpenMP threads
// persist across regions, so worker buffers amortize across calls too). The
// plain overload uses the calling thread's pooled workspace.
PrnaResult prna(const SecondaryStructure& s1, const SecondaryStructure& s2,
                const PrnaOptions& options = {});
PrnaResult prna(const SecondaryStructure& s1, const SecondaryStructure& s2,
                const PrnaOptions& options, Workspace& workspace);

}  // namespace srna
