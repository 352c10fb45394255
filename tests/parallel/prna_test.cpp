#include "parallel/prna.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <tuple>

#include "core/arc_index.hpp"
#include "core/mcos.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "parallel/load_balance.hpp"
#include "rna/generators.hpp"
#include "testing/builders.hpp"

namespace srna {
namespace {

using testing::db;

TEST(Prna, TrivialInputs) {
  PrnaOptions opt;
  opt.num_threads = 2;
  EXPECT_EQ(prna(SecondaryStructure(0), SecondaryStructure(0), opt).value, 0);
  EXPECT_EQ(prna(db("..."), db("(.)"), opt).value, 0);
  EXPECT_EQ(prna(db("(.)"), db("(.)"), opt).value, 1);
}

TEST(Prna, RejectsPseudoknots) {
  const auto knot = SecondaryStructure::from_arcs(6, {{0, 3}, {2, 5}});
  EXPECT_THROW(prna(knot, knot), std::invalid_argument);
}

class PrnaSweep
    : public ::testing::TestWithParam<
          std::tuple<int, SliceLayout, BalanceStrategy, std::uint64_t>> {};

TEST_P(PrnaSweep, MatchesSequentialSrna2) {
  const auto [threads, layout, strategy, seed] = GetParam();
  const auto s1 = random_structure(60, 0.5, seed);
  const auto s2 = random_structure(55, 0.5, seed + 1);

  PrnaOptions opt;
  opt.num_threads = threads;
  opt.layout = layout;
  opt.balance = strategy;
  opt.validate_memo = true;  // verifies the row-ordering guarantee under concurrency
  const auto got = prna(s1, s2, opt);
  EXPECT_EQ(got.value, srna2(s1, s2).value);
  EXPECT_EQ(got.threads_used, threads);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsLayoutsStrategies, PrnaSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(SliceLayout::kDense, SliceLayout::kCompressed),
                       ::testing::Values(BalanceStrategy::kGreedyLpt, BalanceStrategy::kCyclic),
                       ::testing::Values<std::uint64_t>(100, 200)));

TEST(Prna, WorstCaseAgreesAcrossThreadCounts) {
  const auto s = worst_case_structure(80);
  const Score expected = srna2(s, s).value;
  for (int t : {1, 2, 4, 8}) {
    PrnaOptions opt;
    opt.num_threads = t;
    opt.validate_memo = true;
    EXPECT_EQ(prna(s, s, opt).value, expected) << t << " threads";
  }
}

TEST(Prna, StageOneWorkSplitsAcrossThreads) {
  const auto s = worst_case_structure(60);
  PrnaOptions opt;
  opt.num_threads = 3;
  const auto r = prna(s, s, opt);
  ASSERT_EQ(r.cells_per_thread.size(), 3u);
  const std::uint64_t stage1_cells =
      std::accumulate(r.cells_per_thread.begin(), r.cells_per_thread.end(), std::uint64_t{0});
  // Stage-one cells = total cells minus the sequential parent slice.
  const auto seq = srna2(s, s);
  const std::uint64_t parent_cells =
      static_cast<std::uint64_t>(s.length()) * static_cast<std::uint64_t>(s.length());
  EXPECT_EQ(stage1_cells, seq.stats.cells_tabulated - parent_cells);
  // With LPT on the worst case each thread gets meaningful work.
  for (const auto cells : r.cells_per_thread) EXPECT_GT(cells, 0u);
}

TEST(Prna, TotalCellsMatchSequential) {
  const auto s1 = rrna_like_structure(250, 45, 3);
  const auto s2 = rrna_like_structure(240, 42, 4);
  PrnaOptions opt;
  opt.num_threads = 4;
  const auto par = prna(s1, s2, opt);
  const auto seq = srna2(s1, s2);
  EXPECT_EQ(par.value, seq.value);
  EXPECT_EQ(par.stats.cells_tabulated, seq.stats.cells_tabulated);
  EXPECT_EQ(par.stats.slices_tabulated, seq.stats.slices_tabulated);
}

TEST(Prna, AssignmentCoversEveryColumn) {
  const auto s1 = random_structure(70, 0.5, 9);
  const auto s2 = random_structure(70, 0.5, 10);
  PrnaOptions opt;
  opt.num_threads = 4;
  const auto r = prna(s1, s2, opt);
  EXPECT_EQ(r.assignment.owner.size(), s2.arc_count());
  for (const std::size_t owner : r.assignment.owner) EXPECT_LT(owner, 4u);
}

TEST(Prna, DefaultThreadCountRuns) {
  const auto s = db("((..))((..))");
  const auto r = prna(s, s);  // num_threads = 0 -> library default
  EXPECT_EQ(r.value, 4);
  EXPECT_GE(r.threads_used, 1);
}

TEST(Prna, ManyMoreThreadsThanColumns) {
  const auto s = db("((..))");  // 2 arcs only
  PrnaOptions opt;
  opt.num_threads = 8;
  opt.validate_memo = true;
  EXPECT_EQ(prna(s, s, opt).value, 2);
}

TEST(Prna, StageOneExceptionPropagatesToCaller) {
  const auto s = random_structure(40, 0.5, 11);
  PrnaOptions opt;
  opt.num_threads = 4;
  opt.stage1_hook = [](std::size_t a, std::size_t b) {
    if (a == 1 && b == 0) throw std::runtime_error("injected stage-one fault");
  };
  try {
    prna(s, s, opt);
    FAIL() << "expected the injected fault to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected stage-one fault");
  }
}

TEST(Prna, FirstOfManyConcurrentFaultsWins) {
  // Every slice throws; exactly one exception must come back (no terminate,
  // no lost error), and it must be one of the injected ones.
  const auto s = worst_case_structure(60);
  PrnaOptions opt;
  opt.num_threads = 4;
  opt.stage1_hook = [](std::size_t, std::size_t) {
    throw std::runtime_error("injected everywhere");
  };
  try {
    prna(s, s, opt);
    FAIL() << "expected an injected fault to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected everywhere");
  }
}

TEST(Prna, TimelineCoversEveryThreadAndAllCells) {
  const auto s1 = random_structure(60, 0.5, 5);
  const auto s2 = random_structure(55, 0.5, 6);
  PrnaOptions opt;
  opt.num_threads = 3;
  const auto r = prna(s1, s2, opt);

  ASSERT_EQ(r.timeline.size(), 3u);
  std::uint64_t timeline_cells = 0;
  for (std::size_t tid = 0; tid < r.timeline.size(); ++tid) {
    EXPECT_EQ(r.timeline[tid].cells, r.cells_per_thread[tid]);
    EXPECT_GE(r.timeline[tid].busy_seconds, 0.0);
    EXPECT_GE(r.timeline[tid].barrier_wait_seconds, 0.0);
    timeline_cells += r.timeline[tid].cells;
  }
  // Stage one's cells only (stage two tabulates the parent on the calling
  // thread, outside the timeline).
  EXPECT_LE(timeline_cells, r.stats.cells_tabulated);
  EXPECT_GT(timeline_cells, 0u);
}

// --- The barrier-free dependency-driven schedule (kStealing). ---

TEST(PrnaStealing, MatchesSequentialAcrossThreadsAndLayouts) {
  for (const auto layout : {SliceLayout::kDense, SliceLayout::kCompressed}) {
    for (const int threads : {1, 2, 4}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto s1 = random_structure(60, 0.5, 300 + seed);
        const auto s2 = random_structure(55, 0.5, 400 + seed);
        PrnaOptions opt;
        opt.num_threads = threads;
        opt.layout = layout;
        opt.schedule = PrnaSchedule::kStealing;
        opt.validate_memo = true;  // every d2 read must hit a published slice
        const auto got = prna(s1, s2, opt);
        const auto seq = srna2(s1, s2);
        EXPECT_EQ(got.value, seq.value)
            << "threads=" << threads << " seed=" << seed;
        EXPECT_EQ(got.threads_used, threads);
      }
    }
  }
}

TEST(PrnaStealing, BitIdenticalAcrossAllThreeSchedules) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto s1 = random_structure(60, 0.5, 500 + seed);
    const auto s2 = random_structure(58, 0.5, 600 + seed);
    PrnaOptions stat;
    stat.num_threads = 3;
    PrnaOptions steal = stat;
    steal.schedule = PrnaSchedule::kStealing;
    const auto a = prna(s1, s2, stat);
    const auto b = prna(s1, s2, steal);
    EXPECT_EQ(b.value, a.value) << seed;
    EXPECT_EQ(b.stats.cells_tabulated, a.stats.cells_tabulated) << seed;
    EXPECT_EQ(b.stats.slices_tabulated, a.stats.slices_tabulated) << seed;
    EXPECT_EQ(b.stats.arc_match_events, a.stats.arc_match_events) << seed;
  }
}

TEST(PrnaStealing, WorstCaseAcrossThreadCounts) {
  const auto s = worst_case_structure(80);
  for (int t : {1, 2, 4, 8}) {
    PrnaOptions opt;
    opt.num_threads = t;
    opt.schedule = PrnaSchedule::kStealing;
    opt.validate_memo = true;
    EXPECT_EQ(prna(s, s, opt).value, 40) << t << " threads";
  }
}

TEST(PrnaStealing, ManyMoreThreadsThanSlices) {
  const auto s = db("((..))");  // 2 arcs: 4 slices for 8 workers
  PrnaOptions opt;
  opt.num_threads = 8;
  opt.schedule = PrnaSchedule::kStealing;
  opt.validate_memo = true;
  EXPECT_EQ(prna(s, s, opt).value, 2);
}

TEST(PrnaStealing, ReadyPushAccountingMatchesTheDependencyForest) {
  const auto s1 = random_structure(60, 0.6, 71);
  const auto s2 = random_structure(55, 0.6, 72);
  PrnaOptions opt;
  opt.num_threads = 3;
  opt.schedule = PrnaSchedule::kStealing;
  const auto r = prna(s1, s2, opt);

  // Every slice is pushed exactly once: seeded (both arcs leaves of the
  // nesting forest) or pushed when its dependency counter hit zero.
  const ArcForest f1 = build_arc_forest(ArcIndex(s1).all());
  const ArcForest f2 = build_arc_forest(ArcIndex(s2).all());
  std::uint64_t leaves1 = 0, leaves2 = 0;
  for (const auto c : f1.child_count) leaves1 += c == 0 ? 1 : 0;
  for (const auto c : f2.child_count) leaves2 += c == 0 ? 1 : 0;
  const std::uint64_t n_slices =
      static_cast<std::uint64_t>(f1.size()) * static_cast<std::uint64_t>(f2.size());

  std::uint64_t pushes = 0, slices = 0;
  for (const auto& lane : r.timeline) {
    pushes += lane.ready_pushes;
    slices += lane.slices;
    EXPECT_EQ(lane.barrier_wait_seconds, 0.0);  // no barriers anywhere
    EXPECT_GE(lane.steal_idle_seconds, 0.0);
  }
  EXPECT_EQ(pushes, n_slices - leaves1 * leaves2);
  EXPECT_EQ(slices, n_slices);
}

TEST(PrnaStealing, ExceptionPropagatesToCaller) {
  const auto s = random_structure(40, 0.5, 17);
  PrnaOptions opt;
  opt.num_threads = 4;
  opt.schedule = PrnaSchedule::kStealing;
  opt.stage1_hook = [](std::size_t, std::size_t) {
    throw std::runtime_error("injected stealing fault");
  };
  try {
    prna(s, s, opt);
    FAIL() << "expected the injected fault to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected stealing fault");
  }
}

// PrnaStealingShim.* keeps the stealing scheduler's validated-memo and
// oversubscription cases together; under scripts/check_tsan.sh they check the
// Chase-Lev deques and the dependency counters on the shipped thread team.
TEST(PrnaStealingShim, MatchesSequentialUnderStdThreads) {
  // Both layouts: the workers share one read-only slice entry point.
  for (const auto layout : {SliceLayout::kDense, SliceLayout::kCompressed}) {
    for (const int threads : {1, 2, 4}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto s1 = random_structure(50, 0.5, 700 + seed);
        const auto s2 = random_structure(48, 0.5, 800 + seed);
        PrnaOptions opt;
        opt.num_threads = threads;
        opt.layout = layout;
        opt.schedule = PrnaSchedule::kStealing;
        opt.validate_memo = true;
        EXPECT_EQ(prna(s1, s2, opt).value, srna2(s1, s2).value)
            << "threads=" << threads << " seed=" << seed;
      }
    }
  }
}

TEST(PrnaStealingShim, WorstCaseOversubscribed) {
  const auto s = worst_case_structure(70);
  PrnaOptions opt;
  opt.num_threads = 8;
  opt.schedule = PrnaSchedule::kStealing;
  opt.validate_memo = true;
  EXPECT_EQ(prna(s, s, opt).value, 35);
}

TEST(PrnaStealingShim, ExceptionPropagatesUnderStdThreads) {
  const auto s = random_structure(40, 0.5, 19);
  PrnaOptions opt;
  opt.num_threads = 4;
  opt.schedule = PrnaSchedule::kStealing;
  opt.stage1_hook = [](std::size_t a, std::size_t b) {
    if ((a + b) % 3 == 0) throw std::runtime_error("injected shim fault");
  };
  EXPECT_THROW(prna(s, s, opt), std::runtime_error);
}

TEST(Prna, StageOneWorkersInheritTheCallersTraceContext) {
  // Serve stamps a request-scoped trace id on the submitting thread;
  // stage-one workers are team threads that do NOT inherit thread_local
  // state, so prna() re-establishes the context on each worker. Every
  // row/barrier span must carry the caller's id.
  obs::Tracer::instance().disable();
  obs::Tracer::instance().clear();
  obs::Tracer::instance().enable();
  const auto s = worst_case_structure(40);
  {
    const obs::TraceContextScope ctx(777);
    PrnaOptions opt;
    opt.num_threads = 3;
    (void)prna(s, s, opt);
  }
  obs::Tracer::instance().disable();

  const obs::Json doc = obs::Tracer::instance().to_json();
  std::size_t stamped_rows = 0;
  for (const obs::Json& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X") continue;
    if (e.find("cat")->as_string() != "prna") continue;
    const std::string& name = e.find("name")->as_string();
    if (name != "row" && name != "barrier_wait") continue;
    const obs::Json* args = e.find("args");
    ASSERT_NE(args, nullptr) << name;
    ASSERT_TRUE(args->contains("trace_id")) << name;
    EXPECT_EQ(args->find("trace_id")->as_uint(), 777u);
    if (name == "row") ++stamped_rows;
  }
  // Multiple workers over multiple rows all stamped the id.
  EXPECT_GT(stamped_rows, 3u);
  obs::Tracer::instance().clear();
}

TEST(Prna, NoContextMeansNoTraceIdInSpans) {
  obs::Tracer::instance().disable();
  obs::Tracer::instance().clear();
  obs::Tracer::instance().enable();
  PrnaOptions opt;
  opt.num_threads = 2;
  (void)prna(worst_case_structure(30), worst_case_structure(30), opt);
  obs::Tracer::instance().disable();
  const obs::Json doc = obs::Tracer::instance().to_json();
  for (const obs::Json& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X") continue;
    if (const obs::Json* args = e.find("args"); args != nullptr)
      EXPECT_FALSE(args->contains("trace_id"));
  }
  obs::Tracer::instance().clear();
}

TEST(Prna, ResultToJsonRoundTrips) {
  const auto s = random_structure(50, 0.5, 7);
  PrnaOptions opt;
  opt.num_threads = 2;
  const auto r = prna(s, s, opt);

  const auto parsed = obs::Json::parse(r.to_json().dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("value")->as_int(), static_cast<std::int64_t>(r.value));
  EXPECT_EQ(parsed->find("threads_used")->as_int(), 2);
  EXPECT_EQ(parsed->find("stats")->find("cells_tabulated")->as_uint(),
            r.stats.cells_tabulated);
  const obs::Json* lanes = parsed->find("timeline");
  ASSERT_NE(lanes, nullptr);
  ASSERT_EQ(lanes->items().size(), 2u);
  EXPECT_EQ(lanes->items()[0].find("cells")->as_uint(), r.timeline[0].cells);
}

}  // namespace
}  // namespace srna
