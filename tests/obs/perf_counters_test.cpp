// Counter degradation and memory-ledger coverage.
//
// The contract under test: hardware counters may be unavailable (seccomp,
// perf_event_paranoid, non-Linux, or the SRNA_DISABLE_PERF_COUNTERS knob)
// and nothing downstream — solves, reports, the Prometheus exposition —
// may degrade beyond an explicit availability=false. These tests force the
// stub path via the env knob, so they pass identically on hosts with and
// without a PMU.
#include "obs/perf/perf_counters.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/memory.hpp"
#include "parallel/prna.hpp"
#include "rna/generators.hpp"

namespace srna::obs {
namespace {

// Sets SRNA_DISABLE_PERF_COUNTERS=1 for the test body and restores the
// previous state after — the knob is re-read at every CounterScope start,
// so no pooled state needs resetting.
class DisabledCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("SRNA_DISABLE_PERF_COUNTERS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv("SRNA_DISABLE_PERF_COUNTERS", "1", 1);
    Registry::instance().reset();
  }
  void TearDown() override {
    if (had_prev_)
      ::setenv("SRNA_DISABLE_PERF_COUNTERS", prev_.c_str(), 1);
    else
      ::unsetenv("SRNA_DISABLE_PERF_COUNTERS");
    Registry::instance().reset();
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST_F(DisabledCountersTest, EnvKnobForcesTheStubPath) {
  EXPECT_TRUE(CounterSet::disabled_by_env());
  CounterScope scope("test_phase");
  EXPECT_FALSE(scope.active());
  const CounterSample delta = scope.close();
  EXPECT_FALSE(delta.available);
  EXPECT_EQ(delta.cycles, 0u);
  EXPECT_EQ(delta.instructions, 0u);
}

TEST_F(DisabledCountersTest, StubScopeTouchesNoRegistryCounters) {
  { CounterScope scope("stub_phase"); }
  EXPECT_EQ(Registry::instance().counter("perf.stub_phase.cycles").value(), 0u);
}

TEST_F(DisabledCountersTest, AvailabilityGaugePublishesZero) {
  publish_counter_availability();
  EXPECT_EQ(Registry::instance().gauge("perf.available").value(), 0.0);
}

TEST_F(DisabledCountersTest, UnavailableSampleJsonIsExplicit) {
  CounterScope scope("json_phase");
  const Json doc = scope.close().to_json();
  const Json* available = doc.find("available");
  ASSERT_NE(available, nullptr);
  EXPECT_FALSE(available->as_bool());
  ASSERT_NE(doc.find("ipc"), nullptr);
  EXPECT_EQ(doc.find("ipc")->as_double(), 0.0);
  // counter_trace_args must stay parseable JSON in the stub path too.
  const auto parsed = Json::parse(counter_trace_args(CounterSample{}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_object());
}

TEST_F(DisabledCountersTest, SolveAndExpositionStayWellFormedWithoutCounters) {
  // A real parallel solve through the instrumented phases: the stub must be
  // inert (correct value, complete timeline JSON, renderable exposition).
  const auto s = worst_case_structure(32);
  PrnaOptions options;
  options.num_threads = 2;
  options.schedule = PrnaSchedule::kStealing;
  const PrnaResult result = prna(s, s, options);
  EXPECT_EQ(result.value, 16);

  const Json doc = result.to_json();
  const Json* timeline = doc.find("timeline");
  ASSERT_NE(timeline, nullptr);
  for (const Json& lane : timeline->items()) {
    ASSERT_NE(lane.find("wall_seconds"), nullptr);
    ASSERT_NE(lane.find("steal_idle_fraction"), nullptr);
    EXPECT_GE(lane.find("wall_seconds")->as_double(), 0.0);
    EXPECT_GE(lane.find("steal_idle_fraction")->as_double(), 0.0);
    EXPECT_LE(lane.find("steal_idle_fraction")->as_double(), 1.0 + 1e-9);
  }

  // No perf.prna.* counters were bumped, and the exposition still renders.
  EXPECT_EQ(Registry::instance().counter("perf.prna.stage1.cycles").value(), 0u);
  publish_counter_availability();
  const std::string body = render_prometheus();
  EXPECT_NE(body.find("srna_perf_available 0\n"), std::string::npos);
}

TEST(CounterSampleTest, DeltaSinceSaturatesAndRequiresBothSides) {
  CounterSample later;
  later.available = true;
  later.cycles = 100;
  later.instructions = 50;
  CounterSample earlier;
  earlier.available = true;
  earlier.cycles = 150;  // counter appeared to go backwards (multiplexing)
  earlier.instructions = 10;
  const CounterSample d = later.delta_since(earlier);
  EXPECT_TRUE(d.available);
  EXPECT_EQ(d.cycles, 0u);  // saturating, never wraps
  EXPECT_EQ(d.instructions, 40u);

  earlier.available = false;
  EXPECT_FALSE(later.delta_since(earlier).available);
}

TEST(CounterSampleTest, DerivedRatesGuardZeroDenominators) {
  CounterSample s;
  EXPECT_EQ(s.ipc(), 0.0);
  EXPECT_EQ(s.cache_miss_rate(), 0.0);
  s.cycles = 200;
  s.instructions = 400;
  s.cache_references = 100;
  s.cache_misses = 25;
  EXPECT_DOUBLE_EQ(s.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(s.cache_miss_rate(), 0.25);
}

TEST(MemoryLedgerTest, RssReadersAndLedgerFieldsAreSane) {
  const std::size_t current = current_rss_bytes();
  const std::size_t peak = peak_rss_bytes();
#if defined(__linux__)
  EXPECT_GT(current, 0u);
  EXPECT_GT(peak, 0u);
#endif
  update_memory_gauges();
  const Json ledger = memory_ledger_json();
  for (const char* field :
       {"current_rss_bytes", "peak_rss_bytes", "memo_table_bytes",
        "slice_scratch_bytes", "event_table_bytes", "workspace_peak_bytes",
        "workspace_trims", "lean_store_peak_bytes", "result_cache_bytes",
        "serve_memory_budget_bytes", "serve_memory_reserved_bytes",
        "serve_memory_reserved_peak_bytes"}) {
    ASSERT_NE(ledger.find(field), nullptr) << field;
    EXPECT_GE(ledger.find(field)->as_double(), 0.0) << field;
  }
  // The peak gauge is a high watermark: it never reads below the current.
  EXPECT_GE(Registry::instance().gauge("mem.peak_rss_bytes").value(),
            0.0);
}

}  // namespace
}  // namespace srna::obs
