// srna-profile — parallel execution analyzer.
//
// Runs the PRNA solve on the Table I worst-case pair under hardware
// counters, computes the slice-DAG critical path from the measured costs,
// and prints measured speedup next to the Brent-bound ceiling for each
// thread count — one table that says whether the gap to ideal scaling is
// schedule overhead (measured below simulated), dependency structure
// (ceiling itself is low), or hardware (low IPC / high miss rate).
//
//   srna-profile                         # L=400, threads 1,2,4, stealing
//   srna-profile --length=800 --threads=1,2,4,8 --schedule=static
//   srna-profile --smoke                 # tiny instance, for the test suite
//
// Writes BENCH_parallel_analysis.json (override with --report=..., skip
// with --report=none) in the repo's bench trajectory format: a "rows" array
// keyed by threads plus the "parallel_analysis" block, gated by
// scripts/check_bench_report.sh like every other BENCH_*.json series.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "obs/cpath/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/memory.hpp"
#include "obs/perf/perf_counters.hpp"
#include "obs/report.hpp"
#include "rna/generators.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

namespace {

using namespace srna;

// Registry totals for one perf.<phase>.* family; value() sums all threads'
// shards, so stage-one numbers aggregate every worker lane.
struct PhaseCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;

  static PhaseCounters read(const std::string& phase) {
    auto& reg = obs::Registry::instance();
    const std::string prefix = "perf." + phase;
    PhaseCounters c;
    c.cycles = reg.counter(prefix + ".cycles").value();
    c.instructions = reg.counter(prefix + ".instructions").value();
    c.cache_references = reg.counter(prefix + ".cache_references").value();
    c.cache_misses = reg.counter(prefix + ".cache_misses").value();
    c.branch_misses = reg.counter(prefix + ".branch_misses").value();
    return c;
  }

  PhaseCounters delta_since(const PhaseCounters& earlier) const {
    PhaseCounters d;
    d.cycles = cycles - earlier.cycles;
    d.instructions = instructions - earlier.instructions;
    d.cache_references = cache_references - earlier.cache_references;
    d.cache_misses = cache_misses - earlier.cache_misses;
    d.branch_misses = branch_misses - earlier.branch_misses;
    return d;
  }

  [[nodiscard]] double ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) / static_cast<double>(cycles) : 0.0;
  }
  [[nodiscard]] double miss_rate() const {
    return cache_references > 0
               ? static_cast<double>(cache_misses) / static_cast<double>(cache_references)
               : 0.0;
  }

  [[nodiscard]] obs::Json to_json() const {
    obs::Json doc = obs::Json::object();
    doc.set("cycles", obs::Json(cycles));
    doc.set("instructions", obs::Json(instructions));
    doc.set("cache_references", obs::Json(cache_references));
    doc.set("cache_misses", obs::Json(cache_misses));
    doc.set("branch_misses", obs::Json(branch_misses));
    doc.set("ipc", obs::Json(ipc()));
    doc.set("cache_miss_rate", obs::Json(miss_rate()));
    return doc;
  }
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("srna-profile",
                "run a PRNA solve under hardware counters and print measured "
                "speedup against the slice-DAG Brent-bound ceiling");
  cli.add_option("length", "worst-case sequence length (Table I pair, self-comparison)",
                 "400");
  cli.add_option("threads", "thread counts to measure", "1,2,4");
  cli.add_option("schedule", "stealing (backend prna-steal) | static (backend prna)",
                 "stealing");
  cli.add_option("report",
                 "run-report path (default BENCH_parallel_analysis.json; none = skip)", "");
  cli.add_flag("smoke", "tiny fast instance (L=64, threads 1,2, no report) for the "
               "test suite");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.flag("smoke");
  const Pos length = smoke ? Pos{64} : static_cast<Pos>(cli.integer("length"));
  std::vector<int> threads;
  if (smoke) {
    threads = {1, 2};
  } else {
    for (const auto t : cli.int_list("threads"))
      if (t >= 1) threads.push_back(static_cast<int>(t));
  }
  if (threads.empty() || threads.front() != 1) threads.insert(threads.begin(), 1);

  // Both backends run prna(), so the phase names below are the same.
  const std::string schedule_name = cli.str("schedule");
  const char* backend_name = schedule_name == "static"     ? "prna"
                             : schedule_name == "stealing" ? "prna-steal"
                                                           : nullptr;
  if (backend_name == nullptr) {
    std::fprintf(stderr, "unknown --schedule '%s'\n", schedule_name.c_str());
    return 1;
  }
  SolverConfig config;

  obs::publish_counter_availability();
  const bool perf_available =
      !obs::CounterSet::disabled_by_env() && obs::CounterSet::local().available();

  const SecondaryStructure s = worst_case_structure(length);
  const auto& backend = McosEngine::instance().at(backend_name);

  obs::RunReport report("srna-profile");
  report.set_command_line(argc, argv);
  {
    obs::Json params = obs::Json::object();
    params.set("length", obs::Json(static_cast<std::int64_t>(length)));
    params.set("arcs", obs::Json(static_cast<std::uint64_t>(s.arc_count())));
    params.set("schedule", obs::Json(schedule_name));
    params.set("perf_counters_available", obs::Json(perf_available));
    report.set("parameters", std::move(params));
  }

  // --- Measured runs, one per thread count (the 1-thread run doubles as
  // the cost-model calibration: seconds per cell + serial phase time). ---
  struct Measured {
    int threads = 1;
    double wall_seconds = 0.0;
    McosStats stats;
    PhaseCounters stage1;
    Score value = 0;
  };
  std::vector<Measured> runs;
  const char* kPhases[] = {"prna.preprocess", "prna.stage1", "prna.stage2"};
  obs::Json phase_rows = obs::Json::array();
  for (const int k : threads) {
    config.threads = k;
    PhaseCounters before[3];
    for (int i = 0; i < 3; ++i) before[i] = PhaseCounters::read(kPhases[i]);
    WallTimer timer;
    const EngineResult r = solve_with(backend, s, s, config, Workspace::local());
    Measured m;
    m.threads = k;
    m.wall_seconds = timer.seconds();
    m.stats = r.stats;
    m.value = r.value;
    m.stage1 = PhaseCounters::read("prna.stage1").delta_since(before[1]);
    for (int i = 0; i < 3; ++i) {
      obs::Json row = PhaseCounters::read(kPhases[i]).delta_since(before[i]).to_json();
      row.set("phase", obs::Json(std::string(kPhases[i])));
      row.set("threads", obs::Json(static_cast<std::int64_t>(k)));
      row.set("available", obs::Json(perf_available));
      phase_rows.push(std::move(row));
    }
    runs.push_back(std::move(m));
  }
  report.set("phase_counters", std::move(phase_rows));

  // --- Cost model from the 1-thread run; critical path + Brent bounds. ---
  const Measured& base = runs.front();
  const double seconds_per_cell =
      base.stats.cells_tabulated > 0
          ? base.stats.stage1_seconds / static_cast<double>(base.stats.cells_tabulated)
          : 0.0;
  const double serial_seconds =
      base.stats.preprocess_seconds + base.stats.stage2_seconds;
  const obs::ParallelAnalysis analysis =
      obs::analyze_parallel(s, s, seconds_per_cell, serial_seconds, threads);
  report.set("parallel_analysis", analysis.to_json());

  // --- The table: measured vs ceiling vs simulated, plus stage-one IPC and
  // cache behavior (or an explicit "counters unavailable" note). ---
  std::printf("srna-profile: L=%d worst-case pair (%zu arcs), schedule=%s\n",
              static_cast<int>(length), static_cast<std::size_t>(s.arc_count()),
              schedule_name.c_str());
  std::printf("stage one: %zu slices, work %.4f s, critical path %.4f s "
              "(%zu slices deep), parallelism %.2f, serial %.4f s\n",
              analysis.slices, analysis.total_work_seconds,
              analysis.critical_path_seconds, analysis.critical_path_slices,
              analysis.parallelism, analysis.serial_seconds);
  if (!perf_available)
    std::printf("hardware counters unavailable (perf_event_open denied or "
                "SRNA_DISABLE_PERF_COUNTERS=1); cycle columns read 0\n");

  TablePrinter table({"threads", "wall[s]", "speedup", "ceiling", "simulated",
                      "s1 cycles", "s1 IPC", "s1 miss%"});
  obs::Json rows = obs::Json::array();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Measured& m = runs[i];
    const double speedup = m.wall_seconds > 0 ? base.wall_seconds / m.wall_seconds : 0.0;
    const obs::CpathThreadRow& bound = analysis.rows[i];
    table.add_row({std::to_string(m.threads), fixed(m.wall_seconds, 4), fixed(speedup, 2),
                   fixed(bound.ceiling_speedup, 2), fixed(bound.simulated_speedup, 2),
                   std::to_string(m.stage1.cycles), fixed(m.stage1.ipc(), 2),
                   fixed(100.0 * m.stage1.miss_rate(), 1)});
    obs::Json row = obs::Json::object();
    row.set("threads", obs::Json(static_cast<std::int64_t>(m.threads)));
    row.set("wall_seconds", obs::Json(m.wall_seconds));
    row.set("speedup", obs::Json(speedup));
    row.set("ceiling_speedup", obs::Json(bound.ceiling_speedup));
    row.set("simulated_speedup", obs::Json(bound.simulated_speedup));
    row.set("value", obs::Json(static_cast<std::int64_t>(m.value)));
    row.set("stage1_cycles", obs::Json(m.stage1.cycles));
    row.set("stage1_instructions", obs::Json(m.stage1.instructions));
    row.set("stage1_ipc", obs::Json(m.stage1.ipc()));
    row.set("stage1_cache_miss_rate", obs::Json(m.stage1.miss_rate()));
    row.set("perf_available", obs::Json(perf_available));
    rows.push(std::move(row));
  }
  table.print(std::cout);
  report.set("rows", std::move(rows));

  // Memory ledger: what the solves cost in bytes (engine gauges were set by
  // solve_with; RSS is sampled here).
  report.set("memory", obs::memory_ledger_json());
  report.add_metrics_snapshot();

  const std::string report_arg = cli.str("report");
  if (smoke && report_arg.empty()) return 0;  // --smoke writes nothing by default
  if (report_arg == "none") return 0;
  const std::string target =
      report_arg.empty() ? "BENCH_parallel_analysis.json" : report_arg;
  if (!report.write(target)) {
    std::fprintf(stderr, "cannot write %s\n", target.c_str());
    return 1;
  }
  std::printf("wrote %s\n", target.c_str());
  return 0;
}
