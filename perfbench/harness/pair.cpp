// pair-worstcase and pair-rrna: repeated solves of one pinned pair.
//
//   pair-worstcase  sequential srna2 on the Table I contrived worst case,
//                   n = 400 (expected MCOS 200)
//   pair-rrna       the Table II pair; each repetition interleaves one
//                   single-thread srna2 solve with one prna-steal solve at
//                   min(4, CPUs) threads (expected MCOS 596)
//
// The untraced run times the solves only. The traced run alternates traced
// and untraced repetitions and adds the layer probes.
#include <sched.h>

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "common.hpp"
#include "core/mcos.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "parallel/prna.hpp"
#include "probes.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/formats.hpp"
#include "rna/generators.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

using namespace srna;

struct PairInput {
  SecondaryStructure s1;
  SecondaryStructure s2;
  Score expected = 0;
  bool parallel = false;  // also solve with prna-steal
};

PairInput load_pair(const Options& options) {
  PairInput input;
  if (options.workload == "pair-worstcase") {
    input.s1 = worst_case_structure(400);
    input.s2 = input.s1;
    input.expected = 200;
  } else if (options.workload == "pair-rrna") {
    input.s1 = read_structure_file(options.data_dir + "/fungus_23s_like.ct").structure;
    input.s2 = read_structure_file(options.data_dir + "/malaria_23s_like.ct").structure;
    input.expected = 596;
    input.parallel = true;
  } else {
    throw std::invalid_argument("unknown pair workload '" + options.workload + "'");
  }
  return input;
}

// prna-steal's thread count: min(4, the CPUs this process may run on).
int parallel_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(cpus, 1, 4);
}

double seconds_since(std::uint64_t begin_ns) {
  return static_cast<double>(now_ns() - begin_ns) * 1e-9;
}

double sum_lanes(const obs::Json& detail, const char* key) {
  double total = 0;
  if (const obs::Json* lanes = detail.find("timeline"))
    for (const obs::Json& lane : lanes->items())
      if (const obs::Json* value = lane.find(key)) total += value->as_double();
  return total;
}

// Lays the solver phases a solve reported out as child spans of the open
// solve_with span, so the engine's self time is dispatch alone.
void add_phase_spans(Trace& trace, std::uint64_t begin_ns, const McosStats& stats,
                     const char* stage1_name) {
  if (!trace.enabled()) return;
  std::uint64_t at = begin_ns;
  for (const auto& [name, seconds] : {std::pair{"core.preprocess", stats.preprocess_seconds},
                                      std::pair{stage1_name, stats.stage1_seconds},
                                      std::pair{"core.stage2", stats.stage2_seconds}}) {
    const std::uint64_t end = at + static_cast<std::uint64_t>(seconds * 1e9);
    trace.add(name, at, end);
    at = end;
  }
}

struct StageSamples {
  std::vector<double> preprocess, stage1, stage2;
  McosStats last;

  void add(const McosStats& stats) {
    preprocess.push_back(stats.preprocess_seconds);
    stage1.push_back(stats.stage1_seconds);
    stage2.push_back(stats.stage2_seconds);
    last = stats;
  }
};

}  // namespace

int run_pair(const Options& options) {
  const PairInput input = load_pair(options);
  Workspace workspace;
  if (options.setup_only) {
    // Set-up is input loading plus shaping the solver's memo table; the
    // caller times this whole process.
    workspace.memo(input.s1.length(), input.s2.length(), 0);
    std::cout << "{\"ready\": true}" << std::endl;
    return 0;
  }

  const SolverBackend& sequential = McosEngine::instance().at("srna2");
  const SolverBackend& stealing = McosEngine::instance().at("prna-steal");
  const SolverConfig sequential_config;
  SolverConfig parallel_config;
  parallel_config.threads = parallel_threads();

  Trace trace(options.trace);
  Trace untraced(false);
  Metrics layers;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto check = [&](Score value) {
    ++attempted;
    if (value != input.expected) {
      ++failed;
      std::cerr << options.workload << ": wrong MCOS " << value << ", expected "
                << input.expected << "\n";
    }
  };

  // Warm-up: one untimed solve per solver, so pooled workspaces are shaped
  // before timing starts.
  check(solve_with(sequential, input.s1, input.s2, sequential_config, workspace).value);
  if (input.parallel)
    check(solve_with(stealing, input.s1, input.s2, parallel_config, workspace).value);

  if (options.trace) {
    const double probe_budget = 0.5;
    {
      const Trace::Scope span(trace, "core.srna2");
      const McosResult direct = srna2(input.s1, input.s2, sequential_config.to_mcos(), workspace);
      check(direct.value);
    }
    const KernelRungs rungs =
        time_kernel_rungs(input.s1, input.s2, workspace, 2 * probe_budget, trace);
    layers.set("core.kernel.ns_per_cell", rungs.ns_per_cell);
    layers.set("core.kernel.memo_ns_per_cell", rungs.memo_ns_per_cell);
    layers.set("core.kernel.bytes_per_cell", rungs.bytes_per_cell);
    const PreprocessTimes prep = time_preprocess(input.s1, input.s2, probe_budget / 2, trace);
    layers.set("core.arc_index_us", prep.arc_index_us);
    layers.set("core.column_events_us", prep.column_events_us);
    layers.set("engine.dispatch_us", time_dispatch_us(probe_budget, trace));
    if (input.parallel) {
      const Trace::Scope span(trace, "parallel.prna");
      PrnaOptions prna_options = parallel_config.to_prna();
      prna_options.schedule = PrnaSchedule::kStealing;
      check(prna(input.s1, input.s2, prna_options, workspace).value);
    }
    serve::ServeRequest request;
    request.id = 1;
    request.a = to_dot_bracket(input.s1);
    request.b = to_dot_bracket(input.s2);
    serve::ServeResponse response;
    response.id = 1;
    response.status = serve::ResponseStatus::kOk;
    response.value = input.expected;
    response.algorithm = "srna2";
    const CodecTimes codec =
        time_codec({request.to_line()}, {response.to_line()}, probe_budget / 2, trace);
    layers.set("serve.parse_us", codec.parse_us);
    layers.set("serve.render_us", codec.render_us);
  }

  // Timed repetitions. A new repetition starts only while time remains.
  std::vector<double> sequential_s, parallel_s, traced_s, untraced_s;
  StageSamples stages;
  std::vector<double> busy_s, idle_fraction, steals;
  const std::uint64_t begin = now_ns();
  for (std::size_t rep = 0; rep == 0 || seconds_since(begin) < options.seconds; ++rep) {
    // The traced run records every other repetition, so the two halves give
    // the tracing overhead.
    const bool record = options.trace && rep % 2 == 0;
    Trace& active = record ? trace : untraced;
    const std::uint64_t rep_begin = now_ns();
    const Trace::Scope rep_span(active, "bench.repetition");
    {
      const Trace::Scope span(active, "engine.solve_with.srna2");
      const std::uint64_t t0 = now_ns();
      const EngineResult r =
          solve_with(sequential, input.s1, input.s2, sequential_config, workspace);
      sequential_s.push_back(seconds_since(t0));
      check(r.value);
      stages.add(r.stats);
      add_phase_spans(active, t0, r.stats, "core.stage1");
    }
    if (input.parallel) {
      const Trace::Scope span(active, "engine.solve_with.prna-steal");
      const std::uint64_t t0 = now_ns();
      const EngineResult r = solve_with(stealing, input.s1, input.s2, parallel_config, workspace);
      parallel_s.push_back(seconds_since(t0));
      check(r.value);
      add_phase_spans(active, t0, r.stats, "parallel.stage1");
      const double busy = sum_lanes(r.detail, "busy_seconds");
      const double wall = sum_lanes(r.detail, "wall_seconds");
      busy_s.push_back(busy);
      idle_fraction.push_back(wall > 0 ? sum_lanes(r.detail, "steal_idle_seconds") / wall : 0);
      steals.push_back(sum_lanes(r.detail, "steals"));
    }
    (record ? traced_s : untraced_s).push_back(seconds_since(rep_begin));
  }

  const std::vector<double>& headline = input.parallel ? parallel_s : sequential_s;
  if (options.trace) {
    const McosStats& last = stages.last;
    const double cells = static_cast<double>(last.cells_tabulated);
    layers.set("core.preprocess_s", median(stages.preprocess));
    layers.set("core.stage1_s", median(stages.stage1));
    layers.set("core.stage2_s", median(stages.stage2));
    layers.set("core.ns_per_cell", cells > 0 ? median(stages.stage1) * 1e9 / cells : 0);
    layers.set("core.cells", cells);
    layers.set("core.slices", static_cast<double>(last.slices_tabulated));
    layers.set("core.arc_events", static_cast<double>(last.arc_match_events));
    layers.set("core.memo_bytes", static_cast<double>(workspace.memo_bytes()));
    auto& registry = obs::Registry::instance();
    layers.set("engine.workspace_alloc_bytes",
               static_cast<double>(registry.counter("engine.workspace_alloc_bytes").value()));
    layers.set("engine.workspace_reuse",
               static_cast<double>(registry.counter("engine.workspace_reuse").value()));
    layers.set("parallel.busy_s", median(busy_s));
    layers.set("parallel.idle_fraction", median(idle_fraction));
    layers.set("parallel.steals", median(steals));
    const double untraced_median = median(untraced_s);
    layers.set("obs.trace_overhead_ratio",
               untraced_median > 0 ? median(traced_s) / untraced_median : 1.0);
    if (!options.trace_out.empty() && !trace.write_chrome(options.trace_out))
      throw std::runtime_error("cannot write " + options.trace_out);
  }

  std::cout << "{\"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"solve_s\": " << json_array(headline)
            << ", \"solve_1t_s\": " << json_array(sequential_s)
            << ", \"rss_peak_mb\": " << self_rss_peak_mb() << ", \"layers\": " << layers.json()
            << "}" << std::endl;
  return 0;
}

}  // namespace perfbench
