#include "probes.hpp"

#include <stdexcept>

#include "core/arc_index.hpp"
#include "core/mcos.hpp"
#include "core/tabulate_slice.hpp"
#include "engine/engine.hpp"
#include "rna/generators.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

// Runs `body` repeatedly until `budget_seconds` pass (at least `min_reps`
// times) and returns the median seconds per call.
template <typename Body>
double median_seconds(double budget_seconds, int min_reps, Body&& body) {
  std::vector<double> samples;
  const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget_seconds * 1e9);
  while (static_cast<int>(samples.size()) < min_reps || now_ns() < stop) {
    const std::uint64_t begin = now_ns();
    body();
    samples.push_back(static_cast<double>(now_ns() - begin) * 1e-9);
  }
  return median(std::move(samples));
}

}  // namespace

KernelRungs time_kernel_rungs(const srna::SecondaryStructure& s1,
                              const srna::SecondaryStructure& s2, srna::Workspace& solved,
                              double budget_seconds, Trace& trace) {
  using namespace srna;
  const SliceBounds bounds{0, s1.length() - 1, 0, s2.length() - 1};
  ColumnEvents events;
  events.build(s2);
  Workspace scratch;
  const SliceKernel kernel = scratch.slice_kernel(KernelVariant::kAuto);
  Matrix<Score> grid;
  const MemoTable& memo = solved.memo();
  const auto zero_d2 = [](Pos, Pos, Pos, Pos) { return Score{0}; };
  const auto memo_d2 = [&memo](Pos k1, Pos, Pos k2, Pos) { return memo.get(k1 + 1, k2 + 1); };

  McosStats stats;
  tabulate_slice_dense(s1, s2, events, bounds, grid, kernel, memo_d2, &stats);
  const auto cells = static_cast<double>(stats.cells_tabulated);
  if (cells <= 0) throw std::runtime_error("kernel probe: empty slice");

  Score sink = 0;
  KernelRungs rungs;
  {
    const Trace::Scope span(trace, "core.kernel.zero_d2");
    rungs.ns_per_cell = median_seconds(budget_seconds / 2, 5, [&] {
      sink ^= tabulate_slice_dense(s1, s2, events, bounds, grid, kernel, zero_d2);
    }) * 1e9 / cells;
  }
  {
    const Trace::Scope span(trace, "core.kernel.memo_d2");
    rungs.memo_ns_per_cell = median_seconds(budget_seconds / 2, 5, [&] {
      sink ^= tabulate_slice_dense(s1, s2, events, bounds, grid, kernel, memo_d2);
    }) * 1e9 / cells;
  }
  // Each cell is written once and each arc-match event gathers one memo entry.
  rungs.bytes_per_cell = static_cast<double>(sizeof(Score)) *
                         (cells + static_cast<double>(stats.arc_match_events)) / cells;
  if (sink == -1) throw std::runtime_error("kernel probe: impossible value");
  return rungs;
}

PreprocessTimes time_preprocess(const srna::SecondaryStructure& s1,
                                const srna::SecondaryStructure& s2, double budget_seconds,
                                Trace& trace) {
  using namespace srna;
  PreprocessTimes times;
  std::size_t sink = 0;
  {
    const Trace::Scope span(trace, "core.arc_index");
    times.arc_index_us = median_seconds(budget_seconds / 2, 5, [&] {
      const ArcIndex idx1(s1);
      const ArcIndex idx2(s2);
      sink += idx1.size() + idx2.size();
    }) * 1e6;
  }
  {
    const Trace::Scope span(trace, "core.column_events");
    ColumnEvents events;
    times.column_events_us = median_seconds(budget_seconds / 2, 5, [&] {
      sink += events.build(s2).events.size();
    }) * 1e6;
  }
  if (sink == 0) throw std::runtime_error("preprocess probe: no arcs");
  return times;
}

double time_dispatch_us(double budget_seconds, Trace& trace) {
  using namespace srna;
  const SecondaryStructure a = random_structure(24, 0.4, 11);
  const SecondaryStructure b = random_structure(24, 0.4, 12);
  const SolverBackend& backend = McosEngine::instance().at("srna2");
  const SolverConfig config;
  const McosOptions options = config.to_mcos();
  Workspace engine_ws;
  Workspace direct_ws;
  std::vector<double> engine_s;
  std::vector<double> direct_s;
  const Trace::Scope span(trace, "engine.dispatch_probe");
  const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget_seconds * 1e9);
  while (engine_s.size() < 100 || now_ns() < stop) {
    std::uint64_t t0 = now_ns();
    const Score via_engine = solve_with(backend, a, b, config, engine_ws).value;
    std::uint64_t t1 = now_ns();
    const Score direct = srna2(a, b, options, direct_ws).value;
    std::uint64_t t2 = now_ns();
    if (via_engine != direct) throw std::runtime_error("dispatch probe: engine and srna2 disagree");
    engine_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    direct_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  }
  return (median(engine_s) - median(direct_s)) * 1e6;
}

CodecTimes time_codec(const std::vector<std::string>& request_lines,
                      const std::vector<std::string>& response_lines, double budget_seconds,
                      Trace& trace) {
  using namespace srna;
  CodecTimes times;
  std::size_t sink = 0;
  if (!request_lines.empty()) {
    const Trace::Scope span(trace, "serve.parse_request");
    times.parse_us = median_seconds(budget_seconds / 2, 5, [&] {
      for (const std::string& line : request_lines) sink += serve::parse_request(line).a.size();
    }) * 1e6 / static_cast<double>(request_lines.size());
  }
  if (!response_lines.empty()) {
    std::vector<serve::ServeResponse> responses;
    responses.reserve(response_lines.size());
    for (const std::string& line : response_lines)
      responses.push_back(serve::ServeResponse::from_line(line));
    const Trace::Scope span(trace, "serve.render_response");
    times.render_us = median_seconds(budget_seconds / 2, 5, [&] {
      for (const serve::ServeResponse& response : responses) sink += response.to_line().size();
    }) * 1e6 / static_cast<double>(responses.size());
  }
  if (sink == 0) throw std::runtime_error("codec probe: empty lines");
  return times;
}

}  // namespace perfbench
