// Layer probes: timings of single library layers on a workload's own inputs,
// taken by the traced run only.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/workspace.hpp"
#include "rna/secondary_structure.hpp"

namespace perfbench {

struct KernelRungs {
  double ns_per_cell = 0;       // rung 1: zero-cost d2
  double memo_ns_per_cell = 0;  // rung 2: d2 read from the filled memo table
  double bytes_per_cell = 0;    // computed: (grid cells + memo gathers) * cell size / cells
};

// Times the dense slice kernel on the largest slice of (s1, s2) — the parent
// slice — with both d2 closures. `solved` must hold the memo table of an
// srna2 solve of exactly (s1, s2).
KernelRungs time_kernel_rungs(const srna::SecondaryStructure& s1,
                              const srna::SecondaryStructure& s2, srna::Workspace& solved,
                              double budget_seconds, Trace& trace);

// Median per-call cost of ArcIndex construction and ColumnEvents::build on
// (s1, s2), in microseconds.
struct PreprocessTimes {
  double arc_index_us = 0;
  double column_events_us = 0;
};
PreprocessTimes time_preprocess(const srna::SecondaryStructure& s1,
                                const srna::SecondaryStructure& s2, double budget_seconds,
                                Trace& trace);

// engine::solve_with minus a direct srna2(..., workspace) call, median over
// alternating calls on a small pair, in microseconds.
double time_dispatch_us(double budget_seconds, Trace& trace);

// Median microseconds per serve::parse_request over `request_lines` and per
// ServeResponse::to_line over the parsed `response_lines`.
struct CodecTimes {
  double parse_us = 0;
  double render_us = 0;
};
CodecTimes time_codec(const std::vector<std::string>& request_lines,
                      const std::vector<std::string>& response_lines, double budget_seconds,
                      Trace& trace);

}  // namespace perfbench
