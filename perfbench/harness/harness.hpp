// Entry points of the benchmark harness's modes (see main.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  std::string data_dir = "data";
  std::string plan;       // serve-fleet: plan file written by fleet-prep, read by fleet-gen
  std::string trace_out;  // Chrome-trace JSON path for traced runs (empty = none)
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  int port = 0;
};

// pair-worstcase / pair-rrna: repeated solves; prints one JSON result line.
int run_pair(const Options& options);

// serve-fleet set-up: generates the request plan from the seed, computes every
// expected answer with srna2, writes the plan file; prints one JSON line.
int run_fleet_prep(const Options& options);

// serve-fleet measurement: the open-loop generator against a running router.
int run_fleet_gen(const Options& options);

}  // namespace perfbench
