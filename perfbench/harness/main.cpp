// perfbench-harness — the compiled half of the repository benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   perfbench-harness pair      --workload=pair-worstcase|pair-rrna [--setup-only]
//   perfbench-harness fleet-prep --plan=FILE
//   perfbench-harness fleet-gen  --plan=FILE --port=P
//
// Common flags: --seed=N --seconds=S --trace=0|1 --trace-out=FILE --data=DIR.
// Each mode prints one JSON object as its last stdout line; diagnostics go
// to stderr. Exit code 0 on success, 2 on a usage error, 1 on any other
// failure.
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace {

perfbench::Options parse_options(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + arg);
    const std::string key = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "workload") options.workload = value;
    else if (key == "data") options.data_dir = value;
    else if (key == "plan") options.plan = value;
    else if (key == "trace-out") options.trace_out = value;
    else if (key == "seed") options.seed = std::stoull(value);
    else if (key == "seconds") options.seconds = std::stod(value);
    else if (key == "trace") options.trace = value == "1";
    else if (key == "setup-only") options.setup_only = true;
    else if (key == "port") options.port = std::stoi(value);
    else throw std::invalid_argument("unknown flag --" + key);
  }
  if (options.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench-harness pair|fleet-prep|fleet-gen [--flag=value...]\n";
    return 2;
  }
  const std::string mode = argv[1];
  perfbench::Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench-harness: " << e.what() << "\n";
    return 2;
  }
  try {
    if (mode == "pair") return perfbench::run_pair(options);
    if (mode == "fleet-prep") return perfbench::run_fleet_prep(options);
    if (mode == "fleet-gen") return perfbench::run_fleet_gen(options);
    std::cerr << "perfbench-harness: unknown mode " << mode << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench-harness " << mode << ": " << e.what() << "\n";
    return 1;
  }
}
