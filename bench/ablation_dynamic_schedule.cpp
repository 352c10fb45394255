// Ablation: static column ownership (the paper's design) vs dynamic
// per-slice scheduling for PRNA's stage one.
//
// The paper chooses a *static* distribution computed once in preprocessing,
// justified by the product form of the work (column proportions identical
// in every row). The conventional alternative — idle workers pulling slices
// from a queue — balances at least as well per row but pays a dispatch
// cost per task and needs a centralized queue (awkward on distributed
// memory). The simulator quantifies the trade-off. (The shared-memory
// solver has no dynamic schedule: its barrier-free alternative is
// prna-steal, compared in figure8_speedup.)
#include <iostream>

#include "bench_util.hpp"
#include "parallel/cluster_sim.hpp"
#include "rna/generators.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace srna;

  CliParser cli("ablation_dynamic_schedule", "static columns vs dynamic slice scheduling");
  cli.add_option("length", "worst-case sequence length", "1600");
  cli.add_option("procs", "processor counts", "4,16,64");
  cli.add_option("dispatch-us", "dynamic dispatch overhead per slice [us]", "2");
  if (!cli.parse(argc, argv)) return 0;

  bench::print_header("Ablation — stage-one scheduling (simulated cluster)",
                      "Section V-A: static load balancing vs dynamic task pulling");

  const auto s = worst_case_structure(static_cast<Pos>(cli.integer("length")));
  MachineModel model;
  model.dispatch_overhead_seconds = cli.real("dispatch-us") * 1e-6;

  TablePrinter table({"procs", "schedule", "stage1 compute[s]", "total[s]", "speedup"});
  for (const auto p : cli.int_list("procs")) {
    for (const auto schedule :
         {ScheduleModel::kStaticColumns, ScheduleModel::kDynamicPerSlice}) {
      SimOptions opt;
      opt.processors = static_cast<std::size_t>(p);
      opt.schedule = schedule;
      const auto sim = simulate_prna(s, s, model, opt);
      const auto curve = simulate_speedup_curve(s, s, model, {opt.processors}, opt);
      table.add_row({std::to_string(p),
                     schedule == ScheduleModel::kStaticColumns ? "static-lpt" : "dynamic",
                     fixed(sim.stage1_compute_seconds, 2), fixed(sim.total_seconds(), 2),
                     fixed(curve[0].speedup, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\nshape check: on the product-form workload the static schedule\n"
               "matches dynamic balance without the per-slice dispatch cost —\n"
               "the paper's preprocessing-time load balance is sufficient.\n";
  return 0;
}
