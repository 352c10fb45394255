// Figure 8: PRNA speedup on contrived worst-case data, 1..64 processors,
// for sequences of length 1600 (800 nested arcs) and 3200 (1600 nested
// arcs).
//
// Paper results (MPI on the "Fundy" cluster): up to 22x at 64 processors
// for length 1600, up to 32x for length 3200, with the larger problem
// scaling further.
//
// Substitution (DESIGN.md §5): this machine has one core and no MPI, so the
// curves are produced by the schedule simulator — PRNA's exact stage-one
// schedule (same column weights, same greedy balancer) with compute time
// calibrated from a real SRNA2 run on this machine and an alpha-beta model
// for the per-row Allreduce. A real multi-threaded PRNA run at the host's
// core count is also reported as a functional cross-check.
#include <iostream>

#include "bench_util.hpp"
#include "engine/engine.hpp"
#include "obs/cpath/critical_path.hpp"
#include "parallel/cluster_sim.hpp"
#include "rna/generators.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace srna;

  CliParser cli("figure8_speedup", "Figure 8: PRNA speedup curves (simulated cluster)");
  cli.add_option("lengths", "worst-case sequence lengths", "1600,3200");
  cli.add_option("procs", "processor counts", "1,2,4,8,16,32,64");
  cli.add_option("alpha", "per-stage collective latency [s]", "0.002");
  cli.add_option("beta", "per-byte transfer time [s]", "2e-8");
  cli.add_option("sync-overhead", "fixed per-row sync overhead [s]", "5e-4");
  cli.add_option("cell-seconds", "cell time [s]; 0 = calibrate on this machine", "0");
  cli.add_option("balance", "lpt | block | cyclic", "lpt");
  cli.add_option("real-threads", "threads for the real PRNA cross-check (0 = skip)", "2");
  cli.add_option("schedule-threads",
                 "thread counts for the real schedule comparison (static vs stealing; "
                 "skipped when --real-threads=0)", "1,2,4");
  cli.add_flag("skip-rrna", "omit the Table II rRNA pair from the schedule comparison "
               "(keeps only the L=400 worst case)");
  cli.add_flag("csv", "emit CSV instead of the aligned table");
  cli.add_option("report", "run-report path (default BENCH_figure8_speedup.json; none = skip)",
                 "");
  if (!cli.parse(argc, argv)) return 0;

  MachineModel model;
  model.alpha_seconds = cli.real("alpha");
  model.beta_seconds_per_byte = cli.real("beta");
  model.sync_overhead_seconds = cli.real("sync-overhead");
  model.cell_seconds = cli.real("cell-seconds");
  if (model.cell_seconds <= 0.0) {
    model.cell_seconds = calibrate_cell_seconds();
    std::cout << "calibrated cell time on this machine: " << model.cell_seconds << " s/cell\n";
  }

  BalanceStrategy strategy = BalanceStrategy::kGreedyLpt;
  if (cli.str("balance") == "block") strategy = BalanceStrategy::kBlock;
  if (cli.str("balance") == "cyclic") strategy = BalanceStrategy::kCyclic;

  bench::print_header("Figure 8 — PRNA speedup, contrived worst-case data (simulated cluster)",
                      "paper Figure 8 (Section VI); paper peaks: 22x @64p/L1600, 32x @64p/L3200");

  bench::BenchReport bench_report("figure8_speedup");
  bench_report.report().set_command_line(argc, argv);
  {
    obs::Json params = obs::Json::object();
    params.set("alpha_seconds", obs::Json(model.alpha_seconds));
    params.set("beta_seconds_per_byte", obs::Json(model.beta_seconds_per_byte));
    params.set("sync_overhead_seconds", obs::Json(model.sync_overhead_seconds));
    params.set("cell_seconds", obs::Json(model.cell_seconds));
    params.set("balance", obs::Json(cli.str("balance")));
    bench_report.report().set("parameters", std::move(params));
  }

  std::vector<std::size_t> procs;
  for (const auto p : cli.int_list("procs")) procs.push_back(static_cast<std::size_t>(p));

  TablePrinter table({"length", "arcs", "procs", "sim T(p)[s]", "speedup", "efficiency"});
  for (const auto length : cli.int_list("lengths")) {
    const auto s = worst_case_structure(static_cast<Pos>(length));
    SimOptions opt;
    opt.balance = strategy;
    const auto curve = simulate_speedup_curve(s, s, model, procs, opt);
    for (const auto& point : curve) {
      table.add_row({std::to_string(length), std::to_string(s.arc_count()),
                     std::to_string(point.processors), fixed(point.seconds, 2),
                     fixed(point.speedup, 2), fixed(point.efficiency, 3)});
      obs::Json jrow = obs::Json::object();
      jrow.set("length", obs::Json(length));
      jrow.set("arcs", obs::Json(static_cast<std::int64_t>(s.arc_count())));
      jrow.set("processors", obs::Json(static_cast<std::int64_t>(point.processors)));
      jrow.set("sim_seconds", obs::Json(point.seconds));
      jrow.set("speedup", obs::Json(point.speedup));
      jrow.set("efficiency", obs::Json(point.efficiency));
      bench_report.add_row(std::move(jrow));
    }
  }
  if (cli.flag("csv"))
    table.print_csv(std::cout);
  else
    table.print(std::cout);

  std::cout << "\nshape check: speedup grows with p and saturates; the larger problem\n"
               "reaches higher speedup at 64 processors (paper: 32x vs 22x).\n";

  // Real shared-memory cross-check: small instance, real threads, value and
  // schedule identical to the sequential algorithm.
  const int threads = static_cast<int>(cli.integer("real-threads"));
  if (threads > 0) {
    const auto s = worst_case_structure(400);
    SolverConfig config;
    config.threads = threads;
    config.balance = strategy;
    WallTimer timer;
    auto r = engine_solve("prna", s, s, config);
    std::cout << "\nreal PRNA cross-check (L=400, " << threads << " threads, this host): value "
              << r.value << " (expected 200), wall " << fixed(timer.seconds(), 3)
              << " s, stage-one cells per thread:";
    if (const obs::Json* cells = r.detail.find("cells_per_thread"); cells != nullptr)
      for (const obs::Json& c : cells->items()) std::cout << ' ' << c.as_uint();
    std::cout << "\n";
    obs::Json check = std::move(r.detail);
    check.set("wall_seconds", obs::Json(timer.seconds()));
    bench_report.report().set("real_prna_cross_check", std::move(check));
  }

  // Real schedule comparison: the paper's barrier schedule against the
  // barrier-free dependency-driven one (kStealing), with the synchronization
  // cost each pays — barrier_wait for the static schedule, steal_idle for
  // the stealing one. Rows land in the run report as schedule_rows so the
  // benchmark trajectory captures the scheduling win, not just totals.
  if (threads > 0) {
    struct ScheduleCase {
      const char* name;
      PrnaSchedule schedule;
    };
    const ScheduleCase schedules[] = {{"static", PrnaSchedule::kStaticColumns},
                                      {"stealing", PrnaSchedule::kStealing}};
    std::vector<std::pair<std::string, SecondaryStructure>> instances;
    instances.emplace_back("worst_case_L400", worst_case_structure(400));
    if (!cli.flag("skip-rrna"))
      instances.emplace_back("fungus_rrna_4216x721", rrna_like_structure(4216, 721, 2012));

    bench::print_header(
        "Schedule comparison — barrier (static) vs dependency-driven (stealing)",
        "stage-one synchronization cost on this host; Table II pair + L400 worst case");
    TablePrinter sched_table({"instance", "schedule", "threads", "wall[s]", "speedup",
                              "ceiling", "barrier_wait[s]", "steal_idle[s]", "steals"});
    obs::Json schedule_rows = obs::Json::array();
    obs::Json analyses = obs::Json::array();
    for (const auto& [iname, s] : instances) {
      double base_wall = 0.0;
      Score expected = 0;
      bool have_expected = false;
      // Brent-bound ceiling per thread count from the slice DAG, costed with
      // the calibrated cell time (measured rows print next to it, so the
      // table separates schedule overhead from dependency structure).
      std::vector<int> thread_counts;
      for (const auto th : cli.int_list("schedule-threads"))
        thread_counts.push_back(static_cast<int>(th));
      const obs::ParallelAnalysis analysis =
          obs::analyze_parallel(s, s, model.cell_seconds, 0.0, thread_counts);
      {
        obs::Json entry = analysis.to_json();
        entry.set("instance", obs::Json(iname));
        analyses.push(std::move(entry));
      }
      auto ceiling_for = [&](std::int64_t th) {
        for (const auto& row : analysis.rows)
          if (row.threads == th) return row.ceiling_speedup;
        return 0.0;
      };
      for (const auto& sc : schedules) {
        for (const auto th : cli.int_list("schedule-threads")) {
          PrnaOptions opt;
          opt.num_threads = static_cast<int>(th);
          opt.schedule = sc.schedule;
          WallTimer timer;
          const auto r = prna(s, s, opt);
          const double wall = timer.seconds();
          if (!have_expected) {
            expected = r.value;
            have_expected = true;
          } else if (r.value != expected) {
            std::cerr << "schedule mismatch on " << iname << ": " << sc.name << "/" << th
                      << " threads returned " << r.value << ", expected " << expected << "\n";
            return 1;
          }
          if (sc.schedule == PrnaSchedule::kStaticColumns && th == cli.int_list("schedule-threads").front())
            base_wall = wall;
          double barrier_wait = 0.0, steal_idle = 0.0, lane_wall = 0.0;
          std::uint64_t steals = 0, ready_pushes = 0;
          for (const auto& lane : r.timeline) {
            barrier_wait += lane.barrier_wait_seconds;
            steal_idle += lane.steal_idle_seconds;
            lane_wall += lane.wall_seconds;
            steals += lane.steals;
            ready_pushes += lane.ready_pushes;
          }
          // The absolute waits as a fraction of all lanes' stage-one wall
          // time: comparable across thread counts and instance sizes.
          const double barrier_wait_fraction = lane_wall > 0 ? barrier_wait / lane_wall : 0;
          const double steal_idle_fraction = lane_wall > 0 ? steal_idle / lane_wall : 0;
          sched_table.add_row({iname, sc.name, std::to_string(th), fixed(wall, 3),
                               fixed(base_wall / wall, 2), fixed(ceiling_for(th), 2),
                               fixed(barrier_wait, 3), fixed(steal_idle, 3),
                               std::to_string(steals)});
          obs::Json jrow = obs::Json::object();
          jrow.set("instance", obs::Json(iname));
          jrow.set("schedule", obs::Json(sc.name));
          jrow.set("threads", obs::Json(th));
          jrow.set("wall_seconds", obs::Json(wall));
          jrow.set("speedup", obs::Json(base_wall / wall));
          jrow.set("ceiling_speedup", obs::Json(ceiling_for(th)));
          jrow.set("value", obs::Json(static_cast<std::int64_t>(r.value)));
          jrow.set("barrier_wait_seconds", obs::Json(barrier_wait));
          jrow.set("barrier_wait_fraction", obs::Json(barrier_wait_fraction));
          jrow.set("steal_idle_seconds", obs::Json(steal_idle));
          jrow.set("steal_idle_fraction", obs::Json(steal_idle_fraction));
          jrow.set("steals", obs::Json(steals));
          jrow.set("ready_pushes", obs::Json(ready_pushes));
          schedule_rows.push(std::move(jrow));
        }
      }
    }
    sched_table.print(std::cout);
    std::cout << "\nbarrier schedules pay barrier_wait; the stealing schedule replaces it\n"
                 "with steal_idle (time with no runnable slice anywhere).\n";
    bench_report.report().set("schedule_rows", std::move(schedule_rows));
    bench_report.report().set("parallel_analysis", std::move(analyses));
  }
  return bench_report.write(cli.str("report")) ? 0 : 1;
}
