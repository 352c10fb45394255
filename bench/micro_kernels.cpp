// Google-benchmark microbenchmarks for the hot kernels and substrates:
// slice tabulation (dense/compressed), the full solvers on small inputs,
// preprocessing (ArcIndex), generators, Nussinov folding, and load
// balancing.
//
// `--smoke` switches to the dense-kernel perf gate instead: time the dense
// kernel and the per-cell reference on the Table I worst-case pair, verify
// they produce identical grids and counters, and fail when the kernel's
// ns/cell regresses more than --max-regression over the recorded baseline
// (bench/baselines/micro_kernels_smoke.json, refreshed with
// --update-baseline) or when it beats the reference measured in the same
// run by less than --min-kernel-speedup. CTest runs this as
// bench_smoke_micro_kernels.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "bench_util.hpp"
#include "core/arc_index.hpp"
#include "core/mcos.hpp"
#include "core/tabulate_slice.hpp"
#include "engine/engine.hpp"
#include "parallel/load_balance.hpp"
#include "rna/generators.hpp"
#include "rna/nussinov.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"

namespace srna {
namespace {

// A closure, not a free function, deliberately: the solvers instantiate the
// kernels with capturing lambdas (memo-table lookups), so the d2 call always
// inlines in production. A function reference here de-inlines into an
// indirect call per event as soon as the instantiation is shared by a second
// call site — that artifact once slowed every timed kernel by ~0.3 ns/cell
// and compressed the kernel-vs-reference ratio the gate enforces.
constexpr auto zero_d2 = [](Pos, Pos, Pos, Pos) { return Score{0}; };

void BM_DenseSliceKernel(benchmark::State& state) {
  const auto length = static_cast<Pos>(state.range(0));
  const auto s = worst_case_structure(length);
  ColumnEvents events;
  events.build(s);
  KernelScratch kernel_scratch;
  Matrix<Score> scratch;
  const SliceBounds bounds{0, length - 1, 0, length - 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tabulate_slice_dense(s, s, events, bounds, scratch,
                                                  SliceKernel{&kernel_scratch}, zero_d2));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(length) * length);
}
BENCHMARK(BM_DenseSliceKernel)->Arg(64)->Arg(256)->Arg(1024);

// The per-cell loop the dense kernel replaced, kept as the yardstick:
// BM_DenseSliceKernel / BM_DenseSliceKernelReference is the kernel speedup.
void BM_DenseSliceKernelReference(benchmark::State& state) {
  const auto length = static_cast<Pos>(state.range(0));
  const auto s = worst_case_structure(length);
  Matrix<Score> scratch;
  const SliceBounds bounds{0, length - 1, 0, length - 1};
  for (auto _ : state) {
    fill_slice_dense_reference(s, s, bounds, scratch, zero_d2);
    benchmark::DoNotOptimize(scratch.row_data(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(length) * length);
}
BENCHMARK(BM_DenseSliceKernelReference)->Arg(64)->Arg(256)->Arg(1024);

void BM_CompressedSliceKernel(benchmark::State& state) {
  const auto length = static_cast<Pos>(state.range(0));
  const auto s = worst_case_structure(length);
  const ArcIndex idx(s);
  EventScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tabulate_slice_compressed(idx.all(), idx.all(), scratch, zero_d2));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(idx.size()) *
                          static_cast<std::int64_t>(idx.size()));
}
BENCHMARK(BM_CompressedSliceKernel)->Arg(64)->Arg(256)->Arg(1024);

void BM_Srna1WorstCase(benchmark::State& state) {
  const auto s = worst_case_structure(static_cast<Pos>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(engine_solve("srna1", s, s).value);
}
BENCHMARK(BM_Srna1WorstCase)->Arg(100)->Arg(200);

void BM_Srna2WorstCase(benchmark::State& state) {
  const auto s = worst_case_structure(static_cast<Pos>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(engine_solve("srna2", s, s).value);
}
BENCHMARK(BM_Srna2WorstCase)->Arg(100)->Arg(200);

void BM_Srna2RrnaLike(benchmark::State& state) {
  const auto length = static_cast<Pos>(state.range(0));
  const auto s = rrna_like_structure(length, static_cast<std::size_t>(length / 6), 1);
  for (auto _ : state) benchmark::DoNotOptimize(engine_solve("srna2", s, s).value);
}
BENCHMARK(BM_Srna2RrnaLike)->Arg(500)->Arg(1000);

void BM_ReferenceTopDown(benchmark::State& state) {
  const auto s = worst_case_structure(static_cast<Pos>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(mcos_reference_topdown(s, s).value);
}
BENCHMARK(BM_ReferenceTopDown)->Arg(24)->Arg(48);

void BM_ArcIndexBuild(benchmark::State& state) {
  const auto s = rrna_like_structure(4216, 721, 1);
  for (auto _ : state) {
    ArcIndex idx(s);
    benchmark::DoNotOptimize(idx.size());
  }
}
BENCHMARK(BM_ArcIndexBuild);

void BM_GeneratorRandomStructure(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_structure(2000, 0.4, seed++).arc_count());
  }
}
BENCHMARK(BM_GeneratorRandomStructure);

void BM_GeneratorRrnaLike(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrna_like_structure(4216, 721, seed++).arc_count());
  }
}
BENCHMARK(BM_GeneratorRrnaLike);

void BM_NussinovFold(benchmark::State& state) {
  const auto seq = random_sequence(static_cast<Pos>(state.range(0)), 5);
  for (auto _ : state) benchmark::DoNotOptimize(nussinov_fold(seq).max_pairs);
}
BENCHMARK(BM_NussinovFold)->Arg(100)->Arg(300);

void BM_LoadBalanceLpt(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> weights(static_cast<std::size_t>(state.range(0)));
  for (auto& w : weights) w = rng.uniform(10'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(balance_load(weights, 64).makespan());
  }
}
BENCHMARK(BM_LoadBalanceLpt)->Arg(1000)->Arg(100000);

// --smoke: the perf-regression gate on the dense kernel. Exit codes: 0
// pass, 1 regression / lost kernel speedup / I/O failure, 2 kernel mismatch
// (correctness, not perf).
int run_smoke(int argc, char** argv) {
  CliParser cli("micro_kernels", "dense-kernel perf gate (--smoke mode)");
  cli.add_flag("smoke", "run the perf gate instead of the google-benchmark suite");
  cli.add_option("length", "worst-case structure length (Table I pair)", "400");
  cli.add_option("reps", "timing repetitions (best-of)", "9");
  cli.add_option("baseline", "recorded baseline JSON to gate against (empty = no gate)", "");
  cli.add_option("max-regression", "fail when ns/cell exceeds baseline by this factor", "1.25");
  cli.add_option("min-kernel-speedup",
                 "fail unless the kernel beats the per-cell reference by this factor "
                 "in the same run (0 disables; ignored under SRNA_DISABLE_SIMD builds)",
                 "3.9");
  cli.add_flag("update-baseline", "rewrite --baseline with this run's numbers");
  cli.add_option("output", "measured-numbers JSON (empty = BENCH_micro_kernels_smoke.json; "
                 "none = skip)", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = static_cast<Pos>(cli.integer("length"));
  const auto s = worst_case_structure(n);
  const SliceBounds bounds{0, n - 1, 0, n - 1};
  ColumnEvents events;
  events.build(s);
  KernelScratch kernel_scratch;
  const SliceKernel kernel{&kernel_scratch};
  Matrix<Score> grid, ref_grid;

  // Correctness pin before timing anything: the kernel must produce the
  // identical grid and identical accounting. A fast-but-wrong kernel must
  // not pass the perf gate.
  McosStats ref_stats;
  McosStats stats;
  fill_slice_dense_reference(s, s, bounds, ref_grid, zero_d2, &ref_stats);
  fill_slice_dense(s, s, events, bounds, grid, kernel, zero_d2, &stats);
  for (std::size_t r = 0; r < ref_grid.rows(); ++r)
    for (std::size_t c = 0; c < ref_grid.cols(); ++c)
      if (grid(r, c) != ref_grid(r, c)) {
        std::cerr << "kernel mismatch at (" << r << ", " << c << "): " << grid(r, c)
                  << " vs reference " << ref_grid(r, c) << "\n";
        return 2;
      }
  if (stats.cells_tabulated != ref_stats.cells_tabulated ||
      stats.arc_match_events != ref_stats.arc_match_events) {
    std::cerr << "kernel accounting mismatch: cells " << stats.cells_tabulated << " vs "
              << ref_stats.cells_tabulated << ", arc events " << stats.arc_match_events
              << " vs " << ref_stats.arc_match_events << "\n";
    return 2;
  }

  const auto reps = static_cast<int>(cli.integer("reps"));
  const double cells = static_cast<double>(n) * static_cast<double>(n);
  std::cout << "dense slice kernel, worst-case L=" << n << " (" << cells
            << " cells, best of " << reps << ")\n";
  // Timing rounds are interleaved — one kernel fill and one reference fill
  // per rep, best-of across rounds — so a mid-run frequency shift hits both
  // alike and the kernel-vs-reference ratio (what --min-kernel-speedup
  // gates) stays meaningful even on noisy machines. Each timed kernel fill
  // follows an untimed one into the same grid, the cache state the
  // committed baseline was recorded in (there the kernel ran right after
  // another kernel's fill of this grid).
  double kernel_s = 0;
  double reference_s = 0;
  for (int rep = 0; rep < reps; ++rep) {
    fill_slice_dense(s, s, events, bounds, grid, kernel, zero_d2);
    const double kernel_rep = bench::time_best_of(
        1, [&] { fill_slice_dense(s, s, events, bounds, grid, kernel, zero_d2); });
    if (rep == 0 || kernel_rep < kernel_s) kernel_s = kernel_rep;
    const double ref_rep = bench::time_best_of(
        1, [&] { fill_slice_dense_reference(s, s, bounds, ref_grid, zero_d2); });
    if (rep == 0 || ref_rep < reference_s) reference_s = ref_rep;
  }
  const double kernel_ns = kernel_s * 1e9 / cells;
  const double reference_ns = reference_s * 1e9 / cells;
  const double speedup = reference_ns / kernel_ns;
  std::cout << "  kernel: " << kernel_ns << " ns/cell\n  reference: " << reference_ns
            << " ns/cell\n  speedup: " << speedup << "x vs reference\n";

  int exit_code = 0;
  const std::string baseline_path = cli.str("baseline");
  if (!baseline_path.empty() && !cli.flag("update-baseline")) {
    std::ifstream in(baseline_path);
    std::stringstream text;
    text << in.rdbuf();
    const auto baseline = in ? obs::Json::parse(text.str()) : std::nullopt;
    const obs::Json* recorded =
        baseline ? baseline->find("simd_ns_per_cell") : nullptr;
    if (recorded == nullptr) {
      std::cerr << "cannot read baseline " << baseline_path << "\n";
      return 1;
    }
    const double budget = recorded->as_double() * cli.real("max-regression");
    std::cout << "baseline kernel: " << recorded->as_double() << " ns/cell (gate: " << budget
              << ")\n";
    if (kernel_ns > budget) {
      std::cerr << "PERF REGRESSION: kernel " << kernel_ns << " ns/cell exceeds the gate "
                << budget << " (baseline " << recorded->as_double() << " * "
                << cli.real("max-regression") << ")\n";
      exit_code = 1;
    }
  }

  // The kernel's win itself is part of the gate: it must beat the per-cell
  // reference measured in the same run (machine-independent, unlike
  // ns/cell). Scalar-fallback builds skip this — without SIMD the kernel
  // only has to hold its own, which the ns/cell gate covers.
  const double min_speedup = cli.real("min-kernel-speedup");
#if defined(SRNA_DISABLE_SIMD)
  constexpr bool simd_build = false;
#else
  constexpr bool simd_build = true;
#endif
  if (simd_build && min_speedup > 0 && speedup < min_speedup) {
    std::cerr << "KERNEL SPEEDUP LOST: the kernel is only " << speedup
              << "x vs the reference; the gate requires " << min_speedup << "x\n";
    exit_code = 1;
  }

  obs::Json doc = obs::Json::object();
  doc.set("kernel", obs::Json("fill_slice_dense"));
  doc.set("structure", obs::Json("worst_case"));
  doc.set("length", obs::Json(static_cast<std::int64_t>(n)));
  doc.set("reps", obs::Json(static_cast<std::int64_t>(reps)));
  // Keyed as the committed baseline records the kernel.
  doc.set("simd_ns_per_cell", obs::Json(kernel_ns));
  doc.set("reference_ns_per_cell", obs::Json(reference_ns));
  doc.set("speedup", obs::Json(speedup));
  if (!baseline_path.empty() && cli.flag("update-baseline")) {
    std::ofstream out(baseline_path);
    out << doc.dump(2) << "\n";
    if (!out) {
      std::cerr << "cannot write baseline " << baseline_path << "\n";
      return 1;
    }
    std::cout << "baseline updated: " << baseline_path << "\n";
  }
  if (cli.str("output") != "none") {
    const std::string target =
        cli.str("output").empty() ? "BENCH_micro_kernels_smoke.json" : cli.str("output");
    std::ofstream out(target);
    out << doc.dump(2) << "\n";
    if (out) std::cout << "wrote " << target << "\n";
  }
  return exit_code;
}

}  // namespace
}  // namespace srna

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--smoke") return srna::run_smoke(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
