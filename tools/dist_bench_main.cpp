// srna-dist-bench — scaling benchmark for the distributed serving tier.
//
// Measures the same closed-loop workload against a ladder of topologies:
//
//   direct-1proc     one srna-serve process, clients connect straight to it
//   router-1shard    srna-router semantics (in-process dist::Router front end)
//                    over one shard — isolates the router hop overhead
//   router-Nshards   N supervised srna-serve shards behind the router
//
// The workload cycles `--pairs` distinct structure pairs for `--rounds`
// passes. Sized so the distinct working set overflows ONE shard's result
// cache (--pairs > --cache-entries) but fits the fleet's aggregate capacity
// (pairs / N < cache-entries for N >= 2): on a single-core box the speedup
// at 2+ shards comes from cache-capacity aggregation — the consistent hash
// gives each shard a stable 1/N slice of the key space, so its LRU stops
// thrashing — not from extra CPUs. That is the capacity story the
// distributed tier exists for (docs/SERVING.md).
//
// Every shard is a real forked srna-serve (dist/supervisor.hpp), so the
// numbers include process isolation, loopback TCP, and admin-plane probing.
// The run fails if any request goes unanswered, and --require-speedup=N:F
// turns the scaling claim into an exit code for CI
// (scripts/check_bench_report.sh gates the committed
// BENCH_serving_distributed.json with it).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/net.hpp"
#include "dist/router.hpp"
#include "dist/supervisor.hpp"
#include "obs/report.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/generators.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

using namespace srna;
using Clock = std::chrono::steady_clock;

struct InstanceResult {
  std::string instance;
  int shards = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t cache_hits = 0;
  double elapsed_seconds = 0;
  double p50 = 0;
  double p99 = 0;

  [[nodiscard]] double throughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(ok) / elapsed_seconds : 0.0;
  }
  [[nodiscard]] double hit_rate() const {
    return ok > 0 ? static_cast<double>(cache_hits) / static_cast<double>(ok) : 0.0;
  }
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

struct BenchConfig {
  std::string serve_bin;
  std::vector<std::string> shard_args;
  std::size_t pairs = 800;
  int rounds = 3;
  int concurrency = 4;
  int ready_timeout_ms = 20000;
};

// Spawns `shards` srna-serve processes, waits for /readyz, returns their
// addresses. The supervisor keeps monitoring them for the instance's
// lifetime.
std::vector<dist::ShardAddress> spawn_fleet(dist::Supervisor& supervisor,
                                            const BenchConfig& bench, int shards) {
  std::vector<dist::ShardAddress> fleet;
  for (int i = 0; i < shards; ++i) {
    dist::ShardAddress shard;
    shard.name = "shard" + std::to_string(i);
    shard.data = {"127.0.0.1", dist::pick_free_port()};
    shard.admin = {"127.0.0.1", dist::pick_free_port()};
    dist::ProcessSpec spec;
    spec.name = shard.name;
    spec.binary = bench.serve_bin;
    spec.args = {"--host=127.0.0.1", "--port=" + std::to_string(shard.data.port),
                 "--admin-port=" + std::to_string(shard.admin.port), "--log-level=off"};
    for (const std::string& extra : bench.shard_args) spec.args.push_back(extra);
    if (supervisor.start(spec) < 0)
      throw std::runtime_error("cannot spawn " + shard.name);
    fleet.push_back(std::move(shard));
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(bench.ready_timeout_ms);
  for (const dist::ShardAddress& shard : fleet) {
    for (;;) {
      // 2xx == ready; the "ok\n" body is for humans.
      if (dist::http_get_body(shard.admin, "/readyz", 250)) break;
      if (Clock::now() >= deadline)
        throw std::runtime_error(shard.name + " never became ready");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return fleet;
}

// Closed loop: `concurrency` client threads share a global request counter;
// request i asks pair (i mod pairs), so each round replays the same key set.
InstanceResult drive(const dist::Endpoint& endpoint, const BenchConfig& bench,
                     const std::vector<serve::ServeRequest>& pool,
                     const std::string& instance, int shards) {
  const std::uint64_t requests =
      static_cast<std::uint64_t>(bench.rounds) * static_cast<std::uint64_t>(pool.size());
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> hits{0};
  std::vector<double> latencies;
  std::mutex latencies_mutex;

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < bench.concurrency; ++c) {
    clients.emplace_back([&] {
      dist::LineClient client(endpoint, 30000);
      for (std::uint64_t i = next.fetch_add(1); i < requests; i = next.fetch_add(1)) {
        serve::ServeRequest req = pool[i % pool.size()];
        req.id = static_cast<std::int64_t>(i);
        const Clock::time_point start = Clock::now();
        const serve::ServeResponse resp =
            serve::ServeResponse::from_line(client.roundtrip(req.to_line()));
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start).count();
        answered.fetch_add(1);
        if (resp.status == serve::ResponseStatus::kOk) {
          ok.fetch_add(1);
          if (resp.cache_hit) hits.fetch_add(1);
          std::lock_guard lock(latencies_mutex);
          latencies.push_back(ms);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

  if (answered.load() != requests)
    throw std::runtime_error(instance + ": LOST RESPONSES — issued " +
                             std::to_string(requests) + ", answered " +
                             std::to_string(answered.load()));

  std::sort(latencies.begin(), latencies.end());
  InstanceResult result;
  result.instance = instance;
  result.shards = shards;
  result.requests = requests;
  result.ok = ok.load();
  result.cache_hits = hits.load();
  result.elapsed_seconds = elapsed;
  result.p50 = percentile(latencies, 0.50);
  result.p99 = percentile(latencies, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("srna-dist-bench",
                "closed-loop scaling benchmark: direct serving vs srna-router "
                "over 1..N supervised shards");
  cli.add_option("serve-bin", "shard binary (default: srna-serve next to this one)", "");
  cli.add_option("shard-counts", "router topologies to measure", "1,2,4");
  cli.add_option("pairs", "distinct structure pairs cycled per round", "120");
  cli.add_option("rounds", "passes over the pair set (first pass fills caches)", "3");
  cli.add_option("length", "structure length", "1000");
  cli.add_option("density", "arc density for the random generator", "0.4");
  cli.add_option("seed", "workload seed", "42");
  cli.add_option("concurrency", "closed-loop client threads", "4");
  cli.add_option("cache-entries", "result cache capacity PER SHARD", "96");
  cli.add_option("workers", "worker threads per shard", "2");
  cli.add_option("queue-capacity", "admission queue slots per shard", "256");
  cli.add_option("require-speedup",
                 "SHARDS:FACTOR — exit 1 unless router-SHARDSshards reaches "
                 "FACTOR x direct-1proc throughput (e.g. 2:1.6; empty = report only)",
                 "");
  cli.add_option("output", "report path (none = skip)", "BENCH_serving_distributed.json");
  cli.add_flag("smoke", "small preset for ctest (overrides sizes; no speedup gate)");

  try {
    if (!cli.parse(argc, argv)) return 0;

    BenchConfig bench;
    bench.pairs = static_cast<std::size_t>(cli.integer("pairs"));
    bench.rounds = static_cast<int>(cli.integer("rounds"));
    bench.concurrency = static_cast<int>(cli.integer("concurrency"));
    Pos length = static_cast<Pos>(cli.integer("length"));
    std::size_t cache_entries = static_cast<std::size_t>(cli.integer("cache-entries"));
    std::vector<std::int64_t> shard_counts = cli.int_list("shard-counts");
    std::string require_speedup = cli.str("require-speedup");
    if (cli.flag("smoke")) {
      bench.pairs = 48;
      bench.rounds = 2;
      bench.concurrency = 2;
      length = 60;
      cache_entries = 32;
      shard_counts = {1, 2};
      require_speedup.clear();
    }

    bench.serve_bin = cli.str("serve-bin");
    if (bench.serve_bin.empty()) {
      // Default to the srna-serve sitting next to this binary.
      std::string self(argv[0]);
      const std::size_t slash = self.rfind('/');
      bench.serve_bin =
          (slash == std::string::npos ? std::string() : self.substr(0, slash + 1)) +
          "srna-serve";
    }
    bench.shard_args = {"--cache-entries=" + std::to_string(cache_entries),
                        "--workers=" + std::to_string(cli.integer("workers")),
                        "--queue-capacity=" + std::to_string(cli.integer("queue-capacity"))};

    // The distinct-pair pool: pair i = (structure i, structure i+1), one
    // canonical cache key each.
    const std::uint64_t seed = static_cast<std::uint64_t>(cli.integer("seed"));
    std::vector<std::string> structures;
    structures.reserve(bench.pairs + 1);
    for (std::size_t i = 0; i <= bench.pairs; ++i)
      structures.push_back(
          to_dot_bracket(random_structure(length, cli.real("density"), seed + 1000 * i)));
    std::vector<serve::ServeRequest> pool(bench.pairs);
    for (std::size_t i = 0; i < bench.pairs; ++i) {
      pool[i].a = structures[i];
      pool[i].b = structures[i + 1];
    }

    std::cout << "workload: " << bench.pairs << " distinct pairs x " << bench.rounds
              << " rounds, length " << length << ", cache " << cache_entries
              << "/shard (working set " << (bench.pairs > cache_entries ? "OVERFLOWS" : "fits")
              << " one shard)\n";

    std::vector<InstanceResult> results;

    {
      // Baseline: clients straight into one srna-serve, no router in the path.
      dist::Supervisor supervisor;
      const std::vector<dist::ShardAddress> fleet = spawn_fleet(supervisor, bench, 1);
      results.push_back(drive(fleet[0].data, bench, pool, "direct-1proc", 1));
      supervisor.stop_all();
      std::cout << results.back().instance << ": "
                << results.back().throughput() << " req/s, hit rate "
                << results.back().hit_rate() << "\n";
    }

    for (const std::int64_t count : shard_counts) {
      dist::Supervisor supervisor;
      const int shards = static_cast<int>(count);
      dist::RouterConfig config;
      config.shards = spawn_fleet(supervisor, bench, shards);
      dist::Router router(config);
      serve::TcpServer server(
          [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
            router.handle_line(line, emit);
          },
          "127.0.0.1", 0);
      const std::string instance =
          "router-" + std::to_string(shards) + (shards == 1 ? "shard" : "shards");
      results.push_back(
          drive(dist::Endpoint{"127.0.0.1", server.port()}, bench, pool, instance, shards));
      server.stop();
      router.stop();
      supervisor.stop_all();
      std::cout << results.back().instance << ": "
                << results.back().throughput() << " req/s, hit rate "
                << results.back().hit_rate() << "\n";
    }

    const double direct_rps = results[0].throughput();
    std::cout << "\ninstance          shards  req/s      hit-rate  p50ms   p99ms   speedup\n";
    for (const InstanceResult& r : results)
      std::cout << r.instance << (r.instance.size() < 16 ? std::string(16 - r.instance.size(), ' ')
                                                         : " ")
                << "  " << r.shards << "       " << r.throughput() << "  " << r.hit_rate()
                << "  " << r.p50 << "  " << r.p99 << "  "
                << (direct_rps > 0 ? r.throughput() / direct_rps : 0.0) << "\n";

    const std::string output = cli.str("output");
    if (output != "none") {
      obs::RunReport report("bench/serving_distributed");
      report.set_command_line(argc, argv);
      obs::Json params = obs::Json::object();
      params.set("pairs", obs::Json(static_cast<std::uint64_t>(bench.pairs)));
      params.set("rounds", obs::Json(static_cast<std::int64_t>(bench.rounds)));
      params.set("length", obs::Json(static_cast<std::int64_t>(length)));
      params.set("density", obs::Json(cli.real("density")));
      params.set("seed", obs::Json(seed));
      params.set("concurrency", obs::Json(static_cast<std::int64_t>(bench.concurrency)));
      params.set("cache_entries_per_shard",
                 obs::Json(static_cast<std::uint64_t>(cache_entries)));
      params.set("workers_per_shard", obs::Json(cli.integer("workers")));
      report.set("params", std::move(params));
      obs::Json rows = obs::Json::array();
      for (const InstanceResult& r : results) {
        obs::Json row = obs::Json::object();
        row.set("instance", obs::Json(r.instance));
        row.set("shards", obs::Json(static_cast<std::int64_t>(r.shards)));
        row.set("requests", obs::Json(r.requests));
        row.set("ok", obs::Json(r.ok));
        row.set("cache_hit_rate", obs::Json(r.hit_rate()));
        row.set("throughput_rps", obs::Json(r.throughput()));
        row.set("latency_ms_p50", obs::Json(r.p50));
        row.set("latency_ms_p99", obs::Json(r.p99));
        row.set("speedup_vs_direct",
                obs::Json(direct_rps > 0 ? r.throughput() / direct_rps : 0.0));
        rows.push(std::move(row));
      }
      obs::Json res = obs::Json::object();
      res.set("instances", std::move(rows));
      report.set("results", std::move(res));
      if (!report.write(output)) {
        std::cerr << "cannot write " << output << "\n";
        return 1;
      }
      std::cout << "wrote " << output << "\n";
    }

    if (!require_speedup.empty()) {
      const std::size_t colon = require_speedup.find(':');
      if (colon == std::string::npos)
        throw std::invalid_argument("--require-speedup expects SHARDS:FACTOR");
      const int want_shards = std::stoi(require_speedup.substr(0, colon));
      const double want_factor = std::stod(require_speedup.substr(colon + 1));
      double got = 0.0;
      for (const InstanceResult& r : results)
        if (r.shards == want_shards && r.instance != "direct-1proc")
          got = direct_rps > 0 ? r.throughput() / direct_rps : 0.0;
      if (got < want_factor) {
        std::cerr << "SPEEDUP GATE FAILED: router-" << want_shards << "shards is " << got
                  << "x direct-1proc, need >= " << want_factor << "x\n";
        return 1;
      }
      std::cout << "speedup gate: router-" << want_shards << "shards " << got << "x >= "
                << want_factor << "x\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "srna-dist-bench: " << e.what() << "\n";
    return 1;
  }
}
