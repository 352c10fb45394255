// srna-loadgen — load generator and latency harness for the query service.
//
// Drives either an in-process QueryService (default; zero networking, used
// by the ctest smoke test) or running servers over TCP (--connect, repeatable:
// several endpoints round-robin client-side, so one invocation can drive an
// srna-router, a raw shard fleet, or both for comparison; the summary and
// report break responses and latency out per endpoint).
// Two arrival models:
//   --mode=closed   N client threads, one request in flight each (classic
//                   closed loop; measures capacity).
//   --mode=open     requests injected at a fixed --rate regardless of
//                   completions (measures behavior under overload:
//                   backpressure rejects, deadline timeouts). In-process only.
//
// The synthetic workload is a deterministic pool of random structure pairs
// (--structures/--length/--density/--seed); --repeat-fraction of requests
// re-ask an earlier pair, which is what exercises the result cache. Every
// response is accounted for — the run fails loudly if any request goes
// unanswered (the "zero lost responses" check the serving tests rely on).
//
// Results: human summary on stdout plus a machine-readable report
// (default BENCH_serving_throughput.json; --output=none to skip) with
// throughput, exact p50/p90/p99 latency, status counts, and cache hit rate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/net.hpp"
#include "obs/report.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/generators.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"

namespace {

using namespace srna;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::vector<std::string> structures;  // dot-bracket pool
  double repeat_fraction = 0.25;
  std::string algorithm;
  double deadline_ms = 0;
  std::uint64_t trace_sample = 0;  // trace every N-th request (0 = none)
  // Shared-structure mode: every request asks about the same structure A
  // (structures[0]) against a varying B — the clustering/serving pattern
  // ("compare this query structure against the corpus") that the result
  // cache and single-flight coalescing target.
  bool shared_structure = false;

  // The i-th request of the run, deterministic in (seed, i). Repeats draw
  // from a small hot set so the cache sees the same canonical keys again.
  [[nodiscard]] serve::ServeRequest request(std::uint64_t seed, std::uint64_t i) const {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + i);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    const std::size_t n = structures.size();
    const std::size_t hot = std::max<std::size_t>(2, n / 8);
    std::size_t ia;
    std::size_t ib;
    if (coin(rng) < repeat_fraction) {
      ia = rng() % hot;
      ib = rng() % hot;
    } else {
      ia = rng() % n;
      ib = rng() % n;
    }
    if (shared_structure) ia = 0;
    serve::ServeRequest req;
    req.id = static_cast<std::int64_t>(i);
    req.a = structures[ia];
    req.b = structures[ib];
    req.algorithm = algorithm;
    req.deadline_ms = deadline_ms;
    req.trace = trace_sample > 0 && i % trace_sample == 0;
    return req;
  }
};

// Per---connect-endpoint accounting (client-side round-robin makes the
// split deterministic: request i goes to endpoint i mod E).
struct EndpointStats {
  std::mutex mutex;
  std::uint64_t responses = 0;
  std::uint64_t ok = 0;
  std::vector<double> latencies_ms;

  void record(const serve::ServeResponse& resp, double client_latency_ms) {
    std::lock_guard lock(mutex);
    ++responses;
    if (resp.status == serve::ResponseStatus::kOk) {
      ++ok;
      latencies_ms.push_back(client_latency_ms);
    }
  }
};

struct Tally {
  std::mutex mutex;
  std::vector<double> latencies_ms;  // completed (ok) requests only
  // Server-reported phase breakdown (ok responses): time a request sat in
  // the admission queue and time the engine spent on it — distinguishes
  // "the server is slow" from "the server is queueing".
  std::vector<double> server_queued_ms;
  std::vector<double> server_solve_ms;
  // Router hop fields (traced responses that passed through srna-router):
  // time from router admission to first dispatch, plus how many dispatch
  // attempts the router needed — failovers show up here as attempts > 1.
  std::vector<double> router_queued_ms;
  std::uint64_t hop_reporting = 0;
  std::uint64_t hop_attempts = 0;
  std::uint64_t hop_failovers = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t over_memory = 0;  // memory admission, distinct from queue rejects
  std::uint64_t timeout = 0;
  std::uint64_t error = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;  // answered by another request's in-flight solve

  void record(const serve::ServeResponse& resp, double client_latency_ms) {
    std::lock_guard lock(mutex);
    if (resp.coalesced) ++coalesced;
    switch (resp.status) {
      case serve::ResponseStatus::kOk:
        ++ok;
        if (resp.cache_hit) ++cache_hits;
        latencies_ms.push_back(client_latency_ms);
        if (resp.trace_id != 0) {
          server_queued_ms.push_back(resp.queued_ms);
          server_solve_ms.push_back(resp.solve_ms);
        }
        if (resp.attempts > 0) {
          ++hop_reporting;
          hop_attempts += resp.attempts;
          hop_failovers += resp.attempts - 1;
          router_queued_ms.push_back(resp.router_queued_ms);
        }
        break;
      case serve::ResponseStatus::kRejected: ++rejected; break;
      case serve::ResponseStatus::kOverMemoryBudget: ++over_memory; break;
      case serve::ResponseStatus::kTimeout: ++timeout; break;
      case serve::ResponseStatus::kError: ++error; break;
    }
  }

  // Every status is a *delivered* response — the lost-response check below
  // fails only on requests that truly went unanswered.
  [[nodiscard]] std::uint64_t total() const {
    return ok + rejected + over_memory + timeout + error;
  }
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("srna-loadgen", "load generator for the MCOS query service");
  cli.add_option("mode", "closed (N in-flight) or open (fixed-rate injection)", "closed");
  cli.add_option("concurrency", "closed-loop client threads", "4");
  cli.add_option("rate", "open-loop injection rate, requests/second", "200");
  cli.add_option("requests", "total requests to issue", "400");
  cli.add_option("structures", "synthetic structure pool size", "32");
  cli.add_option("length", "structure length", "120");
  cli.add_option("density", "arc density for the random generator", "0.4");
  cli.add_option("seed", "workload seed", "42");
  cli.add_option("repeat-fraction", "fraction of requests repeating a hot pair", "0.25");
  cli.add_flag("shared-structure",
               "every request shares one structure A (B varies over the pool) — "
               "the workload the serve-side cache and coalescing target");
  cli.add_option("deadline-ms", "per-request deadline (0 = none)", "0");
  cli.add_option("algorithm", "engine backend per request", "srna2");
  cli.add_option("trace-sample",
                 "ask the server to trace every N-th request (0 = none)", "0");
  cli.add_option("connect",
                 "HOST:PORT of a running server; repeatable (or comma-separated) for "
                 "client-side round-robin across endpoints (default: in-process)",
                 "");
  cli.add_option("workers", "in-process service: worker threads", "4");
  cli.add_option("queue-capacity", "in-process service: admission queue slots", "64");
  cli.add_option("cache-entries", "in-process service: cache capacity", "4096");
  cli.add_option("memory-budget",
                 "in-process service: in-flight solver byte cap (0 = unlimited)", "0");
  cli.add_option("output", "report path (default BENCH_serving_throughput.json; none = skip)", "");
  cli.add_flag("smoke", "small deterministic preset for ctest (overrides sizes)");

  try {
    if (!cli.parse(argc, argv)) return 0;

    std::uint64_t requests = static_cast<std::uint64_t>(cli.integer("requests"));
    int concurrency = static_cast<int>(cli.integer("concurrency"));
    Pos length = static_cast<Pos>(cli.integer("length"));
    std::size_t pool = static_cast<std::size_t>(cli.integer("structures"));
    if (cli.flag("smoke")) {
      requests = 200;
      concurrency = 4;
      length = 80;
      pool = 16;
    }
    const std::uint64_t seed = static_cast<std::uint64_t>(cli.integer("seed"));

    Workload workload;
    workload.repeat_fraction = cli.real("repeat-fraction");
    workload.algorithm = cli.str("algorithm");
    workload.deadline_ms = cli.real("deadline-ms");
    workload.trace_sample = static_cast<std::uint64_t>(cli.integer("trace-sample"));
    workload.shared_structure = cli.flag("shared-structure");
    workload.structures.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i)
      workload.structures.push_back(to_dot_bracket(
          random_structure(length, cli.real("density"), seed + 1000 * i)));

    Tally tally;
    const std::string mode = cli.str("mode");
    const std::vector<std::string> endpoints = cli.str_list("connect");
    std::vector<dist::Endpoint> addresses;
    for (const std::string& text : endpoints) addresses.push_back(dist::parse_endpoint(text));
    if (mode != "closed" && mode != "open")
      throw std::invalid_argument("--mode must be 'closed' or 'open'");
    if (mode == "open" && !endpoints.empty())
      throw std::invalid_argument("--mode=open is in-process only");

    std::vector<std::unique_ptr<EndpointStats>> endpoint_stats;
    for (std::size_t e = 0; e < endpoints.size(); ++e)
      endpoint_stats.push_back(std::make_unique<EndpointStats>());

    // In-process runs snapshot the service's own stats after drain (server-
    // side cache and coalescing counters); null for remote runs.
    obs::Json service_stats;

    const Clock::time_point t0 = Clock::now();
    if (!endpoints.empty()) {
      // Closed loop against remote servers: each thread keeps one lazy
      // connection per endpoint; request i goes to endpoint i mod E.
      const std::size_t nendpoints = endpoints.size();
      std::atomic<std::uint64_t> next{0};
      std::atomic<bool> client_failed{false};
      std::vector<std::thread> clients;
      clients.reserve(static_cast<std::size_t>(concurrency));
      for (int c = 0; c < concurrency; ++c) {
        clients.emplace_back([&] {
          try {
            std::vector<std::unique_ptr<dist::LineClient>> conns(nendpoints);
            for (std::uint64_t i = next.fetch_add(1); i < requests;
                 i = next.fetch_add(1)) {
              const std::size_t e = static_cast<std::size_t>(i % nendpoints);
              // No socket timeouts: a slow solve is a latency sample, not an
              // error.
              if (!conns[e]) conns[e] = std::make_unique<dist::LineClient>(addresses[e], 0);
              const Clock::time_point start = Clock::now();
              const serve::ServeResponse resp = serve::ServeResponse::from_line(
                  conns[e]->roundtrip(workload.request(seed, i).to_line()));
              const double ms = std::chrono::duration<double, std::milli>(
                                    Clock::now() - start).count();
              tally.record(resp, ms);
              endpoint_stats[e]->record(resp, ms);
            }
          } catch (const std::exception& ex) {
            // Don't std::terminate the whole run on one broken connection;
            // the lost-response accounting below reports the damage.
            std::cerr << "srna-loadgen: client thread aborted: " << ex.what() << "\n";
            client_failed.store(true);
          }
        });
      }
      for (std::thread& t : clients) t.join();
      if (client_failed.load())
        std::cerr << "srna-loadgen: at least one client thread aborted early\n";
    } else {
      serve::ServiceConfig config;
      config.workers = static_cast<int>(cli.integer("workers"));
      config.queue_capacity = static_cast<std::size_t>(cli.integer("queue-capacity"));
      config.cache.capacity = static_cast<std::size_t>(cli.integer("cache-entries"));
      config.memory_budget_bytes = static_cast<std::uint64_t>(cli.integer("memory-budget"));
      config.default_algorithm = workload.algorithm;
      serve::QueryService service(config);

      if (mode == "closed") {
        std::atomic<std::uint64_t> next{0};
        std::vector<std::thread> clients;
        clients.reserve(static_cast<std::size_t>(concurrency));
        for (int c = 0; c < concurrency; ++c) {
          clients.emplace_back([&] {
            for (std::uint64_t i = next.fetch_add(1); i < requests; i = next.fetch_add(1)) {
              const Clock::time_point start = Clock::now();
              const serve::ServeResponse resp = service.solve(workload.request(seed, i));
              tally.record(resp, std::chrono::duration<double, std::milli>(
                                     Clock::now() - start).count());
            }
          });
        }
        for (std::thread& t : clients) t.join();
      } else {
        // Open loop: inject at --rate; completions land on worker threads.
        std::mutex done_mutex;
        std::condition_variable done_cv;
        std::uint64_t outstanding = 0;
        const auto interval =
            std::chrono::duration<double>(1.0 / std::max(1.0, cli.real("rate")));
        Clock::time_point due = Clock::now();
        for (std::uint64_t i = 0; i < requests; ++i) {
          std::this_thread::sleep_until(due);
          due += std::chrono::duration_cast<Clock::duration>(interval);
          const Clock::time_point start = Clock::now();
          {
            std::lock_guard lock(done_mutex);
            ++outstanding;
          }
          service.submit(workload.request(seed, i), [&, start](const serve::ServeResponse& r) {
            tally.record(r, std::chrono::duration<double, std::milli>(
                                Clock::now() - start).count());
            std::lock_guard lock(done_mutex);
            --outstanding;
            done_cv.notify_all();
          });
        }
        std::unique_lock lock(done_mutex);
        done_cv.wait(lock, [&] { return outstanding == 0; });
      }
      service.drain();
      service_stats = service.stats_json();
    }
    const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

    // Accounting: every issued request must have produced exactly one
    // recorded response.
    if (tally.total() != requests) {
      std::cerr << "LOST RESPONSES: issued " << requests << ", accounted "
                << tally.total() << "\n";
      return 1;
    }

    std::sort(tally.latencies_ms.begin(), tally.latencies_ms.end());
    std::sort(tally.server_queued_ms.begin(), tally.server_queued_ms.end());
    std::sort(tally.server_solve_ms.begin(), tally.server_solve_ms.end());
    std::sort(tally.router_queued_ms.begin(), tally.router_queued_ms.end());
    const double p50 = percentile(tally.latencies_ms, 0.50);
    const double p90 = percentile(tally.latencies_ms, 0.90);
    const double p99 = percentile(tally.latencies_ms, 0.99);
    const double throughput = elapsed > 0 ? static_cast<double>(tally.ok) / elapsed : 0.0;
    const double hit_rate =
        tally.ok > 0 ? static_cast<double>(tally.cache_hits) / static_cast<double>(tally.ok)
                     : 0.0;

    std::string transport_label = "in-process";
    if (!endpoints.empty()) {
      transport_label = "tcp " + endpoints[0];
      for (std::size_t e = 1; e < endpoints.size(); ++e)
        transport_label += "," + endpoints[e];
    }
    std::cout << "requests:    " << requests << " (" << mode << " loop, "
              << transport_label << ")\n"
              << "ok:          " << tally.ok << "  rejected: " << tally.rejected
              << "  over_memory: " << tally.over_memory << "  timeout: " << tally.timeout
              << "  error: " << tally.error << "\n"
              << "cache hits:  " << tally.cache_hits << " (hit rate "
              << hit_rate << ")\n"
              << "coalesced:   " << tally.coalesced << "\n"
              << "throughput:  " << throughput << " req/s over " << elapsed << " s\n"
              << "latency ms:  p50 " << p50 << "  p90 " << p90 << "  p99 " << p99 << "\n";
    if (!tally.server_queued_ms.empty())
      std::cout << "server ms:   queued p50 " << percentile(tally.server_queued_ms, 0.50)
                << "  p99 " << percentile(tally.server_queued_ms, 0.99) << "  |  solve p50 "
                << percentile(tally.server_solve_ms, 0.50) << "  p99 "
                << percentile(tally.server_solve_ms, 0.99) << "  ("
                << tally.server_queued_ms.size() << " reporting)\n";
    if (tally.hop_reporting > 0)
      std::cout << "router ms:   queued p50 " << percentile(tally.router_queued_ms, 0.50)
                << "  p99 " << percentile(tally.router_queued_ms, 0.99) << "  |  attempts "
                << tally.hop_attempts << " (" << tally.hop_failovers << " failovers, "
                << tally.hop_reporting << " reporting)\n";
    if (endpoints.size() > 1) {
      for (std::size_t e = 0; e < endpoints.size(); ++e) {
        EndpointStats& es = *endpoint_stats[e];
        std::sort(es.latencies_ms.begin(), es.latencies_ms.end());
        std::cout << "endpoint " << endpoints[e] << ":  responses " << es.responses
                  << "  ok " << es.ok << "  p50 " << percentile(es.latencies_ms, 0.50)
                  << "  p99 " << percentile(es.latencies_ms, 0.99) << "\n";
      }
    }

    const std::string output = cli.str("output");
    if (output != "none") {
      obs::RunReport report("bench/serving_throughput");
      report.set_command_line(argc, argv);
      obs::Json params = obs::Json::object();
      params.set("mode", obs::Json(mode));
      params.set("requests", obs::Json(requests));
      params.set("concurrency", obs::Json(static_cast<std::int64_t>(concurrency)));
      params.set("structures", obs::Json(static_cast<std::uint64_t>(pool)));
      params.set("length", obs::Json(static_cast<std::int64_t>(length)));
      params.set("repeat_fraction", obs::Json(workload.repeat_fraction));
      params.set("shared_structure", obs::Json(workload.shared_structure));
      params.set("algorithm", obs::Json(workload.algorithm));
      params.set("deadline_ms", obs::Json(workload.deadline_ms));
      params.set("transport", obs::Json(endpoints.empty() ? "in-process" : "tcp"));
      if (!endpoints.empty()) {
        obs::Json eps = obs::Json::array();
        for (const std::string& e : endpoints) eps.push(obs::Json(e));
        params.set("endpoints", std::move(eps));
      }
      params.set("trace_sample", obs::Json(workload.trace_sample));
      report.set("params", std::move(params));
      obs::Json results = obs::Json::object();
      results.set("ok", obs::Json(tally.ok));
      results.set("rejected", obs::Json(tally.rejected));
      results.set("over_memory", obs::Json(tally.over_memory));
      results.set("timeout", obs::Json(tally.timeout));
      results.set("error", obs::Json(tally.error));
      results.set("cache_hits", obs::Json(tally.cache_hits));
      results.set("cache_hit_rate", obs::Json(hit_rate));
      results.set("coalesced", obs::Json(tally.coalesced));
      results.set("throughput_rps", obs::Json(throughput));
      results.set("elapsed_seconds", obs::Json(elapsed));
      results.set("latency_ms_p50", obs::Json(p50));
      results.set("latency_ms_p90", obs::Json(p90));
      results.set("latency_ms_p99", obs::Json(p99));
      if (!tally.server_queued_ms.empty()) {
        results.set("server_queued_ms_p50",
                    obs::Json(percentile(tally.server_queued_ms, 0.50)));
        results.set("server_queued_ms_p99",
                    obs::Json(percentile(tally.server_queued_ms, 0.99)));
        results.set("server_solve_ms_p50",
                    obs::Json(percentile(tally.server_solve_ms, 0.50)));
        results.set("server_solve_ms_p99",
                    obs::Json(percentile(tally.server_solve_ms, 0.99)));
      }
      if (tally.hop_reporting > 0) {
        results.set("router_queued_ms_p50",
                    obs::Json(percentile(tally.router_queued_ms, 0.50)));
        results.set("router_queued_ms_p99",
                    obs::Json(percentile(tally.router_queued_ms, 0.99)));
        results.set("router_attempts", obs::Json(tally.hop_attempts));
        results.set("router_failovers", obs::Json(tally.hop_failovers));
        results.set("router_hop_reporting", obs::Json(tally.hop_reporting));
      }
      if (endpoints.size() > 1) {
        obs::Json per_endpoint = obs::Json::object();
        for (std::size_t e = 0; e < endpoints.size(); ++e) {
          EndpointStats& es = *endpoint_stats[e];  // latencies sorted above
          obs::Json one = obs::Json::object();
          one.set("responses", obs::Json(es.responses));
          one.set("ok", obs::Json(es.ok));
          one.set("latency_ms_p50", obs::Json(percentile(es.latencies_ms, 0.50)));
          one.set("latency_ms_p99", obs::Json(percentile(es.latencies_ms, 0.99)));
          per_endpoint.set(endpoints[e], std::move(one));
        }
        results.set("per_endpoint", std::move(per_endpoint));
      }
      report.set("results", std::move(results));
      // Server-side view (in-process runs): includes the cache and coalescing
      // counters the shared-structure workload exists to exercise.
      if (service_stats.is_object()) report.set("service", std::move(service_stats));
      report.add_metrics_snapshot();
      const std::string target =
          output.empty() ? "BENCH_serving_throughput.json" : output;
      if (!report.write(target)) {
        std::cerr << "cannot write " << target << "\n";
        return 1;
      }
      std::cout << "wrote " << target << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "srna-loadgen: " << e.what() << "\n";
    return 1;
  }
}
