#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "db/structure_db.hpp"
#include "engine/engine.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/generators.hpp"
#include "rna/structure_hash.hpp"

namespace srna::serve {
namespace {

using namespace std::chrono_literals;

ServeRequest literal_request(std::int64_t id, const char* a, const char* b) {
  ServeRequest req;
  req.id = id;
  req.a = a;
  req.b = b;
  return req;
}

// A pair slow enough (hundreds of ms on any machine this suite runs on) that
// a short deadline reliably expires mid-solve. The worst case structure is
// the paper's own contrived max-work input.
ServeRequest slow_request(std::int64_t id, double deadline_ms) {
  static const std::string big = to_dot_bracket(worst_case_structure(700));
  ServeRequest req;
  req.id = id;
  req.a = big;
  req.b = big;
  req.deadline_ms = deadline_ms;
  req.no_cache = true;
  return req;
}

// Counts solve() entries and blocks each one until the gate opens — the
// controlled-concurrency backend the coalescing test uses to hold a leader
// mid-solve while duplicates arrive. Registered once per process.
std::atomic<int> g_gated_solves{0};
std::atomic<bool> g_gate_open{false};

class GatedBackend final : public SolverBackend {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "gated-slow"; }
  [[nodiscard]] const char* description() const noexcept override {
    return "test backend: counts solves, blocks until released";
  }
  [[nodiscard]] BackendCaps caps() const noexcept override { return {}; }
  [[nodiscard]] EngineResult solve(const SecondaryStructure&, const SecondaryStructure&,
                                   const SolverConfig&, Workspace&) const override {
    g_gated_solves.fetch_add(1, std::memory_order_relaxed);
    while (!g_gate_open.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(1ms);
    EngineResult result;
    result.value = 7;
    return result;
  }
};

void ensure_gated_backend() {
  if (McosEngine::instance().find("gated-slow") == nullptr)
    McosEngine::instance().register_backend(std::make_unique<GatedBackend>());
}

TEST(DeadlineMonitor, FlipsFlagAfterDeadline) {
  DeadlineMonitor monitor;
  auto flag = std::make_shared<std::atomic<bool>>(false);
  monitor.watch(DeadlineMonitor::Clock::now() + 20ms, flag);
  EXPECT_FALSE(flag->load());
  const auto give_up = DeadlineMonitor::Clock::now() + 2s;
  while (!flag->load() && DeadlineMonitor::Clock::now() < give_up)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(flag->load());
}

TEST(DeadlineMonitor, ReleasePreventsFiring) {
  DeadlineMonitor monitor;
  auto flag = std::make_shared<std::atomic<bool>>(false);
  const std::uint64_t ticket = monitor.watch(DeadlineMonitor::Clock::now() + 30ms, flag);
  monitor.release(ticket);
  std::this_thread::sleep_for(80ms);
  EXPECT_FALSE(flag->load());
}

TEST(DeadlineMonitor, HandlesManyInterleavedWatches) {
  DeadlineMonitor monitor;
  std::vector<std::shared_ptr<std::atomic<bool>>> fired;
  std::vector<std::shared_ptr<std::atomic<bool>>> released;
  for (int i = 0; i < 50; ++i) {
    auto flag = std::make_shared<std::atomic<bool>>(false);
    const auto ticket = monitor.watch(DeadlineMonitor::Clock::now() + (10 + i % 5) * 1ms, flag);
    if (i % 2 == 0) {
      monitor.release(ticket);
      released.push_back(std::move(flag));
    } else {
      fired.push_back(std::move(flag));
    }
  }
  const auto give_up = DeadlineMonitor::Clock::now() + 2s;
  for (const auto& f : fired) {
    while (!f->load() && DeadlineMonitor::Clock::now() < give_up)
      std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(f->load());
  }
  for (const auto& f : released) EXPECT_FALSE(f->load());
}

TEST(QueryService, SolvesLiteralPairAndAgreesWithEngine) {
  QueryService service({});
  const ServeResponse resp = service.solve(literal_request(1, "((..))", "(..)"));
  ASSERT_EQ(resp.status, ResponseStatus::kOk);
  const EngineResult expected =
      engine_solve("srna2", parse_dot_bracket("((..))"), parse_dot_bracket("(..)"));
  EXPECT_EQ(resp.value, expected.value);
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_EQ(resp.algorithm, "srna2");
  EXPECT_GT(resp.latency_ms, 0.0);
}

TEST(QueryService, SecondIdenticalRequestHitsTheCache) {
  QueryService service({});
  const ServeResponse first = service.solve(literal_request(1, "((.)).", "(())"));
  const ServeResponse second = service.solve(literal_request(2, "((.)).", "(())"));
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.value, second.value);
  EXPECT_EQ(service.cache().stats().hits, 1u);
}

TEST(QueryService, ResponsesEchoTheCanonicalPairDigest) {
  QueryService service({});
  const ServeResponse miss = service.solve(literal_request(1, "((.)).", "(())"));
  const ServeResponse hit = service.solve(literal_request(2, "((.)).", "(())"));
  ASSERT_EQ(miss.status, ResponseStatus::kOk);
  ASSERT_TRUE(hit.cache_hit);

  // The wire digest is the canonical pair hash — the same value the cache
  // key is derived from (the key additionally seeds in the config
  // fingerprint) and the distributed router keys its hash ring with. It must
  // be identical on the miss and the hit.
  const std::string expected =
      pair_digest_hex(parse_dot_bracket("((.))."), parse_dot_bracket("(())"));
  EXPECT_EQ(miss.digest, expected);
  EXPECT_EQ(hit.digest, expected);
  EXPECT_EQ(expected, digest_hex(hash_structure_pair(parse_dot_bracket("((.))."),
                                                     parse_dot_bracket("(())"))));
  EXPECT_EQ(expected.size(), 16u) << "fixed-width zero-padded hex, wire-stable";
  EXPECT_EQ(expected.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(QueryService, NoCacheBypassesLookupAndStore) {
  QueryService service({});
  ServeRequest req = literal_request(1, "((..))", "((..))");
  req.no_cache = true;
  EXPECT_EQ(service.solve(req).status, ResponseStatus::kOk);
  req.id = 2;
  const ServeResponse again = service.solve(req);
  EXPECT_EQ(again.status, ResponseStatus::kOk);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(service.cache().stats().entries, 0u);
}

TEST(QueryService, DifferentAlgorithmsGetDistinctCacheEntries) {
  QueryService service({});
  ServeRequest req = literal_request(1, "((..))", "(..)");
  req.algorithm = "srna2";
  EXPECT_FALSE(service.solve(req).cache_hit);
  req.algorithm = "srna1";
  const ServeResponse other = service.solve(req);
  EXPECT_EQ(other.status, ResponseStatus::kOk);
  EXPECT_FALSE(other.cache_hit);  // separate fingerprint, separate entry
  EXPECT_EQ(service.cache().stats().entries, 2u);
}

TEST(QueryService, ResolvesDatabaseNames) {
  StructureDatabase db;
  db.add({"a", parse_dot_bracket("((..))"), std::nullopt});
  db.add({"b", parse_dot_bracket("(..)"), std::nullopt});
  ServiceConfig config;
  config.db = &db;
  QueryService service(config);

  ServeRequest req;
  req.id = 1;
  req.a_name = "a";
  req.b_name = "b";
  const ServeResponse resp = service.solve(req);
  ASSERT_EQ(resp.status, ResponseStatus::kOk);
  const EngineResult expected =
      engine_solve("srna2", parse_dot_bracket("((..))"), parse_dot_bracket("(..)"));
  EXPECT_EQ(resp.value, expected.value);

  req.b_name = "missing";
  const ServeResponse err = service.solve(req);
  EXPECT_EQ(err.status, ResponseStatus::kError);
  EXPECT_NE(err.error.find("missing"), std::string::npos);
}

TEST(QueryService, BadInputsProduceErrorResponsesNotCrashes) {
  QueryService service({});
  // Unbalanced dot-bracket.
  EXPECT_EQ(service.solve(literal_request(1, "((", "()")).status, ResponseStatus::kError);
  // Unknown backend.
  ServeRequest req = literal_request(2, "()", "()");
  req.algorithm = "quantum";
  const ServeResponse resp = service.solve(req);
  EXPECT_EQ(resp.status, ResponseStatus::kError);
  EXPECT_FALSE(resp.error.empty());
  // Name form without a database.
  ServeRequest named;
  named.id = 3;
  named.a_name = "x";
  named.b_name = "y";
  EXPECT_EQ(service.solve(named).status, ResponseStatus::kError);
  // The service is still healthy afterwards.
  EXPECT_EQ(service.solve(literal_request(4, "()", "()")).status, ResponseStatus::kOk);
}

// --- Satellite edge case 1: deadline expiring mid-solve ---------------------

TEST(QueryService, DeadlineExpiringMidSolveYieldsTimeoutNotTornState) {
  ServiceConfig config;
  config.workers = 1;
  QueryService service(config);

  const auto t0 = std::chrono::steady_clock::now();
  const ServeResponse resp = service.solve(slow_request(1, 60));
  const auto waited = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(resp.status, ResponseStatus::kTimeout);
  EXPECT_NE(resp.error.find("mid-solve"), std::string::npos);
  // The solve was actually cut short (the full solve takes far longer).
  EXPECT_LT(waited, 10s);
  // Nothing torn was cached.
  EXPECT_EQ(service.cache().stats().entries, 0u);
  // The same worker (and its reused workspace) still solves correctly.
  const ServeResponse after = service.solve(literal_request(2, "((..))", "(..)"));
  ASSERT_EQ(after.status, ResponseStatus::kOk);
  EXPECT_EQ(after.value, engine_solve("srna2", parse_dot_bracket("((..))"),
                                      parse_dot_bracket("(..)"))
                             .value);
}

TEST(QueryService, DeadlineExpiredWhileQueuedYieldsTimeout) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  QueryService service(config);

  // Occupy the single worker, then queue a request whose deadline lapses
  // before the worker reaches it.
  std::future<ServeResponse> slow = service.solve_async(slow_request(1, 400));
  ServeRequest starved = literal_request(2, "((..))", "(..)");
  starved.deadline_ms = 30;
  const ServeResponse resp = service.solve(starved);
  EXPECT_EQ(resp.status, ResponseStatus::kTimeout);
  EXPECT_NE(resp.error.find("queued"), std::string::npos);
  EXPECT_EQ(slow.get().status, ResponseStatus::kTimeout);
}

// --- Satellite edge case 2: queue full -> backpressure ----------------------

TEST(QueryService, FullQueueRejectsWithRetryAfterAndLosesNothing) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  QueryService service(config);

  // Block the worker so queued jobs stay queued.
  std::future<ServeResponse> blocker = service.solve_async(slow_request(1, 600));
  // Let the worker pick the blocker up so the queue starts empty.
  const auto give_up = std::chrono::steady_clock::now() + 2s;
  while (service.queue_depth() > 0 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(1ms);

  std::vector<std::future<ServeResponse>> accepted;
  std::uint64_t rejected = 0;
  std::uint64_t submitted = 0;
  // Submit until the queue rejects; capacity 2 bounds accepted jobs.
  while (rejected == 0 && submitted < 100) {
    ServeRequest req = literal_request(static_cast<std::int64_t>(10 + submitted), "()", "()");
    ++submitted;
    auto promise = std::make_shared<std::promise<ServeResponse>>();
    accepted.push_back(promise->get_future());
    service.submit(std::move(req),
                   [promise](const ServeResponse& r) { promise->set_value(r); });
    // Rejections answer inline, so the future is already ready.
    auto& latest = accepted.back();
    if (latest.wait_for(0s) == std::future_status::ready) {
      const ServeResponse resp = latest.get();
      EXPECT_EQ(resp.status, ResponseStatus::kRejected);
      EXPECT_GT(resp.retry_after_ms, 0.0);
      EXPECT_NE(resp.error.find("queue full"), std::string::npos);
      ++rejected;
      accepted.pop_back();
    }
  }
  EXPECT_EQ(rejected, 1u);
  EXPECT_LE(accepted.size(), config.queue_capacity);

  // Every accepted request completes; nothing is lost.
  for (auto& f : accepted) EXPECT_EQ(f.get().status, ResponseStatus::kOk);
  EXPECT_EQ(blocker.get().status, ResponseStatus::kTimeout);
}

// --- Satellite edge case 3: drain completes in-flight work ------------------

TEST(QueryService, DrainCompletesInFlightRequestsThenRejectsNewOnes) {
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  QueryService service(config);

  std::vector<std::future<ServeResponse>> inflight;
  for (int i = 0; i < 16; ++i)
    inflight.push_back(service.solve_async(literal_request(i, "((.(..).))", "((..))")));

  service.drain();

  // Every request accepted before the drain got a real answer.
  for (auto& f : inflight) {
    const ServeResponse resp = f.get();
    EXPECT_EQ(resp.status, ResponseStatus::kOk);
  }
  // New work is rejected, but still answered (exactly one response per submit).
  const ServeResponse resp = service.solve(literal_request(99, "()", "()"));
  EXPECT_EQ(resp.status, ResponseStatus::kRejected);
  EXPECT_NE(resp.error.find("draining"), std::string::npos);
  // Idempotent.
  service.drain();
}

TEST(QueryService, EveryConcurrentSubmitGetsExactlyOneResponse) {
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 16;
  QueryService service(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<int> responses{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // A mix of fast solves; some will be rejected under the small queue —
        // both paths must produce exactly one callback.
        service.submit(literal_request(t * kPerThread + i, "((..))", "(.)"),
                       [&](const ServeResponse&) { responses.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.drain();
  EXPECT_EQ(responses.load(), kThreads * kPerThread);

  const obs::Json stats = service.stats_json();
  EXPECT_EQ(stats.find("accepted")->as_uint() + stats.find("rejected")->as_uint(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(QueryService, ConcurrentIdenticalMissesCoalesceIntoOneSolve) {
  ensure_gated_backend();
  g_gated_solves.store(0);
  g_gate_open.store(false);

  ServiceConfig config;
  config.workers = 4;
  QueryService service(config);

  constexpr int kClients = 4;
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < kClients; ++i) {
    ServeRequest req = literal_request(i + 1, "((..))", "(..)");
    req.algorithm = "gated-slow";
    futures.push_back(service.solve_async(std::move(req)));
  }

  // Hold the leader inside the backend until every duplicate has parked
  // behind its flight, so the single-solve claim is deterministic, not a
  // race we happened to win.
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  bool all_parked = false;
  while (std::chrono::steady_clock::now() < give_up) {
    const obs::Json stats = service.stats_json();
    if (stats.find("coalesced_requests")->as_uint() ==
        static_cast<std::uint64_t>(kClients - 1)) {
      all_parked = true;
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  g_gate_open.store(true);  // release the leader even if the expectation failed
  EXPECT_TRUE(all_parked) << "duplicate misses did not park behind the in-flight solve";

  int coalesced_responses = 0;
  for (int i = 0; i < kClients; ++i) {
    const ServeResponse resp = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_EQ(resp.value, 7);
    EXPECT_EQ(resp.id, i + 1);  // every client answered under its own id
    EXPECT_NE(resp.trace_id, 0u);
    if (resp.coalesced) ++coalesced_responses;
  }
  // Exactly one solve ran; every other client got the leader's fan-out.
  EXPECT_EQ(g_gated_solves.load(), 1);
  EXPECT_EQ(coalesced_responses, kClients - 1);
}

TEST(QueryService, NoCacheRequestsNeverCoalesce) {
  ensure_gated_backend();
  g_gated_solves.store(0);
  g_gate_open.store(false);

  ServiceConfig config;
  config.workers = 2;
  QueryService service(config);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 2; ++i) {
    ServeRequest req = literal_request(i + 1, "((..))", "(..)");
    req.algorithm = "gated-slow";
    req.no_cache = true;  // demands a fresh solve: must not join a flight
    futures.push_back(service.solve_async(std::move(req)));
  }
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (g_gated_solves.load() < 2 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(1ms);
  g_gate_open.store(true);
  for (auto& f : futures) {
    const ServeResponse resp = f.get();
    EXPECT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_FALSE(resp.coalesced);
  }
  EXPECT_EQ(g_gated_solves.load(), 2);
}

TEST(QueryService, StatsJsonCarriesTheReportFields) {
  QueryService service({});
  (void)service.solve(literal_request(1, "((..))", "(..)"));
  (void)service.solve(literal_request(2, "((..))", "(..)"));
  const obs::Json stats = service.stats_json();
  EXPECT_TRUE(stats.contains("workers"));
  EXPECT_TRUE(stats.contains("queue_capacity"));
  EXPECT_TRUE(stats.contains("responses_ok"));
  EXPECT_TRUE(stats.contains("worker_utilization"));
  ASSERT_TRUE(stats.contains("cache"));
  EXPECT_EQ(stats.find("cache")->find("hits")->as_uint(), 1u);
  ASSERT_TRUE(stats.contains("request_latency"));
  EXPECT_EQ(stats.find("request_latency")->find("count")->as_uint(), 2u);
}

TEST(ConfigFingerprint, DistinguishesAlgorithmAndLayout) {
  SolverConfig dense;
  SolverConfig compressed;
  compressed.layout = SliceLayout::kCompressed;
  EXPECT_NE(config_fingerprint("srna1", dense), config_fingerprint("srna2", dense));
  EXPECT_NE(config_fingerprint("srna2", dense), config_fingerprint("srna2", compressed));
  EXPECT_EQ(config_fingerprint("srna2", dense), config_fingerprint("srna2", dense));
}

}  // namespace
}  // namespace srna::serve
