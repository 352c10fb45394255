// End-to-end router semantics (src/dist/router.hpp) against real in-process
// shards (QueryService + TcpServer + AdminServer per shard, loopback TCP all
// the way):
//
//   * routed response bytes equal direct-serving bytes (modulo trace/timing)
//   * the canonical pair digest rides every response, routed or not
//   * exactly one response per accepted request across a shard kill
//   * a shard line past the reader's cap fails over like a dead link
//   * explicit retryable rejection when no shard can answer
//   * deterministic routing verdicts (route_of)
#include "dist/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dist/net.hpp"
#include "obs/json.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/generators.hpp"
#include "rna/structure_hash.hpp"
#include "serve/admin.hpp"
#include "serve/line_reader.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace srna::dist {
namespace {

serve::ServiceConfig small_service_config() {
  serve::ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.cache.capacity = 64;
  return config;
}

// One in-process shard: the same three servers srna-serve runs.
struct Shard {
  explicit Shard(const std::string& name) {
    service = std::make_unique<serve::QueryService>(small_service_config());
    server = std::make_unique<serve::TcpServer>(*service, "127.0.0.1", 0);
    admin = std::make_unique<serve::AdminServer>(*service, "127.0.0.1", 0);
    address.name = name;
    address.data = {"127.0.0.1", server->port()};
    address.admin = {"127.0.0.1", admin->port()};
  }

  // A "crash": both listeners vanish, connections reset. The service object
  // stays alive so in-flight solves complete into closed sockets — exactly
  // what a SIGKILLed shard looks like from the router's side of the wire.
  void kill() {
    server->stop();
    admin->stop();
  }

  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::unique_ptr<serve::AdminServer> admin;
  ShardAddress address;
};

// Rebuilds a response line without its volatile fields (trace identity and
// wall-clock timings differ run to run; everything else must match).
std::string stripped(const std::string& line) {
  const std::optional<obs::Json> doc = obs::Json::parse(line);
  if (!doc || !doc->is_object()) return line;
  static const std::set<std::string> kVolatile = {"trace_id", "queued_ms", "solve_ms",
                                                  "latency_ms"};
  obs::Json out = obs::Json::object();
  for (const auto& [key, value] : doc->members())
    if (kVolatile.count(key) == 0) out.set(key, value);
  return out.dump(0);
}

std::vector<std::string> test_structures(std::size_t count, Pos length = 40) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(to_dot_bracket(random_structure(length, 0.4, 1234 + 97 * i)));
  return out;
}

std::string request_line(std::int64_t id, const std::string& a, const std::string& b) {
  serve::ServeRequest req;
  req.id = id;
  req.a = a;
  req.b = b;
  return req.to_line();
}

RouterConfig fast_probe_config(const std::vector<ShardAddress>& shards) {
  RouterConfig config;
  config.shards = shards;
  config.probe.interval_ms = 50;
  config.connect_timeout_ms = 250;
  return config;
}

TEST(Router, RoutedBytesEqualDirectServingBytes) {
  // Two identical single-shard universes: one naked, one behind the router.
  // Identical request sequences must produce identical response bytes —
  // including cache_hit flags, error messages for malformed lines, and the
  // restored client ids.
  Shard direct("direct");
  Shard routed("routed");
  Router router(fast_probe_config({routed.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);

  const std::vector<std::string> pool = test_structures(4);
  std::vector<std::string> lines;
  std::int64_t id = 1;
  for (int repeat = 0; repeat < 2; ++repeat)  // second pass = cache hits
    for (const std::string& a : pool)
      for (const std::string& b : pool) lines.push_back(request_line(id++, a, b));
  lines.push_back("this is not json");                       // transport error path
  lines.push_back(R"x({"id": 999, "a": "((", "b": "))"})x");  // solve error path

  // Receive timeouts: a lost response fails the test instead of hanging it.
  LineClient direct_client(Endpoint{"127.0.0.1", direct.server->port()}, 15000);
  LineClient routed_client(Endpoint{"127.0.0.1", front.port()}, 15000);

  for (const std::string& line : lines) {
    std::string from_direct, from_router;
    ASSERT_NO_THROW(from_direct = direct_client.roundtrip(line)) << line;
    ASSERT_NO_THROW(from_router = routed_client.roundtrip(line)) << line;
    EXPECT_EQ(stripped(from_router), stripped(from_direct)) << "request: " << line;
  }

  front.stop();
  router.stop();
}

TEST(Router, ResponsesEchoTheCanonicalPairDigest) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  const std::vector<std::string> pool = test_structures(2);
  const std::string expected =
      pair_digest_hex(parse_dot_bracket(pool[0]), parse_dot_bracket(pool[1]));

  for (int attempt = 0; attempt < 2; ++attempt) {  // miss, then cache hit
    const serve::ServeResponse resp = serve::ServeResponse::from_line(
        client.roundtrip(request_line(attempt + 1, pool[0], pool[1])));
    ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(resp.cache_hit, attempt == 1);
    // The digest is the wire form of the canonical structure-pair hash — the
    // same value the router keyed the ring with and the shard keyed its
    // cache with (cache keys add a config fingerprint on top).
    EXPECT_EQ(resp.digest, expected);
    ASSERT_EQ(resp.digest.size(), 16u);
  }

  front.stop();
  router.stop();
}

TEST(Router, ExactlyOneResponsePerRequestAcrossAShardKill) {
  Shard s0("s0");
  Shard s1("s1");
  Router router(fast_probe_config({s0.address, s1.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  const std::vector<std::string> pool = test_structures(8);
  constexpr std::int64_t kFirstWave = 40;
  constexpr std::int64_t kSecondWave = 20;

  // Pipeline the first wave, read a few responses, then kill one shard with
  // the rest still in flight.
  for (std::int64_t i = 0; i < kFirstWave; ++i)
    client.send(request_line(i, pool[static_cast<std::size_t>(i) % pool.size()],
                             pool[static_cast<std::size_t>(i + 1) % pool.size()]));

  std::map<std::int64_t, serve::ServeResponse> responses;
  for (int got = 0; got < 10; ++got) {
    std::string line;
    ASSERT_NO_THROW(line = client.receive()) << "lost a response before the kill";
    const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
    ASSERT_TRUE(responses.emplace(resp.id, resp).second)
        << "duplicate response for id " << resp.id;
  }

  s0.kill();  // in-flight requests on s0 must fail over to s1

  while (responses.size() < static_cast<std::size_t>(kFirstWave)) {
    std::string line;
    ASSERT_NO_THROW(line = client.receive())
        << "lost a response after the kill (" << responses.size() << " of "
        << kFirstWave << " arrived)";
    const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
    ASSERT_TRUE(responses.emplace(resp.id, resp).second)
        << "duplicate response for id " << resp.id;
  }

  // A second wave against the degraded fleet: everything lands on s1.
  for (std::int64_t i = kFirstWave; i < kFirstWave + kSecondWave; ++i)
    client.send(request_line(i, pool[static_cast<std::size_t>(i) % pool.size()],
                             pool[static_cast<std::size_t>(i + 1) % pool.size()]));
  while (responses.size() < static_cast<std::size_t>(kFirstWave + kSecondWave)) {
    std::string line;
    ASSERT_NO_THROW(line = client.receive()) << "lost a response in the degraded fleet";
    const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
    ASSERT_TRUE(responses.emplace(resp.id, resp).second)
        << "duplicate response for id " << resp.id;
  }

  // Exactly one response per id, and with a live replica every single one
  // solved — a kill mid-run costs retries, never answers.
  for (std::int64_t i = 0; i < kFirstWave + kSecondWave; ++i) {
    ASSERT_TRUE(responses.count(i) == 1) << "id " << i;
    EXPECT_EQ(responses[i].status, serve::ResponseStatus::kOk)
        << "id " << i << ": " << responses[i].error;
  }

  front.stop();
  router.stop();
}

TEST(Router, FailoversEqualTheFailedAttemptsOfItsRequests) {
  // Every failed attempt is counted once, at the point where its request
  // moves on: a send that fails on a dying link and the maintenance sweep of
  // that link must not both count it. Traced requests report their attempts,
  // so the router's own per-request records are the witness.
  Shard s0("s0");
  Shard s1("s1");
  Router router(fast_probe_config({s0.address, s1.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  const std::vector<std::string> pool = test_structures(8);
  constexpr std::int64_t kFirstWave = 40;
  constexpr std::int64_t kSecondWave = 20;
  auto traced_line = [&pool](std::int64_t i) {
    serve::ServeRequest req;
    req.id = i;
    req.a = pool[static_cast<std::size_t>(i) % pool.size()];
    req.b = pool[static_cast<std::size_t>(i + 1) % pool.size()];
    req.trace = true;
    return req.to_line();
  };
  std::map<std::int64_t, serve::ServeResponse> responses;
  auto collect = [&](std::size_t until) {
    while (responses.size() < until) {
      std::string line;
      ASSERT_NO_THROW(line = client.receive()) << responses.size() << " of " << until;
      const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
      ASSERT_TRUE(responses.emplace(resp.id, resp).second) << "duplicate id " << resp.id;
    }
  };

  for (std::int64_t i = 0; i < kFirstWave; ++i) client.send(traced_line(i));
  collect(10);
  s0.kill();  // in-flight requests on s0 fail over to s1
  collect(kFirstWave);
  ASSERT_FALSE(HasFatalFailure());
  for (std::int64_t i = kFirstWave; i < kFirstWave + kSecondWave; ++i)
    client.send(traced_line(i));
  collect(kFirstWave + kSecondWave);
  ASSERT_FALSE(HasFatalFailure());

  std::uint64_t failed_attempts = 0;
  for (const auto& [id, resp] : responses) {
    ASSERT_EQ(resp.status, serve::ResponseStatus::kOk) << "id " << id << ": " << resp.error;
    ASSERT_GE(resp.attempts, 1u) << "id " << id;
    failed_attempts += resp.attempts - 1;
  }
  const obs::Json stats = router.stats_json();
  EXPECT_EQ(stats.find("router")->find("failovers")->as_uint(), failed_attempts);

  front.stop();
  router.stop();
}

TEST(Router, DeeplyNestedLineGetsOneErrorAndTheRouterKeepsServing) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  // Within the line cap; its nesting alone once overflowed the parser's
  // stack and killed the router.
  const serve::ServeResponse bad = serve::ServeResponse::from_line(
      client.roundtrip(std::string(serve::kMaxLineBytes, '[')));
  EXPECT_EQ(bad.status, serve::ResponseStatus::kError);
  EXPECT_NE(bad.error.find("bad request"), std::string::npos) << bad.error;

  const serve::ServeResponse ok =
      serve::ServeResponse::from_line(client.roundtrip(request_line(3, "((..))", "(..)")));
  EXPECT_EQ(ok.id, 3);
  EXPECT_EQ(ok.status, serve::ResponseStatus::kOk) << ok.error;

  front.stop();
  router.stop();
}

TEST(Router, OverlongShardLineFailsOverLikeADeadLink) {
  Shard good("good");
  // Answers every request with a line one byte past the reader's cap. Its
  // admin listener (a real service) keeps it probe-ready, so the router
  // keeps choosing it and must fail over each time.
  Shard babbler("babbler");
  babbler.server = std::make_unique<serve::TcpServer>(
      [](const std::string&, const serve::TcpServer::EmitLine& emit) {
        emit(std::string(serve::kMaxLineBytes + 1, 'x'));
      },
      "127.0.0.1", 0);
  babbler.address.data = {"127.0.0.1", babbler.server->port()};

  RouterConfig config = fast_probe_config({good.address, babbler.address});
  // Only the overflow path can re-home a request in time: an attempt
  // timeout, or an idle link's receive timeout (connect_timeout_ms), would
  // outlast the client's 15 s receive timeout.
  config.request_timeout_ms = 60000;
  config.connect_timeout_ms = 30000;
  Router router(config);
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  // Distinct pairs spread over both shards' ring ranges.
  const std::vector<std::string> pool = test_structures(8);
  constexpr std::int64_t kRequests = 16;
  for (std::int64_t i = 0; i < kRequests; ++i) {
    std::string line;
    ASSERT_NO_THROW(line = client.roundtrip(request_line(
                        i, pool[static_cast<std::size_t>(i) % pool.size()],
                        pool[static_cast<std::size_t>(i / 2 + 3) % pool.size()])))
        << "lost the response to id " << i;
    const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
    EXPECT_EQ(resp.id, i);
    EXPECT_EQ(resp.status, serve::ResponseStatus::kOk) << resp.error;
  }
  const obs::Json stats = router.stats_json();
  EXPECT_GT(stats.find("router")->find("failovers")->as_uint(), 0u)
      << "no request ever reached the overlong shard";

  front.stop();
  router.stop();
}

TEST(Router, RejectsRetryablyWhenNoShardCanAnswer) {
  Shard shard("s0");
  RouterConfig config = fast_probe_config({shard.address});
  shard.kill();  // the only shard is gone before the router ever connects
  Router router(config);

  std::vector<std::string> emitted;
  router.handle_line(request_line(7, "((..))", "(()).."),
                     [&emitted](const std::string& line) { emitted.push_back(line); });

  ASSERT_EQ(emitted.size(), 1u) << "exactly one response even for a dead fleet";
  const serve::ServeResponse resp = serve::ServeResponse::from_line(emitted[0]);
  EXPECT_EQ(resp.status, serve::ResponseStatus::kRejected);
  EXPECT_EQ(resp.id, 7);
  EXPECT_GT(resp.retry_after_ms, 0.0) << "rejection must carry a backoff hint";
  router.stop();
}

TEST(Router, RouteOfIsDeterministicAndStaysInTheFleet) {
  Shard s0("s0");
  Shard s1("s1");
  Router router(fast_probe_config({s0.address, s1.address}));

  const std::vector<std::string> pool = test_structures(6);
  std::set<std::string> seen_owners;
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    const std::string line = request_line(1, pool[i], pool[i + 1]);
    const std::vector<std::string> route = router.route_of(line);
    ASSERT_EQ(route.size(), 2u) << "owner + one replica for a 2-shard fleet";
    EXPECT_NE(route[0], route[1]);
    EXPECT_EQ(route, router.route_of(line)) << "routing must be deterministic";
    seen_owners.insert(route[0]);
    for (const std::string& name : route)
      EXPECT_TRUE(name == "s0" || name == "s1") << name;
  }
  router.stop();
}

TEST(Router, InBandAdminLinesAnswerAggregatedViews) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));

  std::vector<std::string> emitted;
  router.handle_line(R"({"admin": "statz"})",
                     [&emitted](const std::string& line) { emitted.push_back(line); });
  ASSERT_EQ(emitted.size(), 1u);
  const std::optional<obs::Json> doc = obs::Json::parse(emitted[0]);
  ASSERT_TRUE(doc.has_value());
  const obs::Json* stats = doc->find("stats");
  ASSERT_NE(stats, nullptr) << emitted[0];
  EXPECT_NE(stats->find("router"), nullptr) << "router's own counters";
  EXPECT_NE(stats->find("fleet"), nullptr) << "aggregated shard statz";
  router.stop();
}

}  // namespace
}  // namespace srna::dist
