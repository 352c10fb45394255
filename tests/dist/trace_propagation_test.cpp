// Distributed trace propagation: the router mints one fleet-unique trace id
// per admitted request, stamps it into the forwarded line, and the shard
// adopts it — so the router's dispatch spans and the shard's serve spans
// carry the same id the client sees echoed in the response. Also covers the
// hop fields (attempts / shard / router_queued_ms) traced responses gain,
// and the merged /flightz view spanning router + shard rings.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/net.hpp"
#include "dist/router.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/admin.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace srna::dist {
namespace {

// Router-minted ids carry a 12-bit salt with the top bit forced, so every
// one lands in [2^51, 2^52) — inside double-exact range, outside anything a
// shard's own counter (1, 2, 3, ...) would produce.
constexpr std::uint64_t kRouterIdFloor = 1ull << 51;
constexpr std::uint64_t kRouterIdCeiling = 1ull << 52;

// One in-process shard: the same three servers srna-serve runs.
struct Shard {
  explicit Shard(const std::string& name) {
    serve::ServiceConfig config;
    config.workers = 2;
    config.queue_capacity = 32;
    service = std::make_unique<serve::QueryService>(config);
    server = std::make_unique<serve::TcpServer>(*service, "127.0.0.1", 0);
    admin = std::make_unique<serve::AdminServer>(*service, "127.0.0.1", 0);
    address.name = name;
    address.data = {"127.0.0.1", server->port()};
    address.admin = {"127.0.0.1", admin->port()};
  }

  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::unique_ptr<serve::AdminServer> admin;
  ShardAddress address;
};

RouterConfig fast_probe_config(const std::vector<ShardAddress>& shards) {
  RouterConfig config;
  config.shards = shards;
  config.probe.interval_ms = 50;
  config.connect_timeout_ms = 250;
  return config;
}

// All spans named cat/name whose args carry the given trace id.
std::size_t spans_with_trace_id(const obs::Json& doc, const std::string& key,
                                std::uint64_t trace_id) {
  std::size_t count = 0;
  for (const obs::Json& e : doc.find("traceEvents")->items()) {
    const obs::Json* ph = e.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    if (e.find("cat")->as_string() + "/" + e.find("name")->as_string() != key) continue;
    const obs::Json* args = e.find("args");
    if (args != nullptr && args->contains("trace_id") &&
        args->find("trace_id")->as_uint() == trace_id)
      ++count;
  }
  return count;
}

class DistTracePropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
  void TearDown() override {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

TEST_F(DistTracePropagationTest, RouterMintsOneIdSpanningDispatchAndSolve) {
  obs::Tracer::instance().enable();
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  serve::ServeRequest req;
  req.id = 1;
  req.a = "((.(..).))";
  req.b = "((..))";
  req.trace = true;
  const std::string line = client.roundtrip(req.to_line());
  const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
  front.stop();
  router.stop();
  shard.service->drain();
  obs::Tracer::instance().disable();

  ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);
  EXPECT_GE(resp.trace_id, kRouterIdFloor) << "router-minted, not shard-minted";
  EXPECT_LT(resp.trace_id, kRouterIdCeiling);

  // Hop fields: traced responses say how the router got the answer.
  EXPECT_EQ(resp.attempts, 1u);
  EXPECT_EQ(resp.shard, "s0");
  EXPECT_GE(resp.router_queued_ms, 0.0);

  // Router and shard live in one process here, so one Tracer holds both
  // halves: the dispatch spans the router recorded and the serve spans the
  // shard recorded — all under the id the response echoed.
  const obs::Json doc = obs::Tracer::instance().to_json();
  EXPECT_EQ(spans_with_trace_id(doc, "dist/queued", resp.trace_id), 1u);
  EXPECT_EQ(spans_with_trace_id(doc, "dist/attempt", resp.trace_id), 1u);
  EXPECT_EQ(spans_with_trace_id(doc, "serve/solve", resp.trace_id), 1u);
}

TEST_F(DistTracePropagationTest, ClientSuppliedTraceIdSurvivesEndToEnd) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  serve::ServeRequest req;
  req.id = 5;
  req.a = "((..))";
  req.b = "(..)";
  req.trace = true;
  req.trace_id = 4242;  // caller joins an existing trace; nobody re-mints
  const std::string line = client.roundtrip(req.to_line());
  front.stop();
  router.stop();
  const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
  ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(resp.trace_id, 4242u);
}

TEST_F(DistTracePropagationTest, UntracedResponsesCarryNoHopFields) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  serve::ServeRequest req;
  req.id = 2;
  req.a = "((..))";
  req.b = "(..)";
  const std::string line = client.roundtrip(req.to_line());
  front.stop();
  router.stop();
  // Byte-level: untraced routed responses must stay identical to direct
  // serving, so the hop fields may not even appear as keys.
  EXPECT_EQ(line.find("\"attempts\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"router_queued_ms\""), std::string::npos) << line;
  const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
  ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(resp.attempts, 0u);
  EXPECT_TRUE(resp.shard.empty());
}

TEST_F(DistTracePropagationTest, MergedFlightzInterleavesRouterAndShardRecords) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", front.port()}, 15000);

  serve::ServeRequest req;
  req.id = 9;
  req.a = "((.(..).))";
  req.b = "((..))";
  req.trace = true;
  const std::string line = client.roundtrip(req.to_line());
  const serve::ServeResponse resp = serve::ServeResponse::from_line(line);
  ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);

  // The in-band admin view merges the router's own ring with every shard's
  // /flightz scrape (the shard admin plane is live in this harness).
  std::vector<std::string> emitted;
  router.handle_line(R"({"admin": "flightz"})",
                     [&emitted](const std::string& out) { emitted.push_back(out); });
  front.stop();
  router.stop();
  ASSERT_EQ(emitted.size(), 1u);
  const std::optional<obs::Json> doc = obs::Json::parse(emitted[0]);
  ASSERT_TRUE(doc.has_value());
  const obs::Json* flight = doc->find("flight");
  ASSERT_NE(flight, nullptr) << emitted[0];
  EXPECT_EQ(flight->find("processes")->as_uint(), 2u) << "router + one shard";

  // Both processes logged the request, each record tagged with its origin
  // and all of them carrying the router-minted trace id.
  std::map<std::string, std::uint64_t> per_process_hits;
  for (const obs::Json& record : flight->find("records")->items()) {
    const obs::Json* trace_id = record.find("trace_id");
    if (trace_id != nullptr && trace_id->as_uint() == resp.trace_id)
      per_process_hits[record.find("process")->as_string()] += 1;
  }
  EXPECT_EQ(per_process_hits["router"], 1u);
  EXPECT_EQ(per_process_hits["s0"], 1u);

  const obs::Json* per_process = flight->find("per_process");
  ASSERT_NE(per_process, nullptr);
  EXPECT_NE(per_process->find("router"), nullptr);
  EXPECT_NE(per_process->find("s0"), nullptr);
}

TEST_F(DistTracePropagationTest, DeadFleetRejectionLandsInTheRouterFlightRing) {
  Shard shard("s0");
  RouterConfig config = fast_probe_config({shard.address});
  shard.server->stop();
  shard.admin->stop();  // the only shard is gone before the router connects
  Router router(config);

  serve::ServeRequest req;
  req.id = 7;
  req.a = "((..))";
  req.b = "(())..";
  req.trace = true;
  std::vector<std::string> emitted;
  router.handle_line(req.to_line(),
                     [&emitted](const std::string& out) { emitted.push_back(out); });
  ASSERT_EQ(emitted.size(), 1u);
  const serve::ServeResponse resp = serve::ServeResponse::from_line(emitted[0]);
  EXPECT_EQ(resp.status, serve::ResponseStatus::kRejected);

  const obs::Json flight = router.flight().to_json();
  router.stop();
  bool found = false;
  for (const obs::Json& record : flight.find("records")->items()) {
    if (record.find("outcome")->as_string() != "rejected") continue;
    found = true;
    const obs::Json* trace_id = record.find("trace_id");
    ASSERT_NE(trace_id, nullptr) << "rejections still carry their trace id";
    EXPECT_EQ(trace_id->as_uint(), resp.trace_id);
  }
  EXPECT_TRUE(found) << flight.dump(2);
  // A rejection is an anomaly-class outcome only in bursts; but it is
  // always in the ring, which is what post-mortems read.
  EXPECT_GE(flight.find("recorded")->as_uint(), 1u);
}

}  // namespace
}  // namespace srna::dist
