// serve-fleet: open-loop JSON-lines traffic into srna-router.
//
// fleet-prep builds the request plan from the seed and computes every
// expected answer in process with srna2. fleet-gen replays the plan against
// a running router at each rate of a fixed ladder, from two threads with one
// pipelined connection each, and checks every answer.
//
// The plan mixes three kinds of request (shares are of requests):
//   hot     25%  repeats of a small set of pairs          -> cache reads
//   fresh   50%  a cycle through more distinct pairs than  -> cache inserts and
//                the fleet's caches hold                      evictions, no hits
//   shared  25%  one query structure A against a pool of  -> single-flight
//                B, each pair sent twice back to back         coalescing
//
// The shapes follow the repository's own serving workloads (srna-loadgen's
// defaults, BENCH_serving_throughput.json, BENCH_serving_shared.json):
// structures of length 120 at arc density 0.4, and a repeat fraction of 0.25
// drawn from a hot set of 32 (BENCH_serving_shared's 256 structures / 8).
// The shared slice gets the same share as the hot set; the rest is fresh.
//
// Every request is timed from the moment it was due to be sent, so a stall
// delays the requests queued behind it too; how late the generator itself
// sent is reported separately.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/mcos.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/generators.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

using namespace srna;

constexpr Pos kLength = 120;
constexpr double kDensity = 0.4;
constexpr double kRepeatFraction = 0.25;
constexpr std::size_t kHotPairs = 32;
constexpr std::size_t kFreshPairs = 1536;  // 3x the two shards' 2 x 256 cache entries
constexpr std::size_t kSharedPairs = 512;
constexpr double kHotShare = kRepeatFraction;
constexpr double kSharedShare = kRepeatFraction;  // sent as two copies
constexpr double kFreshShare = 1.0 - kHotShare - kSharedShare;
// The ladder, requests per second; each rung is a third of the run. On a
// 4-core host the fleet keeps its p99 under 2 ms up to 6000/s, so every rung
// is below saturation, where a p99 is steady enough to compare between runs.
constexpr std::array<double, 3> kRates = {1000, 2000, 3000};
// A rung's p99 is the median of the p99s of windows of this many consecutive
// requests, so at least ten lie beyond each window's p99.
constexpr std::size_t kWindowRequests = 1000;
constexpr std::size_t kTraceEvery = 8;  // traced run: one request in eight asks for hop fields
constexpr double kDrainSeconds = 5;     // after a rung, wait this long for stragglers
constexpr std::size_t kLanes = 2;       // generator threads, one connection each

enum class Kind : std::uint8_t { kHot, kFresh, kShared };

struct PlanPair {
  Kind kind = Kind::kHot;
  Score expected = 0;
  std::string a;
  std::string b;
};

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kHot: return "hot";
    case Kind::kFresh: return "fresh";
    case Kind::kShared: return "shared";
  }
  return "hot";
}

Kind parse_kind(const std::string& name) {
  if (name == "hot") return Kind::kHot;
  if (name == "fresh") return Kind::kFresh;
  if (name == "shared") return Kind::kShared;
  throw std::runtime_error("plan: unknown kind '" + name + "'");
}

SecondaryStructure plan_structure(std::mt19937_64& rng) {
  return random_structure(kLength, kDensity, rng());
}

std::vector<PlanPair> make_plan(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<PlanPair> plan;
  for (std::size_t i = 0; i < kHotPairs + kFreshPairs; ++i) {
    PlanPair pair;
    pair.kind = i < kHotPairs ? Kind::kHot : Kind::kFresh;
    pair.a = to_dot_bracket(plan_structure(rng));
    pair.b = to_dot_bracket(plan_structure(rng));
    plan.push_back(std::move(pair));
  }
  const std::string query = to_dot_bracket(plan_structure(rng));
  for (std::size_t i = 0; i < kSharedPairs; ++i) {
    PlanPair pair;
    pair.kind = Kind::kShared;
    pair.a = query;
    pair.b = to_dot_bracket(plan_structure(rng));
    plan.push_back(std::move(pair));
  }
  return plan;
}

std::vector<PlanPair> read_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  std::vector<PlanPair> plan;
  std::string kind;
  PlanPair pair;
  while (in >> kind >> pair.expected >> pair.a >> pair.b) {
    pair.kind = parse_kind(kind);
    plan.push_back(pair);
  }
  if (plan.empty()) throw std::runtime_error("empty plan " + path);
  return plan;
}

// One request of the schedule; its index in the run's slot list is its id.
struct Slot {
  std::uint64_t due_ns = 0;  // offset from its rung's start
  std::size_t rung = 0;
  std::size_t lane = 0;
  Score expected = 0;
  bool traced = false;
  std::string line;  // the request line, newline included
};

// What happened to one request.
struct Outcome {
  std::uint64_t due_ns = 0;  // absolute
  std::uint64_t sent_ns = 0;
  std::uint64_t received_ns = 0;
  int answers = 0;
  bool ok = false;
  bool cache_hit = false;
  bool coalesced = false;
  serve::ResponseStatus status = serve::ResponseStatus::kError;
  double queued_ms = 0, solve_ms = 0, router_queued_ms = 0;
  std::uint32_t attempts = 0;
};

// Builds every rung's schedule. Requests come in groups — one request, or a
// shared pair's two copies due at the same instant — spaced evenly at the
// rung's rate; groups alternate between the lanes.
std::vector<Slot> make_schedule(const std::vector<PlanPair>& plan, const Options& options,
                                double rung_seconds) {
  // Request shares as shares of groups: a shared group is two requests.
  const double groups_per_request = kHotShare + kFreshShare + kSharedShare / 2;
  const double hot_groups = kHotShare / groups_per_request;
  const double fresh_groups = kFreshShare / groups_per_request;
  std::vector<std::size_t> hot, fresh, shared;
  for (std::size_t i = 0; i < plan.size(); ++i)
    (plan[i].kind == Kind::kHot ? hot : plan[i].kind == Kind::kFresh ? fresh : shared)
        .push_back(i);
  std::mt19937_64 rng(options.seed * 0xbf58476d1ce4e5b9ULL + 29);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::size_t fresh_cursor = 0;
  std::size_t shared_cursor = 0;
  std::vector<Slot> slots;
  for (std::size_t rung = 0; rung < kRates.size(); ++rung) {
    const double group_interval = 1.0 / (groups_per_request * kRates[rung]);
    const auto groups = static_cast<std::size_t>(rung_seconds / group_interval);
    for (std::size_t g = 0; g < groups; ++g) {
      const double u = coin(rng);
      std::size_t pair;
      int copies = 1;
      if (u < hot_groups) {
        pair = hot[rng() % hot.size()];
      } else if (u < hot_groups + fresh_groups) {
        pair = fresh[fresh_cursor++ % fresh.size()];
      } else {
        pair = shared[shared_cursor++ % shared.size()];
        copies = 2;
      }
      for (int c = 0; c < copies; ++c) {
        Slot slot;
        slot.due_ns = static_cast<std::uint64_t>(static_cast<double>(g) * group_interval * 1e9);
        slot.rung = rung;
        slot.lane = g % kLanes;
        slot.expected = plan[pair].expected;
        slot.traced = options.trace && slots.size() % kTraceEvery == 0;
        serve::ServeRequest request;
        request.id = static_cast<std::int64_t>(slots.size());
        request.a = plan[pair].a;
        request.b = plan[pair].b;
        request.trace = slot.traced;
        slot.line = request.to_line() + "\n";
        slots.push_back(std::move(slot));
      }
    }
  }
  return slots;
}

int connect_localhost(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to port " + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// One generator thread's connection. It sends only its own slots and writes
// only their outcomes, so lanes share no mutable state.
class Lane {
 public:
  Lane(int port, const std::vector<Slot>& slots, std::vector<Outcome>& outcomes)
      : fd_(connect_localhost(port)), slots_(slots), outcomes_(outcomes) {}
  ~Lane() { ::close(fd_); }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  // Sends rung `rung`'s `ids` (due-ordered) on schedule from `start_ns`, then
  // waits for their answers. Returns the number unanswered when the rung's
  // sending window closed — the backlog. What is still unanswered after the
  // drain stays lost: a later answer to it is ignored.
  std::size_t run_rung(std::size_t rung, const std::vector<std::size_t>& ids,
                       std::uint64_t start_ns, std::uint64_t end_ns) {
    rung_ = rung;
    std::size_t next = 0;
    std::size_t backlog = 0;
    bool window_closed = false;
    const auto give_up = end_ns + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
    for (;;) {
      std::uint64_t now = now_ns();
      while (next < ids.size() && start_ns + slots_[ids[next]].due_ns <= now) {
        const std::size_t id = ids[next++];
        out_ += slots_[id].line;
        outcomes_[id].due_ns = start_ns + slots_[id].due_ns;
        outcomes_[id].sent_ns = now;
        ++pending_;
      }
      flush();
      now = now_ns();
      if (!window_closed && now >= end_ns) {
        window_closed = true;
        backlog = pending_;
      }
      if ((next == ids.size() && pending_ == 0 && out_.empty()) || now >= give_up) break;
      std::uint64_t wait = give_up - now;
      if (next < ids.size()) {
        const std::uint64_t due = start_ns + slots_[ids[next]].due_ns;
        wait = due > now ? due - now : 0;
      }
      if (!window_closed) wait = std::min(wait, end_ns - now);
      pollfd pfd{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
      const timespec timeout{static_cast<time_t>(wait / 1000000000ULL),
                             static_cast<long>(wait % 1000000000ULL)};
      const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
      if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) receive();
    }
    const std::size_t result = window_closed ? backlog : pending_;
    pending_ = 0;
    return result;
  }

  // A few raw response lines, for the codec probe.
  [[nodiscard]] const std::vector<std::string>& samples() const noexcept { return samples_; }

 private:
  void flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        return;
      } else {
        throw std::runtime_error("send failed: connection lost");
      }
    }
  }

  void receive() {
    char buffer[1 << 16];
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n == 0) throw std::runtime_error("router closed the connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      throw std::runtime_error("recv failed");
    }
    const std::uint64_t received = now_ns();
    in_.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = in_.find('\n', start); nl != std::string::npos;
         nl = in_.find('\n', start)) {
      handle(std::string_view(in_).substr(start, nl - start), received);
      start = nl + 1;
    }
    in_.erase(0, start);
  }

  void handle(std::string_view line, std::uint64_t received) {
    const serve::ServeResponse response = serve::ServeResponse::from_line(line);
    if (response.id < 0 || static_cast<std::size_t>(response.id) >= outcomes_.size())
      throw std::runtime_error("response with an unknown id");
    const auto id = static_cast<std::size_t>(response.id);
    if (slots_[id].rung != rung_) return;  // after its rung's drain: already lost
    Outcome& outcome = outcomes_[id];
    if (++outcome.answers > 1) return;  // a duplicate; fails the request
    --pending_;
    outcome.received_ns = received;
    outcome.status = response.status;
    outcome.ok = response.status == serve::ResponseStatus::kOk &&
                 response.value == slots_[id].expected;
    outcome.cache_hit = response.cache_hit;
    outcome.coalesced = response.coalesced;
    outcome.queued_ms = response.queued_ms;
    outcome.solve_ms = response.solve_ms;
    outcome.router_queued_ms = response.router_queued_ms;
    outcome.attempts = response.attempts;
    if (samples_.size() < 256) samples_.emplace_back(line);
  }

  int fd_;
  const std::vector<Slot>& slots_;
  std::vector<Outcome>& outcomes_;
  std::string out_;
  std::string in_;
  std::size_t rung_ = 0;
  std::size_t pending_ = 0;  // sent in this rung, not yet answered
  std::vector<std::string> samples_;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

int run_fleet_prep(const Options& options) {
  std::vector<PlanPair> plan = make_plan(options.seed);
  const SolverBackend& backend = McosEngine::instance().at("srna2");
  const SolverConfig config;
  Workspace workspace;
  Trace trace(options.trace);
  McosStats total;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const SecondaryStructure a = parse_dot_bracket(plan[i].a);
    const SecondaryStructure b = parse_dot_bracket(plan[i].b);
    const EngineResult r = solve_with(backend, a, b, config, workspace);
    plan[i].expected = r.value;
    total.cells_tabulated += r.stats.cells_tabulated;
    total.slices_tabulated += r.stats.slices_tabulated;
    total.arc_match_events += r.stats.arc_match_events;
    total.preprocess_seconds += r.stats.preprocess_seconds;
    total.stage1_seconds += r.stats.stage1_seconds;
    total.stage2_seconds += r.stats.stage2_seconds;
    if (plan[i].a.size() * plan[i].b.size() > plan[largest].a.size() * plan[largest].b.size())
      largest = i;
  }
  {
    std::ofstream out(options.plan, std::ios::trunc);
    for (const PlanPair& pair : plan)
      out << kind_name(pair.kind) << ' ' << pair.expected << ' ' << pair.a << ' ' << pair.b
          << '\n';
    if (!out) throw std::runtime_error("cannot write plan " + options.plan);
  }

  Metrics layers;
  if (options.trace) {
    const SecondaryStructure a = parse_dot_bracket(plan[largest].a);
    const SecondaryStructure b = parse_dot_bracket(plan[largest].b);
    {
      const Trace::Scope span(trace, "core.srna2");
      if (srna2(a, b, config.to_mcos(), workspace).value != plan[largest].expected)
        throw std::runtime_error("srna2 disagrees with the engine on a plan pair");
    }
    const KernelRungs rungs = time_kernel_rungs(a, b, workspace, 0.5, trace);
    layers.set("core.kernel.ns_per_cell", rungs.ns_per_cell);
    layers.set("core.kernel.memo_ns_per_cell", rungs.memo_ns_per_cell);
    layers.set("core.kernel.bytes_per_cell", rungs.bytes_per_cell);
    const PreprocessTimes prep = time_preprocess(a, b, 0.2, trace);
    layers.set("core.arc_index_us", prep.arc_index_us);
    layers.set("core.column_events_us", prep.column_events_us);
    layers.set("engine.dispatch_us", time_dispatch_us(0.5, trace));
    const auto cells = static_cast<double>(total.cells_tabulated);
    layers.set("core.preprocess_s", total.preprocess_seconds);
    layers.set("core.stage1_s", total.stage1_seconds);
    layers.set("core.stage2_s", total.stage2_seconds);
    layers.set("core.ns_per_cell", cells > 0 ? total.stage1_seconds * 1e9 / cells : 0);
    layers.set("core.cells", cells);
    layers.set("core.slices", static_cast<double>(total.slices_tabulated));
    layers.set("core.arc_events", static_cast<double>(total.arc_match_events));
    layers.set("core.memo_bytes", static_cast<double>(workspace.memo_bytes()));
    if (!options.trace_out.empty() && !trace.write_chrome(options.trace_out))
      throw std::runtime_error("cannot write " + options.trace_out);
  }
  std::cout << "{\"pairs\": " << plan.size()
            << ", \"layers\": " << layers.json() << "}" << std::endl;
  return 0;
}

int run_fleet_gen(const Options& options) {
  const std::vector<PlanPair> plan = read_plan(options.plan);
  const double rung_seconds = options.seconds / static_cast<double>(kRates.size());
  const std::vector<Slot> slots = make_schedule(plan, options, rung_seconds);
  std::vector<Outcome> outcomes(slots.size());
  std::vector<std::vector<std::size_t>> by_rung_lane(kRates.size() * kLanes);
  for (std::size_t id = 0; id < slots.size(); ++id)
    by_rung_lane[slots[id].rung * kLanes + slots[id].lane].push_back(id);

  std::vector<std::unique_ptr<Lane>> lanes;
  for (std::size_t i = 0; i < kLanes; ++i)
    lanes.push_back(std::make_unique<Lane>(options.port, slots, outcomes));

  std::vector<std::size_t> backlog(kRates.size(), 0);
  for (std::size_t rung = 0; rung < kRates.size(); ++rung) {
    const std::uint64_t start = now_ns() + 20'000'000;  // lanes are running by then
    const auto end = start + static_cast<std::uint64_t>(rung_seconds * 1e9);
    std::vector<std::size_t> lane_backlog(kLanes, 0);
    std::vector<std::exception_ptr> errors(kLanes);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kLanes; ++i)
      threads.emplace_back([&, i] {
        try {
          ::prctl(PR_SET_TIMERSLACK, 1000UL);  // wake within ~1 us of each due time
          lane_backlog[i] =
              lanes[i]->run_rung(rung, by_rung_lane[rung * kLanes + i], start, end);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& error : errors)
      if (error) std::rethrow_exception(error);
    for (const std::size_t b : lane_backlog) backlog[rung] += b;
  }

  // Per-rung results. A failed, refused, lost, duplicated or wrong answer
  // counts as a miss of the latency limit (infinite latency).
  Trace trace(options.trace);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string rungs_json = "[";
  std::vector<double> late_all, solve_all, queued, solved, router_queued, hop, traced_lat,
      untraced_lat;
  double attempts = 0;
  std::size_t traced_ok = 0, ok = 0, hits = 0, coalesced = 0, rejected = 0, timeouts = 0;
  for (std::size_t rung = 0; rung < kRates.size(); ++rung) {
    std::vector<double> latency, late;  // in due order
    std::uint64_t rung_failed = 0, lost = 0, duplicates = 0, wrong = 0, refused = 0;
    for (std::size_t id = 0; id < slots.size(); ++id) {
      if (slots[id].rung != rung) continue;
      const Outcome& o = outcomes[id];
      ++attempted;
      late.push_back(ms(o.sent_ns - o.due_ns));
      rejected += o.answers > 0 && o.status == serve::ResponseStatus::kRejected;
      timeouts += o.answers > 0 && o.status == serve::ResponseStatus::kTimeout;
      if (o.answers != 1 || !o.ok) {
        ++rung_failed;
        if (o.answers == 0) ++lost;
        else if (o.answers > 1) ++duplicates;
        else if (o.status == serve::ResponseStatus::kOk) ++wrong;
        else ++refused;
        latency.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      const double total_ms = ms(o.received_ns - o.due_ns);
      latency.push_back(total_ms);
      ++ok;
      if (!o.cache_hit && !o.coalesced) solve_all.push_back(o.solve_ms);
      hits += o.cache_hit;
      coalesced += o.coalesced;
      (slots[id].traced ? traced_lat : untraced_lat).push_back(total_ms);
      if (!slots[id].traced) continue;
      ++traced_ok;
      attempts += o.attempts;
      queued.push_back(o.queued_ms);
      if (!o.cache_hit && !o.coalesced) solved.push_back(o.solve_ms);
      router_queued.push_back(o.router_queued_ms);
      const double wire_ms = ms(o.received_ns - o.sent_ns);
      hop.push_back(wire_ms - (o.router_queued_ms + o.queued_ms + o.solve_ms));
      // The round trip as seen by the client, with the hops the router and
      // shard reported laid out inside it; its self time is the wire, codec
      // and router time no hop field covers.
      const std::size_t round_trip = trace.add("dist.round_trip", o.sent_ns, o.received_ns);
      std::uint64_t at = o.sent_ns;
      for (const auto& [name, hop_ms] : {std::pair{"dist.router_queue", o.router_queued_ms},
                                         std::pair{"serve.queue", o.queued_ms},
                                         std::pair{"core.solve", o.solve_ms}}) {
        const auto ns = static_cast<std::uint64_t>(std::max(0.0, hop_ms) * 1e6);
        const std::uint64_t stop = std::min(at + ns, o.received_ns);
        trace.add(name, at, stop, static_cast<long>(round_trip));
        at = stop;
      }
    }
    failed += rung_failed;
    // The p99 reported is the median of the windows' p99s, so a single
    // stalled window moves it no more than any other window. The last window
    // also takes the remainder; a rung smaller than one window is one window.
    std::vector<double> window_p99;
    const std::size_t windows = std::max<std::size_t>(1, latency.size() / kWindowRequests);
    for (std::size_t w = 0; w < windows; ++w) {
      const auto first = latency.begin() + static_cast<std::ptrdiff_t>(w * kWindowRequests);
      const auto last = w + 1 == windows ? latency.end()
                                         : first + static_cast<std::ptrdiff_t>(kWindowRequests);
      window_p99.push_back(percentile(std::vector<double>(first, last), 0.99));
    }
    const double p99 = median(window_p99);
    late_all.insert(late_all.end(), late.begin(), late.end());
    rungs_json += std::string(rung == 0 ? "" : ", ") + "{\"rate\": " +
                  json_number(kRates[rung]) +
                  ", \"requests\": " + std::to_string(latency.size()) +
                  ", \"failed\": " + std::to_string(rung_failed) +
                  ", \"lost\": " + std::to_string(lost) +
                  ", \"duplicates\": " + std::to_string(duplicates) +
                  ", \"wrong\": " + std::to_string(wrong) +
                  ", \"refused\": " + std::to_string(refused) +
                  ", \"p50_ms\": " + json_number(percentile(latency, 0.5)) +
                  ", \"p99_ms\": " + json_number(p99) +
                  ", \"p99_windows\": " + std::to_string(window_p99.size()) +
                  ", \"p99_pooled_ms\": " + json_number(percentile(latency, 0.99)) +
                  ", \"late_p99_ms\": " + json_number(percentile(late, 0.99)) +
                  ", \"backlog\": " + std::to_string(backlog[rung]) + "}";
  }
  rungs_json += "]";

  Metrics layers;
  if (options.trace) {
    std::vector<std::string> request_lines, response_lines;
    for (std::size_t id = 0; id < slots.size() && request_lines.size() < 256; ++id)
      request_lines.push_back(slots[id].line.substr(0, slots[id].line.size() - 1));
    for (const auto& lane : lanes)
      response_lines.insert(response_lines.end(), lane->samples().begin(), lane->samples().end());
    const CodecTimes codec = time_codec(request_lines, response_lines, 0.4, trace);
    const auto requests = static_cast<double>(std::max<std::uint64_t>(1, attempted));
    layers.set("serve.parse_us", codec.parse_us);
    layers.set("serve.render_us", codec.render_us);
    layers.set("serve.queued_ms.p50", percentile(queued, 0.5));
    layers.set("serve.queued_ms.p99", percentile(queued, 0.99));
    layers.set("serve.solve_ms.p50", percentile(solved, 0.5));
    layers.set("serve.solve_ms.p99", percentile(solved, 0.99));
    layers.set("serve.cache_hit_ratio", static_cast<double>(hits) / requests);
    layers.set("serve.coalesced_ratio", static_cast<double>(coalesced) / requests);
    layers.set("serve.rejected", static_cast<double>(rejected));
    layers.set("serve.timeouts", static_cast<double>(timeouts));
    layers.set("dist.router_queued_ms.p99", percentile(router_queued, 0.99));
    layers.set("dist.attempts_per_request",
               traced_ok > 0 ? attempts / static_cast<double>(traced_ok) : 0);
    layers.set("dist.hop_ms.p50", percentile(hop, 0.5));
    const double untraced_p50 = percentile(untraced_lat, 0.5);
    layers.set("obs.trace_overhead_ratio",
               untraced_p50 > 0 ? percentile(traced_lat, 0.5) / untraced_p50 : 1.0);
    if (!options.trace_out.empty() && !trace.write_chrome(options.trace_out))
      throw std::runtime_error("cannot write " + options.trace_out);
  }
  layers.set("gen.late_ms.p99", percentile(late_all, 0.99));
  std::cout << "{\"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"ok\": " << ok << ", \"solve_ms_p50\": " << json_number(median(solve_all))
            << ", \"solves\": " << solve_all.size() << ", \"rungs\": " << rungs_json
            << ", \"layers\": " << layers.json() << "}" << std::endl;
  return 0;
}

}  // namespace perfbench
