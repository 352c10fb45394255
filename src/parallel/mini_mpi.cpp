#include "parallel/mini_mpi.hpp"

#include <cstring>

#include "parallel/team.hpp"
#include "util/assert.hpp"

namespace srna::mmpi {

namespace {

int checked_world_size(int size) {
  SRNA_REQUIRE(size >= 1, "world size must be at least 1");
  return size;
}

}  // namespace

Runtime::Runtime(int size) : size_(checked_world_size(size)), barrier_(size_) {
  slots_.assign(static_cast<std::size_t>(size), nullptr);
  mailboxes_.resize(static_cast<std::size_t>(size));
}

void Runtime::barrier() { barrier_.arrive_and_wait(); }

void Runtime::exchange(int rank, const void* contribution,
                       const std::function<void()>& consume_phase) {
  slots_[static_cast<std::size_t>(rank)] = contribution;
  barrier();  // publish: all slots visible
  consume_phase();
  barrier();  // drain: nobody reads slots after this, safe to reuse
}

void Runtime::send(int from, int to, int tag, const void* data, std::size_t bytes) {
  Message msg;
  msg.from = from;
  msg.tag = tag;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);
  {
    std::lock_guard lock(mailbox_mutex_);
    mailboxes_[static_cast<std::size_t>(to)].push(std::move(msg));
  }
  mailbox_cv_.notify_all();
}

void Runtime::recv(int from, int to, int tag, void* data, std::size_t bytes) {
  std::unique_lock lock(mailbox_mutex_);
  auto& box = mailboxes_[static_cast<std::size_t>(to)];
  // Simple in-order matching: waits for the next message and checks the
  // envelope. (Sufficient for the deterministic protocols in this library;
  // a full MPI would match out of order.)
  mailbox_cv_.wait(lock, [&] { return !box.empty(); });
  Message msg = std::move(box.front());
  box.pop();
  SRNA_CHECK(msg.tag == tag, "mini-MPI recv: tag mismatch");
  SRNA_CHECK(msg.from == from, "mini-MPI recv: source mismatch");
  SRNA_CHECK(msg.payload.size() == bytes, "mini-MPI recv: size mismatch");
  if (bytes > 0) std::memcpy(data, msg.payload.data(), bytes);
}

void Rank::barrier() {
  obs::TraceScope span("mmpi", "barrier");
  if (span.active()) span.set_args(obs::trace_args({{"rank", rank_}}));
  ++stats_.barriers;
  runtime_.barrier();
}

void Rank::send(int to, int tag, const void* data, std::size_t bytes) {
  SRNA_REQUIRE(to >= 0 && to < size_, "send: bad destination rank");
  obs::TraceScope span("mmpi", "send");
  if (span.active())
    span.set_args(obs::trace_args(
        {{"rank", rank_}, {"to", to}, {"bytes", static_cast<std::int64_t>(bytes)}}));
  ++stats_.point_to_point;
  stats_.bytes_sent += bytes;
  runtime_.send(rank_, to, tag, data, bytes);
}

void Rank::recv(int from, int tag, void* data, std::size_t bytes) {
  SRNA_REQUIRE(from >= 0 && from < size_, "recv: bad source rank");
  obs::TraceScope span("mmpi", "recv");
  if (span.active())
    span.set_args(obs::trace_args(
        {{"rank", rank_}, {"from", from}, {"bytes", static_cast<std::int64_t>(bytes)}}));
  ++stats_.point_to_point;
  runtime_.recv(from, rank_, tag, data, bytes);
}

std::vector<CommStats> run(int ranks, const std::function<void(Rank&)>& fn) {
  SRNA_REQUIRE(ranks >= 1, "need at least one rank");
  Runtime runtime(ranks);

  std::vector<Rank> handles;
  handles.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) handles.push_back(Rank(runtime, r, ranks));

  // No team_size() clamp: every rank must run. A failed rank must not leave
  // peers stuck in a collective; with deterministic protocols an exception
  // on one rank accompanies the same exception on all (e.g. a failed
  // SRNA_CHECK), so letting it end the rank is adequate for this library's
  // use.
  run_team(ranks, [&](std::size_t r) { fn(handles[r]); });

  std::vector<CommStats> stats;
  stats.reserve(handles.size());
  for (const Rank& h : handles) stats.push_back(h.stats());
  return stats;
}

}  // namespace srna::mmpi
