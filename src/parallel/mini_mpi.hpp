// mini-MPI: an in-process message-passing substrate.
//
// The paper implements PRNA with MPI on a distributed-memory cluster. This
// machine has no MPI installation, so — per the reproduction's substitution
// rule — the library ships the substrate itself: a miniature rank-based
// runtime with the collective PRNA needs (per-row Allreduce(MAX)), plus a
// barrier, broadcast, gather and point-to-point send/recv for completeness.
// Ranks are the threads of one team (parallel/team.hpp), but the
// *programming model* is distributed memory: each rank owns private buffers
// and data moves only through the explicit operations below, so prna_mpi()
// is a faithful transcription of the paper's Algorithm 4 (replicated memo
// table, reduction per completed row) rather than the shared-table shortcut
// of the shared-memory PRNA.
//
// Communication volume is tracked per rank; the harness reports it next to
// the simulator's alpha-beta model.
#pragma once

#include <barrier>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "obs/trace.hpp"

namespace srna::mmpi {

struct CommStats {
  std::uint64_t barriers = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t gathers = 0;
  std::uint64_t point_to_point = 0;
  std::uint64_t bytes_sent = 0;  // this rank's contribution to collectives + sends
};

class Runtime;

// Per-rank handle passed to the rank function. All methods are collective
// or point-to-point operations in the MPI sense; every rank of the world
// must call matching collectives in the same order.
class Rank {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return size_; }

  // Collective: blocks until every rank arrives.
  void barrier();

  // Collective in-place element-wise reduction over `count` values of T;
  // every rank ends with the combined result. Op is a binary functor.
  template <typename T, typename Op>
  void allreduce(T* data, std::size_t count, Op op);

  // Convenience: element-wise max (the PRNA row synchronization).
  template <typename T>
  void allreduce_max(T* data, std::size_t count) {
    allreduce(data, count, [](T a, T b) { return a < b ? b : a; });
  }
  template <typename T>
  void allreduce_sum(T* data, std::size_t count) {
    allreduce(data, count, [](T a, T b) { return a + b; });
  }

  // Collective: copies `count` values of T from `root`'s buffer into every
  // rank's buffer.
  template <typename T>
  void broadcast(T* data, std::size_t count, int root);

  // Collective: `root` receives all ranks' `count`-element contributions
  // concatenated in rank order into `out` (size count * size()); other
  // ranks pass out == nullptr.
  template <typename T>
  void gather(const T* contribution, std::size_t count, T* out, int root);

  // Point-to-point: blocking send/recv of a byte buffer with a tag.
  void send(int to, int tag, const void* data, std::size_t bytes);
  void recv(int from, int tag, void* data, std::size_t bytes);

  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }

 private:
  friend class Runtime;
  friend std::vector<CommStats> run(int, const std::function<void(Rank&)>&);
  Rank(Runtime& runtime, int rank, int size) : runtime_(runtime), rank_(rank), size_(size) {}

  void collective_exchange(const void* contribution, std::size_t bytes,
                           const std::function<void(int src, const void* data)>& consume);

  Runtime& runtime_;
  int rank_;
  int size_;
  CommStats stats_;
};

// Runs `fn` on `ranks` ranks and blocks until all complete. Every rank gets
// its own thread, inside another team too: a collective needs all of them.
// The first exception a rank throws is rethrown after all ranks join.
// Returns the per-rank communication statistics.
std::vector<CommStats> run(int ranks, const std::function<void(Rank&)>& fn);

// ---------------------------------------------------------------- internals

class Runtime {
 public:
  explicit Runtime(int size);

  void barrier();

  // Generic collective: each rank publishes a pointer, waits until all are
  // published, then reads everyone's. Two internal barriers make the slot
  // array safe to reuse.
  void exchange(int rank, const void* contribution,
                const std::function<void()>& consume_phase);

  void send(int from, int to, int tag, const void* data, std::size_t bytes);
  void recv(int from, int to, int tag, void* data, std::size_t bytes);

  [[nodiscard]] const void* slot(int rank) const noexcept {
    return slots_[static_cast<std::size_t>(rank)];
  }

 private:
  struct Message {
    int from;
    int tag;
    std::vector<std::byte> payload;
  };

  int size_;

  std::barrier<> barrier_;

  std::vector<const void*> slots_;

  std::mutex mailbox_mutex_;
  std::condition_variable mailbox_cv_;
  std::vector<std::queue<Message>> mailboxes_;  // indexed by receiver
};

template <typename T, typename Op>
void Rank::allreduce(T* data, std::size_t count, Op op) {
  obs::TraceScope span("mmpi", "allreduce");
  if (span.active())
    span.set_args(obs::trace_args(
        {{"rank", rank_}, {"bytes", static_cast<std::int64_t>(count * sizeof(T))}}));
  ++stats_.allreduces;
  stats_.bytes_sent += count * sizeof(T);
  // Publish a frozen copy: peers read the published contribution while this
  // rank accumulates into its live buffer, so the two must be distinct (an
  // in-place publish races for non-idempotent operators like sum).
  std::vector<T> contribution(data, data + count);
  runtime_.exchange(rank_, contribution.data(), [&] {
    // Combine every other rank's contribution into the local buffer. Each
    // rank reads all peers — semantically MPI_Allreduce; cost modelling for
    // a real network lives in cluster_sim, not here.
    for (int src = 0; src < size_; ++src) {
      if (src == rank_) continue;
      const T* theirs = static_cast<const T*>(runtime_.slot(src));
      for (std::size_t i = 0; i < count; ++i) data[i] = op(data[i], theirs[i]);
    }
  });
}

template <typename T>
void Rank::broadcast(T* data, std::size_t count, int root) {
  obs::TraceScope span("mmpi", "broadcast");
  if (span.active())
    span.set_args(obs::trace_args(
        {{"rank", rank_}, {"root", root},
         {"bytes", static_cast<std::int64_t>(count * sizeof(T))}}));
  ++stats_.broadcasts;
  if (rank_ == root) stats_.bytes_sent += count * sizeof(T);
  runtime_.exchange(rank_, data, [&] {
    if (rank_ != root) {
      const T* theirs = static_cast<const T*>(runtime_.slot(root));
      for (std::size_t i = 0; i < count; ++i) data[i] = theirs[i];
    }
  });
}

template <typename T>
void Rank::gather(const T* contribution, std::size_t count, T* out, int root) {
  obs::TraceScope span("mmpi", "gather");
  if (span.active())
    span.set_args(obs::trace_args(
        {{"rank", rank_}, {"root", root},
         {"bytes", static_cast<std::int64_t>(count * sizeof(T))}}));
  ++stats_.gathers;
  stats_.bytes_sent += count * sizeof(T);
  runtime_.exchange(rank_, contribution, [&] {
    if (rank_ == root && out != nullptr) {
      for (int src = 0; src < size_; ++src) {
        const T* theirs = static_cast<const T*>(runtime_.slot(src));
        for (std::size_t i = 0; i < count; ++i)
          out[static_cast<std::size_t>(src) * count + i] = theirs[i];
      }
    }
  });
}

}  // namespace srna::mmpi
