// Shared pieces of the benchmark harness: clocks, order statistics, a small
// span recorder that writes Chrome-trace JSON, and a flat metric list that
// renders as one JSON object line.
//
// Spans are recorded only by the harness itself, around its calls into the
// library's public functions; nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

// Peak resident set of this process (VmHWM), in MiB.
double self_rss_peak_mb();

// Records named spans with start, end, thread and parent. A span's layer is
// its name up to the first '.', and a layer's self time is the time its spans
// cover minus the time their child spans cover.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // RAII span; a no-op when the trace is disabled.
  class Scope {
   public:
    Scope(Trace& trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_ = nullptr;
    std::size_t index_ = 0;
  };

  // A span with explicit times, parented under `parent` (or the calling
  // thread's innermost open span when parent < 0). Returns its index.
  std::size_t add(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns,
                  long parent = -1);

  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  // Writes {"traceEvents": [...], "otherData": {"self_seconds": {...}}}.
  bool write_chrome(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    int tid = 0;
    long parent = -1;
  };

  std::size_t open(std::string name);
  void close(std::size_t index);

  bool enabled_;
  mutable std::mutex mutex_;  // guards events_
  std::vector<Event> events_;
};

// Ordered name -> value pairs, rendered as a JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, double>> items_;
};

// A number as JSON; a non-finite value (a failed request's latency) becomes
// 1e12, far beyond any latency limit.
std::string json_number(double value);
// A JSON array of numbers.
std::string json_array(const std::vector<double>& values);
std::string json_string(const std::string& text);

}  // namespace perfbench
