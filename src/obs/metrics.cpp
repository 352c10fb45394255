#include "obs/metrics.hpp"

#include <cmath>
#include <limits>
#include <thread>

namespace srna::obs {

std::size_t Counter::shard_index() noexcept {
  // One stable shard per thread, handed out round robin: spreads the serve
  // pool's and the thread teams' workers across the 16 shards well enough
  // to kill contention.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed) % 16;
  return shard;
}

namespace {

constexpr double kHistMin = 1e-9;

// Atomic min/max via CAS (atomic<double> has no fetch_min).
void atomic_min(std::atomic<double>& slot, double v) noexcept {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& slot, double v) noexcept {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v > kHistMin)) return 0;
  // Two buckets per octave: index = floor(2 * log2(v / min)).
  const double octaves = std::log2(v / kHistMin);
  const auto idx = static_cast<std::size_t>(octaves * 2.0);
  return idx >= kBuckets ? kBuckets - 1 : idx;
}

double Histogram::bucket_upper_bound(std::size_t index) noexcept {
  return kHistMin * std::exp2(static_cast<double>(index + 1) / 2.0);
}

void Histogram::observe(double v) noexcept {
  if (std::isnan(v)) return;
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add(double) requires C++20 atomic<double>; emulate with CAS to
  // stay portable across standard libraries.
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + v, std::memory_order_relaxed)) {
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot s;
  std::array<std::uint64_t, kBuckets> counts{};
  for (std::size_t i = 0; i < kBuckets; ++i)
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  for (const std::uint64_t c : counts) s.count += c;
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);

  const auto percentile = [&](double q) {
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(s.count - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen >= target) return bucket_upper_bound(i);
    }
    return bucket_upper_bound(kBuckets - 1);
  };
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

Json Histogram::to_json() const {
  const Snapshot s = snapshot();
  Json out = Json::object();
  out.set("count", s.count).set("sum", s.sum).set("min", s.min).set("max", s.max);
  out.set("p50", s.p50).set("p90", s.p90).set("p99", s.p99);
  return out;
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::bucket_counts() const noexcept {
  std::array<std::uint64_t, kBuckets> counts{};
  for (std::size_t i = 0; i < kBuckets; ++i)
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  return counts;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::instance() noexcept {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  return *it->second;
}

WindowHistogram& Registry::window(std::string_view name, std::size_t capacity) {
  std::lock_guard lock(mutex_);
  auto it = windows_.find(name);
  if (it == windows_.end())
    it = windows_.emplace(std::string(name), std::make_unique<WindowHistogram>(capacity))
             .first;
  return *it->second;
}

Json Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) counters.set(name, c->value());
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, g->value());
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) histograms.set(name, h->to_json());
  Json windows = Json::object();
  for (const auto& [name, w] : windows_) windows.set(name, w->to_json());
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  out.set("windows", std::move(windows));
  return out;
}

void Registry::visit(
    const std::function<void(const std::string&, const Counter&)>& on_counter,
    const std::function<void(const std::string&, const Gauge&)>& on_gauge,
    const std::function<void(const std::string&, const Histogram&)>& on_histogram,
    const std::function<void(const std::string&, const WindowHistogram&)>& on_window)
    const {
  std::lock_guard lock(mutex_);
  if (on_counter)
    for (const auto& [name, c] : counters_) on_counter(name, *c);
  if (on_gauge)
    for (const auto& [name, g] : gauges_) on_gauge(name, *g);
  if (on_histogram)
    for (const auto& [name, h] : histograms_) on_histogram(name, *h);
  if (on_window)
    for (const auto& [name, w] : windows_) on_window(name, *w);
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
  for (const auto& [name, w] : windows_) w->reset();
}

}  // namespace srna::obs
