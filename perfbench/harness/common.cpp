#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last (one Trace per process).
thread_local std::vector<std::size_t> open_spans;

int thread_number() {
  static std::atomic<int> next{1};
  thread_local const int number = next.fetch_add(1);
  return number;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

std::string json_number(double value) {
  if (!std::isfinite(value)) return "1e12";
  char buffer[64];
  // Counts print exactly; measurements keep every digit.
  if (value == std::floor(value) && std::fabs(value) < 9e15)
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
  else
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double self_rss_peak_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

Trace::Scope::Scope(Trace& trace, std::string name) {
  if (!trace.enabled()) return;
  trace_ = &trace;
  index_ = trace.open(std::move(name));
}

Trace::Scope::~Scope() {
  if (trace_ != nullptr) trace_->close(index_);
}

std::size_t Trace::open(std::string name) {
  const std::uint64_t begin = now_ns();
  const std::size_t index = add(std::move(name), begin, begin);
  open_spans.push_back(index);
  return index;
}

void Trace::close(std::size_t index) {
  const std::uint64_t end = now_ns();
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  events_[index].end_ns = end;
}

std::size_t Trace::add(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns,
                       long parent) {
  if (parent < 0 && !open_spans.empty()) parent = static_cast<long>(open_spans.back());
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(Event{std::move(name), begin_ns, end_ns, thread_number(), parent});
  return events_.size() - 1;
}

std::map<std::string, double> Trace::self_seconds_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> self(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i)
    self[i] = static_cast<double>(events_[i].end_ns - events_[i].begin_ns) * 1e-9;
  for (const Event& e : events_)
    if (e.parent >= 0)
      self[static_cast<std::size_t>(e.parent)] -=
          static_cast<double>(e.end_ns - e.begin_ns) * 1e-9;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < events_.size(); ++i) by_layer[layer_of(events_[i].name)] += self[i];
  return by_layer;
}

bool Trace::write_chrome(const std::string& path) const {
  const std::map<std::string, double> self = self_seconds_by_layer();
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\": [";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t origin = events_.empty() ? 0 : events_.front().begin_ns;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const std::uint64_t begin = e.begin_ns >= origin ? e.begin_ns - origin : 0;
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_string(e.name)
          << ", \"cat\": " << json_string(layer_of(e.name))
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
          << ", \"ts\": " << json_number(static_cast<double>(begin) * 1e-3)
          << ", \"dur\": " << json_number(static_cast<double>(e.end_ns - e.begin_ns) * 1e-3)
          << ", \"args\": {\"parent\": " << e.parent << "}}";
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"self_seconds\": {";
  bool first = true;
  for (const auto& [layer, seconds] : self) {
    out << (first ? "" : ", ") << json_string(layer) << ": " << json_number(seconds);
    first = false;
  }
  out << "}}}\n";
  return static_cast<bool>(out);
}

void Metrics::set(const std::string& name, double value) {
  for (auto& item : items_)
    if (item.first == name) {
      item.second = value;
      return;
    }
  items_.emplace_back(name, value);
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items_[i].first) + ": " + json_number(items_[i].second);
  }
  return out + "}";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return out + "]";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
