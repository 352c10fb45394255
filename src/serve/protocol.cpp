#include "serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace srna::serve {

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw std::invalid_argument("bad request: " + what);
}

std::string string_field(const obs::Json& doc, std::string_view key) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr) return {};
  if (!v->is_string()) bad_request("field '" + std::string(key) + "' must be a string");
  return v->as_string();
}

double number_field(const obs::Json& doc, std::string_view key, double def) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr) return def;
  if (!v->is_number()) bad_request("field '" + std::string(key) + "' must be a number");
  return v->as_double();
}

// An integer response field of type T. A number outside T's range is a
// malformed response: casting it would be undefined behaviour.
template <typename T>
T integer_field(const obs::Json& doc, std::string_view key) {
  const double v = number_field(doc, key, 0.0);
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);  // exclusive
  const double lower = std::numeric_limits<T>::is_signed ? -limit : 0.0;
  if (!(v >= lower && v < limit))
    throw std::invalid_argument("bad response: field '" + std::string(key) + "' is out of range");
  return static_cast<T>(v);
}

bool bool_field(const obs::Json& doc, std::string_view key) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr) return false;
  if (v->kind() != obs::Json::Kind::kBool)
    bad_request("field '" + std::string(key) + "' must be a boolean");
  return v->as_bool();
}

}  // namespace

ServeRequest parse_request(std::string_view line) {
  const std::optional<obs::Json> doc = obs::Json::parse(line);
  if (!doc || !doc->is_object()) bad_request("expected one JSON object per line");

  static constexpr std::string_view kKnown[] = {"id",     "a",           "b",
                                                "a_name", "b_name",      "algorithm",
                                                "layout", "deadline_ms", "no_cache",
                                                "trace",  "trace_id"};
  for (const auto& [key, value] : doc->members()) {
    bool known = false;
    for (const std::string_view k : kKnown) known = known || key == k;
    if (!known) bad_request("unknown field '" + key + "'");
  }

  ServeRequest req;
  req.id = static_cast<std::int64_t>(number_field(*doc, "id", 0));
  req.a = string_field(*doc, "a");
  req.b = string_field(*doc, "b");
  req.a_name = string_field(*doc, "a_name");
  req.b_name = string_field(*doc, "b_name");
  req.algorithm = string_field(*doc, "algorithm");
  req.layout = string_field(*doc, "layout");
  req.deadline_ms = number_field(*doc, "deadline_ms", 0.0);
  req.no_cache = bool_field(*doc, "no_cache");
  req.trace = bool_field(*doc, "trace");
  // Exact 64-bit read (as_uint, not the double-based number_field): router-
  // minted ids use high bits a double round-trip would corrupt.
  if (const obs::Json* v = doc->find("trace_id")) {
    if (!v->is_number()) bad_request("field 'trace_id' must be a number");
    req.trace_id = v->as_uint();
  }

  const bool literal_pair = !req.a.empty() || !req.b.empty();
  const bool name_pair = !req.a_name.empty() || !req.b_name.empty();
  if (literal_pair && name_pair)
    bad_request("give either a/b dot-bracket literals or a_name/b_name, not both");
  if (!literal_pair && !name_pair) bad_request("missing structure pair (a/b or a_name/b_name)");
  if (literal_pair && (req.a.empty() || req.b.empty()))
    bad_request("both 'a' and 'b' are required");
  if (name_pair && (req.a_name.empty() || req.b_name.empty()))
    bad_request("both 'a_name' and 'b_name' are required");
  if (req.deadline_ms < 0) bad_request("'deadline_ms' must be >= 0");
  if (!req.layout.empty() && req.layout != "dense" && req.layout != "compressed")
    bad_request("'layout' must be 'dense' or 'compressed'");
  return req;
}

obs::Json ServeRequest::to_json() const {
  obs::Json doc = obs::Json::object();
  doc.set("id", obs::Json(id));
  if (by_name()) {
    doc.set("a_name", obs::Json(a_name));
    doc.set("b_name", obs::Json(b_name));
  } else {
    doc.set("a", obs::Json(a));
    doc.set("b", obs::Json(b));
  }
  if (!algorithm.empty()) doc.set("algorithm", obs::Json(algorithm));
  if (!layout.empty()) doc.set("layout", obs::Json(layout));
  if (deadline_ms > 0) doc.set("deadline_ms", obs::Json(deadline_ms));
  if (no_cache) doc.set("no_cache", obs::Json(true));
  if (trace) doc.set("trace", obs::Json(true));
  if (trace_id != 0) doc.set("trace_id", obs::Json(trace_id));
  return doc;
}

std::string ServeRequest::to_line() const { return to_json().dump(0); }

const char* to_string(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kRejected: return "rejected";
    case ResponseStatus::kOverMemoryBudget: return "over_memory_budget";
    case ResponseStatus::kTimeout: return "timeout";
    case ResponseStatus::kError: return "error";
  }
  return "error";
}

obs::Json ServeResponse::to_json() const {
  obs::Json doc = obs::Json::object();
  doc.set("id", obs::Json(id));
  doc.set("status", obs::Json(to_string(status)));
  if (status == ResponseStatus::kOk) {
    doc.set("value", obs::Json(static_cast<std::int64_t>(value)));
    doc.set("normalized", obs::Json(normalized));
    doc.set("cache_hit", obs::Json(cache_hit));
  }
  // Sparse: present only on answers fanned out by a coalescing flight leader
  // (any status — followers share the leader's outcome, timeout included).
  if (coalesced) doc.set("coalesced", obs::Json(true));
  if (status == ResponseStatus::kRejected) doc.set("retry_after_ms", obs::Json(retry_after_ms));
  if (status == ResponseStatus::kOverMemoryBudget) {
    doc.set("estimated_bytes", obs::Json(estimated_bytes));
    // Present only when the request would fit an idle service; its absence
    // marks the rejection permanent for this pair.
    if (retry_after_ms > 0) doc.set("retry_after_ms", obs::Json(retry_after_ms));
  }
  if (!algorithm.empty()) doc.set("algorithm", obs::Json(algorithm));
  if (!digest.empty()) doc.set("digest", obs::Json(digest));
  if (trace_id != 0) {
    // Admitted requests echo their correlation id and phase breakdown.
    doc.set("trace_id", obs::Json(trace_id));
    doc.set("queued_ms", obs::Json(queued_ms));
    doc.set("solve_ms", obs::Json(solve_ms));
  }
  doc.set("latency_ms", obs::Json(latency_ms));
  if (!error.empty()) doc.set("error", obs::Json(error));
  // Router hop fields trail the document — the router appends them to a
  // shard's serialized response, so emitting them last keeps this writer
  // byte-compatible with that path.
  if (attempts > 0) {
    doc.set("attempts", obs::Json(static_cast<std::uint64_t>(attempts)));
    if (!shard.empty()) doc.set("shard", obs::Json(shard));
    doc.set("router_queued_ms", obs::Json(router_queued_ms));
  }
  return doc;
}

std::string ServeResponse::to_line() const { return to_json().dump(0); }

ServeResponse ServeResponse::from_line(std::string_view line) {
  const std::optional<obs::Json> doc = obs::Json::parse(line);
  if (!doc || !doc->is_object())
    throw std::invalid_argument("bad response: expected one JSON object per line");
  ServeResponse resp;
  resp.id = integer_field<std::int64_t>(*doc, "id");
  const std::string status = string_field(*doc, "status");
  if (status == "ok") {
    resp.status = ResponseStatus::kOk;
  } else if (status == "rejected") {
    resp.status = ResponseStatus::kRejected;
  } else if (status == "over_memory_budget") {
    resp.status = ResponseStatus::kOverMemoryBudget;
  } else if (status == "timeout") {
    resp.status = ResponseStatus::kTimeout;
  } else if (status == "error") {
    resp.status = ResponseStatus::kError;
  } else {
    throw std::invalid_argument("bad response: unknown status '" + status + "'");
  }
  resp.value = integer_field<Score>(*doc, "value");
  resp.normalized = number_field(*doc, "normalized", 0.0);
  if (const obs::Json* v = doc->find("cache_hit")) resp.cache_hit = v->as_bool();
  if (const obs::Json* v = doc->find("coalesced")) resp.coalesced = v->as_bool();
  resp.latency_ms = number_field(*doc, "latency_ms", 0.0);
  resp.retry_after_ms = number_field(*doc, "retry_after_ms", 0.0);
  resp.estimated_bytes = integer_field<std::uint64_t>(*doc, "estimated_bytes");
  // Exact 64-bit read: router-minted trace ids do not survive a double.
  if (const obs::Json* v = doc->find("trace_id")) resp.trace_id = v->as_uint();
  resp.queued_ms = number_field(*doc, "queued_ms", 0.0);
  resp.solve_ms = number_field(*doc, "solve_ms", 0.0);
  resp.algorithm = string_field(*doc, "algorithm");
  resp.digest = string_field(*doc, "digest");
  resp.error = string_field(*doc, "error");
  resp.attempts = integer_field<std::uint32_t>(*doc, "attempts");
  resp.shard = string_field(*doc, "shard");
  resp.router_queued_ms = number_field(*doc, "router_queued_ms", 0.0);
  return resp;
}

}  // namespace srna::serve
