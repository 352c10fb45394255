// Fuzz-lite tests of the wire protocol's two parsers (tests/testing/
// json_fuzz.hpp): parse_request and ServeResponse::from_line must map any
// line to a value or std::invalid_argument — never crash, never throw
// anything else — and whatever they accept must survive to_line() and a
// second parse unchanged.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "testing/json_fuzz.hpp"
#include "util/prng.hpp"

namespace srna::serve {
namespace {

// One wire field and the values it usually carries (JSON text).
struct Field {
  std::string_view key;
  std::vector<std::string_view> values;
  bool usual = false;  // present in most lines
};

const std::vector<std::string_view> kAnyValue = {
    "0",        "7",     "-3",        "2.5",     "1e300",    "-1e19", "18446744073709551615",
    "true",     "false", "null",      "\"\"",    "\"((..))\"", "[1]",   "{\"k\":1}",
    "\"\\u00e9\""};
const std::vector<std::string_view> kNumbers = {"0", "7", "-3", "2.5", "1e300", "-1e19",
                                                "4503599627370497", "18446744073709551615"};
const std::vector<std::string_view> kBools = {"true", "false"};
const std::vector<std::string_view> kStructures = {"\"((..))\"", "\"(..)\"", "\"((\"",
                                                   "\".(.).\"", "\"\""};
const std::vector<std::string_view> kNames = {"\"r1\"", "\"rrna\"", "\"a\\\"b\"", "\"\""};
const std::vector<std::string_view> kAlgorithms = {"\"srna2\"", "\"prna\"", "\"nope\""};

const std::vector<Field> kRequestFields = {
    {"id", kNumbers, true},          {"a", kStructures, true},
    {"b", kStructures, true},        {"a_name", kNames},
    {"b_name", kNames},              {"algorithm", kAlgorithms},
    {"layout", {"\"dense\"", "\"compressed\"", "\"sparse\""}},
    {"deadline_ms", kNumbers},       {"no_cache", kBools},
    {"trace", kBools},               {"trace_id", kNumbers},
    {"bogus", kAnyValue}};
const std::vector<Field> kResponseFields = {
    {"id", kNumbers, true},
    {"status",
     {"\"ok\"", "\"rejected\"", "\"over_memory_budget\"", "\"timeout\"", "\"error\"",
      "\"busy\""},
     true},
    {"value", kNumbers},          {"normalized", kNumbers},   {"cache_hit", kBools},
    {"coalesced", kBools},        {"latency_ms", kNumbers},   {"retry_after_ms", kNumbers},
    {"estimated_bytes", kNumbers}, {"trace_id", kNumbers},    {"queued_ms", kNumbers},
    {"solve_ms", kNumbers},       {"algorithm", kAlgorithms}, {"digest", kNames},
    {"error", kNames},            {"attempts", kNumbers},     {"shard", kNames},
    {"router_queued_ms", kNumbers}};

// One request or response line: an object over the protocol's own fields,
// usually with values of the right type, damaged about half the time; now
// and then plain junk.
std::string random_line(Xoshiro256& rng, const std::vector<Field>& fields) {
  switch (rng.uniform(8)) {
    case 0: return testing::random_bytes(rng, 80);
    case 1: return testing::random_json_soup(rng, 60);
    default: break;
  }
  std::string line = "{";
  for (const Field& field : fields) {
    if (rng.uniform(10) >= (field.usual ? 9u : 2u)) continue;
    if (line.size() > 1) line += ',';
    line += '"';
    line += field.key;
    line += "\":";
    const auto& pool = rng.uniform(8) == 0 ? kAnyValue : field.values;
    line += pool[rng.uniform(pool.size())];
  }
  line += '}';
  return rng.uniform(2) == 0 ? testing::damage(rng, std::move(line)) : line;
}

TEST(ProtocolFuzz, RequestParserNeverCrashesAndRoundTrips) {
  Xoshiro256 rng(21);
  int accepted = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::string line = random_line(rng, kRequestFields);
    ServeRequest request;
    try {
      request = parse_request(line);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++accepted;
    const std::string once = request.to_line();
    ServeRequest again;
    ASSERT_NO_THROW(again = parse_request(once)) << line << "\n -> " << once;
    EXPECT_EQ(again.to_line(), once) << line;
  }
  EXPECT_GT(accepted, 250);
}

TEST(ProtocolFuzz, ResponseParserNeverCrashesAndRoundTrips) {
  Xoshiro256 rng(22);
  int accepted = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::string line = random_line(rng, kResponseFields);
    ServeResponse response;
    try {
      response = ServeResponse::from_line(line);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++accepted;
    const std::string once = response.to_line();
    ServeResponse again;
    ASSERT_NO_THROW(again = ServeResponse::from_line(once)) << line << "\n -> " << once;
    EXPECT_EQ(again.to_line(), once) << line;
  }
  EXPECT_GT(accepted, 400);
}

TEST(ProtocolFuzz, DeeplyNestedLinesAreBadRequests) {
  const std::string deep(std::size_t{1} << 20, '[');
  EXPECT_THROW((void)parse_request(deep), std::invalid_argument);
  EXPECT_THROW((void)ServeResponse::from_line(deep), std::invalid_argument);
  // A field nested one level past the limit fails as unparseable JSON, not
  // as a field of the wrong type.
  const std::string inner = std::string(obs::Json::kMaxDepth, '[') +
                            std::string(obs::Json::kMaxDepth, ']');
  try {
    (void)parse_request("{\"id\":1,\"a\":" + inner + ",\"b\":\"()\"}");
    FAIL() << "expected a bad request";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("one JSON object per line"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace srna::serve
