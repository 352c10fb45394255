#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "testing/json_fuzz.hpp"
#include "util/prng.hpp"

namespace srna::obs {
namespace {

TEST(Json, ScalarKinds) {
  EXPECT_EQ(Json().kind(), Json::Kind::kNull);
  EXPECT_EQ(Json(true).kind(), Json::Kind::kBool);
  EXPECT_EQ(Json(std::int64_t{-3}).kind(), Json::Kind::kInt);
  EXPECT_EQ(Json(std::uint64_t{3}).kind(), Json::Kind::kUint);
  EXPECT_EQ(Json(1.5).kind(), Json::Kind::kDouble);
  EXPECT_EQ(Json("hi").kind(), Json::Kind::kString);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json obj = Json::object();
  obj.set("zebra", Json(1));
  obj.set("alpha", Json(2));
  obj.set("mid", Json(3));
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj.members()[0].first, "zebra");
  EXPECT_EQ(obj.members()[1].first, "alpha");
  EXPECT_EQ(obj.members()[2].first, "mid");
}

TEST(Json, SetReplacesExistingKeyInPlace) {
  Json obj = Json::object();
  obj.set("k", Json(1));
  obj.set("other", Json(2));
  obj.set("k", Json(9));
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "k");
  EXPECT_EQ(obj.find("k")->as_int(), 9);
}

TEST(Json, DumpEscapesStrings) {
  Json obj = Json::object();
  obj.set("s", Json("a\"b\\c\n\t\x01"));
  const std::string text = obj.dump();
  EXPECT_NE(text.find("\\\""), std::string::npos);
  EXPECT_NE(text.find("\\\\"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\t"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
}

TEST(Json, RoundTripThroughDumpAndParse) {
  Json doc = Json::object();
  doc.set("name", Json("srna"));
  doc.set("count", Json(std::uint64_t{42}));
  doc.set("delta", Json(std::int64_t{-7}));
  doc.set("ratio", Json(0.25));
  doc.set("ok", Json(true));
  doc.set("nothing", Json(nullptr));
  Json arr = Json::array();
  arr.push(Json(1));
  arr.push(Json("two"));
  Json nested = Json::object();
  nested.set("deep", Json(3));
  arr.push(std::move(nested));
  doc.set("items", std::move(arr));

  for (const int indent : {0, 2}) {
    const auto parsed = Json::parse(doc.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
    EXPECT_EQ(parsed->find("name")->as_string(), "srna");
    EXPECT_EQ(parsed->find("count")->as_uint(), 42u);
    EXPECT_EQ(parsed->find("delta")->as_int(), -7);
    EXPECT_DOUBLE_EQ(parsed->find("ratio")->as_double(), 0.25);
    EXPECT_TRUE(parsed->find("ok")->as_bool());
    EXPECT_EQ(parsed->find("nothing")->kind(), Json::Kind::kNull);
    const Json& items = *parsed->find("items");
    ASSERT_EQ(items.items().size(), 3u);
    EXPECT_EQ(items.items()[0].as_int(), 1);
    EXPECT_EQ(items.items()[1].as_string(), "two");
    EXPECT_EQ(items.items()[2].find("deep")->as_int(), 3);
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("truthy").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("{} trailing").has_value());
}

TEST(Json, ParseUnicodeEscape) {
  const auto parsed = Json::parse("\"a\\u00e9b\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\xc3\xa9"  "b");
}

TEST(Json, NumericAccessorsConvert) {
  EXPECT_DOUBLE_EQ(Json(std::int64_t{3}).as_double(), 3.0);
  EXPECT_EQ(Json(2.0).as_int(), 2);
  EXPECT_EQ(Json(std::uint64_t{5}).as_int(), 5);
  // Non-numbers read as zero — diagnostics, not control flow.
  EXPECT_EQ(Json("text").as_int(), 0);
}

TEST(Json, FindOnMissingKeyIsNull) {
  Json obj = Json::object();
  obj.set("present", Json(1));
  EXPECT_EQ(obj.find("absent"), nullptr);
  EXPECT_TRUE(obj.contains("present"));
  EXPECT_FALSE(obj.contains("absent"));
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(Json, ParseAcceptsNestingUpToTheLimitAndNoDeeper) {
  EXPECT_TRUE(Json::parse(nested_arrays(Json::kMaxDepth)).has_value());
  EXPECT_FALSE(Json::parse(nested_arrays(Json::kMaxDepth + 1)).has_value());
  // Objects count toward the same depth as arrays.
  std::string objects;
  for (int d = 0; d < Json::kMaxDepth; ++d) objects += "{\"k\":";
  const std::string closed = objects + "1" + std::string(Json::kMaxDepth, '}');
  EXPECT_TRUE(Json::parse(closed).has_value());
  EXPECT_FALSE(Json::parse("[" + closed + "]").has_value());
  // Depth, not count: many shallow containers stay fine.
  std::string wide = "[";
  for (int i = 0; i < 1000; ++i) wide += i == 0 ? "[[]]" : ",[[]]";
  EXPECT_TRUE(Json::parse(wide + "]").has_value());
}

TEST(Json, ParseRejectsAMegabyteOfOpenBracketsQuickly) {
  const std::string line(std::size_t{1} << 20, '[');
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Json::parse(line).has_value());
  const auto took = std::chrono::steady_clock::now() - start;
  // The parser stops at depth kMaxDepth + 1, long before the end of the line.
  EXPECT_LT(took, std::chrono::milliseconds(100));
}

// Fuzz-lite (tests/testing/json_fuzz.hpp): parse() must never crash, and
// anything it accepts must survive dump() -> parse() unchanged.
bool accepts_and_round_trips(std::string_view input) {
  const auto doc = Json::parse(input);
  if (!doc) return false;
  const std::string once = doc->dump();
  const auto again = Json::parse(once);
  EXPECT_TRUE(again.has_value()) << input;
  if (again) EXPECT_EQ(again->dump(), once) << input;
  return true;
}

TEST(JsonFuzz, ArbitraryBytesNeverCrash) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 3000; ++i) (void)accepts_and_round_trips(testing::random_bytes(rng, 96));
}

TEST(JsonFuzz, JsonAlphabetSoupRoundTripsWhenAccepted) {
  Xoshiro256 rng(12);
  int accepted = 0;
  for (int i = 0; i < 5000; ++i)
    accepted += accepts_and_round_trips(testing::random_json_soup(rng, 48)) ? 1 : 0;
  EXPECT_GT(accepted, 0);
}

TEST(JsonFuzz, DamagedDocumentsRoundTripWhenAccepted) {
  // Grammar-drawn documents, about half damaged by a few edits, some wrapped
  // in enough arrays to reach past the depth limit.
  Xoshiro256 rng(13);
  constexpr std::string_view kKeys[] = {"k", "id", "a", "\\u00e9", ""};
  constexpr std::string_view kScalars[] = {
      "0", "-7", "2.5e-3", "18446744073709551615", "-9223372036854775808", "1e300", "true",
      "false", "null", "\"text\"", "\"\\u00e9\\n\\\"\""};
  int accepted = 0;
  int limit_hits = 0;
  for (int i = 0; i < 5000; ++i) {
    const int wrap = rng.uniform(8) == 0 ? static_cast<int>(rng.uniform(Json::kMaxDepth + 2)) : 0;
    std::string input = std::string(static_cast<std::size_t>(wrap), '[') +
                        testing::random_document(rng, 4, kKeys, kScalars) +
                        std::string(static_cast<std::size_t>(wrap), ']');
    if (rng.uniform(2) == 0) input = testing::damage(rng, std::move(input));
    const bool ok = accepts_and_round_trips(input);
    accepted += ok ? 1 : 0;
    limit_hits += !ok && wrap >= Json::kMaxDepth - 4 ? 1 : 0;
  }
  EXPECT_GT(accepted, 2000);
  EXPECT_GT(limit_hits, 0);
}

}  // namespace
}  // namespace srna::obs
