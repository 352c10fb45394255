// Fuzz-lite input generators for the JSON-lines parsers, in the style of
// tests/rna/fuzz_parsers_test.cpp: a deterministic Xoshiro256, no external
// fuzzer. Random bytes almost never form a document, so the suites also
// draw well-formed documents from a small grammar (keys and scalars chosen
// by the caller, e.g. the wire protocol's field names) and then damage some
// of them with a few edits from the JSON alphabet.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "util/prng.hpp"

namespace srna::testing {

inline constexpr std::string_view kJsonAlphabet =
    "{}[]:,\"\\ \t\n0123456789.-+eEtruefalsnu/abcdef";

inline std::string random_bytes(Xoshiro256& rng, std::size_t max_len) {
  std::string out(rng.uniform(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng.uniform(256));
  return out;
}

inline std::string random_json_soup(Xoshiro256& rng, std::size_t max_len) {
  std::string out(rng.uniform(max_len + 1), ' ');
  for (char& c : out) c = kJsonAlphabet[rng.uniform(kJsonAlphabet.size())];
  return out;
}

// A well-formed document: a scalar, or (while `depth` allows) an array or an
// object of up to three members keyed from `keys`. Scalars are JSON text.
inline std::string random_document(Xoshiro256& rng, int depth,
                                   std::span<const std::string_view> keys,
                                   std::span<const std::string_view> scalars) {
  const std::uint64_t pick = rng.uniform(depth > 0 ? 4 : 2);
  if (pick < 2) return std::string(scalars[rng.uniform(scalars.size())]);
  const bool object = pick == 3;
  std::string out(1, object ? '{' : '[');
  const std::uint64_t members = rng.uniform(4);
  for (std::uint64_t i = 0; i < members; ++i) {
    if (i > 0) out += ',';
    if (object) {
      out += '"';
      out += keys[rng.uniform(keys.size())];
      out += "\":";
    }
    out += random_document(rng, depth - 1, keys, scalars);
  }
  out += object ? '}' : ']';
  return out;
}

// One to three single-character edits: delete, insert or overwrite, with
// characters from the JSON alphabet.
inline std::string damage(Xoshiro256& rng, std::string text) {
  const std::uint64_t edits = 1 + rng.uniform(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.uniform(text.size() + 1);
    const char c = kJsonAlphabet[rng.uniform(kJsonAlphabet.size())];
    switch (rng.uniform(3)) {
      case 0:
        if (at < text.size()) text.erase(at, 1);
        break;
      case 1: text.insert(at, 1, c); break;
      default:
        if (at < text.size()) text[at] = c;
        break;
    }
  }
  return text;
}

}  // namespace srna::testing
