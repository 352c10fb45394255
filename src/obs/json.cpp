#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace srna::obs {

double Json::as_double() const noexcept {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kDouble: return double_;
    default: return 0.0;
  }
}

// Doubles convert with saturation: casting one outside the integer type's
// range is undefined behaviour, and parsed input may hold any finite double.
std::int64_t Json::as_int() const noexcept {
  switch (kind_) {
    case Kind::kInt: return int_;
    case Kind::kUint: return static_cast<std::int64_t>(uint_);
    case Kind::kDouble:
      if (double_ >= 0x1p63) return std::numeric_limits<std::int64_t>::max();
      if (double_ >= -0x1p63) return static_cast<std::int64_t>(double_);
      return double_ < 0 ? std::numeric_limits<std::int64_t>::min() : 0;  // NaN: 0
    default: return 0;
  }
}

std::uint64_t Json::as_uint() const noexcept {
  switch (kind_) {
    case Kind::kInt: return int_ < 0 ? 0 : static_cast<std::uint64_t>(int_);
    case Kind::kUint: return uint_;
    case Kind::kDouble:
      if (double_ >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
      return double_ > 0 ? static_cast<std::uint64_t>(double_) : 0;  // NaN: 0
    default: return 0;
  }
}

Json& Json::set(std::string key, Json value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

Json& Json::push(Json value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
  return *this;
}

std::string Json::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; emit null like most writers
    out += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out.append(buf, ptr);
}

void append_newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kUint: out += std::to_string(uint_); break;
    case Kind::kDouble: append_double(out, double_); break;
    case Kind::kString:
      out += '"';
      out += escape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent > 0) append_newline_indent(out, indent, depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (indent > 0 && !items_.empty()) append_newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent > 0) append_newline_indent(out, indent, depth + 1);
        out += '"';
        out += escape(members_[i].first);
        out += indent > 0 ? "\": " : "\":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent > 0 && !members_.empty()) append_newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ------------------------------------------------------------------ parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> value() {  // NOLINT(misc-no-recursion)
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // The recursion below is one C++ frame chain per open container, so
        // the nesting depth, not just the input length, must be bounded.
        if (depth_ == Json::kMaxDepth) return std::nullopt;
        ++depth_;
        auto container = text_[pos_] == '{' ? object() : array();
        --depth_;
        return container;
      }
      case '"': {
        auto s = string();
        if (!s) return std::nullopt;
        return Json(std::move(*s));
      }
      case 't': return literal("true") ? std::optional<Json>(Json(true)) : std::nullopt;
      case 'f': return literal("false") ? std::optional<Json>(Json(false)) : std::nullopt;
      case 'n': return literal("null") ? std::optional<Json>(Json()) : std::nullopt;
      default: return number();
    }
  }

  std::optional<Json> object() {  // NOLINT(misc-no-recursion)
    ++pos_;  // '{'
    Json out = Json::object();
    skip_ws();
    if (eat('}')) return out;
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      auto v = value();
      if (!v) return std::nullopt;
      out.set(std::move(*key), std::move(*v));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return out;
      return std::nullopt;
    }
  }

  std::optional<Json> array() {  // NOLINT(misc-no-recursion)
    ++pos_;  // '['
    Json out = Json::array();
    skip_ws();
    if (eat(']')) return out;
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      out.push(std::move(*v));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return out;
      return std::nullopt;
    }
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // UTF-8 encode the code point (BMP only; surrogate pairs are out
          // of scope for the diagnostics this library writes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_integer = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_integer = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") return std::nullopt;
    if (is_integer) {
      if (tok[0] != '-') {
        std::uint64_t u = 0;
        const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), u);
        if (ec == std::errc{} && p == tok.data() + tok.size()) return Json(u);
      }
      std::int64_t i = 0;
      const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc{} && p == tok.data() + tok.size()) return Json(i);
      // fall through to double on overflow
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc{} || p != tok.data() + tok.size()) return std::nullopt;
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open around the current position
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace srna::obs
