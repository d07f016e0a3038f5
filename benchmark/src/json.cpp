#include "json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <type_traits>

namespace tlc::bench {
namespace {

// Nesting limit for parsed input: the benchmark's own files nest four
// levels deep, and a hostile file must not exhaust the stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expected<Json> parse_document() {
    Expected<Json> value = parse_value(0);
    if (!value) return value;
    skip_space();
    if (pos_ != text_.size()) return fail("trailing characters");
    return value;
  }

 private:
  Error fail(const std::string& what) const {
    return Err("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Expected<Json> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_space();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      Expected<std::string> s = parse_string();
      if (!s) return Error{s.error()};
      return Json(std::move(*s));
    }
    if (consume("true")) return Json(true);
    if (consume("false")) return Json(false);
    if (consume("null")) return Json();
    return parse_number();
  }

  Expected<Json> parse_number() {
    double value = 0.0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr == begin) return fail("bad number");
    pos_ += static_cast<std::size_t>(ptr - begin);
    return Json(value);
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Expected<std::uint32_t> parse_hex4() {
    if (text_.size() - pos_ < 4) return fail("short \\u escape");
    std::uint32_t cp = 0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, cp, 16);
    if (ec != std::errc() || ptr != text_.data() + pos_ + 4) {
      return fail("bad \\u escape");
    }
    pos_ += 4;
    return cp;
  }

  Expected<std::string> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          Expected<std::uint32_t> cp = parse_hex4();
          if (!cp) return Error{cp.error()};
          std::uint32_t code = *cp;
          if (code >= 0xD800 && code < 0xDC00 && consume("\\u")) {
            Expected<std::uint32_t> low = parse_hex4();
            if (!low) return Error{low.error()};
            if (*low < 0xDC00 || *low >= 0xE000) return fail("bad surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (*low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  Expected<Json> parse_array(int depth) {
    ++pos_;
    Json::Array items;
    skip_space();
    if (consume("]")) return Json(std::move(items));
    for (;;) {
      Expected<Json> item = parse_value(depth + 1);
      if (!item) return item;
      items.push_back(std::move(*item));
      skip_space();
      if (consume("]")) return Json(std::move(items));
      if (!consume(",")) return fail("expected ',' or ']'");
    }
  }

  Expected<Json> parse_object(int depth) {
    ++pos_;
    Json::Object members;
    skip_space();
    if (consume("}")) return Json(std::move(members));
    for (;;) {
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected a member name");
      }
      Expected<std::string> key = parse_string();
      if (!key) return Error{key.error()};
      skip_space();
      if (!consume(":")) return fail("expected ':'");
      Expected<Json> value = parse_value(depth + 1);
      if (!value) return value;
      members.emplace_back(std::move(*key), std::move(*value));
      skip_space();
      if (consume("}")) return Json(std::move(members));
      if (!consume(",")) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Shortest form that reads back to the same double: every digit the
  // measurement has, and no invented ones.
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, ec == std::errc() ? ptr : buf);
}

void newline(std::string& out, int indent, int depth) {
  if (indent == 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

Expected<Json> Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json& Json::set(std::string key, Json value) {
  Object& members = std::get<Object>(value_);
  members.emplace_back(std::move(key), std::move(value));
  return members.back().second;
}

void Json::push(Json value) { std::get<Array>(value_).push_back(std::move(value)); }

void Json::dump_to(std::string& out, int indent, int depth) const {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          dump_number(out, v);
        } else if constexpr (std::is_same_v<T, std::string>) {
          dump_string(out, v);
        } else if constexpr (std::is_same_v<T, Array>) {
          out.push_back('[');
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) out += indent == 0 ? ", " : ",";
            newline(out, indent, depth + 1);
            v[i].dump_to(out, indent, depth + 1);
          }
          if (!v.empty()) newline(out, indent, depth);
          out.push_back(']');
        } else {
          out.push_back('{');
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) out += indent == 0 ? ", " : ",";
            newline(out, indent, depth + 1);
            dump_string(out, v[i].first);
            out += ": ";
            v[i].second.dump_to(out, indent, depth + 1);
          }
          if (!v.empty()) newline(out, indent, depth);
          out.push_back('}');
        }
      },
      value_);
}

}  // namespace tlc::bench
