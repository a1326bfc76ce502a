#include "obs/json.hpp"

#include <cstdlib>
#include <stdexcept>

#include "obs/export.hpp"

namespace cellflow::obs {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("json type error: value is not ") +
                           want);
}

// Recursive-descent parser over the RFC 8259 grammar, building a DOM
// (validate_json in obs/export.cpp parses through it too). Numbers go
// through strtod after the grammar check (the grammar guarantees strtod
// consumes the whole token and is locale-safe: JSON numbers use '.' only,
// and a comma-decimal strtod simply stops at the '.', which the grammar
// has already pinned as the fraction separator — so we parse the
// integer, fraction, and exponent pieces manually to stay
// locale-independent).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      fail("bad literal (expected " + std::string(word) + ")");
    pos_ += word.size();
  }

  static int hex_digit(char h) {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
  }

  void append_utf8(std::string& out, unsigned cp) {
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

  unsigned hex4() {
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      const int d = hex_digit(peek());
      ++pos_;
      if (d < 0) fail("bad \\u escape");
      v = (v << 4) | static_cast<unsigned>(d);
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = peek();
      ++pos_;
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
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("unpaired surrogate in \\u escape");
            pos_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
              fail("unpaired surrogate in \\u escape");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate in \\u escape");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  double number() {
    const std::size_t start = pos_;
    bool negative = false;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    double mag = 0.0;
    if (peek() == '0') {
      ++pos_;
    } else if (peek() >= '1' && peek() <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        mag = mag * 10.0 + (text_[pos_] - '0');
        ++pos_;
      }
    } else {
      fail("malformed number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!(peek() >= '0' && peek() <= '9')) fail("malformed fraction");
      double place = 0.1;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        mag += place * (text_[pos_] - '0');
        place *= 0.1;
        ++pos_;
      }
    }
    int exp10 = 0;
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      bool neg_exp = false;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        neg_exp = (text_[pos_] == '-');
        ++pos_;
      }
      if (!(peek() >= '0' && peek() <= '9')) fail("malformed exponent");
      int exp = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        if (exp < 100000) exp = exp * 10 + (text_[pos_] - '0');
        ++pos_;
      }
      exp10 = neg_exp ? -exp : exp;
    }
    // Manual digit accumulation is exact for integers but can drift a few
    // ULPs on long fraction+exponent forms; re-parse the grammar-verified
    // token with strtod for full precision. Under a comma-decimal locale
    // strtod stops at the '.', which we detect and fall back from.
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == token.c_str() + token.size()) return parsed;
    double out = mag;
    for (int k = 0; k < (exp10 < 0 ? -exp10 : exp10); ++k)
      out = exp10 < 0 ? out / 10.0 : out * 10.0;
    return negative ? -out : out;  // comma-decimal locale fallback
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return JsonValue(string());
      case 't': literal("true"); return JsonValue(true);
      case 'f': literal("false"); return JsonValue(false);
      case 'n': literal("null"); return JsonValue(nullptr);
      default: return JsonValue(number());
    }
  }

  JsonValue array(int depth) {
    expect('[');
    JsonValue::Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(out));
    }
    while (true) {
      skip_ws();
      out.push_back(value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue(std::move(out));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object(int depth) {
    expect('{');
    JsonValue::Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      for (const auto& [k, v] : out)
        if (k == key) fail("duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      skip_ws();
      out.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue(std::move(out));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump(const JsonValue& v, std::string& out, int indent, int level) {
  const auto newline = [&](int lvl) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * lvl), ' ');
  };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    out += format_double(v.as_number());
  } else if (v.is_string()) {
    out.push_back('"');
    out += json_escape(v.as_string());
    out.push_back('"');
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) out.push_back(',');
      newline(level + 1);
      dump(a[i], out, indent, level + 1);
    }
    newline(level);
    out.push_back(']');
  } else {
    const auto& o = v.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, val] : o) {
      if (!first) out.push_back(',');
      first = false;
      newline(level + 1);
      out.push_back('"');
      out += json_escape(key);
      out += indent > 0 ? "\": " : "\":";
      dump(val, out, indent, level + 1);
    }
    newline(level);
    out.push_back('}');
  }
}

}  // namespace

bool JsonValue::as_bool() const {
  if (const auto* b = std::get_if<bool>(&v_)) return *b;
  type_error("a bool");
}

double JsonValue::as_number() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  type_error("a number");
}

const std::string& JsonValue::as_string() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  type_error("a string");
}

const JsonValue::Array& JsonValue::as_array() const {
  if (const auto* a = std::get_if<Array>(&v_)) return *a;
  type_error("an array");
}

const JsonValue::Object& JsonValue::as_object() const {
  if (const auto* o = std::get_if<Object>(&v_)) return *o;
  type_error("an object");
}

JsonValue::Array& JsonValue::as_array() {
  if (auto* a = std::get_if<Array>(&v_)) return *a;
  type_error("an array");
}

JsonValue::Object& JsonValue::as_object() {
  if (auto* o = std::get_if<Object>(&v_)) return *o;
  type_error("an object");
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const auto* o = std::get_if<Object>(&v_);
  if (o == nullptr) return nullptr;
  for (const auto& [k, v] : *o)
    if (k == key) return &v;
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  auto* o = std::get_if<Object>(&v_);
  if (o == nullptr) return nullptr;
  for (auto& [k, v] : *o)
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::set(std::string_view key, JsonValue value) {
  auto& o = as_object();
  for (auto& [k, v] : o) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  o.emplace_back(std::string(key), std::move(value));
}

JsonValue parse_json(std::string_view text) { return JsonParser(text).run(); }

std::string to_json(const JsonValue& value, int indent) {
  std::string out;
  dump(value, out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

}  // namespace cellflow::obs
