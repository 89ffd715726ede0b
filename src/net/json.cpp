#include "net/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>

namespace phishinghook::net {

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(Array items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(Object members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(members);
  return v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  type_ = Type::kObject;
  object_.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  type_ = Type::kArray;
  array_.push_back(std::move(value));
}

void json_escape_to(std::string& out, std::string_view text) {
  // Bytes that need no escape are appended in runs.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[(c >> 4) & 0xf];
        out += kHex[c & 0xf];
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

std::string json_string_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  json_escape_to(out, text);
  return out;
}

void json_number_to(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  // Integral values (ids, counts) print without a fractional part so they
  // round-trip; everything else gets enough digits to survive a
  // parse-dump cycle.
  char buf[32];
  const bool integral =
      value == std::floor(value) && std::fabs(value) < 9.0e15;
  const std::to_chars_result written =
      integral ? std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::general, 17);
  out.append(buf, written.ptr);
}

void JsonValue::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      json_number_to(out, number_);
      return;
    case Type::kString:
      out += '"';
      json_escape_to(out, string_);
      out += '"';
      return;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        array_[i].dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        json_escape_to(out, object_[i].first);
        out += "\":";
        object_[i].second.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t max_depth;
  std::string error;

  bool fail(const char* why) {
    if (error.empty()) {
      error = std::string(why) + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > max_depth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': return parse_string_value(out);
      case 't':
        if (text.substr(pos, 4) == "true") {
          pos += 4;
          out = JsonValue::boolean(true);
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (text.substr(pos, 5) == "false") {
          pos += 5;
          out = JsonValue::boolean(false);
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (text.substr(pos, 4) == "null") {
          pos += 4;
          out = JsonValue::null();
          return true;
        }
        return fail("bad literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
        return fail("unexpected character");
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos;
    if (consume('-')) {
    }
    if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
      return fail("bad number");
    }
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    if (consume('.')) {
      if (pos >= text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("bad number");
      }
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("bad number");
      }
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    }
    double value = 0.0;
    const auto result =
        std::from_chars(text.data() + start, text.data() + pos, value);
    if (result.ec != std::errc{}) return fail("bad number");
    out = JsonValue::number(value);
    return true;
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos + 4 > text.size()) return fail("bad \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("bad \\u escape");
    }
    return true;
  }

  static void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string_raw(std::string& out) {
    if (!consume('"')) return fail("expected string");
    while (true) {
      if (pos >= text.size()) return fail("unterminated string");
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos;
        continue;
      }
      ++pos;
      if (pos >= text.size()) return fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos + 1 < text.size() && text[pos] == '\\' &&
                text[pos + 1] == 'u') {
              pos += 2;
              std::uint32_t low = 0;
              if (!parse_hex4(low)) return false;
              if (low >= 0xDC00 && low <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
              } else {
                return fail("bad surrogate pair");
              }
            } else {
              return fail("lone surrogate");
            }
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
  }

  bool parse_string_value(JsonValue& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = JsonValue::string(std::move(s));
    return true;
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    consume('[');
    JsonValue::Array items;
    skip_ws();
    if (consume(']')) {
      out = JsonValue::array(std::move(items));
      return true;
    }
    while (true) {
      JsonValue item;
      if (!parse_value(item, depth + 1)) return false;
      items.push_back(std::move(item));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return fail("expected ',' or ']'");
    }
    out = JsonValue::array(std::move(items));
    return true;
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    consume('{');
    JsonValue::Object members;
    skip_ws();
    if (consume('}')) {
      out = JsonValue::object(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return fail("expected ',' or '}'");
    }
    out = JsonValue::object(std::move(members));
    return true;
  }
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view text,
                                          std::string* error,
                                          std::size_t max_depth) {
  Parser parser{text, 0, max_depth, {}};
  JsonValue value;
  if (!parser.parse_value(value, 0)) {
    if (error != nullptr) *error = parser.error;
    return std::nullopt;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at offset " + std::to_string(parser.pos);
    }
    return std::nullopt;
  }
  return value;
}

}  // namespace phishinghook::net
