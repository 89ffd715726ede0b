// Minimal JSON document model for the network layer.
//
// The JSON-RPC server has to *read* adversarial bytes off a socket —
// everything else in the repo only ever writes JSON (expositions, traces,
// bench files), so this is the repo's first parser. It is deliberately
// small: a tagged value (null/bool/number/string/array/object), a
// recursive-descent parser with hard depth and length limits (stack
// exhaustion from a "[[[[[..." frame is an attack, not an edge case), and
// a writer that round-trips integral numbers without a trailing ".0" (the
// JSON-RPC id echo must match what the client sent).
//
// Numbers are doubles. JSON-RPC ids and scoring probabilities both fit;
// anything needing full 64-bit integer fidelity does not travel through
// this layer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace phishinghook::net {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered; lookup is linear (objects here are a handful of
  /// keys, not maps).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double n);
  static JsonValue string(std::string s);
  static JsonValue array(Array items = {});
  static JsonValue object(Object members = {});

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  Array& as_array() { return array_; }
  const Object& as_object() const { return object_; }
  Object& as_object() { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Appends `key`: `value` (objects) / `value` (arrays).
  void set(std::string key, JsonValue value);
  void push_back(JsonValue value);

  /// Compact serialization (no whitespace). Integral numbers print without
  /// a fractional part so parsed ids round-trip byte-identical. dump_to
  /// appends to `out`.
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Parses exactly one JSON document (leading/trailing whitespace
  /// allowed, trailing garbage rejected). On failure returns nullopt and,
  /// when `error` is given, a one-line reason with the byte offset.
  /// `max_depth` bounds array/object nesting.
  static std::optional<JsonValue> parse(std::string_view text,
                                        std::string* error = nullptr,
                                        std::size_t max_depth = 64);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_string_escape(std::string_view text);

/// Appends json_string_escape(text) to `out`.
void json_escape_to(std::string& out, std::string_view text);

/// Appends `value` as JsonValue::number(value).dump() would: integral
/// values below 9e15 as "%.0f", other finite values as "%.17g", NaN and
/// infinities as null. Written with std::to_chars, whose fixed and
/// general forms the standard defines as those printf conversions in the
/// C locale.
void json_number_to(std::string& out, double value);

}  // namespace phishinghook::net
