// Minimal self-contained JSON value model, parser and serializer.
//
// IQB configurations (thresholds, weights, dataset descriptors) are
// exchanged as JSON. The library is offline and dependency-free, so we
// implement the small subset of RFC 8259 we need ourselves: objects,
// arrays, strings (with \uXXXX escapes, BMP only), numbers, booleans
// and null. Numbers are stored as double, which is exact for the
// integer weights (0..5) and thresholds the framework uses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "iqb/util/result.hpp"

namespace iqb::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// std::map keeps serialization deterministic (sorted keys), which we
/// rely on for config round-trip tests. The transparent comparator
/// lets find() look a key up by string_view without allocating.
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

enum class JsonType { kNull, kBool, kNumber, kString, kArray, kObject };

/// A parsed JSON document node. Value-semantic; arrays/objects own
/// their children.
class JsonValue {
 public:
  JsonValue() noexcept : type_(JsonType::kNull) {}
  JsonValue(std::nullptr_t) noexcept : type_(JsonType::kNull) {}      // NOLINT
  JsonValue(bool b) noexcept : type_(JsonType::kBool), bool_(b) {}    // NOLINT
  JsonValue(double n) noexcept : type_(JsonType::kNumber), num_(n) {} // NOLINT
  JsonValue(int n) noexcept : type_(JsonType::kNumber), num_(n) {}    // NOLINT
  JsonValue(std::int64_t n) noexcept                                  // NOLINT
      : type_(JsonType::kNumber), num_(static_cast<double>(n)) {}
  JsonValue(const char* s) : type_(JsonType::kString), str_(s) {}     // NOLINT
  JsonValue(std::string s) : type_(JsonType::kString), str_(std::move(s)) {}  // NOLINT
  JsonValue(JsonArray a) : type_(JsonType::kArray), arr_(std::move(a)) {}     // NOLINT
  JsonValue(JsonObject o) : type_(JsonType::kObject), obj_(std::move(o)) {}   // NOLINT

  JsonType type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == JsonType::kNull; }
  bool is_bool() const noexcept { return type_ == JsonType::kBool; }
  bool is_number() const noexcept { return type_ == JsonType::kNumber; }
  bool is_string() const noexcept { return type_ == JsonType::kString; }
  bool is_array() const noexcept { return type_ == JsonType::kArray; }
  bool is_object() const noexcept { return type_ == JsonType::kObject; }

  /// Unchecked accessors — caller must check the type first.
  bool as_bool() const noexcept { return bool_; }
  double as_number() const noexcept { return num_; }
  const std::string& as_string() const noexcept { return str_; }
  const JsonArray& as_array() const noexcept { return arr_; }
  JsonArray& as_array() noexcept { return arr_; }
  const JsonObject& as_object() const noexcept { return obj_; }
  JsonObject& as_object() noexcept { return obj_; }

  /// Checked object lookup; error if this is not an object or the key
  /// is missing. Returns a deep copy — prefer find() for subtrees.
  Result<JsonValue> get(std::string_view key) const;

  /// Borrowing object lookup: the member named `key`, or null if this
  /// is not an object or has no such key. Allocates nothing.
  const JsonValue* find(std::string_view key) const noexcept;

  /// Checked typed lookups used by config loading.
  Result<double> get_number(std::string_view key) const;
  Result<std::string> get_string(std::string_view key) const;
  Result<bool> get_bool(std::string_view key) const;
  Result<JsonArray> get_array(std::string_view key) const;
  Result<JsonObject> get_object(std::string_view key) const;

  /// True if this is an object containing the key.
  bool contains(std::string_view key) const noexcept;

  /// Serialize. Compact by default; indent > 0 pretty-prints with that
  /// many spaces per level. The bytes are JsonWriter's.
  std::string dump(int indent = 0) const;

  bool operator==(const JsonValue& other) const noexcept;

 private:
  JsonType type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// Parse a complete JSON document. Trailing non-whitespace content is
/// an error. Depth is limited (default 256) to bound recursion.
Result<JsonValue> parse_json(std::string_view text, int max_depth = 256);

/// Escape a string per JSON rules (used by the serializer; exposed for
/// report renderers emitting JSON fragments).
std::string json_escape(std::string_view s);

/// The one JSON serializer: appends a document straight to a string,
/// compact (indent 0) or pretty-printed with `indent` spaces per level,
/// in exactly the bytes JsonValue::dump(indent) produces for the same
/// tree — so a document can be streamed from native structures without
/// building a JsonValue tree first. Callers emit object members in
/// sorted key order (what a JsonObject would hold) and each key once.
///
///   JsonWriter w(out, 2);
///   w.begin_object().key("a").value(1.0).key("b").begin_array();
///   w.value("x").end_array().end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = 0)
      : out_(out), indent_(indent < 0 ? 0 : indent) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// The next member's key; the member's value follows.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(const std::string& text) {
    return value(std::string_view(text));
  }
  /// Integral values below 1e15 print without a decimal point (%.0f),
  /// everything else as %.17g — exact for every finite double.
  JsonWriter& value(double number);
  /// Through a double, as JsonValue(std::int64_t) stores it.
  JsonWriter& value(std::int64_t number) {
    return value(static_cast<double>(number));
  }
  JsonWriter& value(bool flag);
  JsonWriter& null();

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// Separator and indentation before an array element (a member's
  /// value needs none: key() wrote them).
  void before_value();
  void newline(std::size_t depth);

  std::string& out_;
  int indent_;
  /// One entry per open container: whether it has items yet.
  std::vector<bool> has_items_;
  bool after_key_ = false;
};

}  // namespace iqb::util
