#include "iqb/util/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>

namespace iqb::util {

namespace {

/// Recursive-descent JSON parser over a string_view. Tracks position
/// for error messages and depth to bound recursion.
class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> parse_document() {
    skip_ws();
    auto value = parse_value(0);
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing content after JSON document");
    }
    return value;
  }

 private:
  Error fail(std::string what) const {
    return make_error(ErrorCode::kParseError,
                      what + " at offset " + std::to_string(pos_));
  }

  bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() const noexcept { return text_[pos_]; }
  char advance() noexcept { return text_[pos_++]; }

  void skip_ws() noexcept {
    while (!eof()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view lit) noexcept {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> parse_value(int depth) {
    if (depth > max_depth_) return fail("maximum nesting depth exceeded");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto s = parse_string();
        if (!s.ok()) return s.error();
        return JsonValue(std::move(s).value());
      }
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        return fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        return fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        return fail("invalid literal");
      default: return parse_number();
    }
  }

  Result<JsonValue> parse_object(int depth) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key string");
      auto key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (eof() || advance() != ':') return fail("expected ':' after object key");
      skip_ws();
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      obj.insert_or_assign(std::move(key).value(), std::move(value).value());
      skip_ws();
      if (eof()) return fail("unterminated object");
      char c = advance();
      if (c == '}') break;
      if (c != ',') return fail("expected ',' or '}' in object");
    }
    return JsonValue(std::move(obj));
  }

  Result<JsonValue> parse_array(int depth) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      skip_ws();
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      arr.push_back(std::move(value).value());
      skip_ws();
      if (eof()) return fail("unterminated array");
      char c = advance();
      if (c == ']') break;
      if (c != ',') return fail("expected ',' or ']' in array");
    }
    return JsonValue(std::move(arr));
  }

  Result<std::string> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (eof()) return fail("unterminated string");
      char c = advance();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return fail("unterminated escape sequence");
      char esc = advance();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          auto cp = parse_hex4();
          if (!cp.ok()) return cp.error();
          append_utf8(out, cp.value());
          break;
        }
        default: return fail("invalid escape sequence");
      }
    }
    return out;
  }

  Result<unsigned> parse_hex4() {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      char c = advance();
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid hex digit in \\u escape");
    }
    return cp;
  }

  // Encode a BMP code point as UTF-8. Surrogate pairs are passed
  // through individually (sufficient for config files, which are ASCII
  // in practice).
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<JsonValue> parse_number() {
    std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) return fail("expected a JSON value");
    double value = 0.0;
    auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      return fail("malformed number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

/// kEscape[byte]: 0 to copy the byte as is, else the letter after the
/// backslash ('u' writes \u00XX).
constexpr std::array<char, 256> kEscape = [] {
  std::array<char, 256> table{};
  for (std::size_t c = 0; c < 0x20; ++c) table[c] = 'u';
  table['"'] = '"';
  table['\\'] = '\\';
  table['\b'] = 'b';
  table['\f'] = 'f';
  table['\n'] = 'n';
  table['\r'] = 'r';
  table['\t'] = 't';
  return table;
}();

/// Bytes an escape adds: 0, 1 (\n) or 5 (\u00XX).
constexpr std::array<std::uint8_t, 256> kEscapeGrowth = [] {
  std::array<std::uint8_t, 256> table{};
  for (std::size_t c = 0; c < table.size(); ++c) {
    table[c] = kEscape[c] == 0 ? 0 : kEscape[c] == 'u' ? 5 : 1;
  }
  return table;
}();

void append_json_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  // Size the output exactly, then fill it through a pointer: the
  // served documents escape a quote or newline every few bytes, where
  // an append per escape site dominated the cost.
  std::size_t escaped_size = text.size();
  for (const char c : text) {
    escaped_size += kEscapeGrowth[static_cast<unsigned char>(c)];
  }
  if (escaped_size == text.size()) {
    out.append(text);
    return;
  }
  const std::size_t start = out.size();
  out.resize(start + escaped_size);
  char* dst = out.data() + start;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    const char escape = kEscape[byte];
    if (escape == 0) {
      *dst++ = c;
      continue;
    }
    *dst++ = '\\';
    *dst++ = escape;
    if (escape == 'u') {
      *dst++ = '0';
      *dst++ = '0';
      *dst++ = kHex[byte >> 4];
      *dst++ = kHex[byte & 0xF];
    }
  }
}

void append_json_number(std::string& out, double number) {
  // Integers (the common case for weights) render without a decimal
  // point so configs stay human-friendly and round-trip exactly. The
  // precision overloads of to_chars are specified as printf's %.0f and
  // %.17g, without printf's locale and format-string overhead.
  char buffer[64];
  std::to_chars_result written{};
  if (std::isfinite(number) && number == std::floor(number) &&
      std::abs(number) < 1e15) {
    written = std::to_chars(buffer, buffer + sizeof buffer, number,
                            std::chars_format::fixed, 0);
  } else {
    written = std::to_chars(buffer, buffer + sizeof buffer, number,
                            std::chars_format::general, 17);
  }
  out.append(buffer, written.ptr);
}

void write_tree(JsonWriter& writer, const JsonValue& value) {
  switch (value.type()) {
    case JsonType::kNull: writer.null(); break;
    case JsonType::kBool: writer.value(value.as_bool()); break;
    case JsonType::kNumber: writer.value(value.as_number()); break;
    case JsonType::kString: writer.value(value.as_string()); break;
    case JsonType::kArray:
      writer.begin_array();
      for (const JsonValue& item : value.as_array()) write_tree(writer, item);
      writer.end_array();
      break;
    case JsonType::kObject:
      writer.begin_object();
      for (const auto& [key, member] : value.as_object()) {
        writer.key(key);
        write_tree(writer, member);
      }
      writer.end_object();
      break;
  }
}

}  // namespace

Result<JsonValue> JsonValue::get(std::string_view key) const {
  if (!is_object()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "JSON value is not an object (looking up '" +
                          std::string(key) + "')");
  }
  const JsonValue* member = find(key);
  if (!member) {
    return make_error(ErrorCode::kNotFound,
                      "missing JSON key '" + std::string(key) + "'");
  }
  return *member;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

Result<double> JsonValue::get_number(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) return get(key).error();
  if (!v->is_number()) {
    return make_error(ErrorCode::kParseError,
                      "JSON key '" + std::string(key) + "' is not a number");
  }
  return v->as_number();
}

Result<std::string> JsonValue::get_string(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) return get(key).error();
  if (!v->is_string()) {
    return make_error(ErrorCode::kParseError,
                      "JSON key '" + std::string(key) + "' is not a string");
  }
  return v->as_string();
}

Result<bool> JsonValue::get_bool(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) return get(key).error();
  if (!v->is_bool()) {
    return make_error(ErrorCode::kParseError,
                      "JSON key '" + std::string(key) + "' is not a boolean");
  }
  return v->as_bool();
}

Result<JsonArray> JsonValue::get_array(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) return get(key).error();
  if (!v->is_array()) {
    return make_error(ErrorCode::kParseError,
                      "JSON key '" + std::string(key) + "' is not an array");
  }
  return v->as_array();
}

Result<JsonObject> JsonValue::get_object(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) return get(key).error();
  if (!v->is_object()) {
    return make_error(ErrorCode::kParseError,
                      "JSON key '" + std::string(key) + "' is not an object");
  }
  return v->as_object();
}

bool JsonValue::contains(std::string_view key) const noexcept {
  return find(key) != nullptr;
}

bool JsonValue::operator==(const JsonValue& other) const noexcept {
  if (type_ != other.type_) return false;
  switch (type_) {
    case JsonType::kNull: return true;
    case JsonType::kBool: return bool_ == other.bool_;
    case JsonType::kNumber: return num_ == other.num_;
    case JsonType::kString: return str_ == other.str_;
    case JsonType::kArray: return arr_ == other.arr_;
    case JsonType::kObject: return obj_ == other.obj_;
  }
  return false;
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  JsonWriter writer(out, indent);
  write_tree(writer, *this);
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

void JsonWriter::newline(std::size_t depth) {
  out_.push_back('\n');
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (has_items_.empty()) return;  // the document's root value
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
  if (indent_ > 0) newline(has_items_.size());
}

JsonWriter& JsonWriter::open(char bracket) {
  before_value();
  out_.push_back(bracket);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  const bool had_items = has_items_.back();
  has_items_.pop_back();
  if (had_items && indent_ > 0) newline(has_items_.size());
  out_.push_back(bracket);
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  before_value();
  out_.push_back('"');
  append_json_escaped(out_, name);
  out_ += indent_ > 0 ? "\": " : "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  out_.push_back('"');
  append_json_escaped(out_, text);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  before_value();
  append_json_number(out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

Result<JsonValue> parse_json(std::string_view text, int max_depth) {
  Parser parser(text, max_depth);
  return parser.parse_document();
}

}  // namespace iqb::util
