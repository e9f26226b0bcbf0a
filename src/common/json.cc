#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <utility>

#include "common/logging.h"

namespace netout {

namespace {

/// Appends `value` as a JSON string literal, quotes included. Runs of
/// bytes that need no escape are appended in one piece; UTF-8 passes
/// through unchanged.
void AppendEscaped(std::string* out, std::string_view value) {
  out->push_back('"');
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const auto c = static_cast<unsigned char>(value[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(value, run_start, i - run_start);
    run_start = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(value, run_start, value.size() - run_start);
  out->push_back('"');
}

/// Appends std::to_chars' rendering of `value`; `args` select the format.
template <typename T, typename... Args>
void AppendChars(std::string* out, T value, Args... args) {
  char buf[32];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value, args...);
  NETOUT_CHECK(result.ec == std::errc()) << "to_chars overflow";
  out->append(buf, result.ptr);
}

}  // namespace

std::string JsonEscape(std::string_view value) {
  std::string out;
  AppendEscaped(&out, value);
  return out;
}

void JsonWriter::Separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value directly follows its key; no comma
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) {
      out_ += ",";
    }
    has_element_.back() = true;
    if (pretty_) {
      out_ += "\n";
      Indent();
    }
  }
}

void JsonWriter::Indent() {
  for (std::size_t i = 0; i < has_element_.size(); ++i) {
    out_ += "  ";
  }
}

void JsonWriter::Raw(std::string_view text) { out_.append(text); }

void JsonWriter::BeginObject() {
  Separator();
  Raw("{");
  has_element_.push_back(false);
}

void JsonWriter::EndObject() {
  NETOUT_CHECK(!has_element_.empty()) << "EndObject without BeginObject";
  const bool had = has_element_.back();
  has_element_.pop_back();
  if (pretty_ && had) {
    out_ += "\n";
    Indent();
  }
  Raw("}");
}

void JsonWriter::BeginArray() {
  Separator();
  Raw("[");
  has_element_.push_back(false);
}

void JsonWriter::EndArray() {
  NETOUT_CHECK(!has_element_.empty()) << "EndArray without BeginArray";
  const bool had = has_element_.back();
  has_element_.pop_back();
  if (pretty_ && had) {
    out_ += "\n";
    Indent();
  }
  Raw("]");
}

void JsonWriter::Key(std::string_view key) {
  Separator();
  AppendEscaped(&out_, key);
  Raw(pretty_ ? ": " : ":");
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  Separator();
  AppendEscaped(&out_, value);
}

void JsonWriter::Number(double value) {
  Separator();
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; emit null per common convention.
    Raw("null");
    return;
  }
  // to_chars with chars_format::general and a precision is specified
  // as printf's "%.12g" in the C locale, without printf's overhead.
  AppendChars(&out_, value, std::chars_format::general, 12);
}

void JsonWriter::Int(std::int64_t value) {
  Separator();
  AppendChars(&out_, value);
}

void JsonWriter::Uint(std::uint64_t value) {
  Separator();
  AppendChars(&out_, value);
}

void JsonWriter::Bool(bool value) {
  Separator();
  Raw(value ? "true" : "false");
}

void JsonWriter::Null() {
  Separator();
  Raw("null");
}

void JsonWriter::RawValue(std::string_view json) {
  Separator();
  Raw(json);
}

std::string JsonWriter::Take() && {
  NETOUT_CHECK(has_element_.empty())
      << "unbalanced Begin/End at JSON Take()";
  std::string out = std::move(out_);
  out_.clear();
  return out;
}

// ---------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<std::int64_t> JsonValue::AsInt64() const {
  if (kind_ != Kind::kNumber) {
    return Status::InvalidArgument("value is not a number");
  }
  // 2^63 is the first double not representable back as int64; exclude
  // the boundary itself (it rounds to exactly 2^63, which overflows).
  constexpr double kBound = 9223372036854775808.0;  // 2^63
  if (!std::isfinite(number_) || number_ != std::floor(number_) ||
      number_ >= kBound || number_ < -kBound) {
    return Status::InvalidArgument("number is not an exact int64");
  }
  return static_cast<std::int64_t>(number_);
}

JsonValue JsonValue::MakeBool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::MakeNumber(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::MakeString(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------
// JsonParse — recursive descent over untrusted bytes
// ---------------------------------------------------------------------

namespace {

class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonParseOptions& options)
      : text_(text), options_(options) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    NETOUT_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON document");
    }
    return value;
  }

 private:
  Status Fail(std::string_view why) const {
    return Status::ParseError("JSON at byte " + std::to_string(pos_) +
                              ": " + std::string(why));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  Status Expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("invalid literal");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Result<JsonValue> ParseValue(std::size_t depth) {
    if (depth > options_.max_depth) {
      return Fail("nesting deeper than the configured limit");
    }
    SkipWhitespace();
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case 'n':
        NETOUT_RETURN_IF_ERROR(Expect("null"));
        return JsonValue::MakeNull();
      case 't':
        NETOUT_RETURN_IF_ERROR(Expect("true"));
        return JsonValue::MakeBool(true);
      case 'f':
        NETOUT_RETURN_IF_ERROR(Expect("false"));
        return JsonValue::MakeBool(false);
      case '"': {
        NETOUT_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::MakeString(std::move(s));
      }
      case '[':
        return ParseArray(depth);
      case '{':
        return ParseObject(depth);
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseArray(std::size_t depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) return JsonValue::MakeArray(std::move(items));
    while (true) {
      NETOUT_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
      items.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
    return JsonValue::MakeArray(std::move(items));
  }

  Result<JsonValue> ParseObject(std::size_t depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue::MakeObject(std::move(members));
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key");
      NETOUT_ASSIGN_OR_RETURN(std::string key, ParseString());
      for (const auto& [existing, unused] : members) {
        (void)unused;
        if (existing == key) return Fail("duplicate object key");
      }
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      NETOUT_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
    return JsonValue::MakeObject(std::move(members));
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) return Fail("raw control byte in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (AtEnd()) return Fail("unterminated escape");
      const char esc = text_[pos_++];
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
          NETOUT_ASSIGN_OR_RETURN(std::uint32_t code, ParseHex4());
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require a low surrogate escape next.
            if (!Consume('\\') || !Consume('u')) {
              return Fail("unpaired high surrogate");
            }
            NETOUT_ASSIGN_OR_RETURN(std::uint32_t low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(&out, code);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  Result<std::uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    return value;
  }

  static void AppendUtf8(std::string* out, std::uint32_t code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-') && AtEnd()) return Fail("lone minus sign");
    // Strict RFC 8259 grammar up front (strtod accepts hex, inf, nan,
    // leading '+' — none of which are JSON).
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Fail("invalid number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (Consume('.')) {
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("digit required after decimal point");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("digit required in exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("invalid number");
    // Out-of-range magnitudes become +/-inf (errno ERANGE); JSON has no
    // infinities, so reject rather than smuggle one in.
    if (!std::isfinite(value)) return Fail("number out of range");
    return JsonValue::MakeNumber(value);
  }

  std::string_view text_;
  JsonParseOptions options_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonParse(std::string_view text,
                            const JsonParseOptions& options) {
  return JsonParser(text, options).Parse();
}

}  // namespace netout
