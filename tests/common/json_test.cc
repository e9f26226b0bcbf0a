#include "common/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace netout {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "\"plain\"");
  EXPECT_EQ(JsonEscape("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(JsonEscape(""), "\"\"");
}

TEST(JsonWriterTest, EmptyContainers) {
  {
    JsonWriter json;
    json.BeginObject();
    json.EndObject();
    EXPECT_EQ(std::move(json).Take(), "{}");
  }
  {
    JsonWriter json;
    json.BeginArray();
    json.EndArray();
    EXPECT_EQ(std::move(json).Take(), "[]");
  }
}

TEST(JsonWriterTest, ObjectWithMixedValues) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name");
  json.String("Ava");
  json.Key("score");
  json.Number(2.5);
  json.Key("count");
  json.Int(-3);
  json.Key("big");
  json.Uint(18446744073709551615ull);
  json.Key("flag");
  json.Bool(true);
  json.Key("nothing");
  json.Null();
  json.EndObject();
  EXPECT_EQ(std::move(json).Take(),
            "{\"name\":\"Ava\",\"score\":2.5,\"count\":-3,"
            "\"big\":18446744073709551615,\"flag\":true,\"nothing\":null}");
}

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter json;
  json.BeginObject();
  json.Key("list");
  json.BeginArray();
  json.Int(1);
  json.BeginObject();
  json.Key("inner");
  json.Bool(false);
  json.EndObject();
  json.BeginArray();
  json.EndArray();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(std::move(json).Take(),
            "{\"list\":[1,{\"inner\":false},[]]}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray();
  json.Number(std::numeric_limits<double>::infinity());
  json.Number(std::numeric_limits<double>::quiet_NaN());
  json.Number(1.0);
  json.EndArray();
  EXPECT_EQ(std::move(json).Take(), "[null,null,1]");
}

std::string WrittenNumber(double value) {
  JsonWriter json;
  json.Number(value);
  return std::move(json).Take();
}

std::string PrintfG12(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

double FromBits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Number renders through std::to_chars; the wire format is printf's
// "%.12g", so every finite double must come out byte for byte the same.
TEST(JsonWriterTest, NumberMatchesPrintfG12) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 2.5, 1.0 / 3.0, -2.0 / 3.0,
      // Subnormals, the smallest normal, the largest finite.
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      FromBits(0x000FFFFFFFFFFFFFull),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      1e300, -1e300, 1e-300, -1e-300,
      // Integers at and beyond 2^53, and 12-digit rounding carries.
      9007199254740992.0, 9007199254740993.0, 18446744073709551616.0,
      123456789012.0, 999999999999.0, 999999999999.5, 9999999999995.0,
      // The exponent switch near 1e-5 (fixed from 1e-4 up) and 1e12.
      1e-5, 9.99999999999e-6, 9.999999999995e-6, 1e-4, 0.000099999999999995,
      1e11, 1e12, 999999999999.4, 999999999999.6, 1e12 + 1.0, 1e13};
  for (double anchor : {1e-5, 1e-4, 1e12}) {
    double down = anchor;
    double up = anchor;
    for (int step = 0; step < 64; ++step) {
      down = std::nextafter(down, 0.0);
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      values.push_back(down);
      values.push_back(up);
    }
  }
  Rng rng(0x15CD);
  for (int i = 0; i < 20000; ++i) {
    // Half raw bit patterns (every exponent), half decimal-ish values.
    const double scale =
        std::pow(10.0, static_cast<double>(rng.NextInt(-20, 20)));
    const double value = i % 2 == 0 ? FromBits(rng.NextUint64())
                                    : (rng.NextDouble() - 0.5) * scale;
    if (std::isfinite(value)) values.push_back(value);
  }
  for (const double value : values) {
    EXPECT_EQ(WrittenNumber(value), PrintfG12(value)) << std::hexfloat << value;
  }
}

TEST(JsonWriterTest, IntegersMatchToString) {
  for (const std::int64_t value :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    JsonWriter json;
    json.Int(value);
    EXPECT_EQ(std::move(json).Take(), std::to_string(value));
  }
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{7},
        std::numeric_limits<std::uint64_t>::max()}) {
    JsonWriter json;
    json.Uint(value);
    EXPECT_EQ(std::move(json).Take(), std::to_string(value));
  }
}

// Escaping as a per-byte table: the two-character escapes, \u00XX for
// the other control bytes, every other byte (UTF-8 included) verbatim.
std::string ExpectedEscape(std::string_view value) {
  std::string out = "\"";
  for (const char ch : value) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += "\"";
  return out;
}

TEST(JsonWriterTest, StringAndKeyEscapeEveryByte) {
  std::vector<std::string> inputs = {
      "", "plain", "\"", "\\", "\"quoted\" and \\back\\slashed\\",
      "caf\xC3\xA9 \xE6\x97\xA5\xE6\x9C\xAC \xF0\x9F\x98\x80",  // UTF-8
      std::string("\x00mid\x00", 6), "\x7F\x80\xFF"};
  for (int c = 0; c < 0x20; ++c) {
    std::string embedded = "a";
    embedded += static_cast<char>(c);
    embedded += 'b';
    inputs.push_back(std::string(1, static_cast<char>(c)));
    inputs.push_back(std::move(embedded));
  }
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte += static_cast<char>(c);
  inputs.push_back(every_byte);
  for (const std::string& input : inputs) {
    const std::string expected = ExpectedEscape(input);
    EXPECT_EQ(JsonEscape(input), expected);
    JsonWriter json;
    json.BeginObject();
    json.Key(input);
    json.String(input);
    json.EndObject();
    EXPECT_EQ(std::move(json).Take(), "{" + expected + ":" + expected + "}");
  }
}

TEST(JsonWriterTest, PrettyPrintIndents) {
  JsonWriter json(/*pretty=*/true);
  json.BeginObject();
  json.Key("a");
  json.Int(1);
  json.Key("b");
  json.BeginArray();
  json.Int(2);
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(std::move(json).Take(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriterDeathTest, UnbalancedTakeAborts) {
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.BeginObject();
        std::move(json).Take();
      },
      "unbalanced");
}

TEST(JsonWriterTest, RawValueEmbedsVerbatimWithSeparators) {
  JsonWriter json;
  json.BeginObject();
  json.Key("id");
  json.RawValue("\"abc\"");
  json.Key("result");
  json.RawValue("{\"k\":[1,2]}");
  json.EndObject();
  EXPECT_EQ(std::move(json).Take(),
            "{\"id\":\"abc\",\"result\":{\"k\":[1,2]}}");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonParse("null").value().is_null());
  EXPECT_TRUE(JsonParse("true").value().bool_value());
  EXPECT_FALSE(JsonParse("false").value().bool_value());
  EXPECT_DOUBLE_EQ(JsonParse("-12.5e2").value().number_value(), -1250.0);
  EXPECT_EQ(JsonParse("\"hi\"").value().string_value(), "hi");
}

TEST(JsonParseTest, NestedDocumentPreservesOrder) {
  auto doc = JsonParse("{\"b\": [1, {\"x\": null}], \"a\": \"v\"} ");
  ASSERT_TRUE(doc.ok());
  const JsonValue& root = doc.value();
  ASSERT_TRUE(root.is_object());
  ASSERT_EQ(root.members().size(), 2u);
  EXPECT_EQ(root.members()[0].first, "b");
  EXPECT_EQ(root.members()[1].first, "a");
  const JsonValue* b = root.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->items().size(), 2u);
  EXPECT_DOUBLE_EQ(b->items()[0].number_value(), 1.0);
  EXPECT_TRUE(b->items()[1].Find("x")->is_null());
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapesAndSurrogatePairs) {
  EXPECT_EQ(JsonParse("\"a\\n\\t\\\"\\\\b\"").value().string_value(),
            "a\n\t\"\\b");
  EXPECT_EQ(JsonParse("\"\\u0041\"").value().string_value(), "A");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(JsonParse("\"\\uD83D\\uDE00\"").value().string_value(),
            "\xF0\x9F\x98\x80");
  // Lone high surrogate is malformed.
  EXPECT_EQ(JsonParse("\"\\uD83D\"").status().code(),
            StatusCode::kParseError);
}

TEST(JsonParseTest, RejectsHostileInput) {
  // Raw control byte inside a string (line framing attack).
  EXPECT_FALSE(JsonParse("\"a\nb\"").ok());
  // Duplicate keys: which copy wins must never matter.
  EXPECT_FALSE(JsonParse("{\"k\":1,\"k\":2}").ok());
  // Trailing content after the document.
  EXPECT_FALSE(JsonParse("{} {}").ok());
  // Malformed numbers that strtod would happily half-accept.
  EXPECT_FALSE(JsonParse("01").ok());
  EXPECT_FALSE(JsonParse("1.").ok());
  EXPECT_FALSE(JsonParse("+1").ok());
  EXPECT_FALSE(JsonParse("nan").ok());
  // Unterminated containers and strings.
  EXPECT_FALSE(JsonParse("[1,").ok());
  EXPECT_FALSE(JsonParse("\"open").ok());
  EXPECT_FALSE(JsonParse("").ok());
}

TEST(JsonParseTest, DepthLimitStopsRecursion) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  JsonParseOptions options;
  options.max_depth = 32;
  auto r = JsonParse(deep, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // Within the cap it parses fine.
  EXPECT_TRUE(JsonParse("[[[[[[[[1]]]]]]]]", options).ok());
}

TEST(JsonParseTest, AsInt64ExactnessBoundaries) {
  EXPECT_EQ(JsonParse("42").value().AsInt64().value(), 42);
  EXPECT_EQ(JsonParse("-9007199254740992").value().AsInt64().value(),
            -9007199254740992LL);
  // Non-integral and out-of-range values fail loudly.
  EXPECT_FALSE(JsonParse("1.5").value().AsInt64().ok());
  EXPECT_FALSE(JsonParse("1e300").value().AsInt64().ok());
  // 2^63 is representable as a double but not as int64.
  EXPECT_FALSE(JsonParse("9223372036854775808").value().AsInt64().ok());
}

}  // namespace
}  // namespace netout
