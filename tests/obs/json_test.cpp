#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

namespace ftsched::obs {
namespace {

TEST(JsonReader, AcceptsExactlyTheRfc8259Grammar) {
  struct Case {
    std::string_view text;
    bool ok;
  };
  const Case cases[] = {
      {"0", true},
      {"-0", true},
      {"12", true},
      {"-12.5e+3", true},
      {"1E-2", true},
      {"  [1, 2.5, \"x\", true, false, null, {}]\n", true},
      {"{\"a\":{\"b\":[]}}", true},
      {"\"\\u00e9\\ud83d\\ude00\\/\"", true},
      {"+1", false},
      {"01", false},
      {"-01", false},
      {"1.", false},
      {".5", false},
      {"-", false},
      {"1e", false},
      {"1e+", false},
      {"0x10", false},
      {"NaN", false},
      {"Infinity", false},
      {"tru", false},
      {"\"a\tb\"", false},
      {"\"a\nb\"", false},
      {"\"\\ud800\"", false},
      {"\"\\udc00\"", false},
      {"\"\\ud800\\u0041\"", false},
      {"\"\\x41\"", false},
      {"\"\\u12g4\"", false},
      {"\"abc", false},
      {"[1,]", false},
      {"[1 2]", false},
      {"{\"a\":1,}", false},
      {"{a:1}", false},
      {"{\"a\" 1}", false},
      {"1 2", false},
      {"{} x", false},
      {"", false},
      {"   ", false},
      {"{\"a\":1,\"a\":2}", false},
      {"{\"a\":1,\"\\u0061\":2}", false},
  };
  for (const Case& c : cases) {
    const auto parsed = parse_json(c.text);
    EXPECT_EQ(parsed.ok(), c.ok) << "'" << c.text << "': " << parsed.message();
  }
}

TEST(JsonReader, DecodesValuesInDocumentOrder) {
  const auto parsed =
      parse_json("{\"z\":[true,null],\"a\":\"\\u00e9\\ud83d\\ude00\\n\","
                 "\"n\":-2.5e2}");
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const JsonValue& doc = parsed.value();
  ASSERT_EQ(doc.object.size(), 3u);
  EXPECT_EQ(doc.object[0].first, "z");
  EXPECT_EQ(doc.object[1].first, "a");
  ASSERT_EQ(doc.find("z")->array.size(), 2u);
  EXPECT_TRUE(doc.find("z")->array[0].boolean);
  EXPECT_EQ(doc.find("z")->array[1].type, JsonValue::Type::kNull);
  EXPECT_EQ(doc.find("a")->str, "\xc3\xa9\xf0\x9f\x98\x80\n");
  EXPECT_EQ(doc.find("n")->number, -250.0);
  EXPECT_FALSE(doc.find("n")->is_uint);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonReader, NestingDepthIsCapped) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[').append(depth, ']');
  };
  EXPECT_TRUE(parse_json(nested(kJsonMaxDepth)).ok());
  const auto too_deep = parse_json(nested(kJsonMaxDepth + 1));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.message().find("nesting deeper than"), std::string::npos)
      << too_deep.message();
  // Far past the cap the reader still stops at the cap, not the stack.
  EXPECT_FALSE(parse_json(nested(200000)).ok());
  const std::string in_object =
      std::string("{\"a\":").append(nested(kJsonMaxDepth)).append("}");
  EXPECT_FALSE(parse_json(in_object).ok());
}

TEST(JsonReader, ErrorsNameLineAndColumn) {
  const auto bad = parse_json("{\n  \"a\": 1,\n  \"b\": +2\n}");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.message().rfind("3:8: ", 0), 0u) << bad.message();

  const auto repeated = parse_json("{\"k\":1,\n\"k\":2}");
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.message().rfind("2:1: repeated key", 0), 0u)
      << repeated.message();

  // A JSON-lines reader numbers errors by its file line.
  const auto line = parse_json("[1,,2]", 41);
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.message().rfind("41:4: ", 0), 0u) << line.message();
}

TEST(JsonReader, NonNegativeIntegersAreExactTo64Bits) {
  const auto max = parse_json("18446744073709551615");
  ASSERT_TRUE(max.ok());
  EXPECT_TRUE(max.value().is_uint);
  EXPECT_EQ(max.value().uint, 18446744073709551615ull);

  const auto past = parse_json("18446744073709551616");
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past.value().is_uint);

  const auto id = parse_json("9007199254740993");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value().uint, 9007199254740993ull);
  EXPECT_EQ(id.value().number, 9007199254740992.0);  // the double rounds

  for (const char* not_uint : {"-1", "-0", "1.0", "1e2"}) {
    const auto parsed = parse_json(not_uint);
    ASSERT_TRUE(parsed.ok()) << not_uint;
    EXPECT_FALSE(parsed.value().is_uint) << not_uint;
  }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonEscape, EveryAsciiByteRoundTripsThroughTheReader) {
  for (int byte = 0; byte < 0x80; ++byte) {
    const std::string text(1, static_cast<char>(byte));
    const auto parsed =
        parse_json(std::string("\"").append(json_escape(text)).append("\""));
    ASSERT_TRUE(parsed.ok()) << "byte " << byte << ": " << parsed.message();
    EXPECT_EQ(parsed.value().str, text) << "byte " << byte;
  }
}

}  // namespace
}  // namespace ftsched::obs
