// rct::json tests: the writer's exact spellings, reader conformance against
// RFC 8259 (valid and invalid texts, the nesting limit, a 1 MiB hostile
// line), and writer -> reader round trips over random strings and random
// finite doubles (bit-exact).

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace {

using rct::json::Value;
using Kind = Value::Kind;

template <typename T>
std::string written(void (*append)(std::string&, T), T v) {
  std::string out;
  append(out, v);
  return out;
}
std::string str_json(std::string_view s) { return written(rct::json::append_string, s); }
std::string num_json(double v) { return written(rct::json::append_number, v); }
std::string us_json(std::uint64_t ns) { return written(rct::json::append_us, ns); }

// --- writer -----------------------------------------------------------------

TEST(JsonWriter, StringEscapes) {
  EXPECT_EQ(str_json("plain"), "\"plain\"");
  EXPECT_EQ(str_json("q\"b\\s/"), "\"q\\\"b\\\\s/\"");
  EXPECT_EQ(str_json("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(str_json(std::string("\x01\b\f\x1f", 4)), "\"\\u0001\\u0008\\u000c\\u001f\"");
  EXPECT_EQ(str_json(std::string(1, '\0')), "\"\\u0000\"");
  EXPECT_EQ(str_json("caf\xc3\xa9 \x7f"), "\"caf\xc3\xa9 \x7f\"");  // bytes >= 0x7f pass
}

TEST(JsonWriter, NumbersAreShortestRoundTripAndNullWhenNonFinite) {
  EXPECT_EQ(num_json(7.26e-12), "7.26e-12");
  EXPECT_EQ(num_json(0.5), "0.5");
  EXPECT_EQ(num_json(3.0), "3");
  EXPECT_EQ(num_json(-0.0), "-0");
  EXPECT_EQ(num_json(1e300 * 1e300), "null");
  EXPECT_EQ(num_json(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(num_json(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriter, MicrosecondsAreFixedPoint) {
  EXPECT_EQ(us_json(0), "0.000");
  EXPECT_EQ(us_json(7), "0.007");
  EXPECT_EQ(us_json(12345), "12.345");
  EXPECT_EQ(us_json(1000050), "1000.050");
  EXPECT_EQ(us_json(UINT64_MAX), "18446744073709551.615");
}

// --- reader conformance -----------------------------------------------------

TEST(JsonReader, AcceptsValidTexts) {
  for (const char* text : {"{}", "[]", " \t\r\n0 ", "-0", "1.5e-3", "2E+10", "-12.25e0",
                           "true", "false", "null", "\"\"", "\"a\\/b\"",
                           "{\"a\":[1,{\"b\":null}],\"c\":\"d\"}", "[1, 2 ,3]"}) {
    std::string error;
    EXPECT_TRUE(rct::json::parse(text, &error).has_value()) << text << ": " << error;
  }
}

TEST(JsonReader, RejectsInvalidTexts) {
  for (const char* text : {"", " ", "[1,]", "{\"a\":1,}", "[,1]", "01", "-01", "00", "+1", ".5",
                           "1.", "1e", "1e+", "-", "inf", "-inf", "Infinity", "nan", "NaN",
                           "0x10", "tru", "nul", "True", "'a'", "{\"a\" 1}", "{1:2}", "{\"a\"}",
                           "[1 2]", "\"a\nb\"", "\"a\tb\"", "\"abc", "\"abc\\", "{} x", "1 2",
                           "[]]", "\"\\x\"", "\"\\u12\"", "\"\\u12g4\"", "\"\\ud800\"",
                           "\"\\ud800\\u0041\"", "\"\\udc00\"", "[", "{\"a\":"}) {
    std::string error;
    EXPECT_FALSE(rct::json::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("invalid JSON at byte"), std::string::npos) << text;
  }
}

TEST(JsonReader, DecodesValuesAndKeepsRawNumbers) {
  const auto doc = rct::json::parse(
      "{\"s\":\"caf\\u00e9 \\ud83d\\ude00\\n\",\"n\":1.50,\"b\":true,\"z\":null,"
      "\"a\":[1,\"x\"],\"s\":\"last\"}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->kind, Kind::kObject);
  ASSERT_EQ(doc->members.size(), 6u);
  EXPECT_EQ(doc->members[0].value.text, "caf\xc3\xa9 \xf0\x9f\x98\x80\n");
  EXPECT_EQ(doc->at("s").text, "last");  // duplicate keys: the last one wins
  EXPECT_EQ(doc->at("n").text, "1.50");
  EXPECT_DOUBLE_EQ(doc->at("n").number(), 1.5);
  EXPECT_TRUE(doc->at("b").boolean);
  EXPECT_EQ(doc->at("z").kind, Kind::kNull);
  ASSERT_EQ(doc->at("a").items.size(), 2u);
  EXPECT_EQ(doc->at("a").items[1].text, "x");
  EXPECT_FALSE(doc->has("missing"));
  EXPECT_THROW((void)doc->at("missing"), std::out_of_range);
  EXPECT_TRUE(std::isnan(doc->at("b").number()));  // not a number
}

TEST(JsonReader, IntegersParseExactlyAsU64) {
  const auto u64 = [](const char* text) { return rct::json::parse(text)->as_u64(); };
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_EQ(u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(u64("9007199254740993"), 9007199254740993u);  // 2^53 + 1: not a double
  EXPECT_FALSE(u64("18446744073709551616").has_value());  // overflow
  EXPECT_FALSE(u64("-1").has_value());
  EXPECT_FALSE(u64("1.0").has_value());
  EXPECT_FALSE(u64("1e3").has_value());
  EXPECT_FALSE(u64("\"7\"").has_value());
  EXPECT_TRUE(std::isnan(rct::json::parse("1e999")->number()));  // out of double range
}

TEST(JsonReader, NestingLimitIsExact) {
  const int limit = rct::json::kMaxDepth;
  const auto arrays = [](int depth) { return std::string(depth, '[') + std::string(depth, ']'); };
  EXPECT_TRUE(rct::json::parse(arrays(limit)).has_value());
  EXPECT_FALSE(rct::json::parse(arrays(limit + 1)).has_value());
  std::string objects;
  for (int i = 0; i < limit; ++i) objects += "{\"k\":";
  objects += "1" + std::string(limit, '}');
  EXPECT_TRUE(rct::json::parse(objects).has_value());
  EXPECT_FALSE(rct::json::parse("[" + objects + "]").has_value());
}

TEST(JsonReader, OneMebibyteOfOpenBracketsIsRejected) {
  // The size of the longest line `rct serve` accepts.
  const std::string hostile(1 << 20, '[');
  std::string error;
  EXPECT_FALSE(rct::json::parse(hostile, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

// --- writer -> reader round trips -------------------------------------------

TEST(JsonRoundTrip, RandomStringsSurviveUnchanged) {
  // UTF-8 sequences of every length, from U+0080 to U+10FFFF.
  const std::vector<std::string> multibyte = {"\xc2\x80", "\xc3\xa9", "\xdf\xbf",
                                              "\xe0\xa0\x80", "\xe2\x82\xac", "\xef\xbf\xbf",
                                              "\xf0\x90\x80\x80", "\xf0\x9f\x98\x80",
                                              "\xf4\x8f\xbf\xbf"};
  std::mt19937_64 rng(20260717);
  std::string all_ascii;
  for (int c = 0; c < 128; ++c) all_ascii.push_back(static_cast<char>(c));
  std::vector<std::string> samples = {all_ascii};
  for (int i = 0; i < 2000; ++i) {
    std::string s;
    for (auto k = rng() % 40; k > 0; --k)
      s += rng() % 4 != 0 ? std::string(1, static_cast<char>(rng() % 128))
                          : multibyte[rng() % multibyte.size()];
    samples.push_back(std::move(s));
  }
  for (const std::string& s : samples) {
    const std::string text = str_json(s);
    std::string error;
    const auto back = rct::json::parse(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    ASSERT_EQ(back->kind, Kind::kString);
    EXPECT_EQ(back->text, s) << text;
  }
}

TEST(JsonRoundTrip, RandomFiniteDoublesSurviveBitExactly) {
  std::vector<double> samples = {0.0,    -0.0,     DBL_MAX,   -DBL_MAX, DBL_MIN,
                                 1e-310, 7.26e-12, 1.0 / 3.0, 0.1,
                                 std::numeric_limits<double>::denorm_min()};
  std::mt19937_64 rng(1995);
  while (samples.size() < 20000) {
    const auto d = std::bit_cast<double>(rng());  // every exponent, subnormals included
    if (std::isfinite(d)) samples.push_back(d);
  }
  for (const double d : samples) {
    const std::string text = num_json(d);
    const auto back = rct::json::parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    ASSERT_EQ(back->kind, Kind::kNumber);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back->number()), std::bit_cast<std::uint64_t>(d))
        << text;
  }
}

}  // namespace
