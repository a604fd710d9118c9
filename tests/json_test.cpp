// Unit tests for the JSON document model, parser and serializer.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "json/value.hpp"

namespace slices::json {
namespace {

TEST(JsonValue, TypesAndAccessors) {
  EXPECT_TRUE(Value(nullptr).is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(1.5).is_number());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());

  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_DOUBLE_EQ(Value(2.5).as_number(), 2.5);
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_EQ(Value("x").as_string(), "x");
}

TEST(JsonValue, ObjectIndexCreatesMembers) {
  Value v;
  v["a"] = 1;
  v["b"] = "two";
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_EQ(v.find("b")->as_string(), "two");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, TypedGettersReportErrors) {
  Value v;
  v["rate"] = 12.5;
  v["name"] = "s1";
  EXPECT_TRUE(v.get_number("rate").ok());
  EXPECT_DOUBLE_EQ(v.get_number("rate").value(), 12.5);
  EXPECT_FALSE(v.get_number("name").ok());
  EXPECT_FALSE(v.get_number("absent").ok());
  EXPECT_EQ(v.get_number("absent").error().code, Errc::protocol_error);
  EXPECT_EQ(v.get_string("name").value(), "s1");
}

TEST(JsonSerialize, Scalars) {
  EXPECT_EQ(serialize(Value(nullptr)), "null");
  EXPECT_EQ(serialize(Value(true)), "true");
  EXPECT_EQ(serialize(Value(false)), "false");
  EXPECT_EQ(serialize(Value(42)), "42");
  EXPECT_EQ(serialize(Value(-1.5)), "-1.5");
  EXPECT_EQ(serialize(Value("hi")), "\"hi\"");
}

TEST(JsonSerialize, IntegersPrintWithoutFraction) {
  EXPECT_EQ(serialize(Value(1000000.0)), "1000000");
  EXPECT_EQ(serialize(Value(-7.0)), "-7");
}

TEST(JsonSerialize, AppendNumberPrintsLikePrintf) {
  // The oracle is the printf formatting the serializer is specified by:
  // integers below 9e15 in magnitude as %lld, everything else as %.17g.
  const auto printf_form = [](double d) {
    char buf[64];
    if (std::abs(d) < 9.0e15 && d == std::trunc(d)) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", d);
    }
    return std::string(buf);
  };
  std::vector<double> corpus = {
      0.0, -0.0, 0.1, -0.1, 1.0 / 3.0, 41.830000000000005, 1e-7, 123.456, 0.5,
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0, 2.2250738585072009e-308,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 1e21, -1e21, 1e22, 9e15, -9e15,
      8999999999999999.0, -8999999999999999.0, 9007199254740993.0, -9.2e18, -1e18,
      -9223372036854775808.0, 9223372036854775808.0, 1.8446744073709552e19, -1e300, 1e300};
  // Plus random values: bit patterns over the whole finite range, and
  // signed fractions scaled to the magnitudes metrics carry.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double bits = std::bit_cast<double>(x);
    if (std::isfinite(bits)) corpus.push_back(bits);
    const double unit = static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5;
    corpus.push_back(unit * std::pow(10.0, static_cast<int>(x % 40) - 12));
  }
  for (const double d : corpus) {
    std::string out = "x";
    append_number(out, d);
    EXPECT_EQ(out, "x" + printf_form(d)) << printf_form(d);
  }
}

TEST(JsonSerialize, EscapesControlAndQuotes) {
  EXPECT_EQ(serialize(Value("a\"b")), "\"a\\\"b\"");
  EXPECT_EQ(serialize(Value("a\\b")), "\"a\\\\b\"");
  EXPECT_EQ(serialize(Value("line\nbreak\ttab")), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(serialize(Value(std::string("\x01", 1))), "\"\\u0001\"");
}

TEST(JsonSerialize, ObjectKeysSorted) {
  Value v;
  v["zeta"] = 1;
  v["alpha"] = 2;
  EXPECT_EQ(serialize(v), "{\"alpha\":2,\"zeta\":1}");
}

TEST(JsonSerialize, PrettyIndents) {
  Value v;
  v["a"] = Array{Value(1), Value(2)};
  const std::string pretty = serialize_pretty(v);
  EXPECT_NE(pretty.find("{\n  \"a\": [\n    1,\n    2\n  ]\n}"), std::string::npos);
}

TEST(JsonParse, RoundTripsComplexDocument) {
  const std::string doc =
      R"({"slices":[{"id":1,"rate":12.5,"active":true},{"id":2,"rate":0.25,"active":false}],"name":"testbed","empty":{},"nothing":null})";
  const Result<Value> parsed = parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(serialize(parsed.value()),
            R"({"empty":{},"name":"testbed","nothing":null,"slices":[{"active":true,"id":1,"rate":12.5},{"active":false,"id":2,"rate":0.25}]})");
}

TEST(JsonParse, WhitespaceTolerant) {
  const Result<Value> v = parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n} ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().find("a")->as_array().size(), 2u);
}

TEST(JsonParse, UnicodeEscapes) {
  const Result<Value> v = parse(R"("Aé€")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_string(), "A\xC3\xA9\xE2\x82\xAC");  // A, é, €
}

TEST(JsonParse, NumbersWithExponents) {
  const Result<Value> v = parse("[1e3, -2.5E-2, 0.125]");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.value().as_array()[0].as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(v.value().as_array()[1].as_number(), -0.025);
  EXPECT_DOUBLE_EQ(v.value().as_array()[2].as_number(), 0.125);
}

TEST(JsonParse, DeepNestingWithinLimitOk) {
  std::string doc;
  for (int i = 0; i < 200; ++i) doc += "[";
  doc += "1";
  for (int i = 0; i < 200; ++i) doc += "]";
  EXPECT_TRUE(parse(doc).ok());
}

TEST(JsonParse, RejectsExcessiveNesting) {
  std::string doc;
  for (int i = 0; i < 400; ++i) doc += "[";
  doc += "1";
  for (int i = 0; i < 400; ++i) doc += "]";
  const Result<Value> v = parse(doc);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, Errc::protocol_error);
}

TEST(JsonParse, DuplicateKeysLastWins) {
  const Result<Value> v = parse(R"({"a":1,"a":2})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().find("a")->as_int(), 2);
}

// Parameterized sweep over malformed documents: all must fail with
// protocol_error and never crash.
class JsonRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRejects, MalformedInput) {
  const Result<Value> v = parse(GetParam());
  ASSERT_FALSE(v.ok()) << "accepted: " << GetParam();
  EXPECT_EQ(v.error().code, Errc::protocol_error);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonRejects,
    ::testing::Values(
        "", "   ", "{", "}", "[", "]", "{]", "[}",
        "tru", "truex", "nul", "falsey",
        "\"unterminated", "\"bad\\escape\"", "\"\\u12g4\"", "\"\\u12\"",
        "\"\\ud800\"",                       // surrogate
        "01a",                               // trailing garbage in number
        "1 2",                               // two documents
        "[1,]",                              // dangling comma... (see below)
        "[1 2]", "{\"a\":1,}", "{\"a\" 1}", "{a:1}", "{\"a\":}",
        "[1,2,",                             // unterminated
        "nan", "inf", "-", "+", "0x10",
        "\"tab\tinside\""));                 // raw control char

TEST(JsonParse, ErrorsIncludeByteOffset) {
  const Result<Value> v = parse("{\"a\": !}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message.find("byte"), std::string::npos);
}

}  // namespace
}  // namespace slices::json
