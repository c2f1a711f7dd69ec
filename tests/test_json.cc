/**
 * @file
 * Unit tests for the dependency-free JSON library: parser acceptance and
 * rejection (with line/column diagnostics), round-trip stability of
 * dump/parse, canonical-form invariance, and the FNV content hash.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/common/json.hh"

namespace gemini::common::json {
namespace {

// --------------------------------------------------------------- parse --

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parse("null")->isNull());
    EXPECT_EQ(parse("true")->asBool(), true);
    EXPECT_EQ(parse("false")->asBool(), false);
    EXPECT_DOUBLE_EQ(parse("42")->asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parse("-0.5")->asNumber(), -0.5);
    EXPECT_DOUBLE_EQ(parse("6.02e23")->asNumber(), 6.02e23);
    EXPECT_EQ(parse("\"hi\"")->asString(), "hi");
}

TEST(Json, ParsesNestedContainers)
{
    const auto v = parse(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->isObject());
    const Value *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->asArray().size(), 3u);
    EXPECT_TRUE(a->asArray()[2].find("b")->isNull());
    EXPECT_TRUE(v->find("c")->find("d")->asBool());
}

TEST(Json, ParsesStringEscapes)
{
    EXPECT_EQ(parse(R"("a\"b\\c\nd\te")")->asString(), "a\"b\\c\nd\te");
    // \u escapes incl. a surrogate pair (UTF-8 encoded on output).
    EXPECT_EQ(parse(R"("A")")->asString(), "A");
    EXPECT_EQ(parse(R"("é")")->asString(), "\xC3\xA9");
    EXPECT_EQ(parse(R"("😀")")->asString(),
              "\xF0\x9F\x98\x80"); // U+1F600
}

TEST(Json, PreservesObjectKeyOrder)
{
    const auto v = parse(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_TRUE(v.has_value());
    const Object &o = v->asObject();
    ASSERT_EQ(o.size(), 3u);
    EXPECT_EQ(o[0].first, "z");
    EXPECT_EQ(o[1].first, "a");
    EXPECT_EQ(o[2].first, "m");
}

// -------------------------------------------------------------- reject --

TEST(Json, RejectsMalformedInputWithPosition)
{
    std::string error;
    EXPECT_FALSE(parse("{\"a\": 1,}", &error).has_value());
    EXPECT_NE(error.find("line 1"), std::string::npos);

    error.clear();
    EXPECT_FALSE(parse("[1, 2\n 3]", &error).has_value());
    EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(Json, RejectsTrailingGarbage)
{
    std::string error;
    EXPECT_FALSE(parse("{} {}", &error).has_value());
    EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(Json, RejectsDuplicateKeys)
{
    std::string error;
    EXPECT_FALSE(parse(R"({"a": 1, "a": 2})", &error).has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(Json, RejectsBadNumbers)
{
    EXPECT_FALSE(parse("01").has_value());
    EXPECT_FALSE(parse("+1").has_value());
    EXPECT_FALSE(parse("1.").has_value());
    EXPECT_FALSE(parse(".5").has_value());
    EXPECT_FALSE(parse("1e").has_value());
    EXPECT_FALSE(parse("nan").has_value());
    EXPECT_FALSE(parse("Infinity").has_value());
}

TEST(Json, RejectsRawControlCharsAndBadEscapes)
{
    EXPECT_FALSE(parse("\"a\nb\"").has_value());
    EXPECT_FALSE(parse(R"("\q")").has_value());
    EXPECT_FALSE(parse(R"("\u12")").has_value());
    EXPECT_FALSE(parse(R"("\ud800x")").has_value());
}

TEST(Json, RejectsExcessiveNesting)
{
    std::string deep(400, '[');
    deep += std::string(400, ']');
    std::string error;
    EXPECT_FALSE(parse(deep, &error).has_value());
    EXPECT_NE(error.find("nesting"), std::string::npos);
}

// ---------------------------------------------------------------- dump --

TEST(Json, DumpParseRoundTripsExactly)
{
    const char *text =
        R"({"s":"he\"llo","n":-12.25,"i":9007199254740992,"b":true,)"
        R"("z":null,"a":[1,2.5,"x"],"o":{"k":0.1}})";
    const auto v = parse(text);
    ASSERT_TRUE(v.has_value());
    const auto reparsed = parse(v->dump());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*v, *reparsed);
    // Numbers survive bit-exactly (shortest round-trip formatting).
    EXPECT_DOUBLE_EQ(reparsed->find("n")->asNumber(), -12.25);
    EXPECT_DOUBLE_EQ(reparsed->find("o")->find("k")->asNumber(), 0.1);
}

TEST(Json, PrettyDumpParsesBack)
{
    const auto v = parse(R"({"a": [1, {"b": 2}], "c": "d"})");
    const std::string pretty = v->dump(2);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    EXPECT_EQ(*parse(pretty), *v);
}

// ----------------------------------------------------------- canonical --

TEST(Json, CanonicalSortsKeysAndIgnoresFormatting)
{
    const auto a = parse(R"({ "b": 1, "a": [ 1, 2 ] })");
    const auto b = parse("{\"a\":[1,\n  2],\"b\":1.0}");
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->canonical(), b->canonical());
    EXPECT_EQ(a->canonical(), R"({"a":[1,2],"b":1})");
}

TEST(Json, CanonicalIsStableUnderReparse)
{
    const auto v =
        parse(R"({"x": 0.30000000000000004, "y": [1e-9, 123456789]})");
    ASSERT_TRUE(v.has_value());
    const std::string c1 = v->canonical();
    const std::string c2 = parse(c1)->canonical();
    EXPECT_EQ(c1, c2);
}

// ---------------------------------------------------------------- hash --

TEST(Json, Fnv1a64KnownVectorsAndSensitivity)
{
    // Published FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fnv1a64("spec-a"), fnv1a64("spec-b"));
}

TEST(Json, Hex64RoundTripsAndAcceptsOnlyItsOwnDigits)
{
    EXPECT_EQ(hex64(0), "0000000000000000");
    EXPECT_EQ(hex64(0xfedcba9876543210ull), "fedcba9876543210");
    for (const std::uint64_t v : {0ull, 1ull, 0xc0d4dd0d51c69106ull, ~0ull})
        EXPECT_EQ(parseHex64(hex64(v)), v);
    for (const char *bad :
         {"", "0", "0x", "0x0000000000000001", "000000000000000", 
          "00000000000000000", "+000000000000007", "-000000000000005",
          " 000000000000007", "FEDCBA9876543210", "000000000000000g"})
        EXPECT_FALSE(parseHex64(bad).has_value()) << '"' << bad << '"';
}

} // namespace
} // namespace gemini::common::json
