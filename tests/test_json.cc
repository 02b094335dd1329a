/**
 * @file
 * Tests for the dependency-free JSON reader/writer: parse/dump round
 * trips, exact integer preservation, insertion-ordered objects, and
 * structured parse/type errors.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"

namespace stfm
{
namespace
{

TEST(Json, ParsesPrimitives)
{
    EXPECT_EQ(Json::parse("null").type(), Json::Type::Null);
    EXPECT_TRUE(Json::parse("true").asBool("t"));
    EXPECT_FALSE(Json::parse("false").asBool("f"));
    EXPECT_EQ(Json::parse("42").asInt("n"), 42);
    EXPECT_EQ(Json::parse("-7").asInt("n"), -7);
    EXPECT_DOUBLE_EQ(Json::parse("2.5").asDouble("d"), 2.5);
    EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble("d"), 1000.0);
    EXPECT_EQ(Json::parse("\"hi\"").asString("s"), "hi");
}

TEST(Json, PreservesExactInt64)
{
    // A value a double cannot represent exactly.
    const std::int64_t big = 9007199254740993LL; // 2^53 + 1.
    const Json parsed = Json::parse("9007199254740993");
    EXPECT_EQ(parsed.type(), Json::Type::Int);
    EXPECT_EQ(parsed.asInt("big"), big);
    EXPECT_EQ(parsed.dump(), "9007199254740993");
}

TEST(Json, ObjectKeepsInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", 1);
    obj.set("alpha", 2);
    obj.set("mid", 3);
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
    // Re-setting an existing key updates in place, keeping position.
    obj.set("alpha", 9);
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(Json, StringEscapes)
{
    const Json parsed = Json::parse(R"("a\"b\\c\nA")");
    EXPECT_EQ(parsed.asString("s"), "a\"b\\c\nA");
    // Dump re-escapes; the round trip is stable.
    EXPECT_EQ(Json::parse(parsed.dump()).asString("s"), "a\"b\\c\nA");
}

TEST(Json, RoundTripsNestedDocument)
{
    const std::string text = R"({
        "name": "x",
        "list": [1, 2.5, "three", true, null],
        "nested": {"a": {"b": []}}
    })";
    const Json parsed = Json::parse(text);
    EXPECT_EQ(Json::parse(parsed.dump()), parsed);
    EXPECT_EQ(Json::parse(parsed.dump(2)), parsed);
    EXPECT_EQ(parsed.at("list", "doc").size(), 5u);
    EXPECT_EQ(parsed.at("list", "doc").at(2).asString("s"), "three");
}

TEST(Json, DoubleDumpRoundTripsShortest)
{
    // Shortest-representation formatting must reparse to the same bits
    // and keep a fraction marker so the type survives the round trip.
    for (const double v : {0.1, 1.0 / 3.0, 2.0, 1e-9, 12345.678}) {
        const Json round = Json::parse(Json(v).dump());
        EXPECT_EQ(round.type(), Json::Type::Double);
        EXPECT_EQ(round.asDouble("v"), v);
    }
}

TEST(Json, ParseErrorsCarryLineAndColumn)
{
    try {
        Json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
        FAIL() << "duplicate key accepted";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate key 'a'"),
                  std::string::npos);
    }
    try {
        Json::parse("{\"a\": }");
        FAIL() << "bad value accepted";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("1:7"), std::string::npos);
    }
    EXPECT_THROW(Json::parse("[1, 2"), SimError);
    EXPECT_THROW(Json::parse("\"unterminated"), SimError);
    EXPECT_THROW(Json::parse("tru"), SimError);
    EXPECT_THROW(Json::parse("1 2"), SimError); // Trailing content.
    // Past the nesting limit: an error, not a stack overflow.
    EXPECT_THROW(Json::parse(std::string(200000, '[') +
                             std::string(200000, ']')),
                 SimError);
}

TEST(Json, TypeErrorsNameTheContext)
{
    const Json doc = Json::parse("{\"n\": 3}");
    try {
        doc.at("n", "doc").asString("doc.n");
        FAIL() << "type mismatch accepted";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("doc.n"), std::string::npos);
        EXPECT_NE(what.find("expected string"), std::string::npos);
    }
    try {
        doc.at("missing", "doc");
        FAIL() << "missing key accepted";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("missing"),
                  std::string::npos);
    }
}

TEST(Json, AsUintRejectsNegatives)
{
    EXPECT_EQ(Json::parse("7").asUint("u"), 7u);
    EXPECT_THROW(Json::parse("-1").asUint("u"), SimError);
    EXPECT_THROW(Json::parse("2.5").asUint("u"), SimError);
}

} // namespace
} // namespace stfm
