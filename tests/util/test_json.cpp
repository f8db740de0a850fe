// The strict JSON codec: grammar strictness, limits, escapes, UTF-8
// validation, exact unsigned integers, the canonical (cache-key) writer,
// and the throwing JSONL record reader.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/random.hpp"

using swarmavail::JsonLimits;
using swarmavail::JsonValue;

namespace {

JsonValue parse_ok(const std::string& text) {
    JsonValue value;
    std::string error;
    EXPECT_TRUE(swarmavail::parse_json(text, value, &error)) << error << " in " << text;
    return value;
}

std::string parse_error(const std::string& text, const JsonLimits& limits = {}) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(swarmavail::parse_json(text, value, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty());
    return error;
}

TEST(ServeJson, ParsesScalarsAndContainers) {
    EXPECT_TRUE(parse_ok("null").is_null());
    EXPECT_TRUE(parse_ok("true").as_bool());
    EXPECT_FALSE(parse_ok("false").as_bool());
    EXPECT_DOUBLE_EQ(parse_ok("-12.5e2").as_number(), -1250.0);
    EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");

    const JsonValue obj = parse_ok("{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"} ");
    ASSERT_TRUE(obj.is_object());
    ASSERT_NE(obj.find("a"), nullptr);
    EXPECT_EQ(obj.find("a")->items().size(), 3U);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(ServeJson, RejectsMalformedDocuments) {
    parse_error("");
    parse_error("{");
    parse_error("[1,]");
    parse_error("{\"a\":1,}");
    parse_error("{\"a\" 1}");
    parse_error("tru");
    parse_error("1 2");          // trailing garbage
    parse_error("{\"a\":1}x");   // ditto
    parse_error("'single'");
}

TEST(ServeJson, NumberGrammarIsStrict) {
    parse_error("01");        // leading zero
    parse_error("+1");        // explicit plus
    parse_error(".5");        // missing integer part
    parse_error("1.");        // missing fraction digits
    parse_error("1e");        // missing exponent digits
    parse_error("0x10");      // hex
    parse_error("NaN");
    parse_error("Infinity");
    parse_error("1e999");     // overflows to non-finite
    EXPECT_DOUBLE_EQ(parse_ok("0").as_number(), 0.0);
    EXPECT_DOUBLE_EQ(parse_ok("-0.25e-1").as_number(), -0.025);
}

TEST(ServeJson, RejectsDuplicateKeys) {
    const std::string error = parse_error("{\"a\":1,\"a\":2}");
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(ServeJson, DiagnosticsCarryByteOffsets) {
    const std::string error = parse_error("{\"a\":tru}");
    EXPECT_NE(error.find("byte"), std::string::npos) << error;
}

TEST(ServeJson, EnforcesDepthValueAndStringLimits) {
    JsonLimits limits;
    limits.max_depth = 3;
    JsonValue value;
    std::string error;
    EXPECT_TRUE(swarmavail::parse_json("[[[1]]]", value, &error, limits));
    EXPECT_FALSE(swarmavail::parse_json("[[[[1]]]]", value, &error, limits));
    EXPECT_NE(error.find("depth"), std::string::npos) << error;

    limits = JsonLimits{};
    limits.max_values = 4;
    EXPECT_FALSE(swarmavail::parse_json("[1,2,3,4]", value, &error, limits));

    limits = JsonLimits{};
    limits.max_string_bytes = 3;
    EXPECT_TRUE(swarmavail::parse_json("\"abc\"", value, &error, limits));
    EXPECT_FALSE(swarmavail::parse_json("\"abcd\"", value, &error, limits));
}

TEST(ServeJson, DecodesEscapesAndSurrogatePairs) {
    EXPECT_EQ(parse_ok("\"a\\n\\t\\\\\\\"\\/\"").as_string(), "a\n\t\\\"/");
    EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
    EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");        // é
    EXPECT_EQ(parse_ok("\"\\ud83d\\ude00\"").as_string(), "\xf0\x9f\x98\x80");
    parse_error("\"\\ud83d\"");         // unpaired high surrogate
    parse_error("\"\\udc00\"");         // lone low surrogate
    parse_error("\"\\uZZZZ\"");
    parse_error("\"\\q\"");             // unknown escape
    parse_error(std::string("\"a\x01b\""));  // raw control byte
}

TEST(ServeJson, ValidatesUtf8) {
    EXPECT_TRUE(swarmavail::validate_utf8("plain ascii"));
    EXPECT_TRUE(swarmavail::validate_utf8("caf\xc3\xa9 \xf0\x9f\x98\x80"));
    EXPECT_FALSE(swarmavail::validate_utf8("\xff"));
    EXPECT_FALSE(swarmavail::validate_utf8("\xc3"));              // truncated
    EXPECT_FALSE(swarmavail::validate_utf8("\xc0\xaf"));          // overlong '/'
    EXPECT_FALSE(swarmavail::validate_utf8("\xed\xa0\x80"));      // surrogate
    EXPECT_FALSE(swarmavail::validate_utf8("\xf4\x90\x80\x80"));  // > U+10FFFF
}

TEST(ServeJson, CanonicalWriterSortsKeysAndRoundTripsDoubles) {
    const JsonValue a = parse_ok("{\"b\":0.1,\"a\":true,\"c\":[1,\"x\"]}");
    const JsonValue b = parse_ok("{ \"c\":[1, \"x\"], \"a\": true, \"b\": 1e-1 }");
    EXPECT_EQ(swarmavail::canonical_json(a), swarmavail::canonical_json(b));
    EXPECT_EQ(swarmavail::canonical_json(a), "{\"a\":true,\"b\":0.1,\"c\":[1,\"x\"]}");

    // Lossless doubles: the canonical text parses back to the same bits.
    const double tricky = 0.1 + 0.2;
    JsonValue num = JsonValue::make_number(tricky);
    const JsonValue back = parse_ok(swarmavail::canonical_json(num));
    EXPECT_EQ(back.as_number(), tricky);
}

TEST(ServeJson, AppendJsonNumberQuotesNonFinite) {
    std::string out;
    swarmavail::append_json_number(std::numeric_limits<double>::infinity(), out);
    EXPECT_EQ(out, "\"inf\"");
    out.clear();
    swarmavail::append_json_number(-std::numeric_limits<double>::infinity(), out);
    EXPECT_EQ(out, "\"-inf\"");
    out.clear();
    swarmavail::append_json_number(1.5, out);
    EXPECT_EQ(out, "1.5");
}

TEST(ServeJson, AppendJsonStringEscapes) {
    std::string out;
    swarmavail::append_json_string("a\"b\\c\nd\x01", out);
    EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(ServeJson, AppendJsonStringReplacesIllFormedUtf8) {
    const auto escaped = [](std::string_view text) {
        std::string out;
        swarmavail::append_json_string(text, out);
        return out;
    };
    // Well-formed multi-byte sequences pass through unchanged.
    EXPECT_EQ(escaped("caf\xc3\xa9 \xf0\x9f\x98\x80"),
              "\"caf\xc3\xa9 \xf0\x9f\x98\x80\"");
    // One U+FFFD per maximal ill-formed subpart: the example of the
    // Unicode Standard, section 3.9 (a truncated 4-byte and 3-byte
    // sequence, a lone lead, and stray continuation bytes).
    EXPECT_EQ(escaped("a\xf1\x80\x80\xe1\x80\xc2" "b\x80" "c\x80\xbf" "d"),
              "\"a\xef\xbf\xbd\xef\xbf\xbd\xef\xbf\xbd" "b\xef\xbf\xbd"
              "c\xef\xbf\xbd\xef\xbf\xbd" "d\"");
    // Overlong, surrogate and beyond-U+10FFFF forms fail at their second
    // byte, so every byte is its own subpart.
    EXPECT_EQ(escaped("\xc0\xaf"), "\"\xef\xbf\xbd\xef\xbf\xbd\"");
    EXPECT_EQ(escaped("\xed\xa0\x80"), "\"\xef\xbf\xbd\xef\xbf\xbd\xef\xbf\xbd\"");
    EXPECT_EQ(escaped("\xf4\x90"), "\"\xef\xbf\xbd\xef\xbf\xbd\"");
    EXPECT_EQ(escaped("\xff"), "\"\xef\xbf\xbd\"");
}

TEST(ServeJson, AppendJsonStringOutputIsAlwaysUtf8) {
    // Seeded random byte strings, biased toward the bytes that make or
    // break UTF-8 sequences: every output is valid UTF-8 and parses back,
    // and input that is already valid UTF-8 comes back unchanged.
    constexpr std::array<unsigned char, 12> kInteresting = {
        0x00, 0x22, 0x5c, 0x7f, 0x80, 0xbf, 0xc2, 0xdf, 0xe0, 0xed, 0xf0, 0xf4};
    swarmavail::Rng rng{20260401};
    std::size_t valid_inputs = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::string text(rng.uniform_index(12), '\0');
        for (char& byte : text) {
            const std::uint64_t pick = rng.uniform_index(3);
            byte = static_cast<char>(pick == 0   ? kInteresting[rng.uniform_index(12)]
                                     : pick == 1 ? 0x80 + rng.uniform_index(0x40)
                                                 : rng.uniform_index(256));
        }
        std::string out;
        swarmavail::append_json_string(text, out);
        ASSERT_TRUE(swarmavail::validate_utf8(out)) << "trial " << trial;
        const JsonValue back = parse_ok(out);
        if (swarmavail::validate_utf8(text)) {
            ++valid_inputs;
            EXPECT_EQ(back.as_string(), text) << "trial " << trial;
        }
    }
    EXPECT_GT(valid_inputs, 400U);  // the valid branch is exercised too
}

TEST(ServeJson, ExactUnsignedIntegersKeepEveryBit) {
    std::uint64_t out = 0;
    EXPECT_TRUE(parse_ok("18446744073709551615").as_uint64(out));
    EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(parse_ok("9007199254740993").as_uint64(out));  // 2^53 + 1
    EXPECT_EQ(out, 9007199254740993ULL);
    // The double beside it is the same rounding from_chars makes.
    EXPECT_EQ(parse_ok("9007199254740993").as_number(), 9007199254740992.0);
    EXPECT_TRUE(parse_ok("0").as_uint64(out));
    EXPECT_EQ(out, 0U);
    for (const char* inexact : {"18446744073709551616", "-1", "-0", "1.0", "1e3",
                                "1E0", "\"7\"", "true"}) {
        EXPECT_FALSE(parse_ok(inexact).as_uint64(out)) << inexact;
    }
    EXPECT_EQ(parse_ok("18446744073709551617").as_number(), 18446744073709551616.0);
    EXPECT_TRUE(JsonValue::make_uint64(42).as_uint64(out));
    EXPECT_EQ(out, 42U);
    EXPECT_FALSE(JsonValue::make_number(42.0).as_uint64(out));
}

std::vector<std::string> jsonl_errors(const std::string& text) {
    std::vector<std::string> errors;
    std::istringstream in{text};
    try {
        swarmavail::read_jsonl(in, "probe", [&](const swarmavail::JsonlFields& f) {
            (void)f.u64("n", 65535);
        });
    } catch (const std::invalid_argument& e) {
        errors.emplace_back(e.what());
    }
    return errors;
}

TEST(ServeJson, JsonlReaderNamesTheFormatAndLine) {
    EXPECT_TRUE(jsonl_errors("{\"n\":1}\n\n{\"n\":65535}\n").empty());
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"{\"n\":1}\n{\"n\":65536}\n", "probe line 2: "},
        {"{\"n\":1}\n\n{\"n\":-1}\n", "probe line 3: "},
        {"{\"n\":1.5}\n", "probe line 1: "},
        {"{\"m\":1}\n", "probe line 1: missing field \"n\""},
        {"{\"n\":\"1\"}\n", "probe line 1: field \"n\" has the wrong type"},
        {"[1]\n", "probe line 1: expected a JSON object"},
        {"{\"n\":1\n", "probe line 1: "},
        {"{\"n\":inf}\n", "probe line 1: "},
    };
    for (const auto& [text, prefix] : bad) {
        const std::vector<std::string> errors = jsonl_errors(text);
        ASSERT_EQ(errors.size(), 1U) << text;
        EXPECT_EQ(errors[0].rfind(prefix, 0), 0U) << errors[0];
    }
}

}  // namespace
