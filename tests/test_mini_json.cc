/**
 * The shared JSON string escaper (common/mini_json.hh) and its
 * round-trip through the mini_json reader.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/mini_json.hh"

using namespace mssr;

TEST(MiniJson, EscapeCoversControlAndQuotes)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\n\t"), "x\\n\\t");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");

    // Every escape the writer emits decodes back to the original, and
    // the reader refuses a raw control character inside a string.
    const std::string raw = "q\"b\\s\b\f\n\r\t\x01" "end";
    const std::string text = "\"" + jsonEscape(raw) + "\"";
    EXPECT_EQ(minijson::JsonParser(text).parse().string, raw);
    EXPECT_THROW(minijson::JsonParser("\"a\nb\"").parse(),
                 std::runtime_error);
}
