/**
 * @file
 * Minimal JSON support. jsonEscape() is the one JSON string escaper
 * the simulator, its tools and bench binaries share. The
 * recursive-descent reader is just enough to let tests and the bench
 * smoke check parse the simulator's own JSON output (the
 * BENCH_batch.json perf log and the Chrome trace_event export) and
 * validate its schema. Not a general-purpose parser -- it accepts
 * exactly the JSON subset we emit (objects, arrays, strings with
 * backslash escapes, numbers, booleans, null).
 */

#ifndef MSSR_COMMON_MINI_JSON_HH
#define MSSR_COMMON_MINI_JSON_HH

#include <cctype>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace mssr
{

/**
 * Escapes @p s for embedding inside a JSON string literal: quote,
 * backslash and the C0 control characters (named escapes for
 * \\b \\f \\n \\r \\t, \\u00XX for the rest).
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace mssr

namespace mssr::minijson
{

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : text_(std::move(text)) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    JsonValue
    value()
    {
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n')
            return null();
        return number();
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            JsonValue key = string();
            expect(':');
            v.object[key.string] = value();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::String;
        expect('"');
        while (pos_ < text_.size() && text_[pos_] != '"') {
            const char c = text_[pos_++];
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                v.string += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("bad escape");
            switch (const char e = text_[pos_++]) {
              case 'b': v.string += '\b'; break;
              case 'f': v.string += '\f'; break;
              case 'n': v.string += '\n'; break;
              case 'r': v.string += '\r'; break;
              case 't': v.string += '\t'; break;
              case 'u': v.string += asciiEscape(); break;
              default: v.string += e; // \" \\ \/
            }
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return v;
    }

    /** The XXXX of a \\uXXXX escape; only the ASCII range (what
     *  jsonEscape emits) is supported. */
    char
    asciiEscape()
    {
        const std::string hex = text_.substr(pos_, 4);
        pos_ += hex.size();
        if (hex.size() != 4 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos)
            fail("bad \\u escape");
        const unsigned long cp = std::stoul(hex, nullptr, 16);
        if (cp >= 0x80)
            fail("non-ASCII \\u escape");
        return static_cast<char>(cp);
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.number = 1.0;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue
    null()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return JsonValue{};
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.kind = JsonValue::Number;
        std::size_t end = pos_;
        while (end < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                text_[end] == '-' || text_[end] == '+' ||
                text_[end] == '.' || text_[end] == 'e' ||
                text_[end] == 'E'))
            ++end;
        if (end == pos_)
            fail("expected number");
        v.number = std::stod(text_.substr(pos_, end - pos_));
        pos_ = end;
        return v;
    }

    std::string text_;
    std::size_t pos_ = 0;
};

} // namespace mssr::minijson

#endif // MSSR_COMMON_MINI_JSON_HH
