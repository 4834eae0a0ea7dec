#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <unordered_set>

#include "common/numfmt.hh"

namespace mech::json {

const Value *
Value::get(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::optional<std::uint64_t>
Value::asU64() const
{
    // The largest double below 2^64 is the cast's last safe input;
    // 2^64 itself (1.8446744073709552e19) must be rejected or the
    // float-to-uint64 cast is undefined.
    if (kind != Kind::Number || number < 0.0 ||
        std::floor(number) != number ||
        number >= 1.8446744073709552e19) {
        return std::nullopt;
    }
    return static_cast<std::uint64_t>(number);
}

namespace {

/** Recursive-descent parser; errors unwind through `failed`. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text(text) {}

    std::optional<Value>
    run(std::string *error)
    {
        Value v = parseValue();
        skipSpace();
        if (!failed && pos != text.size())
            fail("trailing content after JSON document");
        if (failed) {
            if (error)
                *error = message;
            return std::nullopt;
        }
        return v;
    }

  private:
    void
    fail(const std::string &what)
    {
        if (!failed) {
            failed = true;
            message = "offset " + std::to_string(pos) + ": " + what;
        }
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    /** Next significant character, or '\0' at a (reported) EOF. */
    char
    peek()
    {
        skipSpace();
        if (pos >= text.size()) {
            fail("unexpected end of input");
            return '\0';
        }
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
            return;
        }
        ++pos;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text.compare(pos, lit.size(), lit) == 0) {
            pos += lit.size();
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        if (++depth > kMaxDepth) {
            fail("nesting deeper than " + std::to_string(kMaxDepth));
            --depth;
            return Value{};
        }
        char c = peek();
        Value v;
        switch (c) {
          case '{': v = parseObject(); break;
          case '[': v = parseArray(); break;
          case '"':
            v.kind = Value::Kind::String;
            v.string = parseString();
            break;
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            v.kind = Value::Kind::Bool;
            v.boolean = true;
            break;
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            v.kind = Value::Kind::Bool;
            v.boolean = false;
            break;
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            break;
          default: v = parseNumber(); break;
        }
        --depth;
        return v;
    }

    Value
    parseObject()
    {
        Value v;
        v.kind = Value::Kind::Object;
        expect('{');
        if (failed)
            return v;
        if (peek() == '}') {
            ++pos;
            return v;
        }
        // Local key index so duplicate detection stays linear: a
        // Value::get() probe per member would be quadratic, which a
        // protocol-legal request line with ~100k keys turns into
        // seconds of CPU.  The set owns copies — views into the
        // object vector would dangle when small (SSO) strings
        // relocate on growth.
        std::unordered_set<std::string> seen;
        for (;;) {
            if (peek() != '"') {
                fail("object key must be a string");
                return v;
            }
            std::string key = parseString();
            expect(':');
            Value member = parseValue();
            if (failed)
                return v;
            // First occurrence wins, matching Value::get()'s scan.
            if (seen.insert(key).second) {
                v.object.emplace_back(std::move(key),
                                      std::move(member));
            }
            char c = peek();
            if (c == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value
    parseArray()
    {
        Value v;
        v.kind = Value::Kind::Array;
        expect('[');
        if (failed)
            return v;
        if (peek() == ']') {
            ++pos;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            if (failed)
                return v;
            char c = peek();
            if (c == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (!failed && pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos >= text.size()) {
                    fail("unterminated escape");
                    return out;
                }
                char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos + 4 > text.size()) {
                        fail("truncated \\u escape");
                        return out;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4 && !failed; ++i) {
                        char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A') + 10;
                        else
                            fail("bad \\u escape digit");
                    }
                    // Our writers only escape control characters;
                    // encode the code point as UTF-8 for robustness.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default: fail("unknown escape"); return out;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return out;
    }

    Value
    parseNumber()
    {
        skipSpace();
        Value v;
        // strtod accepts "inf"/"nan", which JSON does not; the only
        // non-digit leads JSON numbers allow is a minus sign.
        if (pos >= text.size() ||
            (text[pos] != '-' &&
             !std::isdigit(static_cast<unsigned char>(text[pos])))) {
            fail("expected a value");
            return v;
        }
        // The buffer bounds the token so strtod cannot scan past a
        // string_view that is not NUL-terminated at text.end().
        char buf[64];
        std::size_t len = 0;
        while (pos + len < text.size() && len + 1 < sizeof(buf)) {
            char c = text[pos + len];
            if (!std::isdigit(static_cast<unsigned char>(c)) &&
                c != '-' && c != '+' && c != '.' && c != 'e' &&
                c != 'E') {
                break;
            }
            buf[len++] = c;
        }
        buf[len] = '\0';
        char *end = nullptr;
        double parsed = std::strtod(buf, &end);
        if (end == buf || *end != '\0') {
            fail("expected a value");
            return v;
        }
        // An overflowing literal ("1e999") comes back as inf, which
        // JSON cannot represent — and which our writers would echo
        // as the bare token "inf", corrupting the response stream.
        if (!std::isfinite(parsed)) {
            fail("number out of range");
            return v;
        }
        pos += len;
        v.kind = Value::Kind::Number;
        v.number = parsed;
        return v;
    }

    /** Recursion bound: a hostile request line must not smash the stack. */
    static constexpr int kMaxDepth = 64;

    std::string_view text;
    std::size_t pos = 0;
    int depth = 0;
    bool failed = false;
    std::string message;
};

} // namespace

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    return Parser(text).run(error);
}

void
writeString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                os << "\\u" << std::hex << std::setw(4)
                   << std::setfill('0') << static_cast<int>(c)
                   << std::dec << std::setfill(' ');
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeNumber(std::ostream &os, double v)
{
    char buf[kExactDoubleChars];
    os.write(buf, static_cast<std::streamsize>(formatExactDouble(v, buf)));
}

} // namespace mech::json
