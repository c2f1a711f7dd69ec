#include "src/common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace gemini::common::json {

const Value *
Value::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : asObject())
        if (k == key)
            return &v;
    return nullptr;
}

Value &
Value::set(std::string_view key, Value v)
{
    Object &obj = asObject();
    for (auto &[k, existing] : obj) {
        if (k == key) {
            existing = std::move(v);
            return existing;
        }
    }
    obj.emplace_back(std::string(key), std::move(v));
    return obj.back().second;
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

/**
 * Shortest round-trip formatting via std::to_chars. Non-finite values
 * have no JSON spelling; they serialize as null (the API layer never
 * emits them — DSE infinities are normalized before export).
 */
void
appendNumber(std::string &out, double d)
{
    if (!std::isfinite(d)) {
        out += "null";
        return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, d);
    out.append(buf, res.ptr);
}

struct DumpOptions
{
    int indent = -1;   ///< <0 compact
    bool sortKeys = false;
};

void
dumpValue(std::string &out, const Value &v, const DumpOptions &opts,
          int depth)
{
    const bool pretty = opts.indent >= 0;
    const auto newline = [&](int d) {
        if (!pretty)
            return;
        out.push_back('\n');
        out.append(static_cast<std::size_t>(d) *
                       static_cast<std::size_t>(opts.indent),
                   ' ');
    };

    switch (v.type()) {
      case Value::Type::Null:
        out += "null";
        break;
      case Value::Type::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case Value::Type::Number:
        appendNumber(out, v.asNumber());
        break;
      case Value::Type::String:
        appendEscaped(out, v.asString());
        break;
      case Value::Type::Array: {
        const Array &a = v.asArray();
        if (a.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            dumpValue(out, a[i], opts, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
      }
      case Value::Type::Object: {
        const Object &o = v.asObject();
        if (o.empty()) {
            out += "{}";
            break;
        }
        // Sorting for the canonical form walks an index permutation so
        // the object itself stays untouched.
        std::vector<std::size_t> order(o.size());
        for (std::size_t i = 0; i < o.size(); ++i)
            order[i] = i;
        if (opts.sortKeys)
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return o[a].first < o[b].first;
                      });
        out.push_back('{');
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            appendEscaped(out, o[order[i]].first);
            out.push_back(':');
            if (pretty)
                out.push_back(' ');
            dumpValue(out, o[order[i]].second, opts, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
      }
    }
}

class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::optional<Value>
    parseDocument()
    {
        skipWs();
        Value v;
        if (!parseValue(v, 0))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after the JSON value");
            return std::nullopt;
        }
        return v;
    }

  private:
    static constexpr int kMaxDepth = 256;

    bool
    fail(const std::string &reason)
    {
        if (error_ && error_->empty()) {
            // Recompute line/column from the byte offset (errors are
            // rare; the happy path never pays for tracking).
            std::size_t line = 1, col = 1;
            for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
                if (text_[i] == '\n') {
                    ++line;
                    col = 1;
                } else {
                    ++col;
                }
            }
            *error_ = "line " + std::to_string(line) + ", column " +
                      std::to_string(col) + ": " + reason;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                return;
            ++pos_;
        }
    }

    bool
    consume(char expected)
    {
        if (pos_ < text_.size() && text_[pos_] == expected) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseLiteral(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting deeper than 256 levels");
        if (pos_ >= text_.size())
            return fail("unexpected end of input, expected a value");
        const char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value(std::move(s));
            return true;
          }
          case 't':
            if (parseLiteral("true")) {
                out = Value(true);
                return true;
            }
            return fail("invalid literal, expected 'true'");
          case 'f':
            if (parseLiteral("false")) {
                out = Value(false);
                return true;
            }
            return fail("invalid literal, expected 'false'");
          case 'n':
            if (parseLiteral("null")) {
                out = Value(nullptr);
                return true;
            }
            return fail("invalid literal, expected 'null'");
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber(out);
            return fail(std::string("unexpected character '") + c + "'");
        }
    }

    bool
    parseNumber(Value &out)
    {
        // Validate the JSON number grammar first: std::from_chars accepts
        // forms JSON forbids (leading '+', hex) and we want its exact
        // shortest-round-trip inverse, not a lax scan.
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        if (consume('0')) {
        } else {
            if (pos_ >= text_.size() || text_[pos_] < '1' ||
                text_[pos_] > '9')
                return fail("invalid number");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (consume('.')) {
            if (pos_ >= text_.size() || text_[pos_] < '0' ||
                text_[pos_] > '9')
                return fail("digits required after the decimal point");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' ||
                text_[pos_] > '9')
                return fail("digits required in the exponent");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        double d = 0.0;
        const auto res = std::from_chars(text_.data() + start,
                                         text_.data() + pos_, d);
        if (res.ec != std::errc{} || !std::isfinite(d)) {
            pos_ = start;
            return fail("number out of double range");
        }
        out = Value(d);
        return true;
    }

    bool
    parseHex4(unsigned &cp)
    {
        cp = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                return fail("truncated \\u escape");
            const char c = text_[pos_++];
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("invalid hex digit in \\u escape");
        }
        return true;
    }

    void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        for (;;) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("truncated escape sequence");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                unsigned cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // UTF-16 surrogate pair.
                    if (!consume('\\') || !consume('u'))
                        return fail("unpaired UTF-16 high surrogate");
                    unsigned lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("invalid UTF-16 low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("unpaired UTF-16 low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail(std::string("invalid escape '\\") + e + "'");
            }
        }
    }

    bool
    parseArray(Value &out, int depth)
    {
        consume('[');
        Array a;
        skipWs();
        if (consume(']')) {
            out = Value(std::move(a));
            return true;
        }
        for (;;) {
            skipWs();
            Value v;
            if (!parseValue(v, depth + 1))
                return false;
            a.push_back(std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']')) {
                out = Value(std::move(a));
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(Value &out, int depth)
    {
        consume('{');
        Object o;
        skipWs();
        if (consume('}')) {
            out = Value(std::move(o));
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            for (const auto &[k, v] : o)
                if (k == key)
                    return fail("duplicate object key \"" + key + "\"");
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWs();
            Value v;
            if (!parseValue(v, depth + 1))
                return false;
            o.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}')) {
                out = Value(std::move(o));
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

std::string
Value::dump(int indent) const
{
    std::string out;
    DumpOptions opts;
    opts.indent = indent;
    dumpValue(out, *this, opts, 0);
    return out;
}

std::string
Value::canonical() const
{
    std::string out;
    DumpOptions opts;
    opts.indent = -1;
    opts.sortKeys = true;
    dumpValue(out, *this, opts, 0);
    return out;
}

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    return Parser(text, error).parseDocument();
}

std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        out[i] = "0123456789abcdef"[v & 0xf];
    return out;
}

std::optional<std::uint64_t>
parseHex64(std::string_view text)
{
    if (text.size() != 16)
        return std::nullopt;
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c >= '0' && c <= '9')
            v = v << 4 | static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v = v << 4 | static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    return v;
}

} // namespace gemini::common::json
