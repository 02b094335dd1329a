#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace stfm
{

Json::Json(std::uint64_t u)
{
    if (u <= static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
        type_ = Type::Int;
        int_ = static_cast<std::int64_t>(u);
    } else {
        type_ = Type::Double;
        double_ = static_cast<double>(u);
    }
}

namespace
{

const char *
typeName(Json::Type type)
{
    switch (type) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "bool";
    case Json::Type::Int: return "integer";
    case Json::Type::Double: return "number";
    case Json::Type::String: return "string";
    case Json::Type::Array: return "array";
    case Json::Type::Object: return "object";
    }
    return "?";
}

[[noreturn]] void
typeError(const std::string &context, const char *wanted, Json::Type got)
{
    throw SimError(formatMessage("%s: expected %s, got %s",
                                 context.c_str(), wanted, typeName(got)));
}

} // namespace

bool
Json::asBool(const std::string &context) const
{
    if (type_ != Type::Bool)
        typeError(context, "bool", type_);
    return bool_;
}

std::int64_t
Json::asInt(const std::string &context) const
{
    if (type_ == Type::Int)
        return int_;
    typeError(context, "integer", type_);
}

std::uint64_t
Json::asUint(const std::string &context) const
{
    if (type_ != Type::Int)
        typeError(context, "non-negative integer", type_);
    if (int_ < 0) {
        throw SimError(formatMessage("%s: expected non-negative value, "
                                     "got %lld",
                                     context.c_str(),
                                     static_cast<long long>(int_)));
    }
    return static_cast<std::uint64_t>(int_);
}

unsigned
Json::asUint32(const std::string &context) const
{
    const std::uint64_t wide = asUint(context);
    if (wide > 0xffffffffULL) {
        throw SimError(formatMessage(
            "%s: value %llu does not fit a 32-bit field", context.c_str(),
            static_cast<unsigned long long>(wide)));
    }
    return static_cast<unsigned>(wide);
}

double
Json::asDouble(const std::string &context) const
{
    if (type_ == Type::Int)
        return static_cast<double>(int_);
    if (type_ == Type::Double)
        return double_;
    typeError(context, "number", type_);
}

const std::string &
Json::asString(const std::string &context) const
{
    if (type_ != Type::String)
        typeError(context, "string", type_);
    return string_;
}

const Json::Array &
Json::asArray(const std::string &context) const
{
    if (type_ != Type::Array)
        typeError(context, "array", type_);
    return array_;
}

const Json::Object &
Json::asObject(const std::string &context) const
{
    if (type_ != Type::Object)
        typeError(context, "object", type_);
    return object_;
}

void
Json::push(Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    STFM_ASSERT(type_ == Type::Array, "push on a non-array Json value");
    array_.push_back(std::move(value));
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    return 0;
}

const Json &
Json::at(std::size_t index) const
{
    STFM_ASSERT(type_ == Type::Array && index < array_.size(),
                "Json array index %zu out of range", index);
    return array_[index];
}

void
Json::set(const std::string &key, Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    STFM_ASSERT(type_ == Type::Object, "set on a non-object Json value");
    for (auto &member : object_) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    object_.emplace_back(key, std::move(value));
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &member : object_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key, const std::string &context) const
{
    if (type_ != Type::Object)
        typeError(context, "object", type_);
    if (const Json *member = find(key))
        return *member;
    throw SimError(formatMessage("%s: missing required key '%s'",
                                 context.c_str(), key.c_str()));
}

bool
Json::operator==(const Json &other) const
{
    // Int and Double compare across representations when numerically
    // equal, so a round trip through double-formatted output still
    // matches the original where the value is preserved.
    if (isNumber() && other.isNumber())
        return asDouble() == other.asDouble() &&
               (type_ != Type::Int || other.type_ != Type::Int ||
                int_ == other.int_);
    if (type_ != other.type_)
        return false;
    switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Int: return int_ == other.int_;
    case Type::Double: return double_ == other.double_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
    }
    return false;
}

// --------------------------------------------------------------------
// Serialization.

namespace
{

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendIndent(std::string &out, int indent, int depth)
{
    if (indent >= 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * depth, ' ');
    }
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
    case Type::Null:
        out += "null";
        return;
    case Type::Bool:
        out += bool_ ? "true" : "false";
        return;
    case Type::Int: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
        out += buf;
        return;
    }
    case Type::Double: {
        STFM_ASSERT(std::isfinite(double_),
                    "cannot serialize non-finite number");
        char buf[40];
        // Shortest representation that round-trips a double.
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        double reparsed = 0.0;
        std::sscanf(buf, "%lf", &reparsed);
        for (int precision = 1; precision < 17; ++precision) {
            char shorter[40];
            std::snprintf(shorter, sizeof(shorter), "%.*g", precision,
                          double_);
            std::sscanf(shorter, "%lf", &reparsed);
            if (reparsed == double_) {
                std::snprintf(buf, sizeof(buf), "%.*g", precision,
                              double_);
                break;
            }
        }
        out += buf;
        // Keep a fraction marker so the value reparses as Double.
        if (out.find_first_of(".eE", out.size() - std::strlen(buf)) ==
            std::string::npos)
            out += ".0";
        return;
    }
    case Type::String:
        escapeString(out, string_);
        return;
    case Type::Array: {
        if (array_.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += ',';
            appendIndent(out, indent, depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        appendIndent(out, indent, depth);
        out += ']';
        return;
    }
    case Type::Object: {
        if (object_.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                out += ',';
            appendIndent(out, indent, depth + 1);
            escapeString(out, object_[i].first);
            out += indent >= 0 ? ": " : ":";
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        appendIndent(out, indent, depth);
        out += '}';
        return;
    }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// --------------------------------------------------------------------
// Parsing.

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parse()
    {
        Json value = parseValue();
        skipWhitespace();
        if (pos_ < text_.size())
            fail("trailing content after JSON value");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        // Derive line:column from the byte offset for the message.
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw SimError(formatMessage("JSON parse error at %zu:%zu: %s",
                                     line, col, what.c_str()));
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWhitespace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(formatMessage("expected '%c'", c));
        ++pos_;
    }

    bool
    consumeIf(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expectLiteral(const char *literal)
    {
        for (const char *p = literal; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(formatMessage("invalid literal (expected '%s')",
                                   literal));
            ++pos_;
        }
    }

    Json
    parseValue()
    {
        const char c = peek();
        if (c == '{' || c == '[') {
            // Bounded recursion: hostile input must fail cleanly, not
            // overflow the stack.
            if (++depth_ > kMaxDepth)
                fail(formatMessage("nesting deeper than %zu levels",
                                   kMaxDepth));
            Json out = c == '{' ? parseObject() : parseArray();
            --depth_;
            return out;
        }
        switch (c) {
        case '"': return Json(parseString());
        case 't': expectLiteral("true"); return Json(true);
        case 'f': expectLiteral("false"); return Json(false);
        case 'n': expectLiteral("null"); return Json(nullptr);
        default: return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("invalid \\u escape");
                }
                // UTF-8 encode the BMP code point (specs are ASCII in
                // practice; surrogate pairs are rejected as unsupported).
                if (code >= 0xD800 && code <= 0xDFFF)
                    fail("surrogate pairs are not supported");
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("invalid escape character");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        if (consumeIfRaw('-')) {}
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            fail("invalid number");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        bool is_int = true;
        if (consumeIfRaw('.')) {
            is_int = false;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                fail("digit expected after decimal point");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (consumeIfRaw('e') || consumeIfRaw('E')) {
            is_int = false;
            if (!consumeIfRaw('+'))
                consumeIfRaw('-');
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                fail("digit expected in exponent");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string_view token(text_.data() + start, pos_ - start);
        if (is_int) {
            std::int64_t value = 0;
            const auto [ptr, ec] = std::from_chars(
                token.data(), token.data() + token.size(), value);
            if (ec == std::errc() && ptr == token.data() + token.size())
                return Json(value);
            // Out of int64 range: fall through to double.
        }
        double value = 0.0;
        const auto [ptr, ec] = std::from_chars(
            token.data(), token.data() + token.size(), value);
        if (ec != std::errc() || ptr != token.data() + token.size())
            fail("invalid number");
        return Json(value);
    }

    bool
    consumeIfRaw(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Json
    parseArray()
    {
        expect('[');
        Json out = Json::array();
        if (consumeIf(']'))
            return out;
        while (true) {
            out.push(parseValue());
            if (consumeIf(']'))
                return out;
            expect(',');
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json out = Json::object();
        if (consumeIf('}'))
            return out;
        while (true) {
            skipWhitespace();
            const std::string key = parseString();
            if (out.has(key))
                fail(formatMessage("duplicate key '%s'", key.c_str()));
            expect(':');
            out.set(key, parseValue());
            if (consumeIf('}'))
                return out;
            expect(',');
        }
    }

    /** Deepest array/object nesting accepted. */
    static constexpr std::size_t kMaxDepth = 256;

    const std::string &text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parse();
}

void
writeJsonFile(const Json &json, const std::string &path)
{
    const std::string text = json.dump(2) + "\n";
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        throw SimError(formatMessage("cannot open '%s' for writing",
                                     path.c_str()));
    }
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), file);
    const int close_error = std::fclose(file);
    if (written != text.size() || close_error != 0)
        throw SimError(formatMessage("short write to '%s'", path.c_str()));
}

} // namespace stfm
