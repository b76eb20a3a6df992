#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace mflstm {
namespace obs {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// --- JsonWriter ---------------------------------------------------------

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;  // value follows its key; no comma
    }
    if (!hasElement_.empty()) {
        if (hasElement_.back())
            os_ << ',';
        hasElement_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    os_ << '{';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    hasElement_.pop_back();
    os_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    os_ << '[';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    hasElement_.pop_back();
    os_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    os_ << '"' << jsonEscape(k) << "\":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    os_ << '"' << jsonEscape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    os_ << jsonNumber(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    separate();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    os_ << (v ? "true" : "false");
    return *this;
}

// --- Parser -------------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

namespace {

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    bool ok = true;

    void skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    JsonValue parseString()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        ++pos;  // opening quote, checked by caller
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos];
            if (static_cast<unsigned char>(c) < 0x20) {
                ok = false;
                return v;
            }
            if (c == '\\') {
                if (pos + 1 >= text.size()) {
                    ok = false;
                    return v;
                }
                const char esc = text[pos + 1];
                pos += 2;
                switch (esc) {
                case '"': v.str += '"'; break;
                case '\\': v.str += '\\'; break;
                case '/': v.str += '/'; break;
                case 'b': v.str += '\b'; break;
                case 'f': v.str += '\f'; break;
                case 'n': v.str += '\n'; break;
                case 'r': v.str += '\r'; break;
                case 't': v.str += '\t'; break;
                case 'u': {
                    if (pos + 4 > text.size()) {
                        ok = false;
                        return v;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos + i];
                        if (!std::isxdigit(
                                static_cast<unsigned char>(h))) {
                            ok = false;
                            return v;
                        }
                        code = code * 16 +
                               (std::isdigit(
                                    static_cast<unsigned char>(h))
                                    ? static_cast<unsigned>(h - '0')
                                    : static_cast<unsigned>(
                                          std::tolower(h) - 'a' + 10));
                    }
                    pos += 4;
                    // Tests only need byte-accurate ASCII; encode BMP
                    // code points as UTF-8.
                    if (code < 0x80) {
                        v.str += static_cast<char>(code);
                    } else if (code < 0x800) {
                        v.str += static_cast<char>(0xc0 | (code >> 6));
                        v.str +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        v.str += static_cast<char>(0xe0 | (code >> 12));
                        v.str += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f));
                        v.str +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                }
                default: ok = false; return v;
                }
            } else {
                v.str += c;
                ++pos;
            }
        }
        if (pos >= text.size()) {
            ok = false;
            return v;
        }
        ++pos;  // closing quote
        return v;
    }

    JsonValue parseNumber()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        const auto digits = [&]() {
            std::size_t n = 0;
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
                ++n;
            }
            return n;
        };
        if (digits() == 0) {
            ok = false;
            return v;
        }
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (digits() == 0) {
                ok = false;
                return v;
            }
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (digits() == 0) {
                ok = false;
                return v;
            }
        }
        v.number = std::strtod(text.c_str() + start, nullptr);
        return v;
    }

    JsonValue parseValue(int depth)
    {
        JsonValue v;
        if (depth > 200) {  // defensive recursion bound
            ok = false;
            return v;
        }
        skipWs();
        if (pos >= text.size()) {
            ok = false;
            return v;
        }
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            v.kind = JsonValue::Kind::Object;
            skipWs();
            if (consume('}'))
                return v;
            do {
                skipWs();
                if (pos >= text.size() || text[pos] != '"') {
                    ok = false;
                    return v;
                }
                JsonValue k = parseString();
                if (!ok || !consume(':')) {
                    ok = false;
                    return v;
                }
                JsonValue member = parseValue(depth + 1);
                if (!ok)
                    return v;
                v.members.emplace_back(std::move(k.str),
                                       std::move(member));
            } while (consume(','));
            if (!consume('}'))
                ok = false;
            return v;
        }
        if (c == '[') {
            ++pos;
            v.kind = JsonValue::Kind::Array;
            skipWs();
            if (consume(']'))
                return v;
            do {
                JsonValue item = parseValue(depth + 1);
                if (!ok)
                    return v;
                v.items.push_back(std::move(item));
            } while (consume(','));
            if (!consume(']'))
                ok = false;
            return v;
        }
        if (c == '"')
            return parseString();
        if (c == 't') {
            if (!literal("true"))
                ok = false;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (c == 'f') {
            if (!literal("false"))
                ok = false;
            v.kind = JsonValue::Kind::Bool;
            return v;
        }
        if (c == 'n') {
            if (!literal("null"))
                ok = false;
            return v;
        }
        return parseNumber();
    }
};

} // anonymous namespace

std::optional<JsonValue>
parseJson(const std::string &text)
{
    Parser p{text};
    JsonValue v = p.parseValue(0);
    p.skipWs();
    if (!p.ok || p.pos != text.size())
        return std::nullopt;
    return v;
}

std::optional<std::map<std::string, double>>
readBenchMetrics(const std::string &text, std::string &why)
{
    const std::optional<JsonValue> doc = parseJson(text);
    if (!doc || doc->kind != JsonValue::Kind::Object) {
        why = "not a JSON object";
        return std::nullopt;
    }
    const JsonValue *schema = doc->find("schema");
    const JsonValue *version = doc->find("version");
    const JsonValue *metrics = doc->find("metrics");
    if (!schema || schema->kind != JsonValue::Kind::String ||
        schema->str != kBenchSchema) {
        why = std::string("schema is not ") + kBenchSchema;
        return std::nullopt;
    }
    if (!version || version->kind != JsonValue::Kind::Number ||
        version->number != static_cast<double>(kBenchVersion)) {
        why = "version is not " + std::to_string(kBenchVersion);
        return std::nullopt;
    }
    if (!metrics || metrics->kind != JsonValue::Kind::Object) {
        why = "no metrics object";
        return std::nullopt;
    }
    std::map<std::string, double> out;
    for (const auto &[key, value] : metrics->members) {
        if (value.kind == JsonValue::Kind::Null) {
            out[key] = std::nan("");
        } else if (value.kind == JsonValue::Kind::Number) {
            out[key] = value.number;
        } else {
            why = "metric " + key + " is not a number";
            return std::nullopt;
        }
    }
    return out;
}

} // namespace obs
} // namespace mflstm
