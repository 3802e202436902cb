#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/ensure.hpp"

namespace asbr {

double JsonValue::asDouble() const {
    switch (kind_) {
        case Kind::kUint: return static_cast<double>(uint_);
        case Kind::kInt: return static_cast<double>(int_);
        case Kind::kDouble: return double_;
        default:
            ASBR_ENSURE(false, "JsonValue::asDouble on a non-number");
    }
    return 0.0;
}

std::uint64_t JsonValue::asUint() const {
    switch (kind_) {
        case Kind::kUint: return uint_;
        case Kind::kInt:
            ASBR_ENSURE(int_ >= 0, "JsonValue::asUint on a negative value");
            return static_cast<std::uint64_t>(int_);
        case Kind::kDouble: {
            // 2^64 and above would not fit: converting them is undefined.
            ASBR_ENSURE(double_ >= 0 && double_ == std::floor(double_) &&
                            double_ < 18446744073709551616.0,
                        "JsonValue::asUint on a value that is not a uint64");
            return static_cast<std::uint64_t>(double_);
        }
        default:
            ASBR_ENSURE(false, "JsonValue::asUint on a non-number");
    }
    return 0;
}

const JsonValue* JsonValue::find(std::string_view key) const {
    if (kind_ != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object_)
        if (k == key) return &v;
    return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
    ASBR_ENSURE(kind_ == Kind::kObject, "JsonValue::set on a non-object");
    for (auto& [k, v] : object_) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    object_.emplace_back(std::move(key), std::move(value));
}

void jsonEscape(std::string& out, std::string_view s) {
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
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

namespace {

void appendDouble(std::string& out, double v) {
    ASBR_ENSURE(std::isfinite(v), "JSON cannot represent NaN/Inf");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    // Prefer the shortest representation that round-trips.
    for (int precision = 1; precision < 17; ++precision) {
        char shorter[32];
        std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
        double back = 0.0;
        std::sscanf(shorter, "%lf", &back);
        if (back == v) {
            out += shorter;
            return;
        }
    }
    out += buf;
}

void appendIndent(std::string& out, int indent, int depth) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::dumpTo(std::string& out, int indent, int depth) const {
    switch (kind_) {
        case Kind::kNull: out += "null"; break;
        case Kind::kBool: out += bool_ ? "true" : "false"; break;
        case Kind::kUint: out += std::to_string(uint_); break;
        case Kind::kInt: out += std::to_string(int_); break;
        case Kind::kDouble: appendDouble(out, double_); break;
        case Kind::kString:
            out += '"';
            jsonEscape(out, string_);
            out += '"';
            break;
        case Kind::kArray: {
            if (array_.empty()) {
                out += "[]";
                break;
            }
            out += '[';
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i != 0) out += ',';
                if (indent > 0) appendIndent(out, indent, depth + 1);
                array_[i].dumpTo(out, indent, depth + 1);
            }
            if (indent > 0) appendIndent(out, indent, depth);
            out += ']';
            break;
        }
        case Kind::kObject: {
            if (object_.empty()) {
                out += "{}";
                break;
            }
            out += '{';
            for (std::size_t i = 0; i < object_.size(); ++i) {
                if (i != 0) out += ',';
                if (indent > 0) appendIndent(out, indent, depth + 1);
                out += '"';
                jsonEscape(out, object_[i].first);
                out += indent > 0 ? "\": " : "\":";
                object_[i].second.dumpTo(out, indent, depth + 1);
            }
            if (indent > 0) appendIndent(out, indent, depth);
            out += '}';
            break;
        }
    }
}

std::string JsonValue::dump(int indent) const {
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ---------------------------------------------------------------- parser ----

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonParseResult run() {
        JsonParseResult result;
        JsonValue value;
        if (!parseValue(value)) {
            result.error = error_;
            return result;
        }
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
            result.error = error_;
            return result;
        }
        result.value = std::move(value);
        return result;
    }

private:
    bool fail(const std::string& message) {
        if (error_.empty())
            error_ = message + " at offset " + std::to_string(pos_);
        return false;
    }

    void skipWs() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool consume(char c) {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return fail(std::string("expected '") + c + "'");
    }

    bool parseLiteral(std::string_view word, JsonValue value, JsonValue& out) {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        out = std::move(value);
        return true;
    }

    bool parseString(std::string& out) {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size()) return fail("bad escape");
                const char e = text_[pos_ + 1];
                pos_ += 2;
                switch (e) {
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
                            return fail("bad \\u escape");
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = text_[pos_ + static_cast<std::size_t>(i)];
                            code <<= 4;
                            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                            else return fail("bad \\u escape");
                        }
                        pos_ += 4;
                        // Encode as UTF-8 (BMP only; surrogate pairs are out
                        // of scope for the report/trace character set).
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
                    default: return fail("bad escape");
                }
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool parseNumber(JsonValue& out) {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0))
            ++pos_;
        bool isDouble = false;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            isDouble = true;
            ++pos_;
            while (pos_ < text_.size() &&
                   (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0))
                ++pos_;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            isDouble = true;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0))
                ++pos_;
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") return fail("invalid number");
        const std::string_view digits =
            token[0] == '-' ? token.substr(1) : token;
        if (digits.empty() || !std::isdigit(static_cast<unsigned char>(digits[0])))
            return fail("invalid number");
        if (digits.size() > 1 && digits[0] == '0' &&
            std::isdigit(static_cast<unsigned char>(digits[1])))
            return fail("invalid number: leading zero");
        if (!isDouble) {
            if (token[0] == '-') {
                std::int64_t v = 0;
                const auto [p, ec] =
                    std::from_chars(token.data(), token.data() + token.size(), v);
                if (ec == std::errc() && p == token.data() + token.size()) {
                    out = JsonValue(v);
                    return true;
                }
            } else {
                std::uint64_t v = 0;
                const auto [p, ec] =
                    std::from_chars(token.data(), token.data() + token.size(), v);
                if (ec == std::errc() && p == token.data() + token.size()) {
                    out = JsonValue(v);
                    return true;
                }
            }
            // fall through to double on overflow
        }
        double v = 0.0;
        if (std::sscanf(std::string(token).c_str(), "%lf", &v) != 1)
            return fail("invalid number");
        out = JsonValue(v);
        return true;
    }

    bool parseValue(JsonValue& out) {
        skipWs();
        if (++depth_ > kMaxDepth) return fail("nesting too deep");
        if (pos_ >= text_.size()) return fail("unexpected end of input");
        bool ok = false;
        switch (text_[pos_]) {
            case 'n': ok = parseLiteral("null", JsonValue(), out); break;
            case 't': ok = parseLiteral("true", JsonValue(true), out); break;
            case 'f': ok = parseLiteral("false", JsonValue(false), out); break;
            case '"': {
                std::string s;
                ok = parseString(s);
                if (ok) out = JsonValue(std::move(s));
                break;
            }
            case '[': {
                ++pos_;
                JsonArray items;
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == ']') {
                    ++pos_;
                    out = JsonValue(std::move(items));
                    ok = true;
                    break;
                }
                while (true) {
                    JsonValue item;
                    if (!parseValue(item)) return false;
                    items.push_back(std::move(item));
                    skipWs();
                    if (pos_ < text_.size() && text_[pos_] == ',') {
                        ++pos_;
                        continue;
                    }
                    if (!consume(']')) return false;
                    break;
                }
                out = JsonValue(std::move(items));
                ok = true;
                break;
            }
            case '{': {
                ++pos_;
                JsonObject members;
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == '}') {
                    ++pos_;
                    out = JsonValue(std::move(members));
                    ok = true;
                    break;
                }
                while (true) {
                    skipWs();
                    std::string key;
                    if (!parseString(key)) return false;
                    if (!consume(':')) return false;
                    JsonValue value;
                    if (!parseValue(value)) return false;
                    members.emplace_back(std::move(key), std::move(value));
                    skipWs();
                    if (pos_ < text_.size() && text_[pos_] == ',') {
                        ++pos_;
                        continue;
                    }
                    if (!consume('}')) return false;
                    break;
                }
                out = JsonValue(std::move(members));
                ok = true;
                break;
            }
            default: ok = parseNumber(out); break;
        }
        --depth_;
        return ok;
    }

    static constexpr int kMaxDepth = 128;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

}  // namespace

JsonParseResult parseJson(std::string_view text) {
    return Parser(text).run();
}

}  // namespace asbr
