#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <stdexcept>

#include "util/table.hpp"

namespace swarmavail {
namespace {

using std::string_view;

bool is_json_ws(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

std::string offset_message(std::string_view what, std::size_t offset) {
    return std::string(what) + " at byte " + std::to_string(offset);
}

[[noreturn]] void jsonl_fail(std::string_view format, std::size_t line_no,
                             std::string_view why) {
    throw std::invalid_argument(std::string(format) + " line " +
                                std::to_string(line_no) + ": " + std::string(why));
}

/// Recursive-descent parser over one string_view; all bounds explicit.
class Parser {
 public:
    Parser(string_view text, const JsonLimits& limits) : text_(text), limits_(limits) {}

    bool parse_document(JsonValue& out, std::string* error) {
        skip_ws();
        if (!parse_value(out, 0)) {
            if (error != nullptr) {
                *error = error_;
            }
            return false;
        }
        skip_ws();
        if (pos_ != text_.size()) {
            if (error != nullptr) {
                *error = offset_message("trailing data after JSON document", pos_);
            }
            return false;
        }
        return true;
    }

 private:
    void skip_ws() {
        while (pos_ < text_.size() && is_json_ws(text_[pos_])) {
            ++pos_;
        }
    }

    bool fail(std::string_view what, std::size_t offset) {
        if (error_.empty()) {
            error_ = offset_message(what, offset);
        }
        return false;
    }

    bool count_value() {
        if (++values_ > limits_.max_values) {
            return fail("JSON document exceeds the value-count limit", pos_);
        }
        return true;
    }

    bool parse_value(JsonValue& out, std::size_t depth) {
        if (!count_value()) {
            return false;
        }
        if (pos_ >= text_.size()) {
            return fail("unexpected end of JSON document", pos_);
        }
        const char c = text_[pos_];
        switch (c) {
            case '{':
                return parse_object(out, depth);
            case '[':
                return parse_array(out, depth);
            case '"': {
                std::string decoded;
                if (!parse_string(decoded)) {
                    return false;
                }
                out = JsonValue::make_string(std::move(decoded));
                return true;
            }
            case 't':
                return parse_literal("true", JsonValue::make_bool(true), out);
            case 'f':
                return parse_literal("false", JsonValue::make_bool(false), out);
            case 'n':
                return parse_literal("null", JsonValue::make_null(), out);
            default:
                if (c == '-' || (c >= '0' && c <= '9')) {
                    return parse_number(out);
                }
                return fail("unexpected character in JSON document", pos_);
        }
    }

    bool parse_literal(string_view word, JsonValue value, JsonValue& out) {
        if (text_.substr(pos_, word.size()) != word) {
            return fail("malformed JSON literal", pos_);
        }
        pos_ += word.size();
        out = std::move(value);
        return true;
    }

    bool parse_object(JsonValue& out, std::size_t depth) {
        if (depth >= limits_.max_depth) {
            return fail("JSON nesting exceeds the depth limit", pos_);
        }
        ++pos_;  // consume '{'
        out = JsonValue::make_object();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                return fail("expected string key in JSON object", pos_);
            }
            const std::size_t key_at = pos_;
            std::string key;
            if (!parse_string(key)) {
                return false;
            }
            if (out.find(key) != nullptr) {
                return fail("duplicate key in JSON object", key_at);
            }
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                return fail("expected ':' in JSON object", pos_);
            }
            ++pos_;
            skip_ws();
            JsonValue value;
            if (!parse_value(value, depth + 1)) {
                return false;
            }
            out.insert(std::move(key), std::move(value));
            skip_ws();
            if (pos_ >= text_.size()) {
                return fail("unterminated JSON object", pos_);
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in JSON object", pos_);
        }
    }

    bool parse_array(JsonValue& out, std::size_t depth) {
        if (depth >= limits_.max_depth) {
            return fail("JSON nesting exceeds the depth limit", pos_);
        }
        ++pos_;  // consume '['
        out = JsonValue::make_array();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            JsonValue value;
            if (!parse_value(value, depth + 1)) {
                return false;
            }
            out.push_back(std::move(value));
            skip_ws();
            if (pos_ >= text_.size()) {
                return fail("unterminated JSON array", pos_);
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in JSON array", pos_);
        }
    }

    bool append_utf8(std::uint32_t cp, std::string& out) {
        if (cp <= 0x7F) {
            out.push_back(static_cast<char>(cp));
        } else if (cp <= 0x7FF) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp <= 0xFFFF) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        return true;
    }

    bool parse_hex4(std::uint32_t& out) {
        if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape in JSON string", pos_);
        }
        std::uint32_t value = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            std::uint32_t digit = 0;
            if (c >= '0' && c <= '9') {
                digit = static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                digit = static_cast<std::uint32_t>(c - 'a') + 10U;
            } else if (c >= 'A' && c <= 'F') {
                digit = static_cast<std::uint32_t>(c - 'A') + 10U;
            } else {
                return fail("non-hex digit in \\u escape", pos_ + i);
            }
            value = (value << 4) | digit;
        }
        pos_ += 4;
        out = value;
        return true;
    }

    bool parse_string(std::string& out) {
        ++pos_;  // consume opening quote
        out.clear();
        while (true) {
            if (pos_ >= text_.size()) {
                return fail("unterminated JSON string", pos_);
            }
            if (out.size() > limits_.max_string_bytes) {
                return fail("JSON string exceeds the length limit", pos_);
            }
            const unsigned char c = static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20) {
                return fail("raw control byte in JSON string", pos_);
            }
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                ++pos_;
                continue;
            }
            ++pos_;  // consume backslash
            if (pos_ >= text_.size()) {
                return fail("truncated escape in JSON string", pos_);
            }
            const char esc = text_[pos_];
            ++pos_;
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    std::uint32_t cp = 0;
                    if (!parse_hex4(cp)) {
                        return false;
                    }
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // High surrogate: a \uXXXX low surrogate must follow.
                        if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            return fail("unpaired high surrogate in JSON string",
                                        pos_);
                        }
                        pos_ += 2;
                        std::uint32_t low = 0;
                        if (!parse_hex4(low)) {
                            return false;
                        }
                        if (low < 0xDC00 || low > 0xDFFF) {
                            return fail("invalid low surrogate in JSON string",
                                        pos_);
                        }
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        return fail("unpaired low surrogate in JSON string", pos_);
                    }
                    append_utf8(cp, out);
                    break;
                }
                default:
                    return fail("unknown escape in JSON string", pos_ - 1);
            }
        }
    }

    bool parse_number(JsonValue& out) {
        const std::size_t start = pos_;
        std::size_t p = pos_;
        if (p < text_.size() && text_[p] == '-') {
            ++p;
        }
        // Integer part: 0 | [1-9][0-9]* (leading zeros rejected).
        if (p >= text_.size() || text_[p] < '0' || text_[p] > '9') {
            return fail("malformed JSON number", start);
        }
        if (text_[p] == '0') {
            ++p;
            if (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') {
                return fail("leading zero in JSON number", start);
            }
        } else {
            while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') {
                ++p;
            }
        }
        const bool digits_only =
            p >= text_.size() || (text_[p] != '.' && text_[p] != 'e' && text_[p] != 'E');
        if (p < text_.size() && text_[p] == '.') {
            ++p;
            if (p >= text_.size() || text_[p] < '0' || text_[p] > '9') {
                return fail("malformed fraction in JSON number", start);
            }
            while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') {
                ++p;
            }
        }
        if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
            ++p;
            if (p < text_.size() && (text_[p] == '+' || text_[p] == '-')) {
                ++p;
            }
            if (p >= text_.size() || text_[p] < '0' || text_[p] > '9') {
                return fail("malformed exponent in JSON number", start);
            }
            while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') {
                ++p;
            }
        }
        const char* first = text_.data() + start;
        const char* last = text_.data() + p;
        if (digits_only && *first != '-') {
            // A plain unsigned integer keeps its exact value; the double is
            // the same correctly rounded conversion from_chars would make.
            std::uint64_t exact = 0;
            const auto result = std::from_chars(first, last, exact);
            if (result.ec == std::errc{} && result.ptr == last) {
                pos_ = p;
                out = JsonValue::make_uint64(exact);
                return true;
            }
        }
        double value = 0.0;
        const auto result = std::from_chars(first, last, value);
        if (result.ec != std::errc{} || result.ptr != text_.data() + p ||
            !std::isfinite(value)) {
            return fail("JSON number outside double range", start);
        }
        pos_ = p;
        out = JsonValue::make_number(value);
        return true;
    }

    string_view text_;
    JsonLimits limits_;
    std::size_t pos_ = 0;
    std::size_t values_ = 0;
    std::string error_;
};

}  // namespace

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool value) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = value;
    return v;
}

JsonValue JsonValue::make_number(double value) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = value;
    return v;
}

JsonValue JsonValue::make_uint64(std::uint64_t value) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = static_cast<double>(value);
    v.exact_uint_ = true;
    v.uint_ = value;
    return v;
}

JsonValue JsonValue::make_string(std::string value) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(value);
    return v;
}

JsonValue JsonValue::make_array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
}

JsonValue JsonValue::make_object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
}

const std::vector<JsonMember>& JsonValue::members() const noexcept {
    return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
    for (const JsonMember& member : members_) {
        if (member.key == key) {
            return &member.value;
        }
    }
    return nullptr;
}

void JsonValue::push_back(JsonValue value) { items_.push_back(std::move(value)); }

void JsonValue::insert(std::string key, JsonValue value) {
    members_.push_back(JsonMember{std::move(key), std::move(value)});
}

bool parse_json(std::string_view text, JsonValue& out, std::string* error,
                const JsonLimits& limits) {
    Parser parser(text, limits);
    return parser.parse_document(out, error);
}

bool validate_utf8(std::string_view text) noexcept {
    std::size_t i = 0;
    const std::size_t n = text.size();
    while (i < n) {
        const unsigned char c0 = static_cast<unsigned char>(text[i]);
        if (c0 < 0x80) {
            ++i;
            continue;
        }
        std::size_t extra = 0;
        std::uint32_t cp = 0;
        std::uint32_t min_cp = 0;
        if ((c0 & 0xE0) == 0xC0) {
            extra = 1;
            cp = c0 & 0x1FU;
            min_cp = 0x80;
        } else if ((c0 & 0xF0) == 0xE0) {
            extra = 2;
            cp = c0 & 0x0FU;
            min_cp = 0x800;
        } else if ((c0 & 0xF8) == 0xF0) {
            extra = 3;
            cp = c0 & 0x07U;
            min_cp = 0x10000;
        } else {
            return false;  // stray continuation byte or illegal lead byte
        }
        if (i + extra >= n) {
            return false;  // truncated sequence
        }
        for (std::size_t k = 1; k <= extra; ++k) {
            const unsigned char ck = static_cast<unsigned char>(text[i + k]);
            if ((ck & 0xC0) != 0x80) {
                return false;
            }
            cp = (cp << 6) | (ck & 0x3FU);
        }
        if (cp < min_cp || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
            return false;  // overlong, beyond Unicode, or surrogate
        }
        i += extra + 1;
    }
    return true;
}

void append_json_string(std::string_view text, std::string& out) {
    out.push_back('"');
    for (const char raw : text) {
        const unsigned char c = static_cast<unsigned char>(raw);
        switch (raw) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    static const char* kHex = "0123456789abcdef";
                    out += "\\u00";
                    out.push_back(kHex[(c >> 4) & 0xF]);
                    out.push_back(kHex[c & 0xF]);
                } else {
                    out.push_back(raw);
                }
        }
    }
    out.push_back('"');
}

void append_json_number(double value, std::string& out) {
    if (!std::isfinite(value)) {
        // JSON has no Inf/NaN literals; quote them so the value survives.
        out.push_back('"');
        out += value > 0.0 ? "inf" : (value < 0.0 ? "-inf" : "nan");
        out.push_back('"');
        return;
    }
    out += format_double_exact(value);
}

void append_json_uint64(std::uint64_t value, std::string& out) {
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, result.ptr);
}

void write_canonical_json(const JsonValue& value, std::string& out) {
    switch (value.kind()) {
        case JsonValue::Kind::kNull:
            out += "null";
            return;
        case JsonValue::Kind::kBool:
            out += value.as_bool() ? "true" : "false";
            return;
        case JsonValue::Kind::kNumber:
            append_json_number(value.as_number(), out);
            return;
        case JsonValue::Kind::kString:
            append_json_string(value.as_string(), out);
            return;
        case JsonValue::Kind::kArray: {
            out.push_back('[');
            bool first = true;
            for (const JsonValue& item : value.items()) {
                if (!first) {
                    out.push_back(',');
                }
                first = false;
                write_canonical_json(item, out);
            }
            out.push_back(']');
            return;
        }
        case JsonValue::Kind::kObject: {
            std::vector<const JsonMember*> sorted;
            sorted.reserve(value.members().size());
            for (const JsonMember& member : value.members()) {
                sorted.push_back(&member);
            }
            std::sort(sorted.begin(), sorted.end(),
                      [](const JsonMember* a, const JsonMember* b) {
                          return a->key < b->key;
                      });
            out.push_back('{');
            bool first = true;
            for (const JsonMember* member : sorted) {
                if (!first) {
                    out.push_back(',');
                }
                first = false;
                append_json_string(member->key, out);
                out.push_back(':');
                write_canonical_json(member->value, out);
            }
            out.push_back('}');
            return;
        }
    }
}

std::string canonical_json(const JsonValue& value) {
    std::string out;
    write_canonical_json(value, out);
    return out;
}

JsonlFields::JsonlFields(const JsonValue& object, std::string_view format,
                         std::size_t line_no)
    : object_(object), format_(format), line_no_(line_no) {
    if (!object.is_object()) {
        fail("expected a JSON object");
    }
}

void JsonlFields::fail(std::string_view why) const {
    jsonl_fail(format_, line_no_, why);
}

bool JsonlFields::has(std::string_view key) const noexcept {
    return object_.find(key) != nullptr;
}

const JsonValue& JsonlFields::field(std::string_view key, JsonValue::Kind kind) const {
    const JsonValue* value = object_.find(key);
    if (value == nullptr) {
        fail("missing field \"" + std::string(key) + "\"");
    }
    if (value->kind() != kind) {
        fail("field \"" + std::string(key) + "\" has the wrong type");
    }
    return *value;
}

double JsonlFields::number(std::string_view key) const {
    const JsonValue* value = object_.find(key);
    if (value != nullptr && value->is_string()) {
        const std::string& word = value->as_string();
        if (word == "inf") {
            return std::numeric_limits<double>::infinity();
        }
        if (word == "-inf") {
            return -std::numeric_limits<double>::infinity();
        }
        if (word == "nan") {
            return std::numeric_limits<double>::quiet_NaN();
        }
    }
    return field(key, JsonValue::Kind::kNumber).as_number();
}

std::uint64_t JsonlFields::u64(std::string_view key, std::uint64_t max) const {
    std::uint64_t out = 0;
    if (!field(key, JsonValue::Kind::kNumber).as_uint64(out) || out > max) {
        fail("field \"" + std::string(key) + "\" is not an integer in [0, " +
             std::to_string(max) + "]");
    }
    return out;
}

bool JsonlFields::boolean(std::string_view key) const {
    return field(key, JsonValue::Kind::kBool).as_bool();
}

const std::string& JsonlFields::text(std::string_view key) const {
    return field(key, JsonValue::Kind::kString).as_string();
}

const std::vector<JsonValue>& JsonlFields::array(std::string_view key) const {
    return field(key, JsonValue::Kind::kArray).items();
}

JsonlFields JsonlFields::nested(const JsonValue& object) const {
    return JsonlFields{object, format_, line_no_};
}

void read_jsonl(std::istream& in, std::string_view format,
                const std::function<void(const JsonlFields&)>& on_record) {
    std::string line;
    std::size_t line_no = 0;
    JsonValue record;
    std::string error;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) {
            continue;
        }
        // A decoded string or a value count can never exceed the line's
        // length, so these limits refuse nothing a writer produced.
        JsonLimits limits;
        limits.max_values = line.size();
        limits.max_string_bytes = line.size();
        if (!parse_json(line, record, &error, limits)) {
            jsonl_fail(format, line_no, error);
        }
        on_record(JsonlFields{record, format, line_no});
    }
}

}  // namespace swarmavail
