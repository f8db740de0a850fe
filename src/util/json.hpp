// Strict, bounds-checked JSON: the one JSON reader, string escaper and
// number formatter in the library.
//
// Two kinds of text go through it: the planning service's wire payloads
// (small JSON objects from untrusted peers) and the JSONL streams the
// library writes itself (traces, telemetry snapshots, request spans). The
// parser is deliberately minimal and paranoid rather than general: every
// limit (nesting depth, value count, string length) is explicit, numbers
// must match the JSON grammar exactly (no leading zeros, no hex, no
// NaN/Inf), and object keys must be unique. Malformed input produces a
// diagnostic with a byte offset and never throws — the protocol layer
// turns it into a structured error response (DESIGN.md §15). The JSONL
// side (read_jsonl / JsonlFields) wraps it in a throwing per-line reader.
//
// The writer side is canonical: object keys sorted, doubles in the
// shortest exact round-trip form (util/table.hpp format_double_exact, the
// same lossless writer report.cpp uses). Two JsonValues compare
// semantically equal iff their canonical serializations are byte-equal,
// which is what the CatalogCache keys rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace swarmavail {

struct JsonMember;

/// One parsed JSON value. Numbers are doubles (the service's integral
/// fields are range-checked to the exact-double window by the request
/// layer); a number written as a plain unsigned integer that fits in 64
/// bits also keeps its exact value (as_uint64). Object members keep parse
/// order, lookup is linear (payloads are tiny), and the canonical writer
/// sorts keys.
class JsonValue {
 public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    JsonValue() = default;

    [[nodiscard]] static JsonValue make_null();
    [[nodiscard]] static JsonValue make_bool(bool value);
    [[nodiscard]] static JsonValue make_number(double value);
    /// A number with an exact unsigned-integer value (as_uint64 succeeds).
    [[nodiscard]] static JsonValue make_uint64(std::uint64_t value);
    [[nodiscard]] static JsonValue make_string(std::string value);
    [[nodiscard]] static JsonValue make_array();
    [[nodiscard]] static JsonValue make_object();

    [[nodiscard]] Kind kind() const noexcept { return kind_; }
    [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
    [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
    [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
    [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
    [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
    [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

    /// Typed accessors; the caller must have checked the kind.
    [[nodiscard]] bool as_bool() const noexcept { return bool_; }
    [[nodiscard]] double as_number() const noexcept { return number_; }
    /// The exact value of a number written with digits only (no sign,
    /// fraction or exponent) that is at most 2^64-1; false for every other
    /// value, including non-numbers.
    [[nodiscard]] bool as_uint64(std::uint64_t& out) const noexcept {
        out = uint_;
        return exact_uint_;
    }
    [[nodiscard]] const std::string& as_string() const noexcept { return string_; }
    [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
        return items_;
    }
    [[nodiscard]] const std::vector<JsonMember>& members() const noexcept;

    /// First member with `key`, or nullptr (the parser rejects duplicate
    /// keys, so "first" is "only").
    [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

    void push_back(JsonValue value);
    void insert(std::string key, JsonValue value);

 private:
    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    bool exact_uint_ = false;
    double number_ = 0.0;
    std::uint64_t uint_ = 0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<JsonMember> members_;
};

/// One object member; members keep parse/insertion order.
struct JsonMember {
    std::string key;
    JsonValue value;
};

/// Hard ceilings on a parse; every limit maps to a distinct diagnostic.
struct JsonLimits {
    std::size_t max_depth = 32;           ///< nesting of arrays/objects
    std::size_t max_values = 65536;       ///< total values in the document
    std::size_t max_string_bytes = 65536; ///< decoded bytes of one string
};

/// Parses exactly one JSON document spanning the whole of `text` (trailing
/// whitespace allowed). On failure returns false and, if `error` is
/// non-null, a diagnostic with a byte offset. Never throws on malformed
/// input. The text must already be valid UTF-8 (see validate_utf8); raw
/// control bytes inside strings are rejected here regardless.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out,
                              std::string* error, const JsonLimits& limits = {});

/// True iff `text` is well-formed UTF-8 (rejects overlong encodings,
/// surrogate code points, and values beyond U+10FFFF).
[[nodiscard]] bool validate_utf8(std::string_view text) noexcept;

/// Appends the canonical serialization of `value` to `out`: object keys
/// sorted bytewise, no whitespace, doubles via format_double_exact.
void write_canonical_json(const JsonValue& value, std::string& out);

/// Canonical serialization as a fresh string (the cache-key form).
[[nodiscard]] std::string canonical_json(const JsonValue& value);

/// Appends `text` JSON-escaped (quotes included) to `out`; shared by the
/// canonical writer and the response builders.
void append_json_string(std::string_view text, std::string& out);

/// Appends the shortest exact decimal form of `value` (format_double_exact)
/// to `out`. JSON has no literal for infinities and NaN, so they are
/// written as the strings `"inf"`, `"-inf"` and `"nan"`; the service's
/// response fields and the JSONL writers use this so +infinite busy
/// periods survive serialization, and JsonlFields::number reads them back.
void append_json_number(double value, std::string& out);

/// Appends the decimal digits of `value` to `out` (the form
/// JsonValue::as_uint64 reads back exactly).
void append_json_uint64(std::uint64_t value, std::string& out);

/// Required-field access to one JSONL record (or an object nested in it).
/// Every accessor returns a field of one kind or throws
/// std::invalid_argument reading "<format> line N: <why>".
class JsonlFields {
 public:
    /// Throws unless `object` is a JSON object.
    JsonlFields(const JsonValue& object, std::string_view format, std::size_t line_no);

    [[nodiscard]] bool has(std::string_view key) const noexcept;
    /// A number, or one of the strings append_json_number writes for a
    /// non-finite value.
    [[nodiscard]] double number(std::string_view key) const;
    /// An exact unsigned integer (JsonValue::as_uint64) no larger than `max`.
    [[nodiscard]] std::uint64_t u64(
        std::string_view key,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
    [[nodiscard]] bool boolean(std::string_view key) const;
    [[nodiscard]] const std::string& text(std::string_view key) const;
    [[nodiscard]] const std::vector<JsonValue>& array(std::string_view key) const;
    /// `object` (an array element, say) read with this record's context.
    [[nodiscard]] JsonlFields nested(const JsonValue& object) const;

    [[noreturn]] void fail(std::string_view why) const;

 private:
    [[nodiscard]] const JsonValue& field(std::string_view key,
                                         JsonValue::Kind kind) const;

    const JsonValue& object_;
    std::string_view format_;
    std::size_t line_no_;
};

/// Reads a JSONL stream: every non-empty line must be exactly one JSON
/// object, which is handed to `on_record`. A line that does not parse
/// throws std::invalid_argument reading "<format> line N: <why>", N
/// counting from 1. No line the library's own writers produce is refused
/// for its length. Key order is not checked; keys no reader asks for are
/// ignored.
void read_jsonl(std::istream& in, std::string_view format,
                const std::function<void(const JsonlFields&)>& on_record);

}  // namespace swarmavail
