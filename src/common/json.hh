/**
 * @file
 * Dependency-free JSON for the public API layer: a small value type, a
 * strict parser with line/column error messages, compact and pretty
 * serialization, and a *canonical* form (sorted object keys, shortest
 * round-trip number formatting, no whitespace) used to content-hash
 * ExperimentSpecs — two specs that describe the same experiment hash
 * identically regardless of key order or formatting.
 *
 * Scope: RFC 8259 minus arbitrary-precision numbers (values are doubles;
 * integers up to 2^53 survive exactly, which covers every knob in the
 * spec schema). Object key order is preserved on parse so dumped specs
 * stay human-diffable; only canonical() sorts.
 */

#ifndef GEMINI_COMMON_JSON_HH
#define GEMINI_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace gemini::common::json {

class Value;

/** JSON array. */
using Array = std::vector<Value>;

/**
 * JSON object as an insertion-ordered key/value list (specs have a dozen
 * keys — linear lookup beats a map, and order-preservation keeps dumps
 * diffable against the source file).
 */
using Object = std::vector<std::pair<std::string, Value>>;

class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Value() : data_(nullptr) {}
    Value(std::nullptr_t) : data_(nullptr) {}
    Value(bool b) : data_(b) {}
    Value(double d) : data_(d) {}
    Value(int i) : data_(static_cast<double>(i)) {}
    Value(unsigned i) : data_(static_cast<double>(i)) {}
    Value(std::int64_t i) : data_(static_cast<double>(i)) {}
    Value(std::uint64_t i) : data_(static_cast<double>(i)) {}
    Value(const char *s) : data_(std::string(s)) {}
    Value(std::string s) : data_(std::move(s)) {}
    Value(Array a) : data_(std::move(a)) {}
    Value(Object o) : data_(std::move(o)) {}

    /** Fresh empty containers (clearer than Value(Array{}) at call sites). */
    static Value array() { return Value(Array{}); }
    static Value object() { return Value(Object{}); }

    Type
    type() const
    {
        return static_cast<Type>(data_.index());
    }

    bool isNull() const { return type() == Type::Null; }
    bool isBool() const { return type() == Type::Bool; }
    bool isNumber() const { return type() == Type::Number; }
    bool isString() const { return type() == Type::String; }
    bool isArray() const { return type() == Type::Array; }
    bool isObject() const { return type() == Type::Object; }

    /** Accessors assume the matching type (callers check first). */
    bool asBool() const { return std::get<bool>(data_); }
    double asNumber() const { return std::get<double>(data_); }
    const std::string &asString() const { return std::get<std::string>(data_); }
    const Array &asArray() const { return std::get<Array>(data_); }
    Array &asArray() { return std::get<Array>(data_); }
    const Object &asObject() const { return std::get<Object>(data_); }
    Object &asObject() { return std::get<Object>(data_); }

    /** Object lookup; nullptr when absent (or not an object). */
    const Value *find(std::string_view key) const;

    /** Object insert-or-replace; returns the stored value. */
    Value &set(std::string_view key, Value v);

    /** Array append. */
    void
    push(Value v)
    {
        asArray().push_back(std::move(v));
    }

    /**
     * Serialize. indent < 0 is compact (no whitespace); indent >= 0
     * pretty-prints with that many spaces per level. Numbers use the
     * shortest representation that round-trips (std::to_chars).
     */
    std::string dump(int indent = -1) const;

    /**
     * Canonical serialization: compact, object keys sorted bytewise,
     * shortest round-trip numbers. The input to content hashing.
     */
    std::string canonical() const;

    bool operator==(const Value &o) const { return data_ == o.data_; }

  private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        data_;
};

/**
 * Parse a complete JSON document. Trailing non-whitespace, duplicate
 * object keys, and nesting beyond 256 levels are errors. On failure
 * returns nullopt and, when `error` is non-null, stores a
 * "line L, column C: reason" message.
 */
std::optional<Value> parse(std::string_view text,
                           std::string *error = nullptr);

/** FNV-1a 64-bit hash (content hashing of canonical spec text). */
std::uint64_t fnv1a64(std::string_view s);

/**
 * A 64-bit value as exactly 16 lowercase hex digits — the wire form of
 * hashes, tags and seeds, which a JSON double cannot hold exactly.
 */
std::string hex64(std::uint64_t v);

/**
 * Inverse of hex64: accepts exactly the 16 lowercase hex digits it
 * writes (no prefix, sign, whitespace or short form).
 */
std::optional<std::uint64_t> parseHex64(std::string_view text);

} // namespace gemini::common::json

#endif // GEMINI_COMMON_JSON_HH
