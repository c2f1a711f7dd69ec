/**
 * @file
 * The API layer's wire-format machinery. Every JSON struct is described
 * once, as a field list that names its keys in wire order:
 *
 *     template <class Io>
 *     void
 *     describe(Io &io, eval::EvalBreakdown &x)
 *     {
 *         io.field("delay_s", x.delay);
 *         io.field("intra_tile_j", x.intraTileEnergy);
 *         ...
 *     }
 *
 * and both directions walk that same list: ObjectWriter appends each key
 * in list order, ObjectReader extracts it with type and range checks.
 * writeJson() / readJson() run a list over a whole value. The field kinds:
 *
 *  - field(key, x)      any bool, number, string, vector, optional, or
 *                       struct with its own describe(); optional when
 *                       read (absent keeps the default), omitted when an
 *                       optional is empty;
 *  - required(key, x)   as field, but a missing key is an error;
 *  - extended(key, d)   a double that may be infinite, spelled null;
 *  - named(key, e, ..)  an enum (or a list of them) by name;
 *                       required(key, e, ..) is the required form;
 *  - hex(key, u, pfx)   a 64-bit value as pfx + 16 hex digits, required;
 *  - derived(key, v)    written for readers, type-checked and ignored
 *                       when read;
 *  - object(key, fn)    an inline sub-object described by fn;
 *  - check(ok, key, ..) a condition on what was read (a no-op when
 *                       writing); fails the read with "path.key: reason".
 *
 * A list may branch on what it has read so far (a frame's kind) and on
 * Io::kReading for keys written conditionally but accepted always.
 *
 * Reading never trusts its input: a wrong type, a non-integer or
 * out-of-range integer, or a key the list never names fails with a
 * "path.to.key: reason" message naming the valid keys — a typo'd knob
 * must not silently run the default experiment.
 */

#ifndef GEMINI_API_JSON_READER_HH
#define GEMINI_API_JSON_READER_HH

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/json.hh"

namespace gemini::api {

class ObjectReader;
class ObjectWriter;

namespace wire {

template <class T> struct IsVector : std::false_type {};
template <class T> struct IsVector<std::vector<T>> : std::true_type {};
template <class T> struct IsOptional : std::false_type {};
template <class T> struct IsOptional<std::optional<T>> : std::true_type {};

/** Types that serialize themselves (toJson() / static fromJson()). */
template <class T>
concept SelfSerialized = requires(const T &x, const common::json::Value &v,
                                  std::string *error) {
    { x.toJson() } -> std::same_as<common::json::Value>;
    { T::fromJson(v, error) } -> std::same_as<std::optional<T>>;
};

/**
 * Where a value sits ("result.dse" + ".records" + "[3]"), spelled out
 * only when needed: for an error message or a nested object's reader.
 */
struct Path
{
    const std::string &base;
    const char *key = nullptr;
    std::size_t index = std::string::npos;

    std::string
    str() const
    {
        std::string out = base;
        if (key && *key)
            out.append(".").append(key);
        if (index != std::string::npos)
            out.append("[").append(std::to_string(index)).append("]");
        return out;
    }
};

inline bool
fail(std::string *error, const Path &path, const std::string &reason)
{
    if (error && error->empty())
        *error = path.str() + ": " + reason;
    return false;
}

/** Why a JSON value is not an Int, or nullptr if it is one. */
template <class Int>
const char *
intProblem(const common::json::Value &v, bool in_list)
{
    if (!v.isNumber())
        return in_list ? "expected an array of integers"
                       : "expected an integer";
    const double d = v.asNumber();
    if (d != std::nearbyint(d))
        return in_list ? "expected an array of integers"
                       : "expected an integer (within +/-2^53)";
    // An out-of-range double-to-int cast is undefined behavior, not a
    // saturation.
    if (std::abs(d) > 9.007199254740992e15)
        return in_list ? "integer out of range for this field"
                       : "expected an integer (within +/-2^53)";
    if (d < static_cast<double>(std::numeric_limits<Int>::lowest()) ||
        d > static_cast<double>(std::numeric_limits<Int>::max()) ||
        (std::is_unsigned_v<Int> && d < 0))
        return "integer out of range for this field";
    return nullptr;
}

template <class T>
common::json::Value write(const T &x);

template <class T>
bool read(const common::json::Value &v, const Path &path, T &x,
          std::string *error);

} // namespace wire

/** Appends an object's keys in field-list order. */
class ObjectWriter
{
  public:
    static constexpr bool kReading = false;

    template <class T>
    void
    field(const char *key, T &x)
    {
        if constexpr (wire::IsOptional<std::remove_const_t<T>>::value) {
            if (x)
                put(key, wire::write(*x));
        } else {
            put(key, wire::write(x));
        }
    }

    template <class T>
    void
    required(const char *key, T &x)
    {
        field(key, x);
    }

    template <class E, class Names>
    void
    required(const char *key, E &x, const char *noun, const Names &names)
    {
        named(key, x, noun, names);
    }

    template <class T>
    void
    derived(const char *key, const T &x)
    {
        field(key, x);
    }

    void
    extended(const char *key, double &x)
    {
        put(key, std::isfinite(x) ? common::json::Value(x)
                                  : common::json::Value(nullptr));
    }

    template <class E, class Names>
    void
    named(const char *key, E &x, const char *, const Names &names)
    {
        put(key, nameOf(x, names));
    }

    template <class E, class Names>
    void
    named(const char *key, std::vector<E> &x, const char *,
          const Names &names)
    {
        common::json::Value list = common::json::Value::array();
        for (const E e : x)
            list.push(nameOf(e, names));
        put(key, std::move(list));
    }

    void
    hex(const char *key, std::uint64_t &x, const char *prefix)
    {
        put(key, prefix + common::json::hex64(x));
    }

    template <class Fn>
    void
    object(const char *key, Fn &&describe_fn)
    {
        ObjectWriter sub;
        describe_fn(sub);
        put(key, sub.take());
    }

    void check(bool, const char *, const std::string &) {}

    common::json::Value take() { return std::move(v_); }

  private:
    void
    put(const char *key, common::json::Value v)
    {
        v_.asObject().emplace_back(key, std::move(v));
    }

    template <class E, class Names>
    static const char *
    nameOf(E x, const Names &names)
    {
        for (const auto &[value, name] : names)
            if (value == x)
                return name;
        return "?";
    }

    common::json::Value v_ = common::json::Value::object();
};

/**
 * Extracts an object's keys in field-list order. Absent optional keys
 * keep the C++ default; the first failure records "path.key: reason" in
 * the caller's error string and turns every later call into a no-op, so
 * a list reads straight through and the caller checks once, in finish().
 */
class ObjectReader
{
  public:
    static constexpr bool kReading = true;

    ObjectReader(const common::json::Value &v, std::string path,
                 std::string *error)
        : v_(v), path_(std::move(path)), error_(error)
    {
        if (!v_.isObject())
            fail("", "expected an object");
    }

    bool ok() const { return !failed_; }

    template <class T>
    void
    field(const char *key, T &x)
    {
        if (const common::json::Value *f = request(key))
            readInto(key, *f, x);
    }

    template <class T>
    void
    required(const char *key, T &x)
    {
        if (const common::json::Value *f = require(key))
            readInto(key, *f, x);
    }

    template <class T>
    void
    derived(const char *key, const T &)
    {
        T ignored{};
        field(key, ignored);
    }

    void
    extended(const char *key, double &x)
    {
        const common::json::Value *f = request(key);
        if (!f)
            return;
        if (f->isNull())
            x = std::numeric_limits<double>::infinity();
        else if (f->isNumber())
            x = f->asNumber();
        else
            fail(key, "expected a number or null (= infinity)");
    }

    template <class E, class Names>
    void
    named(const char *key, E &x, const char *noun, const Names &names)
    {
        nameInto(key, request(key), x, noun, names);
    }

    template <class E, class Names>
    void
    required(const char *key, E &x, const char *noun, const Names &names)
    {
        nameInto(key, require(key), x, noun, names);
    }

    template <class E, class Names>
    void
    named(const char *key, std::vector<E> &x, const char *noun,
          const Names &names)
    {
        const common::json::Value *f = request(key);
        if (!f)
            return;
        if (!f->isArray()) {
            fail(key, std::string("expected an array of ") + noun +
                          " names");
            return;
        }
        std::vector<E> parsed(f->asArray().size());
        for (std::size_t i = 0; i < parsed.size(); ++i) {
            const common::json::Value &e = f->asArray()[i];
            if (!e.isString() || !valueOf(e.asString(), names, parsed[i])) {
                fail(key, std::string("unknown ") + noun + " (valid: " +
                              nameList(names) + ")");
                return;
            }
        }
        x = std::move(parsed);
    }

    void
    hex(const char *key, std::uint64_t &x, const char *prefix)
    {
        std::string text;
        required(key, text);
        if (!ok())
            return;
        const std::string_view p(prefix);
        const std::optional<std::uint64_t> v =
            text.compare(0, p.size(), p) == 0
                ? common::json::parseHex64(
                      std::string_view(text).substr(p.size()))
                : std::nullopt;
        if (v)
            x = *v;
        else
            fail(key, p.empty() ? "expected a hex string"
                                : "expected a " + std::string(p) +
                                      "-prefixed hex string");
    }

    template <class Fn>
    void
    object(const char *key, Fn &&describe_fn)
    {
        const common::json::Value *f = request(key);
        if (!f)
            return;
        ObjectReader sub(*f, path_ + "." + key, error_);
        describe_fn(sub);
        if (!sub.finish())
            failed_ = true;
    }

    void
    check(bool condition, const char *key, const std::string &reason)
    {
        if (ok() && !condition)
            fail(key, reason);
    }

    /**
     * Raw access to a required sub-value (an envelope whose checksum
     * covers the raw bytes); nullptr, with the error set, when missing.
     */
    const common::json::Value *
    require(const char *key)
    {
        const common::json::Value *f = request(key);
        if (!f && ok())
            fail(key, "required key is missing");
        return f;
    }

    /** Error on any key the field list never named. */
    bool
    finish()
    {
        if (failed_)
            return false;
        for (const auto &[key, value] : v_.asObject()) {
            if (std::find(requested_.begin(), requested_.end(), key) !=
                requested_.end())
                continue;
            std::string valid;
            for (const std::string_view k : requested_)
                valid.append(valid.empty() ? "" : ", ").append(k);
            return fail(key.c_str(),
                        "unknown key (valid keys: " + valid + ")");
        }
        return true;
    }

  private:
    const common::json::Value *
    request(const char *key)
    {
        if (failed_)
            return nullptr;
        requested_.emplace_back(key);
        return v_.isObject() ? v_.find(key) : nullptr;
    }

    template <class T>
    void
    readInto(const char *key, const common::json::Value &v, T &x)
    {
        if constexpr (wire::IsOptional<T>::value) {
            typename T::value_type parsed{};
            readInto(key, v, parsed);
            if (ok())
                x = std::move(parsed);
        } else if (!wire::read(v, wire::Path{path_, key}, x, error_)) {
            failed_ = true;
        }
    }

    bool
    fail(const char *key, const std::string &reason)
    {
        failed_ = true;
        return wire::fail(error_, wire::Path{path_, key}, reason);
    }

    template <class E, class Names>
    void
    nameInto(const char *key, const common::json::Value *f, E &x,
             const char *noun, const Names &names)
    {
        if (!f)
            return;
        if (!f->isString())
            fail(key, "expected a string");
        else if (!valueOf(f->asString(), names, x))
            fail(key, std::string("unknown ") + noun + " \"" +
                          f->asString() + "\" (valid: " + nameList(names) +
                          ")");
    }

    template <class E, class Names>
    static bool
    valueOf(const std::string &name, const Names &names, E &out)
    {
        for (const auto &[value, n] : names) {
            if (name == n) {
                out = value;
                return true;
            }
        }
        return false;
    }

    template <class Names>
    static std::string
    nameList(const Names &names)
    {
        std::string list;
        for (const auto &[value, name] : names)
            list += (list.empty() ? "" : ", ") + std::string(name);
        return list;
    }

    const common::json::Value &v_;
    std::string path_;
    std::string *error_;
    std::vector<std::string_view> requested_; ///< the list's keys: literals
    bool failed_ = false;
};

namespace wire {

template <class T>
common::json::Value
write(const T &x)
{
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::string>) {
        return common::json::Value(x);
    } else if constexpr (std::is_arithmetic_v<T>) {
        return common::json::Value(static_cast<double>(x));
    } else if constexpr (IsVector<T>::value) {
        common::json::Value list = common::json::Value::array();
        list.asArray().reserve(x.size());
        for (const auto &e : x)
            list.push(write(e));
        return list;
    } else if constexpr (SelfSerialized<T>) {
        return x.toJson();
    } else {
        // The list only reads from x when writing.
        ObjectWriter w;
        describe(w, const_cast<T &>(x));
        return w.take();
    }
}

template <class T>
bool
read(const common::json::Value &v, const Path &path, T &x,
     std::string *error)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return fail(error, path, "expected true or false");
        x = v.asBool();
    } else if constexpr (std::is_same_v<T, double>) {
        if (!v.isNumber())
            return fail(error, path, "expected a number");
        x = v.asNumber();
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return fail(error, path, "expected a string");
        x = v.asString();
    } else if constexpr (std::is_arithmetic_v<T>) {
        if (const char *problem = intProblem<T>(v, false))
            return fail(error, path, problem);
        x = static_cast<T>(v.asNumber());
    } else if constexpr (IsVector<T>::value) {
        using E = typename T::value_type;
        constexpr bool numbers = std::is_arithmetic_v<E>;
        if (!v.isArray())
            return fail(error, path,
                        !numbers ? "expected an array"
                        : std::is_same_v<E, double>
                            ? "expected an array of numbers"
                            : "expected an array of integers");
        T parsed(v.asArray().size());
        const std::string base = numbers ? std::string() : path.str();
        for (std::size_t i = 0; i < parsed.size(); ++i) {
            const common::json::Value &e = v.asArray()[i];
            if constexpr (std::is_same_v<E, double>) {
                if (!e.isNumber())
                    return fail(error, path, "expected an array of numbers");
                parsed[i] = e.asNumber();
            } else if constexpr (numbers) {
                // A bad element is reported at the list's own path.
                if (const char *problem = intProblem<E>(e, true))
                    return fail(error, path, problem);
                parsed[i] = static_cast<E>(e.asNumber());
            } else if (!read(e, Path{base, nullptr, i}, parsed[i], error)) {
                return false;
            }
        }
        x = std::move(parsed);
    } else if constexpr (SelfSerialized<T>) {
        std::optional<T> parsed = T::fromJson(v, error);
        if (!parsed)
            return false;
        x = std::move(*parsed);
    } else {
        ObjectReader r(v, path.str(), error);
        describe(r, x);
        return r.finish();
    }
    return true;
}

} // namespace wire

/** The JSON form of any described value. */
template <class T>
common::json::Value
writeJson(const T &x)
{
    return wire::write(x);
}

/**
 * Read a described value at `path` ("result.dse", ...). `out` is left
 * untouched unless the whole value reads cleanly.
 */
template <class T>
bool
readJson(const common::json::Value &v, const std::string &path, T &out,
         std::string *error)
{
    T parsed{};
    if (!wire::read(v, wire::Path{path}, parsed, error))
        return false;
    out = std::move(parsed);
    return true;
}

} // namespace gemini::api

#endif // GEMINI_API_JSON_READER_HH
