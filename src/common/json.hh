/**
 * @file
 * Minimal dependency-free JSON reader/writer.
 *
 * The declarative experiment layer (sim/config_io, harness/spec) needs
 * to parse spec files and emit machine-readable results without pulling
 * in an external library. This is a small, strict JSON implementation:
 *
 *  - values are null / bool / number / string / array / object;
 *  - objects preserve insertion order (serialization is stable, so a
 *    config can round-trip byte-for-byte);
 *  - integers that fit in 64 bits are kept exact (cycle counts and
 *    instruction budgets exceed double's 2^53 integer range);
 *  - parse errors throw SimError with line/column context so a bad
 *    spec file is a recoverable, diagnosable failure — not an abort.
 *
 * No streaming, no comments, no NaN/Inf: specs and results are small
 * and strict JSON keeps them interoperable (python -m json.tool, jq).
 */

#ifndef STFM_COMMON_JSON_HH
#define STFM_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stfm
{

class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Int,    ///< Exact 64-bit integer (no '.', 'e' in the literal).
        Double, ///< Any other number.
        String,
        Array,
        Object,
    };

    using Array = std::vector<Json>;
    /** Insertion-ordered key/value pairs; keys are unique. */
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(std::int64_t i) : type_(Type::Int), int_(i) {}
    Json(int i) : Json(static_cast<std::int64_t>(i)) {}
    Json(unsigned u) : Json(static_cast<std::int64_t>(u)) {}
    Json(std::uint64_t u);
    Json(double d) : type_(Type::Double), double_(d) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
    Json(const char *s) : Json(std::string(s)) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Double;
    }
    bool isInt() const { return type_ == Type::Int; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /**
     * Typed accessors. @p context names the value in SimError messages
     * ("spec.memory.channels"), so callers get actionable diagnostics.
     * All throw SimError on a type (or range) mismatch.
     */
    bool asBool(const std::string &context = "value") const;
    std::int64_t asInt(const std::string &context = "value") const;
    std::uint64_t asUint(const std::string &context = "value") const;
    /** asUint() that must also fit a 32-bit field. */
    unsigned asUint32(const std::string &context = "value") const;
    double asDouble(const std::string &context = "value") const;
    const std::string &asString(const std::string &context = "value") const;
    const Array &asArray(const std::string &context = "value") const;
    const Object &asObject(const std::string &context = "value") const;

    // Array building / access ----------------------------------------
    void push(Json value);
    std::size_t size() const;
    const Json &at(std::size_t index) const;

    // Object building / access ---------------------------------------
    /** Insert or overwrite @p key (insertion order kept on insert). */
    void set(const std::string &key, Json value);
    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;
    bool has(const std::string &key) const { return find(key) != nullptr; }
    /** Member lookup that throws SimError when the key is missing. */
    const Json &at(const std::string &key,
                   const std::string &context = "object") const;

    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const { return !(*this == other); }

    /**
     * Serialize. @p indent < 0 emits compact one-line JSON; >= 0
     * pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /** Parse strict JSON. @throws SimError with line:column context. */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/**
 * Write @p json pretty-printed (2-space indent, trailing newline) to
 * @p path — the one writer behind every machine-readable artifact the
 * simulator emits (results, reports, telemetry, traces).
 * @throws SimError on I/O failure.
 */
void writeJsonFile(const Json &json, const std::string &path);

} // namespace stfm

#endif // STFM_COMMON_JSON_HH
