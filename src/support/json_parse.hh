/**
 * @file
 * A strict recursive-descent JSON parser.
 *
 * Counterpart of the JsonWriter in support/json.hh: the serve protocol,
 * the DesignRequest/DesignResponse API and the bench request-file replay
 * all deserialize through this. Deliberately strict — RFC 8259 only, no
 * comments, no trailing commas, full-input consumption — because every
 * payload it sees crosses a process boundary, and boundary inputs are
 * validated, not trusted.
 *
 * Numbers are held as doubles (like JavaScript); asInt()/asUint() check
 * that the value is integral and in range, so protocol code gets typed
 * integers without silent truncation.
 */

#ifndef AUTOFSM_SUPPORT_JSON_PARSE_HH
#define AUTOFSM_SUPPORT_JSON_PARSE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autofsm
{

/** One parsed JSON value; a small closed variant. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Object members, in document order (duplicate keys rejected). */
    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    /**
     * Parse @p text as one complete JSON document.
     *
     * @throws std::invalid_argument on any syntax error, trailing
     *         garbage, duplicate object key, or nesting beyond 64
     *         levels (a cheap stack-overflow guard for hostile input).
     */
    static JsonValue parse(std::string_view text);

    Kind kind() const { return kind_; }

    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @name Checked accessors.
     * Each throws std::invalid_argument when the kind does not match.
     */
    /// @{
    bool asBool() const;
    double asNumber() const;
    /** The number as int64; throws when non-integral or out of range. */
    int64_t asInt() const;
    /** The number as uint64; throws when non-integral or negative. */
    uint64_t asUint() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &items() const;
    const std::vector<Member> &members() const;
    /// @}

    /** Member value of @p key, or nullptr (object kind only). */
    const JsonValue *find(std::string_view key) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/** Stable lower-case name of @p kind ("null", "bool", ...). */
const char *jsonKindName(JsonValue::Kind kind);

} // namespace autofsm

#endif // AUTOFSM_SUPPORT_JSON_PARSE_HH
