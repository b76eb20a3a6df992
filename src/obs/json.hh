/**
 * @file
 * Minimal JSON support for the observability sinks: a streaming writer
 * (comma/nesting bookkeeping, string escaping, locale-independent
 * numbers), a small recursive-descent parser used by tests to verify
 * that emitted trace/metrics files are well-formed and round-trip, and
 * the one reader of BENCH_<name>.json reports.
 */

#ifndef MFLSTM_OBS_JSON_HH
#define MFLSTM_OBS_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mflstm {
namespace obs {

/** Escape @p s for inclusion inside a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

/** Render a double the way JSON expects (finite; NaN/inf become null). */
std::string jsonNumber(double v);

/**
 * Streaming JSON writer with automatic comma placement. Keys and values
 * must alternate correctly inside objects; the writer asserts nothing
 * and trusts its caller (it is an internal sink, not a public API).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object key; follow with exactly one value or container. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);

  private:
    void separate();

    std::ostream &os_;
    /// one entry per open container: true once a first element was written
    std::vector<bool> hasElement_;
    bool pendingKey_ = false;
};

/** Parsed JSON value (test/verification helper, not a full DOM API). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;  ///< Kind::Array
    std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

    /** First object member with @p key, or nullptr. */
    const JsonValue *find(const std::string &key) const;
};

/** Parse a complete JSON document; nullopt on any syntax error. */
std::optional<JsonValue> parseJson(const std::string &text);

/** Schema name and version of BENCH_<name>.json (bench::BenchReport). */
inline constexpr const char *kBenchSchema = "mflstm.bench";
inline constexpr std::uint64_t kBenchVersion = 1;

/**
 * The metrics of a BENCH_<name>.json report held in @p text: a null
 * metric (a NaN the writer could not spell) reads as NaN.
 * @return nullopt, with the reason in @p why, unless @p text is a JSON
 * object whose `schema` is kBenchSchema, whose `version` is
 * kBenchVersion and whose `metrics` is an object of numbers and nulls.
 */
std::optional<std::map<std::string, double>>
readBenchMetrics(const std::string &text, std::string &why);

} // namespace obs
} // namespace mflstm

#endif // MFLSTM_OBS_JSON_HH
