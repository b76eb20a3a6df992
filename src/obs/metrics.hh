/**
 * @file
 * Metrics registry: named counters, gauges and fixed-bucket histograms
 * registered by the simulator and runtime (DRS rows skipped, CRM
 * compaction ratio, cache hit rate, per-class stall cycles, ...).
 * Instruments are created on first use and owned by the registry;
 * returned references stay valid for the registry's lifetime. Dumps as
 * JSON (machine) or an aligned table (human).
 *
 * Thread safety (serving layer, DESIGN.md §9): every recording path is
 * safe under concurrency — Counter::add / Gauge::set are lock-free
 * atomics, Histogram::observe takes a per-instrument mutex, and
 * instrument creation/lookup takes the registry mutex. References
 * returned by counter()/gauge()/histogram() stay valid and safe to
 * record through from any thread (std::map nodes never move). The
 * dump methods (writeJson / formatTable) snapshot under the registry
 * mutex; concurrent recording during a dump yields a consistent-enough
 * point-in-time view, not a torn data structure.
 */

#ifndef MFLSTM_OBS_METRICS_HH
#define MFLSTM_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mflstm {
namespace obs {

/** Monotonically increasing sum (counts, bytes, cycles). */
class Counter
{
  public:
    void add(double delta = 1.0)
    {
        // CAS loop: atomic<double>::fetch_add is C++20 but not yet
        // reliably lock-free across the toolchains CI builds with.
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed))
            ;
    }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Last-written value (ratios, rates, configuration). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations v with
 * edge[i-1] < v <= edge[i] (upper-inclusive, like Prometheus "le");
 * values above the last edge land in the overflow bucket.
 * observe() and the scalar accessors are thread-safe; buckets()
 * returns a reference and should only be read once writers quiesced
 * (use snapshot() for a concurrent-safe copy).
 */
class Histogram
{
  public:
    /** @param edges strictly ascending upper bounds; must be non-empty. */
    explicit Histogram(std::vector<double> edges);

    /** @return @p count edges spanning [lo, hi] on a log scale. */
    static std::vector<double> exponentialEdges(double lo, double hi,
                                                std::size_t count);

    void observe(double v);

    std::uint64_t count() const;
    double sum() const;
    double min() const;
    double max() const;
    const std::vector<double> &edges() const { return edges_; }
    /** Per-bucket counts; size = edges().size() + 1 (last = overflow).
     *  Quiescent readers only — use snapshot() under concurrency. */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Point-in-time copy of the mutable state. */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::vector<std::uint64_t> buckets;
    };
    Snapshot snapshot() const;

    /**
     * Approximate @p q quantile (0..1) by linear interpolation inside
     * the covering bucket (Prometheus histogram_quantile semantics).
     * Returns 0 for an empty histogram; observations in the overflow
     * bucket clamp to the last edge.
     */
    double quantile(double q) const;

  private:
    std::vector<double> edges_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    mutable std::mutex mu_;
};

/**
 * Label set attached to one series of an instrument family, e.g.
 * {{"replica", "r0"}}. Stored sorted by label name; two series of the
 * same instrument differing only in labels are distinct instruments.
 */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Identifies one (name, labels) series inside the registry. */
struct SeriesKey
{
    std::string name;
    Labels labels;  // sorted by label name

    bool operator<(const SeriesKey &o) const
    {
        if (name != o.name)
            return name < o.name;
        return labels < o.labels;
    }
};

/** Owns every named instrument of one observer. */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /**
     * @p edges is only consulted (and copied) when the histogram does
     * not exist yet, so hot paths pass a long-lived vector.
     */
    Histogram &histogram(const std::string &name,
                         const std::vector<double> &edges);

    /**
     * Labeled series of an instrument family (e.g. per-replica
     * counters in the fleet layer). Labels are sorted internally, so
     * {{"a","1"},{"b","2"}} and {{"b","2"},{"a","1"}} name the same
     * series. The unlabeled overloads are the empty-label series.
     */
    Counter &counter(const std::string &name, Labels labels);
    Gauge &gauge(const std::string &name, Labels labels);
    Histogram &histogram(const std::string &name, Labels labels,
                         const std::vector<double> &edges);

    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;
    const Counter *findCounter(const std::string &name,
                               Labels labels) const;
    const Gauge *findGauge(const std::string &name, Labels labels) const;
    const Histogram *findHistogram(const std::string &name,
                                   Labels labels) const;

    bool empty() const;

    /** Machine dump: {"counters":{...},"gauges":{...},"histograms":{...}} */
    void writeJson(std::ostream &os) const;

    /**
     * Prometheus text exposition format (version 0.0.4): counters and
     * gauges as scalar samples, histograms as cumulative `_bucket`
     * series with `le` labels plus `_sum`/`_count`. Instrument names
     * are sanitised to the Prometheus charset ([a-zA-Z0-9_:], leading
     * digits prefixed) — "serve.queue_ms" becomes "serve_queue_ms".
     * Labeled series render as name{k="v",...}; label values are
     * escaped per the exposition spec (backslash, quote, newline), and
     * one # TYPE line covers every series of the same family.
     */
    void writePrometheus(std::ostream &os) const;

    /** Human dump: one aligned line per instrument, sorted by name. */
    std::string formatTable() const;

  private:
    std::map<SeriesKey, Counter> counters_;
    std::map<SeriesKey, Gauge> gauges_;
    std::map<SeriesKey, Histogram> histograms_;
    mutable std::mutex mu_;
};

} // namespace obs
} // namespace mflstm

#endif // MFLSTM_OBS_METRICS_HH
