/**
 * @file
 * Span recorder for the traced run. Spans are recorded in the
 * benchmark's own code around each call into a library layer: name,
 * layer, start, end, parent span and request id. They stay in memory
 * and are written out once, at the end. A null recorder (the untraced
 * runs) makes every Scope a no-op.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

/** The library modules spans are attributed to. */
inline const char *const kLayers[] = {
    "workloads", "io",   "nn",  "tensor", "quant", "core",
    "runtime",   "gpu",  "hw",  "obs",    "sched", "serve"};

struct SpanRecord
{
    std::string name;
    const char *layer = "";
    double startUs = 0.0;
    double endUs = 0.0;
    std::int64_t parent = -1;   ///< index of the enclosing span
    std::uint64_t requestId = 0;
    int thread = 0;
};

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder() : epoch_(Clock::now()) {}
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    double nowUs() const { return toUs(Clock::now()); }
    double toUs(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }

    /** RAII span around one call; nested scopes become children. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, const char *layer, const char *name,
              std::uint64_t request_id = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        std::int64_t index_ = -1;
        std::int64_t savedParent_ = -1;
    };

    /** Record a finished span, e.g. one reconstructed from a Response. */
    std::int64_t add(SpanRecord span);

    std::size_t size() const;

    /**
     * Self time per layer, ms, over spans that start at or after
     * @p from_us: a span's duration minus the part its children cover.
     */
    std::map<std::string, double> selfMsByLayer(double from_us) const;

    /** Durations, ms, of spans named @p name starting at or after
     *  @p from_us. */
    std::vector<double> durationsMs(const std::string &name,
                                    double from_us) const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
