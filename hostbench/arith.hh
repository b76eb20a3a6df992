/**
 * @file
 * The benchmark's own arithmetic, kept apart from the library so the
 * test binary can check it: a seeded generator, percentile and
 * tail-percentile rules, failure tallies and the output digest the
 * reference check compares.
 */

#ifndef HOSTBENCH_ARITH_HH
#define HOSTBENCH_ARITH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

/** SplitMix64: small, portable, and identical on every platform. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** A derived seed for one independent stream of @p seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** One open-loop request: when it is due and which pooled input. */
struct Arrival
{
    double dueS = 0.0;      ///< seconds after the phase starts
    std::size_t item = 0;   ///< index into the request pool
};

/** Nearest-rank percentile @p pct (0-100] of @p xs (any order). */
double percentile(std::vector<double> xs, double pct);

/** Median of @p xs (mean of the two middle values when even). */
double median(std::vector<double> xs);

/**
 * The tail percentile reported for @p n samples: the highest of
 * 99.9, 99, 98, 95, 90, 75 and 50 that is at most @p cap and leaves at
 * least ten samples beyond its nearest rank. 0 when even the median
 * leaves fewer than ten.
 */
double tailPercentile(std::size_t n, double cap);

/**
 * Element-wise minimum over passes that repeat the same operations in
 * the same order: entry i is operation i's best time. Passes shorter
 * than the first are ignored for the entries they lack.
 */
std::vector<double>
bestOfPasses(const std::vector<std::vector<double>> &passes);

/** Operations per second when operation i takes @p op_ms[i] ms. */
double opsPerSecond(const std::vector<double> &op_ms);

/** Median and tail of one latency sample set. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double tailPct = 0.0;  ///< chosen by tailPercentile
    double tail = 0.0;
};

Summary summarize(const std::vector<double> &xs, double tail_cap);

/** Operations attempted and failed (wrong, refused or errored). */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(bool ok, std::uint64_t count = 1)
    {
        attempted += count;
        if (!ok)
            failed += count;
    }
    void merge(const Tally &o)
    {
        attempted += o.attempted;
        failed += o.failed;
    }
    double errorFrac() const
    {
        return attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
    }
};

/** FNV-1a over exact value bits: equal digests mean equal outputs. */
class Digest
{
  public:
    Digest &add(double v);
    Digest &add(std::uint64_t v);
    Digest &add(const std::string &s);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    void bytes(const void *p, std::size_t n);
    std::uint64_t h_ = 1469598103934665603ull;
};

} // namespace hostbench

#endif // HOSTBENCH_ARITH_HH
