#include "arith.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace hostbench {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
SplitMix64::below(std::uint64_t n)
{
    return next() % n;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    SplitMix64 g(seed ^ (stream * 0xd1b54a32d192ed03ull));
    return g.next();
}

namespace {

/** 1-based nearest rank of @p pct in @p n samples, clamped to [1, n]. */
std::size_t
nearestRank(double pct, std::size_t n)
{
    // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
    const double r = std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                   1, n);
}

} // anonymous namespace

double
percentile(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0.0;
    const std::size_t rank = nearestRank(pct, xs.size());
    std::nth_element(xs.begin(), xs.begin() + (rank - 1), xs.end());
    return xs[rank - 1];
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
tailPercentile(std::size_t n, double cap)
{
    static const double kLadder[] = {99.9, 99.0, 98.0, 95.0,
                                     90.0, 75.0, 50.0};
    for (double p : kLadder) {
        if (p > cap)
            continue;
        if (n > 0 && n - nearestRank(p, n) >= 10)
            return p;
    }
    return 0.0;
}

std::vector<double>
bestOfPasses(const std::vector<std::vector<double>> &passes)
{
    if (passes.empty())
        return {};
    std::vector<double> best = passes.front();
    for (const std::vector<double> &p : passes) {
        for (std::size_t i = 0; i < std::min(best.size(), p.size()); ++i)
            best[i] = std::min(best[i], p[i]);
    }
    return best;
}

double
opsPerSecond(const std::vector<double> &op_ms)
{
    double total_ms = 0.0;
    for (double ms : op_ms)
        total_ms += ms;
    return total_ms > 0.0
               ? 1000.0 * static_cast<double>(op_ms.size()) / total_ms
               : 0.0;
}

Summary
summarize(const std::vector<double> &xs, double tail_cap)
{
    Summary s;
    s.n = xs.size();
    s.p50 = percentile(xs, 50.0);
    s.tailPct = tailPercentile(xs.size(), tail_cap);
    s.tail = s.tailPct > 0.0 ? percentile(xs, s.tailPct) : 0.0;
    return s;
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 1099511628211ull;
    }
}

Digest &
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
}

Digest &
Digest::add(std::uint64_t v)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof b);
    return *this;
}

Digest &
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
    return *this;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

} // namespace hostbench
