/**
 * @file
 * Tests of the benchmark's own arithmetic: the tail-percentile rule,
 * failure counting, and the determinism of the seeded request mix. Exits non-zero on the first failed check.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "arith.hh"

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<double>
oneToN(std::size_t n)
{
    std::vector<double> xs;
    for (std::size_t i = n; i >= 1; --i)
        xs.push_back(static_cast<double>(i));
    return xs;
}

void
testTailRule()
{
    using hostbench::tailPercentile;
    // p99 of 1000 samples has rank 990: exactly ten beyond it.
    expect(tailPercentile(1000, 99.9) == 99.0, "1000 samples -> p99");
    // 999 samples: rank 990 leaves nine beyond, so p98 (rank 980).
    expect(tailPercentile(999, 99.9) == 98.0, "999 samples -> p98");
    expect(tailPercentile(10000, 99.9) == 99.9, "10000 samples -> p99.9");
    expect(tailPercentile(10000, 95.0) == 95.0, "cap holds");
    expect(tailPercentile(200, 99.9) == 95.0, "200 samples -> p95");
    expect(tailPercentile(15, 99.9) == 0.0, "15 samples -> none");
    expect(tailPercentile(20, 99.9) == 50.0, "20 samples -> median");

    const hostbench::Summary s = hostbench::summarize(oneToN(1000), 99.9);
    expect(s.n == 1000 && s.tailPct == 99.0 && s.tail == 990.0,
           "summary tail is the nearest-rank p99");
    expect(s.p50 == 500.0, "summary p50 is nearest-rank");
    std::size_t beyond = 0;
    for (double x : oneToN(1000))
        beyond += x > s.tail;
    expect(beyond >= 10, "at least ten samples beyond the tail");
    expect(hostbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
}

void
testBestOfPasses()
{
    using hostbench::bestOfPasses;
    const auto best = bestOfPasses({{5.0, 2.0, 9.0}, {4.0, 3.0, 9.5},
                                    {6.0, 1.0}});
    expect(best.size() == 3 && best[0] == 4.0 && best[1] == 1.0 &&
               best[2] == 9.0,
           "best of passes is the per-operation minimum");
    expect(bestOfPasses({}).empty(), "no passes, no operations");
    expect(hostbench::opsPerSecond(best) == 3000.0 / 14.0,
           "throughput is operations over their summed time");
    expect(hostbench::opsPerSecond({}) == 0.0, "no operations, no rate");
}

void
testTally()
{
    hostbench::Tally t;
    t.add(true);
    t.add(false, 3);
    t.add(true, 6);
    expect(t.attempted == 10 && t.failed == 3, "tally counts");
    expect(std::fabs(t.errorFrac() - 0.3) < 1e-15, "error fraction");
    hostbench::Tally u;
    expect(u.errorFrac() == 0.0, "empty tally has no errors");
    u.add(false);
    u.merge(t);
    expect(u.attempted == 11 && u.failed == 4, "merge adds both counts");
}

void
testMix()
{
    // serve-closed draws each request from the pool with below().
    auto picks = [](std::uint64_t seed) {
        hostbench::SplitMix64 g(seed);
        std::vector<std::uint64_t> v;
        for (int i = 0; i < 4000; ++i)
            v.push_back(g.below(256));
        return v;
    };
    const auto a = picks(42);
    expect(a == picks(42), "same seed, identical request mix");
    expect(a != picks(43), "another seed, another request mix");
    std::vector<int> hits(256, 0);
    bool in_range = true;
    for (const std::uint64_t x : a) {
        in_range = in_range && x < 256;
        if (x < 256)
            ++hits[x];
    }
    expect(in_range, "picks inside the pool");
    // 4000 picks, ~15.6 per item: every item drawn.
    expect(*std::min_element(hits.begin(), hits.end()) > 0,
           "every pool item drawn");

    // Pinned value: the generator must not drift between versions.
    hostbench::SplitMix64 g(0);
    expect(g.next() == 0xe220a8397b1dcdafull, "splitmix64 reference value");
}

void
testDigest()
{
    hostbench::Digest a, b, c;
    a.add(1.0).add(std::string("x"));
    b.add(1.0).add(std::string("x"));
    c.add(std::nextafter(1.0, 2.0)).add(std::string("x"));
    expect(a.value() == b.value(), "equal inputs, equal digests");
    expect(a.value() != c.value(), "one ulp changes the digest");
    expect(a.hex().size() == 16, "digest hex is 16 digits");
}

} // anonymous namespace

int
main()
{
    testTailRule();
    testBestOfPasses();
    testTally();
    testMix();
    testDigest();
    if (failures == 0)
        std::printf("hostbench_arith_test: all checks passed\n");
    return failures ? EXIT_FAILURE : EXIT_SUCCESS;
}
