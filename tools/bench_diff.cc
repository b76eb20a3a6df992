/**
 * @file
 * Bench-report comparator: diffs two BENCH_<name>.json files (or two
 * directories of them, matched by filename) produced by the shared
 * bench::BenchReport writer, prints a per-metric delta table and fails
 * when any one metric regresses beyond the tolerance.
 *
 * Direction convention: a metric is lower-is-better when its dotted
 * path ends in a cost suffix (_us, _ms, _ns, _bytes, _j, _cycles,
 * _loss_pct, _overhead_pct); everything else — speedups, accuracies,
 * scores, compression factors — is higher-is-better. A metric
 * regresses when its ratio current/baseline, oriented so that >1 means
 * "got better", falls below 1 - tolerance (default 5%). A metric with a
 * finite baseline also regresses when the current value is missing or
 * non-finite, or when a nonzero baseline crosses zero in the worse
 * direction; a zero or non-finite baseline has no relative tolerance
 * and is printed only. In directory mode a baseline report missing from
 * the current directory fails the gate too.
 *
 * Exit codes:
 *   0  within tolerance
 *   1  a metric regressed beyond tolerance, or a report is missing
 *   2  usage error, unreadable input, or schema mismatch
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace {

using namespace mflstm;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_diff [--tolerance-pct P] <baseline> <current>\n"
        "  <baseline>/<current>: a BENCH_*.json file, or a directory\n"
        "  of them (matched pairwise by filename)\n"
        "  --tolerance-pct P: allowed per-metric regression, default 5\n");
    std::exit(2);
}

/** One BENCH_<name>.json report: metric -> value. */
using Metrics = std::map<std::string, double>;

Metrics
loadBenchFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "bench_diff: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::stringstream ss;
    ss << is.rdbuf();
    std::string why;
    std::optional<Metrics> metrics = obs::readBenchMetrics(ss.str(), why);
    if (!metrics) {
        std::fprintf(stderr, "bench_diff: %s: %s\n", path.c_str(),
                     why.c_str());
        std::exit(2);
    }
    return std::move(*metrics);
}

/** Metric direction from the path suffix (see file comment). */
bool
lowerIsBetter(const std::string &metric)
{
    static const char *const kCostSuffixes[] = {
        "_us",       "_ms",          "_ns",          "_bytes",
        "_j",        "_cycles",      "_loss_pct",    "_overhead_pct",
    };
    for (const char *suffix : kCostSuffixes) {
        const std::size_t n = std::strlen(suffix);
        if (metric.size() >= n &&
            metric.compare(metric.size() - n, n, suffix) == 0) {
            return true;
        }
    }
    return false;
}

struct DiffStats
{
    std::size_t regressions = 0;
    std::size_t compared = 0;
    std::size_t missingReports = 0;
};

void
diffOne(const std::string &label, const Metrics &base,
        const Metrics &cur, double tolerance_pct, DiffStats &stats)
{
    std::printf("== %s ==\n", label.c_str());
    std::printf("%-44s %14s %14s %9s\n", "metric", "baseline",
                "current", "delta");

    std::set<std::string> keys;
    for (const auto &[k, v] : base)
        keys.insert(k);
    for (const auto &[k, v] : cur)
        keys.insert(k);

    for (const std::string &k : keys) {
        const auto b = base.find(k);
        const auto c = cur.find(k);
        if (b == base.end()) {
            std::printf("%-44s %14s %14.6g %9s\n", k.c_str(), "-",
                        c->second, "new");
            continue;
        }
        if (c == cur.end()) {
            const bool worse = std::isfinite(b->second);
            if (worse)
                ++stats.regressions;
            std::printf("%-44s %14.6g %14s %9s%s\n", k.c_str(),
                        b->second, "-", "gone",
                        worse ? "  <-- worse" : "");
            continue;
        }
        ++stats.compared;
        const double bv = b->second, cv = c->second;
        const bool lower = lowerIsBetter(k);
        if (bv == 0.0 || cv == 0.0 || bv * cv < 0.0 ||
            !std::isfinite(bv) || !std::isfinite(cv)) {
            // No meaningful ratio. A finite baseline that turned
            // non-finite, or a nonzero one that reached zero or flipped
            // sign in the worse direction, is a regression.
            const bool worse =
                std::isfinite(bv) &&
                (!std::isfinite(cv) ||
                 (bv != 0.0 && (lower ? cv > bv : cv < bv)));
            if (worse)
                ++stats.regressions;
            std::printf("%-44s %14.6g %14.6g %9s%s\n", k.c_str(), bv,
                        cv, bv == cv ? "=" : "n/a",
                        worse ? "  <-- worse" : "");
            continue;
        }
        const double delta_pct = 100.0 * (cv - bv) / std::fabs(bv);
        const double goodness =
            lower ? std::fabs(bv / cv) : std::fabs(cv / bv);
        const bool worse = goodness < 1.0 - tolerance_pct / 100.0;
        if (worse)
            ++stats.regressions;
        std::printf("%-44s %14.6g %14.6g %+8.2f%%%s\n", k.c_str(), bv,
                    cv, delta_pct, worse ? "  <-- worse" : "");
    }
    std::printf("\n");
}

/** BENCH_*.json files directly inside @p dir, sorted by filename. */
std::vector<std::string>
benchFilesIn(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string fn = entry.path().filename().string();
        if (fn.rfind("BENCH_", 0) == 0 &&
            fn.size() > 5 + 5 &&  // "BENCH_" ... ".json"
            fn.compare(fn.size() - 5, 5, ".json") == 0) {
            names.push_back(fn);
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    double tolerance_pct = 5.0;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tolerance-pct") {
            if (i + 1 >= argc)
                usage();
            char *end = nullptr;
            tolerance_pct = std::strtod(argv[++i], &end);
            if (end == nullptr || *end != '\0' || tolerance_pct < 0.0)
                usage();
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        usage();

    const bool base_dir = std::filesystem::is_directory(paths[0]);
    const bool cur_dir = std::filesystem::is_directory(paths[1]);
    if (base_dir != cur_dir) {
        std::fprintf(stderr,
                     "bench_diff: %s and %s must both be files or both "
                     "be directories\n",
                     paths[0].c_str(), paths[1].c_str());
        return 2;
    }

    DiffStats stats;
    if (!base_dir) {
        diffOne(paths[1], loadBenchFile(paths[0]),
                loadBenchFile(paths[1]), tolerance_pct, stats);
    } else {
        const std::vector<std::string> base_files =
            benchFilesIn(paths[0]);
        const std::vector<std::string> cur_files = benchFilesIn(paths[1]);
        std::size_t matched = 0;
        for (const std::string &fn : base_files) {
            if (std::find(cur_files.begin(), cur_files.end(), fn) ==
                cur_files.end()) {
                std::fprintf(stderr,
                             "bench_diff: %s only in baseline dir\n",
                             fn.c_str());
                ++stats.missingReports;
                continue;
            }
            ++matched;
            diffOne(fn, loadBenchFile(paths[0] + "/" + fn),
                    loadBenchFile(paths[1] + "/" + fn), tolerance_pct,
                    stats);
        }
        for (const std::string &fn : cur_files) {
            if (std::find(base_files.begin(), base_files.end(), fn) ==
                base_files.end()) {
                std::fprintf(stderr,
                             "bench_diff: %s only in current dir\n",
                             fn.c_str());
            }
        }
        if (matched == 0) {
            std::fprintf(stderr,
                         "bench_diff: no BENCH_*.json pair matched\n");
            return 2;
        }
    }

    std::printf("%zu metrics compared, %zu beyond tolerance (%.1f%%)\n",
                stats.compared, stats.regressions, tolerance_pct);
    if (stats.regressions)
        std::printf("REGRESSION: %zu metric(s) worsened by more than "
                    "%.1f%%\n",
                    stats.regressions, tolerance_pct);
    if (stats.missingReports)
        std::printf("REGRESSION: %zu baseline report(s) missing from "
                    "the current directory\n",
                    stats.missingReports);
    if (stats.regressions || stats.missingReports)
        return 1;
    std::printf("OK\n");
    return 0;
}
