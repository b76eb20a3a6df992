/**
 * @file
 * hostbench: host-clock benchmark of the library's public API.
 *
 *   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --cache-dir <dir> --out-dir <dir> --refs-dir <dir>
 *             [--commit <id>] [--source-hash <hex>]
 *   hostbench --fill-cache --cache-dir <dir>
 *   hostbench --record-refs --workload <name> --cache-dir <dir>
 *             --refs-dir <dir>
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. run.py builds this
 * binary and fills the model cache before calling it.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.hh"
#include "hw/backend.hh"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif
#ifndef HOSTBENCH_FLAGS
#define HOSTBENCH_FLAGS "unknown"
#endif

namespace hostbench {

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},    {"lat_p50_ms", "ms"}, {"lat_tail_ms", "ms"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"core.eval_accuracy_ms", "ms"},
    {"core.approx_seq_us", "us"},
    {"nn.exact_seq_us", "us"},
    {"tensor.gemv_ns.h40", "ns"},
    {"tensor.gemv_ns.h48", "ns"},
    {"tensor.gemv_ns.h56", "ns"},
    {"core.rows_skipped_frac", "frac"},
    {"core.links_broken_frac", "frac"},
    {"core.evaluate_timing_ms", "ms"},
    {"core.executor_runs_per_eval", "count"},
    {"runtime.lower_us", "us"},
    {"runtime.kernels_per_run", "count"},
    {"gpu.run_trace_us", "us"},
    {"gpu.sim_kernels_per_s", "1/s"},
    {"obs.executor_overhead_x", "x"},
    {"obs.trace_spans", "count"},
    {"sched.tune_ms", "ms"},
    {"sched.candidates", "count"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.tail", "ms"},
    {"serve.batch_wait_ms.p50", "ms"},
    {"serve.batch_wait_ms.tail", "ms"},
    {"serve.exec_ms.p50", "ms"},
    {"serve.exec_ms.tail", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.shed_frac", "frac"},
    {"serve.generator_late_ms", "ms"},
    {"serve.offered_rps", "1/s"},
    {"serve.achieved_rps", "1/s"},
    {"quant.twin_rebuild_ms", "ms"},
    {"core.calibrate_ms", "ms"},
    {"io.load_model_ms", "ms"},
    {"workloads.make_task_ms", "ms"},
    {"self_ms.workloads", "ms"},
    {"self_ms.io", "ms"},
    {"self_ms.nn", "ms"},
    {"self_ms.tensor", "ms"},
    {"self_ms.quant", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.runtime", "ms"},
    {"self_ms.gpu", "ms"},
    {"self_ms.hw", "ms"},
    {"self_ms.obs", "ms"},
    {"self_ms.sched", "ms"},
    {"self_ms.serve", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.covered_frac", "frac"},
};

/** Per-call layer metrics taken as the median of one span name. */
const std::pair<const char *, const char *> kSpanMetrics[] = {
    {"core.eval_accuracy_ms", "core.evalAccuracy"},
    {"core.evaluate_timing_ms", "core.evaluateTiming"},
    {"sched.tune_ms", "sched.tune"},
    {"core.calibrate_ms", "core.calibrate"},
    {"io.load_model_ms", "io.loadModel"},
    {"workloads.make_task_ms", "workloads.makeTask"},
};

std::string
cpuModel()
{
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned int i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Args
{
    Options o;
    bool fillCache = false;
    std::string commit = "unknown";
    std::string sourceHash = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--fill-cache") {
            a.fillCache = true;
            continue;
        }
        if (k == "--record-refs") {
            a.o.recordRefs = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--workload")
            a.o.workload = v;
        else if (k == "--seed")
            a.o.seed = std::stoull(v);
        else if (k == "--seconds")
            a.o.seconds = std::stod(v);
        else if (k == "--trace")
            a.o.trace = v == "1";
        else if (k == "--cache-dir")
            a.o.cacheDir = v;
        else if (k == "--out-dir")
            a.o.outDir = v;
        else if (k == "--refs-dir")
            a.o.refsDir = v;
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--source-hash")
            a.sourceHash = v;
        else
            return false;
    }
    return !a.o.cacheDir.empty() &&
           (a.fillCache || (!a.o.workload.empty() && !a.o.refsDir.empty() &&
                            a.o.seconds > 0.0));
}

std::string
provenance(const Args &a)
{
    std::ostringstream os;
    os << "{\"commit\":" << jsonString(a.commit)
       << ",\"source_hash\":" << jsonString(a.sourceHash)
       << ",\"build_type\":" << jsonString(HOSTBENCH_BUILD_TYPE)
       << ",\"compiler\":" << jsonString(HOSTBENCH_COMPILER)
       << ",\"flags\":" << jsonString(HOSTBENCH_FLAGS)
       << ",\"cpu\":" << jsonString(cpuModel())
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"backends\":[";
    bool first = true;
    for (const hw::Backend &b : hw::registry().entries()) {
        os << (first ? "" : ",")
           << jsonString(b.id + "@r" + std::to_string(b.revision));
        first = false;
    }
    os << "],\"workload\":" << jsonString(a.o.workload)
       << ",\"seed\":" << a.o.seed << ",\"variant\":" << a.o.variant()
       << ",\"seconds\":" << jsonNumber(a.o.seconds)
       << ",\"trace\":" << (a.o.trace ? 1 : 0)
       << ",\"model_cache\":"
       << jsonString(modelCacheFingerprint(a.o.cacheDir)) << "}";
    return os.str();
}

/** Median span durations and per-layer self times of the whole run. */
void
recordSpanMetrics(const SpanRecorder &rec, LayerValues &layer)
{
    for (const auto &[metric, span] : kSpanMetrics)
        layer[metric] = median(rec.durationsMs(span, 0.0));
    for (const auto &[l, ms] : rec.selfMsByLayer(0.0))
        layer["self_ms." + l] = ms;
}

} // anonymous namespace

} // namespace hostbench

int
main(int argc, char **argv)
{
    using namespace hostbench;
    // Keep freed heap in the process: every pass allocates and frees an
    // observer's spans, and returning those pages to the kernel makes
    // the next pass pay page faults whose cost varies from run to run.
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    Args a;
    try {
        if (!parseArgs(argc, argv, a)) {
            std::fprintf(stderr, "usage: see the header of main.cc\n");
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bad argument: %s\n", e.what());
        return 2;
    }
    if (a.fillCache) {
        const double t0 = nowS();
        const std::size_t trained = fillModelCache(a.o.cacheDir);
        std::printf("{\"fill_cache_s\": %s, \"trained\": %zu}\n",
                    jsonNumber(nowS() - t0).c_str(), trained);
        return 0;
    }

    SpanRecorder recorder;
    SpanRecorder *rec = a.o.trace ? &recorder : nullptr;
    Measured m;
    try {
        if (a.o.workload == "repro-sweep")
            m = runReproSweep(a.o, rec);
        else if (a.o.workload == "tune-plan")
            m = runTunePlan(a.o, rec);
        else if (a.o.workload == "serve-closed")
            m = runServe(a.o, rec);
        else {
            std::fprintf(stderr, "unknown workload %s\n",
                         a.o.workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
    if (a.o.recordRefs)
        return m.tally.failed ? 1 : 0;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const Summary &lat = m.lat;
    LayerValues values;
    if (a.o.trace) {
        values = m.layer;
        recordSpanMetrics(recorder, values);
    } else {
        values["ops_per_s"] = m.opsPerS;
        values["lat_p50_ms"] = lat.p50;
        values["lat_tail_ms"] = lat.tail;
        values["setup_s"] = median(m.setupS);
        values["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }

    bool correct = m.tally.failed == 0 && m.tally.attempted > 0;
    std::string metrics;
    const auto emit = [&](const MetricDef &d) {
        const auto it = values.find(d.name);
        double v = it == values.end() ? NAN : it->second;
        if (!std::isfinite(v)) {
            m.notes.push_back(std::string("metric ") + d.name +
                              " was not measured");
            correct = false;
            v = 0.0;
        }
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
                   d.name + "\": {\"value\": " + jsonNumber(v) +
                   ", \"unit\": \"" + d.unit + "\"}";
    };
    if (a.o.trace) {
        for (const MetricDef &d : kPerLayer)
            emit(d);
    } else {
        for (const MetricDef &d : kEndToEnd)
            emit(d);
    }

    const std::string prov = provenance(a);
    const std::string tag = a.o.workload + "-s" + std::to_string(a.o.seed) +
                            (a.o.trace ? "-traced" : "");
    std::error_code ec;
    std::filesystem::create_directories(a.o.outDir, ec);
    if (a.o.trace)
        recorder.writeChromeTrace(a.o.outDir + "/trace-" + tag + ".json");

    for (const std::string &n : m.notes)
        std::printf("note: %s\n", n.c_str());
    std::printf("provenance: %s\n", prov.c_str());
    std::printf("operations: %llu attempted, %llu failed, error_frac %s; "
                "latency n=%zu p50 %.4f ms, p%g %.4f ms\n",
                static_cast<unsigned long long>(m.tally.attempted),
                static_cast<unsigned long long>(m.tally.failed),
                jsonNumber(m.tally.errorFrac()).c_str(), lat.n, lat.p50,
                lat.tailPct, lat.tail);
    std::printf("passes: %zu, ops/s each:", m.passRates.size());
    for (double r : m.passRates)
        std::printf(" %.3f", r);
    std::printf("\n");

    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << m.tally.attempted
           << ", \"failed\": " << m.tally.failed << ", \"metrics\": {"
           << metrics << "}}";
    std::string layer;
    for (double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
        layer += std::string(layer.empty() ? "" : ", ") + "\"lat_p" +
                 std::to_string(static_cast<int>(p)) +
                 "_ms\": " + jsonNumber(percentile(m.latMs, p));
    }
    for (const auto &[k, v] : m.layer) {
        layer += std::string(layer.empty() ? "" : ", ") + jsonString(k) +
                 ": " + (std::isfinite(v) ? jsonNumber(v) : "null");
    }
    std::ofstream(a.o.outDir + "/result-" + tag + ".json")
        << "{\"provenance\": " << prov << ", \"error_frac\": "
        << jsonNumber(m.tally.errorFrac()) << ", \"tail_pct\": "
        << jsonNumber(lat.tailPct) << ", \"latency_samples\": " << lat.n
        << ", \"layer\": {" << layer << "}, \"result\": " << result.str()
        << "}\n";
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
    return 0;
}
