/**
 * @file
 * Cross-backend sweep and acceptance gate (DESIGN.md §17): every hw
 * registry backend runs the six Table II applications at {fp32, int8,
 * int4} through three representative schedules — dense streaming, the
 * paper's DRS + CRM tissue flow, and a shared-memory resident plan —
 * answering "what does DRS buy on hardware built for weight reuse?".
 * Pure simulation (synthetic shapes, a fixed representative skip
 * fraction, no trained models), so the whole table is deterministic
 * and byte-identical across runs.
 *
 * Gates (exit 1 on violation):
 *   - on dp4a, int4 must run *strictly* faster than fp32 on every app
 *     and every schedule (the dot units make narrowing free, so the
 *     bytes win must show up as time);
 *   - with `--check FILE`, every `tx1.*` metric in FILE (the committed
 *     baseline) must reproduce byte-identically — the compatibility
 *     anchor never moves when new backends are added.
 *
 * Positional arguments filter the applications (name or abbrev), like
 * the other gates; `--check` is skipped for filtered runs unless the
 * baseline only holds the filtered rows.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "hw/backend.hh"
#include "obs/json.hh"
#include "runtime/executor.hh"

namespace {

using namespace mflstm;
using namespace mflstm::bench;

/**
 * The representative DRS point every backend is asked the same
 * question with: the paper reports ~45-50% of U_{f,i,c} rows skipped
 * at the AO set across Table II, so the sweep fixes the skip fraction
 * instead of training six accuracy models per backend.
 */
constexpr double kSkipFraction = 0.45;

std::vector<std::size_t>
tissueWaves(std::size_t length)
{
    std::vector<std::size_t> sizes;
    while (length > 0) {
        const std::size_t t = std::min<std::size_t>(4, length);
        sizes.push_back(t);
        length -= t;
    }
    return sizes;
}

/** dense | drs | resident, as explicit per-layer decisions. */
runtime::ExecutionPlan
schedulePlan(const std::string &label,
             const runtime::NetworkShape &shape, quant::QuantMode qm)
{
    runtime::ScheduleDecisions d;
    for (const runtime::LstmLayerShape &layer : shape.layers) {
        runtime::LayerSchedule ls;
        ls.quant = qm;
        if (label == "drs") {
            ls.tissueSizes = tissueWaves(layer.length);
            ls.skipPath = runtime::SkipPath::HwCrm;
            ls.skipFraction = kSkipFraction;
            ls.flagFusion = runtime::FlagFusion::FusedEpilogue;
        } else if (label == "resident") {
            ls.residency = runtime::WeightResidency::Shared;
        }
        d.layers.push_back(std::move(ls));
    }
    return runtime::ExecutionPlan::fromDecisions(std::move(d));
}

/**
 * Compare the current report against the committed baseline: every
 * metric of @p prefix in the baseline must exist here with the exact
 * jsonNumber spelling (%.17g — a bit-identical double). Returns the
 * number of mismatches, listing each on stderr.
 */
std::size_t
checkAnchor(const std::string &path, const BenchReport &rep,
            const std::string &prefix)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "error: cannot read baseline %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string why;
    const auto metrics = obs::readBenchMetrics(buf.str(), why);
    if (!metrics) {
        std::fprintf(stderr, "error: baseline %s: %s\n", path.c_str(),
                     why.c_str());
        return 1;
    }

    std::size_t bad = 0, checked = 0;
    for (const auto &[key, value] : *metrics) {
        if (key.rfind(prefix, 0) != 0)
            continue;
        ++checked;
        const auto it = rep.metrics().find(key);
        if (it == rep.metrics().end()) {
            std::fprintf(stderr, "anchor drift: %s missing from this "
                                 "run\n",
                         key.c_str());
            ++bad;
            continue;
        }
        // Byte-identical means the %.17g spellings match; comparing
        // the round-tripped doubles is the same test (obs JSON numbers
        // round-trip exactly) without string-formatting both sides.
        if (value != it->second) {
            std::fprintf(stderr,
                         "anchor drift: %s baseline %.17g != %.17g\n",
                         key.c_str(), value, it->second);
            ++bad;
        }
    }
    if (checked == 0) {
        std::fprintf(stderr,
                     "error: baseline %s holds no %s* metrics\n",
                     path.c_str(), prefix.c_str());
        return 1;
    }
    std::printf("anchor check: %zu %s* metrics against %s -> %s\n",
                checked, prefix.c_str(), path.c_str(),
                bad == 0 ? "byte-identical" : "DRIFTED");
    return bad;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string checkPath;
    std::vector<workloads::BenchmarkSpec> specs;
    {
        std::vector<std::string> filters;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc)
                checkPath = argv[++i];
            else
                filters.emplace_back(argv[i]);
        }
        for (const workloads::BenchmarkSpec &spec :
             workloads::tableII()) {
            bool wanted = filters.empty();
            for (const std::string &f : filters)
                wanted = wanted || spec.name == f || spec.abbrev == f;
            if (wanted)
                specs.push_back(spec);
        }
        if (specs.empty()) {
            std::fprintf(stderr,
                         "no matching application; valid names are:\n");
            for (const workloads::BenchmarkSpec &spec :
                 workloads::tableII())
                std::fprintf(stderr, "  %s (%s)\n", spec.name.c_str(),
                             spec.abbrev.c_str());
            return 2;
        }
    }

    const quant::QuantMode modes[] = {quant::QuantMode::Fp32,
                                      quant::QuantMode::Int8,
                                      quant::QuantMode::Int4};
    const char *const plans[] = {"dense", "drs", "resident"};

    BenchReport rep("backend_zoo");
    {
        std::string ids;
        for (const std::string &n : hw::registry().names())
            ids += (ids.empty() ? "" : ",") + n;
        rep.config("backends", ids);
    }
    rep.config("quants", "fp32,int8,int4");
    rep.config("skip_fraction", "0.45");

    std::printf("Backend zoo: Table II apps x {fp32,int8,int4} x "
                "registry backends (simulated)\n");

    bool dp4a_gate_ok = true;
    for (const hw::Backend &b : hw::registry().entries()) {
        runtime::NetworkExecutor exec(b.config);
        rule('=');
        std::printf("%s — %s\n", b.id.c_str(), b.display.c_str());
        rule();
        std::printf("%-6s %-5s | %12s %12s %12s | %9s %9s\n", "App",
                    "quant", "dense ms", "drs ms", "resident ms",
                    "drs x", "resid x");
        rule();

        for (const workloads::BenchmarkSpec &spec : specs) {
            const runtime::NetworkShape shape = spec.timingShape();
            // time indexed [mode][plan] for the dp4a int4-vs-fp32 gate
            double timeMs[3][3] = {};
            for (std::size_t m = 0; m < 3; ++m) {
                const quant::QuantMode qm = modes[m];
                for (std::size_t p = 0; p < 3; ++p) {
                    const runtime::RunReport run =
                        exec.run(runtime::RunRequest::network(
                            shape, schedulePlan(plans[p], shape, qm),
                            1));
                    timeMs[m][p] = run.result.timeUs / 1e3;
                    const std::string key =
                        b.id + "." + spec.name + "." +
                        quant::toString(qm) + "." + plans[p];
                    rep.metric(key + ".time_us", run.result.timeUs);
                    rep.metric(key + ".weight_bytes_per_seq",
                               run.weightDramBytesPerSequence());
                    rep.metric(key + ".dram_bytes",
                               run.result.dramBytes);
                }
                std::printf(
                    "%-6s %-5s | %12.3f %12.3f %12.3f | %8.2fx "
                    "%8.2fx\n",
                    spec.name.c_str(), quant::toString(qm),
                    timeMs[m][0], timeMs[m][1], timeMs[m][2],
                    timeMs[m][0] / timeMs[m][1],
                    timeMs[m][0] / timeMs[m][2]);
            }
            if (b.id == "dp4a") {
                // Narrowing is free of convert cost here, so int4 must
                // strictly beat fp32 on every app and schedule.
                for (std::size_t p = 0; p < 3; ++p) {
                    const bool ok = timeMs[2][p] < timeMs[0][p];
                    if (!ok)
                        std::fprintf(stderr,
                                     "dp4a gate: %s %s int4 %.3f ms "
                                     "not below fp32 %.3f ms\n",
                                     spec.name.c_str(), plans[p],
                                     timeMs[2][p], timeMs[0][p]);
                    dp4a_gate_ok = dp4a_gate_ok && ok;
                }
            }
        }
    }
    rule('=');

    // Cross-backend headline: what the DRS flow buys at int8, per
    // backend (geomean over the swept apps).
    for (const hw::Backend &b : hw::registry().entries()) {
        std::vector<double> gains;
        for (const workloads::BenchmarkSpec &spec : specs) {
            const std::string key =
                b.id + "." + spec.name + ".int8.";
            gains.push_back(rep.metrics().at(key + "dense.time_us") /
                            rep.metrics().at(key + "drs.time_us"));
        }
        const double g = geomean(gains);
        std::printf("%-6s int8 DRS speedup over dense (geomean): "
                    "%.2fx\n",
                    b.id.c_str(), g);
        rep.metric("geomean." + b.id + ".int8.drs_speedup", g);
    }

    std::size_t anchor_bad = 0;
    if (!checkPath.empty())
        anchor_bad = checkAnchor(checkPath, rep, "tx1.");

    const bool all_ok = dp4a_gate_ok && anchor_bad == 0;
    std::printf("gate: %s (dp4a int4<fp32 %s%s)\n",
                all_ok ? "PASS" : "FAIL",
                dp4a_gate_ok ? "ok" : "VIOLATED",
                checkPath.empty()
                    ? ""
                    : (anchor_bad == 0 ? ", tx1 anchor byte-identical"
                                       : ", tx1 anchor DRIFTED"));
    rep.metric("gate.pass", all_ok ? 1.0 : 0.0);
    rep.write();
    return all_ok ? 0 : 1;
}
