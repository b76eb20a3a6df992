/**
 * @file
 * mflstm_cli — command-line experiment driver.
 *
 * Subcommands:
 *   list                         the Table II applications
 *   backends                     the hardware backend registry
 *                                (DESIGN.md §17)
 *   run   --app NAME [options]   run one plan at one threshold set
 *   sweep --app NAME [options]   sweep the full threshold ladder
 *   mts   --app NAME             the Fig. 9 tissue-size sweep
 *   profile --app NAME [options] byte-ledger attribution profile
 *                                (DESIGN.md §13)
 *   tune  --app NAME [options]   search per-layer schedules for the
 *                                dominating plan (DESIGN.md §14)
 *   serve --app NAME [options]   batched serving demo (DESIGN.md §9)
 *   fleet --app NAME [options]   replicated serving with failover and
 *                                a deterministic chaos schedule
 *                                (DESIGN.md §16)
 *   fsck  [--cache-dir DIR]      verify every artifact in a cache dir
 *   help                         print usage
 *
 * `mflstm_cli --help` lists every option; flagTable() below is its
 * only source and also drives the parser. Exit status 2 means a bad
 * command line.
 */

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/persist.hh"
#include "fleet/fleet.hh"
#include "harness.hh"
#include "hw/backend.hh"
#include "io/fsck.hh"
#include "nn/serialize.hh"
#include "obs/ledger.hh"
#include "obs/observer.hh"
#include "obs/profile.hh"
#include "obs/json.hh"
#include "runtime/report.hh"
#include "sched/tuner.hh"
#include "serve/engine.hh"
#include "serve/persist.hh"

namespace {

using namespace mflstm;
using namespace mflstm::bench;

struct Options
{
    std::string command;
    std::string app = "IMDB";
    runtime::PlanKind plan = runtime::PlanKind::Combined;
    std::optional<std::size_t> set;
    quant::QuantMode quantMode = quant::QuantMode::Fp32;
    std::string backend = "tx1";
    bool csv = false;
    std::string traceCsv;
    std::string traceOut;
    std::string metricsOut;
    std::string metricsFormat = "json";

    // profile
    std::string profileOut;
    std::string baselinePath;
    double tolerancePct = 0.1;

    // serve
    std::size_t requests = 64;
    std::size_t batch = 8;
    std::size_t workers = 2;
    std::size_t arrivalUs = 200;
    double deadlineMs = 0.0;
    std::size_t queueCapacity = 0;
    serve::AdmissionPolicy admission = serve::AdmissionPolicy::RejectNew;
    double admitTimeoutMs = 5.0;
    double faultRate = 0.0;
    std::uint64_t chaosSeed = 1;
    int retries = 2;
    bool governor = false;
    bool tuned = false;
    std::string stateDir;

    // fleet
    std::size_t replicas = 2;
    fleet::RoutingPolicy policy = fleet::RoutingPolicy::SessionAffinity;
    bool chaos = false;
    bool failover = true;
    std::size_t ticks = 16;
    std::string storeDir = "mflstm_fleet_store";

    // fsck
    std::string cacheDir = "mflstm_model_cache";
    bool quarantineBad = false;

    /** The observability sinks were requested on the command line. */
    bool wantsObserver() const
    {
        return !traceOut.empty() || !metricsOut.empty();
    }
};

/** A bad argument found once a command runs: exit status 2. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** @p path opened for writing. @throws UsageError when it cannot be. */
std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throw UsageError("cannot write " + path);
    return os;
}

/**
 * What every model-backed command starts from: the observer behind the
 * --trace-out / --metrics-out sinks, the app (the "app-setup" phase)
 * and its facade on --backend. The facade is not calibrated yet, so
 * serve can restore a saved calibration in its place.
 */
struct Bringup
{
    explicit Bringup(const Options &opt)
        : obs(opt.wantsObserver() ? &observer : nullptr)
    {
        {
            auto ph = obs::Observer::phase(obs, "app-setup");
            app = makeApp(workloads::benchmarkByName(opt.app));
        }
        mf = makeFacade(app, opt.backend, obs);
    }

    /** The offline calibration over the app's calibration split. */
    void calibrate()
    {
        mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    }

    /** The calibrated threshold ladder, every rung at @p quant. */
    std::vector<core::ThresholdSet> ladder(quant::QuantMode quant) const
    {
        std::vector<core::ThresholdSet> sets = mf->calibration().ladder();
        for (core::ThresholdSet &set : sets)
            set.quant = quant;
        return sets;
    }

    obs::Observer observer;
    /// &observer when a sink was requested, else null
    obs::Observer *obs;
    AppContext app;
    std::unique_ptr<core::MemoryFriendlyLstm> mf;
};

/**
 * The ladder rung a command runs: --set, or @p fallback() without it.
 * @throws UsageError when --set is past the end of @p ladder.
 */
template <class Fallback>
std::size_t
resolveRung(const Options &opt,
            const std::vector<core::ThresholdSet> &ladder,
            Fallback fallback)
{
    if (!opt.set)
        return fallback();
    if (*opt.set >= ladder.size())
        throw UsageError("--set must be 0.." +
                         std::to_string(ladder.size() - 1));
    return *opt.set;
}

/** Write the observer's sinks to the files requested in @p opt. */
void
writeObserverOutputs(const Options &opt, const obs::Observer &observer)
{
    if (!opt.traceOut.empty()) {
        std::ofstream os = openOutput(opt.traceOut);
        observer.tracer().writeChromeTrace(os);
        std::fprintf(stderr,
                     "trace written to %s (open in "
                     "https://ui.perfetto.dev)\n",
                     opt.traceOut.c_str());
    }
    if (!opt.metricsOut.empty()) {
        std::ofstream os = openOutput(opt.metricsOut);
        if (opt.metricsFormat == "prom")
            observer.metrics().writePrometheus(os);
        else
            observer.metrics().writeJson(os);
        std::fprintf(stderr, "metrics written to %s (%s)\n",
                     opt.metricsOut.c_str(), opt.metricsFormat.c_str());
    }
}

/** `mflstm backends`: print the hardware backend registry. */
int
cmdBackends(const Options &)
{
    std::printf("%-6s %-12s %-4s %-10s %s\n", "id", "kind", "rev",
                "caps", "backend");
    for (const hw::Backend &b : hw::registry().entries()) {
        std::string caps;
        if (b.config.int8DotUnits)
            caps += "dp4a";
        if (b.config.explicitWeightMemory)
            caps += caps.empty() ? "wmem" : "+wmem";
        if (caps.empty())
            caps = "-";
        std::printf("%-6s %-12s %-4d %-10s %s\n", b.id.c_str(),
                    hw::toString(b.kind), b.revision, caps.c_str(),
                    b.display.c_str());
        std::printf("%-6s %s\n", "", b.summary.c_str());
    }
    return 0;
}

int
cmdList(const Options &)
{
    std::printf("%-6s %-4s %8s %7s %7s  %s\n", "name", "abbr", "hidden",
                "layers", "length", "task");
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        std::printf("%-6s %-4s %8zu %7zu %7zu  %s\n", spec.name.c_str(),
                    spec.abbrev.c_str(), spec.hiddenSize, spec.numLayers,
                    spec.length,
                    spec.isLanguageModel() ? "language-model"
                                           : "classification");
    }
    return 0;
}

int
cmdRun(const Options &opt)
{
    Bringup b(opt);
    b.calibrate();
    const auto ladder = b.ladder(opt.quantMode);
    core::MemoryFriendlyLstm &mf = *b.mf;

    // Without --set, this plan's AO.
    const std::size_t rung = resolveRung(opt, ladder, [&] {
        const SchemeCurve curve =
            evaluateScheme(mf, b.app, opt.plan, ladder);
        return core::selectAo(curve.points, b.app.baselineAccuracy, 2.0);
    });
    mf.setThresholds(schemeThresholds(opt.plan, ladder[rung]));
    double acc = 0.0;
    {
        auto ph = obs::Observer::phase(b.obs, "accuracy-eval");
        acc = evalAccuracy(mf, b.app);
    }
    const core::TimingOutcome out = mf.evaluateTiming(opt.plan);

    if (!opt.traceCsv.empty()) {
        std::ofstream os = openOutput(opt.traceCsv);
        runtime::writeTraceCsv(
            os, mf.executor().lowering().lower(mf.config().timingShape,
                                               out.plan));
        std::fprintf(stderr, "kernel trace written to %s\n",
                     opt.traceCsv.c_str());
    }

    writeObserverOutputs(opt, b.observer);

    if (opt.csv) {
        std::printf("%s\n", runtime::runCsvHeader().c_str());
        std::printf("%s\n",
                    runtime::runCsvRow(opt.app, out.report).c_str());
        return 0;
    }

    std::printf("%s (threshold set %zu, weights %s, GPU %s)\n",
                opt.app.c_str(), rung, quant::toString(opt.quantMode),
                mf.executor().config().name.c_str());
    std::printf("accuracy %.1f%% (baseline %.1f%%)\n\n", 100.0 * acc,
                100.0 * b.app.baselineAccuracy);
    std::printf("%s\n",
                runtime::formatComparison(mf.baseline(), out.report)
                    .c_str());
    std::printf("%s", runtime::formatRunReport(out.report).c_str());
    return 0;
}

int
cmdSweep(const Options &opt)
{
    Bringup b(opt);
    b.calibrate();
    const SchemeCurve curve = evaluateScheme(
        *b.mf, b.app, opt.plan, b.ladder(opt.quantMode));

    writeObserverOutputs(opt, b.observer);

    if (opt.csv) {
        std::printf("set,alpha_inter,alpha_intra,speedup,accuracy\n");
        for (const auto &pt : curve.points) {
            std::printf("%zu,%g,%g,%g,%g\n", pt.index,
                        pt.set.alphaInter, pt.set.alphaIntra,
                        pt.speedup, pt.accuracy);
        }
        return 0;
    }

    std::printf("%s / %s (baseline accuracy %.1f%%)\n", opt.app.c_str(),
                runtime::toString(opt.plan),
                100.0 * b.app.baselineAccuracy);
    std::printf("%4s %12s %12s %9s %9s\n", "set", "alpha_inter",
                "alpha_intra", "speedup", "accuracy");
    for (const auto &pt : curve.points) {
        std::printf("%4zu %12.2f %12.4f %8.2fx %8.1f%%\n", pt.index,
                    pt.set.alphaInter, pt.set.alphaIntra, pt.speedup,
                    100.0 * pt.accuracy);
    }
    const std::size_t ao =
        core::selectAo(curve.points, b.app.baselineAccuracy, 2.0);
    std::printf("AO = set %zu, BPA = set %zu\n", ao,
                core::selectBpa(curve.points));
    return 0;
}

int
cmdMts(const Options &opt)
{
    obs::Observer observer;
    obs::Observer *obs = opt.wantsObserver() ? &observer : nullptr;

    const workloads::BenchmarkSpec &spec =
        workloads::benchmarkByName(opt.app);
    runtime::NetworkExecutor ex(hw::registry().get(opt.backend).config,
                                obs);
    const core::MtsResult res = core::findMts(
        ex, {spec.hiddenSize, spec.hiddenSize, spec.length}, 10);

    writeObserverOutputs(opt, observer);

    std::printf("%s on %s\n", opt.app.c_str(),
                ex.config().name.c_str());
    std::printf("%4s %12s %10s\n", "k", "layer time", "shared bw");
    for (std::size_t k = 1; k <= res.timesUs.size(); ++k) {
        std::printf("%4zu %10.2fms %9.0f%% %s\n", k,
                    res.timesUs[k - 1] / 1e3,
                    100.0 * res.sharedUtilization[k - 1],
                    k == res.mts ? "<- MTS" : "");
    }
    return 0;
}

int
cmdProfile(const Options &opt)
{
    Bringup b(opt);
    b.calibrate();
    const auto ladder = b.ladder(opt.quantMode);
    core::MemoryFriendlyLstm &mf = *b.mf;

    // A mid-ladder rung keeps the profile cheap (no AO sweep) and
    // matches the serve default, so a profile explains what serve runs.
    const std::size_t rung =
        resolveRung(opt, ladder, [&] { return ladder.size() / 2; });
    mf.setThresholds(schemeThresholds(opt.plan, ladder[rung]));
    // Populate the division/skip statistics the planner projects.
    evalAccuracy(mf, b.app);
    const core::TimingOutcome out = mf.evaluateTiming(opt.plan);

    // Re-run the planned trace with the ledger attached: attribution
    // is a pure relabeling, so timing is identical to evaluateTiming.
    runtime::NetworkExecutor ex(mf.executor().config(), b.obs);
    obs::TrafficLedger ledger;
    ex.setLedger(&ledger);
    const runtime::RunReport rep =
        ex.run(mf.config().timingShape, out.plan);

    obs::ProfileReport report = obs::ProfileReport::build(
        ledger, rep.result.dramBytes, rep.result.timeUs);
    report.app = opt.app;
    report.plan = runtime::toString(opt.plan);
    report.quant = quant::toString(opt.quantMode);
    report.batch = 1;

    std::printf("%s", report.formatTable().c_str());

    if (!opt.profileOut.empty()) {
        std::ofstream os = openOutput(opt.profileOut);
        report.writeJson(os);
        std::fprintf(stderr, "profile report written to %s\n",
                     opt.profileOut.c_str());
    }

    writeObserverOutputs(opt, b.observer);

    if (!report.conserved()) {
        std::fprintf(stderr,
                     "error: conservation invariant broken (see "
                     "table)\n");
        return 1;
    }

    if (!opt.baselinePath.empty()) {
        const std::string &path = opt.baselinePath;
        std::ifstream is(path);
        if (!is)
            throw UsageError("cannot read " + path);
        std::ostringstream text;
        text << is.rdbuf();
        obs::ProfileReport base;
        try {
            base = obs::ProfileReport::parseJsonText(text.str());
        } catch (const std::exception &e) {
            throw UsageError(path + ": " + e.what());
        }
        // Round-trip the baseline's plan/quant strings through the
        // canonical parsers so a hand-edited or foreign report fails
        // loudly instead of diffing apples against oranges.
        if (!base.plan.empty() && !runtime::planKindFromString(base.plan))
            throw UsageError(path + ": unknown plan \"" + base.plan + "\"");
        if (!base.quant.empty() && !quant::parseQuantMode(base.quant))
            throw UsageError(path + ": unknown quant \"" + base.quant +
                             "\"");
        const std::vector<obs::ProfileDelta> deltas =
            obs::diffReports(base, report, opt.tolerancePct);
        std::size_t regressions = 0;
        for (const auto &d : deltas)
            if (d.regression)
                ++regressions;
        if (deltas.empty()) {
            std::printf("\nbaseline %s: no per-node differences\n",
                        path.c_str());
        } else {
            std::printf("\nbaseline %s: %zu node(s) changed, %zu "
                        "regression(s) beyond %.2f%%\n%s",
                        path.c_str(), deltas.size(), regressions,
                        opt.tolerancePct,
                        obs::formatDeltas(deltas).c_str());
        }
        if (regressions)
            return 1;
    }
    return 0;
}

int
cmdTune(const Options &opt)
{
    Bringup b(opt);
    b.calibrate();
    const auto ladder = b.ladder(opt.quantMode);
    core::MemoryFriendlyLstm &mf = *b.mf;

    // A mid-ladder rung keeps the tune cheap (no AO sweep). Both
    // thresholds are applied so the statistics feed every searchable
    // path (tissues and row skip).
    const std::size_t rung =
        resolveRung(opt, ladder, [&] { return ladder.size() / 2; });
    mf.setThresholds(ladder[rung]);
    // Populate the division/skip statistics the search projects from.
    evalAccuracy(mf, b.app);

    sched::TuneRequest treq;
    treq.shape = mf.config().timingShape;
    treq.backendId = opt.backend;
    treq.stats = mf.runner().stats();
    treq.mts = mf.calibration().mts;
    treq.modelHidden = mf.runner().model().config().hiddenSize;
    treq.quant = opt.quantMode;
    treq.batch = opt.batch;

    sched::TuneResult res;
    {
        auto ph = obs::Observer::phase(b.obs, "tune");
        res = sched::tune(mf.executor(), treq);
    }

    std::printf("%s on %s (threshold set %zu, weights %s, batch %zu)\n\n",
                opt.app.c_str(), mf.executor().config().name.c_str(),
                rung, quant::toString(opt.quantMode), treq.batch);

    std::printf("%-22s %12s %12s\n", "candidate", "time (ms)",
                "DRAM (MB)");
    for (const sched::Candidate &c : res.candidates) {
        std::printf("%-22s %12.3f %12.3f%s%s\n", c.label.c_str(),
                    c.timeUs / 1e3, c.dramBytes / 1e6,
                    c.label == res.chosen.label ? "  <- chosen" : "",
                    c.label == res.referenceLabel ? "  <- reference"
                                                  : "");
    }

    std::printf("\nchosen: %s (%.3f ms, %.3f MB)\n",
                res.chosen.label.c_str(), res.chosen.timeUs / 1e3,
                res.chosen.dramBytes / 1e6);
    for (std::size_t l = 0; l < res.chosenLayerLabels.size(); ++l)
        std::printf("  layer %zu: %s\n", l,
                    res.chosenLayerLabels[l].c_str());
    std::printf("reference: %s (%.3f ms, %.3f MB)\n",
                res.referenceLabel.c_str(), res.referenceTimeUs / 1e3,
                res.referenceDramBytes / 1e6);
    std::printf("dominates reference: %s\n",
                res.dominatesReference ? "yes" : "NO");

    if (!opt.profileOut.empty()) {
        std::ofstream os = openOutput(opt.profileOut);
        obs::JsonWriter w(os);
        w.beginObject();
        w.key("schema").value("mflstm.tune");
        w.key("version").value(std::uint64_t{2});
        w.key("app").value(opt.app);
        w.key("backend").value(opt.backend);
        w.key("gpu").value(mf.executor().config().name);
        w.key("quant").value(quant::toString(opt.quantMode));
        w.key("batch").value(static_cast<std::uint64_t>(treq.batch));
        w.key("set").value(static_cast<std::uint64_t>(rung));
        // The label/time/bytes fields of an open candidate object.
        const auto point = [&w](const std::string &label, double timeUs,
                                double dramBytes) {
            w.key("label").value(label);
            w.key("time_us").value(timeUs);
            w.key("dram_bytes").value(dramBytes);
        };
        w.key("chosen").beginObject();
        point(res.chosen.label, res.chosen.timeUs, res.chosen.dramBytes);
        w.key("layers").beginArray();
        for (const std::string &l : res.chosenLayerLabels)
            w.value(l);
        w.endArray();
        w.endObject();
        w.key("reference").beginObject();
        point(res.referenceLabel, res.referenceTimeUs,
              res.referenceDramBytes);
        w.endObject();
        w.key("dominates_reference").value(res.dominatesReference);
        w.key("candidates").beginArray();
        for (const sched::Candidate &c : res.candidates) {
            w.beginObject();
            point(c.label, c.timeUs, c.dramBytes);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
        std::fprintf(stderr, "tune report written to %s\n",
                     opt.profileOut.c_str());
    }

    writeObserverOutputs(opt, b.observer);
    return res.dominatesReference ? 0 : 1;
}

/**
 * Schema-aware deep verification for fsck: the container layer has
 * already checked structure + checksums; this decodes the payload with
 * the same hardened loaders the runtime uses.
 */
void
deepVerifyArtifact(const std::string &path, std::uint32_t schema)
{
    switch (schema) {
    case io::kSchemaModel:
        nn::verifyModelFile(path);
        break;
    case io::kSchemaCalibration:
        core::verifyCalibrationFile(path);
        break;
    case io::kSchemaEngineState:
        serve::verifyEngineStateFile(path);
        break;
    default:
        throw io::ArtifactError(io::ErrorKind::BadSchema,
                                "fsck: " + path +
                                    ": unknown schema kind " +
                                    std::to_string(schema));
    }
}

int
cmdFsck(const Options &opt)
{
    const io::FsckReport report =
        io::fsckDirectory(opt.cacheDir, {}, deepVerifyArtifact);

    if (report.entries.empty()) {
        std::printf("fsck: %s: no artifacts found\n",
                    opt.cacheDir.c_str());
        return 0;
    }

    std::size_t quarantined = 0;
    for (const io::FsckEntry &e : report.entries) {
        if (e.ok) {
            std::printf("ok       %-28s %s", e.format.c_str(),
                        e.path.c_str());
            if (e.chunks)
                std::printf("  (%zu chunks)", e.chunks);
            std::printf("\n");
            continue;
        }
        std::printf("CORRUPT  %-28s %s\n         reason: %s\n",
                    io::toString(e.kind), e.path.c_str(),
                    e.detail.c_str());
        if (opt.quarantineBad) {
            const std::string moved = io::quarantine(e.path);
            if (!moved.empty()) {
                std::printf("         quarantined to %s\n",
                            moved.c_str());
                ++quarantined;
            }
        }
    }

    const std::size_t bad = report.corruptCount();
    std::printf("fsck: %zu artifact(s), %zu corrupt",
                report.entries.size(), bad);
    if (opt.quarantineBad)
        std::printf(", %zu quarantined", quarantined);
    std::printf("\n");
    return bad ? 1 : 0;
}

/** The engine knobs serve and fleet share. */
serve::InferenceEngine::Options
engineOptions(const Options &opt)
{
    serve::InferenceEngine::Options e;
    e.maxBatch = opt.batch;
    e.workers = opt.workers;
    e.plan = opt.plan;
    e.maxRetries = opt.retries;
    e.backendId = opt.backend;
    return e;
}

/**
 * --governor: sweep the full ladder once to locate this app's AO and
 * BPA sets; the engine then serves on the AO->BPA slice between them.
 */
void
armGovernor(Bringup &b, const Options &opt,
            const std::vector<core::ThresholdSet> &ladder,
            serve::InferenceEngine::Options &eopts)
{
    const SchemeCurve curve = evaluateScheme(*b.mf, b.app, opt.plan, ladder);
    eopts.governorLadder =
        core::aoToBpaLadder(curve.points, b.app.baselineAccuracy, 2.0);
    eopts.planningSequences =
        b.app.data.calibrationSequences(kCalibrationSeqs);
}

/**
 * Warm restart: run @p load when --state-dir holds @p path. A corrupt
 * or stale file is quarantined and the caller recomputes its content
 * (@p fallback names how). Returns whether @p load succeeded.
 */
template <class Load>
bool
restoreState(const Options &opt, const std::string &path,
             const char *fallback, Load load)
{
    if (opt.stateDir.empty() || !std::filesystem::exists(path))
        return false;
    try {
        load();
        return true;
    } catch (const io::ArtifactError &e) {
        const std::string moved = io::quarantine(path);
        std::fprintf(stderr, "[serve] %s rejected (%s); quarantined to %s; "
                     "%s\n",
                     path.c_str(), io::toString(e.kind()),
                     moved.empty() ? "(rename failed)" : moved.c_str(),
                     fallback);
        return false;
    }
}

/// set by the SIGTERM/SIGINT handler installed under serve --state-dir
std::atomic<bool> g_drainRequested{false};

extern "C" void
onDrainSignal(int)
{
    g_drainRequested.store(true, std::memory_order_relaxed);
}

int
cmdServe(const Options &opt)
{
    Bringup b(opt);
    core::MemoryFriendlyLstm &mf = *b.mf;

    const std::string calibPath = opt.stateDir + "/calibration.bin";
    const std::string enginePath = opt.stateDir + "/engine_state.bin";

    // Warm restart, half 1: a saved calibration skips the offline MTS
    // sweep + predictor collection.
    if (!restoreState(opt, calibPath, "recalibrating", [&] {
            core::loadCalibration(mf, calibPath, {}, b.obs);
            std::fprintf(stderr, "[serve] calibration restored from %s\n",
                         calibPath.c_str());
        }))
        b.calibrate();
    const auto ladder = b.ladder(opt.quantMode);

    // A mid-ladder rung keeps startup cheap (no AO sweep).
    const std::size_t rung =
        resolveRung(opt, ladder, [&] { return ladder.size() / 2; });
    mf.setThresholds(schemeThresholds(opt.plan, ladder[rung]));
    // Populate the division/skip statistics the planner projects.
    evalAccuracy(mf, b.app);

    serve::InferenceEngine::Options eopts = engineOptions(opt);
    eopts.observer = b.obs;
    eopts.queueCapacity = opt.queueCapacity;
    eopts.admission = opt.admission;
    eopts.admitTimeoutMs = opt.admitTimeoutMs;
    eopts.tunePlans = opt.tuned;

    // Must outlive the engine (workers consult it per batch/request).
    std::optional<serve::ProbabilisticFaultInjector> injector;
    if (opt.faultRate > 0.0) {
        injector.emplace(opt.faultRate, opt.chaosSeed);
        eopts.faultInjector = &*injector;
    }

    // Warm restart, half 2: a saved engine state skips the per-rung
    // snapshots (and, under --governor, the AO/BPA locating sweep).
    std::unique_ptr<serve::InferenceEngine> engine;
    restoreState(opt, enginePath, "cold start", [&] {
        engine = std::make_unique<serve::InferenceEngine>(
            mf, eopts, serve::loadEngineState(enginePath, {}, b.obs));
        std::fprintf(stderr,
                     "[serve] engine warm-started from %s (%zu rung(s))\n",
                     enginePath.c_str(), engine->ladder().size());
    });
    if (!engine) {
        if (opt.governor)
            armGovernor(b, opt, ladder, eopts);
        engine = std::make_unique<serve::InferenceEngine>(mf, eopts);
    }
    serve::Session session = engine->session();

    if (!opt.stateDir.empty()) {
        std::signal(SIGTERM, onDrainSignal);
        std::signal(SIGINT, onDrainSignal);
    }

    // Open-loop arrivals: submit on a fixed clock regardless of
    // completion, cycling through the calibration sequences.
    const auto seqs = b.app.data.calibrationSequences(kCalibrationSeqs);
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(opt.requests);
    for (std::size_t i = 0; i < opt.requests; ++i) {
        if (g_drainRequested.load(std::memory_order_relaxed)) {
            std::fprintf(stderr,
                         "[serve] drain requested after %zu of %zu "
                         "requests; stopping admissions\n",
                         i, opt.requests);
            break;
        }
        futures.push_back(session.infer(seqs[i % seqs.size()],
                                        opt.deadlineMs));
        if (opt.arrivalUs > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(opt.arrivalUs));
    }

    // batch size -> simulated weight-DRAM bytes per sequence
    std::map<std::size_t, double> weight_by_batch;
    std::map<serve::Status, std::uint64_t> by_status;
    for (auto &f : futures) {
        const serve::Response r = f.get();
        ++by_status[r.status];
        if (r.status == serve::Status::Ok)
            weight_by_batch[r.batch] = r.weightDramBytesPerSeq;
    }

    // Graceful exit: finish everything queued, then (with --state-dir)
    // persist calibration + engine warm state for the next start.
    if (!opt.stateDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.stateDir, ec);
        engine->drainAndSaveState(enginePath);
        core::saveCalibration(mf, calibPath);
        std::fprintf(stderr, "[serve] warm state saved to %s\n",
                     opt.stateDir.c_str());
    } else {
        engine->shutdown();
    }
    if (g_drainRequested.load(std::memory_order_relaxed))
        std::fprintf(stderr,
                     "[serve] drained cleanly after signal\n");

    const serve::InferenceEngine::Stats st = engine->stats();
    std::printf("%s / %s on %s (threshold set %zu)\n", opt.app.c_str(),
                runtime::toString(opt.plan),
                mf.executor().config().name.c_str(), rung);
    std::printf("served %llu requests in %llu batches "
                "(mean batch %.2f, max %zu, workers %zu)\n",
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.batches),
                st.meanBatchSize, st.maxBatchObserved, opt.workers);
    std::printf("wall latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
                engine->latencyQuantileMs(0.50),
                engine->latencyQuantileMs(0.90),
                engine->latencyQuantileMs(0.99));

    // Lifecycle decomposition from the per-request histograms.
    const auto stage_q = [&](const char *name, double q) {
        const obs::Histogram *h =
            engine->observer().metrics().findHistogram(name);
        return h ? h->quantile(q) : 0.0;
    };
    std::printf("\nrequest lifecycle (ms):\n");
    std::printf("%-12s %10s %10s\n", "stage", "p50", "p95");
    for (const auto &[stage, name] :
         {std::pair{"queue", "serve.queue_ms"},
          std::pair{"batch-wait", "serve.batch_wait_ms"},
          std::pair{"exec", "serve.exec_ms"}})
        std::printf("%-12s %10.3f %10.3f\n", stage, stage_q(name, 0.50),
                    stage_q(name, 0.95));

    std::printf("\nstatus distribution:\n");
    for (const auto &[status, n] : by_status)
        std::printf("  %-18s %llu\n", serve::toString(status),
                    static_cast<unsigned long long>(n));
    std::printf("overload control: admission %s, queue high-water %zu, "
                "shed-before-run %llu, late %llu, rejected %llu "
                "(evicted %llu)\n",
                serve::toString(opt.admission), st.queueHighWater,
                static_cast<unsigned long long>(st.shedBeforeRun),
                static_cast<unsigned long long>(st.lateCompletions),
                static_cast<unsigned long long>(st.rejected),
                static_cast<unsigned long long>(st.evicted));
    if (opt.faultRate > 0.0) {
        std::printf("fault tolerance: injected %llu, retries %llu, "
                    "failed %llu, worker restarts %llu "
                    "(chaos seed %llu)\n",
                    static_cast<unsigned long long>(injector->injected()),
                    static_cast<unsigned long long>(st.retries),
                    static_cast<unsigned long long>(st.failed),
                    static_cast<unsigned long long>(st.workerRestarts),
                    static_cast<unsigned long long>(opt.chaosSeed));
    }
    if (opt.governor) {
        std::printf("governor: ladder %zu rungs, steps up %llu / down "
                    "%llu, final rung %zu\n",
                    engine->ladder().size(),
                    static_cast<unsigned long long>(st.governorStepsUp),
                    static_cast<unsigned long long>(st.governorStepsDown),
                    engine->activeRung());
    }
    if (opt.deadlineMs > 0.0) {
        std::printf("deadline %.1f ms missed by %llu requests\n",
                    opt.deadlineMs,
                    static_cast<unsigned long long>(st.deadlineMisses));
    }
    std::printf("\nweight-matrix DRAM per sequence (simulated, "
                "amortised over the batch):\n");
    std::printf("%6s %16s\n", "batch", "weight MB/seq");
    for (const auto &[batch, bytes] : weight_by_batch)
        std::printf("%6zu %16.3f\n", batch, bytes / 1e6);

    writeObserverOutputs(opt, b.observer);
    return 0;
}

int
cmdFleet(const Options &opt)
{
    if (opt.chaos && opt.ticks < 8)
        throw UsageError("--chaos needs --ticks >= 8 (the standard plan "
                         "places one event per horizon quarter)");

    Bringup b(opt);
    b.calibrate();
    const auto ladder = b.ladder(opt.quantMode);
    core::MemoryFriendlyLstm &mf = *b.mf;
    const std::size_t rung =
        resolveRung(opt, ladder, [&] { return ladder.size() / 2; });
    mf.setThresholds(schemeThresholds(opt.plan, ladder[rung]));
    evalAccuracy(mf, b.app);

    fleet::FleetOptions fopts;
    fopts.replicas = opt.replicas;
    fopts.policy = opt.policy;
    fopts.failover = opt.failover;
    fopts.storeDir = opt.storeDir;
    fopts.observer = b.obs;
    fopts.engine = engineOptions(opt);
    if (opt.governor)
        armGovernor(b, opt, ladder, fopts.engine);
    // Two stock tenants exercise the SLO classes: interactive rides
    // the --deadline-ms budget at high priority, batch is best-effort.
    fopts.slos.push_back(
        fleet::SloClass{"interactive", 10, opt.deadlineMs});
    fopts.slos.push_back(fleet::SloClass{"batch", 0, 0.0});

    fleet::Fleet f(mf, fopts);
    if (opt.chaos)
        f.setChaosPlan(fleet::ChaosPlan::standard(
            opt.chaosSeed, opt.replicas, opt.ticks));

    // Drive loop: the base --requests load spreads evenly over the
    // ticks; chaos flash crowds add their bursts on top.
    const auto seqs = b.app.data.calibrationSequences(kCalibrationSeqs);
    std::size_t next = 0;
    std::size_t eventsApplied = 0;
    for (std::size_t t = 0; t < opt.ticks; ++t) {
        const fleet::Fleet::TickReport rep = f.tick();
        eventsApplied += rep.applied.size();
        for (const fleet::ChaosEvent &e : rep.applied)
            std::fprintf(stderr, "[fleet] tick %llu: %s -> r%zu\n",
                         static_cast<unsigned long long>(rep.tick),
                         fleet::toString(e.kind), e.replica);
        std::size_t n = opt.requests / opt.ticks +
                        (t < opt.requests % opt.ticks ? 1 : 0);
        n += rep.flashCrowdBurst;
        for (std::size_t k = 0; k < n; ++k) {
            fleet::FleetRequest req;
            req.tokens = seqs[next % seqs.size()];
            req.sessionId = "session-" + std::to_string(next % 8);
            req.tenant = next % 2 == 0 ? "interactive" : "batch";
            f.submit(std::move(req));
            ++next;
        }
    }
    // Quiet ticks let scheduled restarts land so parked work (with
    // failover on) finds a recovered replica before the final drain.
    for (int t = 0; t < 6; ++t)
        f.tick();
    f.drain();
    const fleet::Fleet::Stats st = f.stats();
    const double avail = f.availability();

    std::printf("%s / %s on %s (threshold set %zu)\n", opt.app.c_str(),
                runtime::toString(opt.plan),
                mf.executor().config().name.c_str(), rung);
    std::printf("fleet: %zu replicas, policy %s, failover %s\n",
                f.replicaCount(), fleet::toString(opt.policy),
                opt.failover ? "on" : "off");
    if (opt.chaos) {
        std::printf("chaos: seed %llu, %zu of %zu events applied over "
                    "%zu ticks (replay: same seed => same plan)\n",
                    static_cast<unsigned long long>(opt.chaosSeed),
                    eventsApplied, f.chaosPlan().events.size(),
                    opt.ticks);
        std::printf("%s", f.chaosPlan().describe().c_str());
    }
    std::printf("submitted %llu, completed %llu, ok %llu, failed %llu "
                "(availability %.2f%%)\n",
                static_cast<unsigned long long>(st.submitted),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.ok),
                static_cast<unsigned long long>(st.failed),
                avail * 100.0);
    std::printf("failover re-dispatches %llu, hedges %llu (wins %llu), "
                "parked %llu, session failovers %llu\n",
                static_cast<unsigned long long>(st.failovers),
                static_cast<unsigned long long>(st.hedges),
                static_cast<unsigned long long>(st.hedgeWins),
                static_cast<unsigned long long>(st.parked),
                static_cast<unsigned long long>(
                    f.router().sessionFailovers()));
    for (std::size_t i = 0; i < f.replicaCount(); ++i) {
        fleet::Replica &r = f.replica(i);
        const fleet::Replica::Counters &c = r.counters();
        std::printf("  %-4s %-10s kills %llu, restarts %llu "
                    "(cold %llu), heartbeat misses %llu, breaker "
                    "trips %llu\n",
                    r.name().c_str(), fleet::toString(r.state()),
                    static_cast<unsigned long long>(c.kills),
                    static_cast<unsigned long long>(c.restarts),
                    static_cast<unsigned long long>(c.coldRecoveries),
                    static_cast<unsigned long long>(c.heartbeatMisses),
                    static_cast<unsigned long long>(r.breaker().trips));
    }
    f.shutdown();

    const std::uint64_t lost = st.submitted - st.completed;
    if (lost == 0) {
        writeObserverOutputs(opt, b.observer);
        return 0;
    }
    std::fprintf(stderr,
                 "error: %llu request(s) lost without a terminal "
                 "response\n",
                 static_cast<unsigned long long>(lost));
    // Lost requests outrank an unwritable sink: the exit stays 1.
    try {
        writeObserverOutputs(opt, b.observer);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
    }
    return 1;
}

/**
 * Parses one flag's value into Options. Returns an empty string when
 * the value is accepted, otherwise what a valid value looks like.
 */
using Store = std::function<std::string(Options &, const std::string &)>;

/** A switch: takes no value and stores @p value. */
Store
setTo(bool Options::*field, bool value)
{
    return [field, value](Options &opt, const std::string &) {
        opt.*field = value;
        return std::string();
    };
}

Store
text(std::string Options::*field)
{
    return [field](Options &opt, const std::string &v) {
        opt.*field = v;
        return std::string();
    };
}

/**
 * A decimal count in [@p min, max of T]: no sign, no blanks, and
 * nothing that overflows T.
 */
template <class T, class Field>
Store
count(Field Options::*field, T min = 0)
{
    return [field, min](Options &opt, const std::string &v) {
        T n = 0;
        const char *end = v.data() + v.size();
        const auto [ptr, ec] = std::from_chars(v.data(), end, n);
        // from_chars takes a leading '-' for a signed T.
        if (v.empty() || v[0] < '0' || v[0] > '9' || ec != std::errc() ||
            ptr != end || n < min)
            return "want an integer in " + std::to_string(min) + ".." +
                   std::to_string(std::numeric_limits<T>::max());
        opt.*field = n;
        return std::string();
    };
}

/** A finite, non-negative number. */
Store
finite(double Options::*field)
{
    return [field](Options &opt, const std::string &v) {
        double x = 0.0;
        const char *end = v.data() + v.size();
        const auto [ptr, ec] = std::from_chars(v.data(), end, x);
        if (ec != std::errc() || ptr != end || !std::isfinite(x) ||
            x < 0.0)
            return std::string("want a finite number >= 0");
        opt.*field = x;
        return std::string();
    };
}

/** An enumerated value: @p parse maps a spelling, @p known lists them. */
template <class T, class Parse>
Store
choice(T Options::*field, Parse parse, std::string known)
{
    return [field, parse, known](Options &opt, const std::string &v) {
        const std::optional<T> x = parse(v);
        if (!x)
            return "known: " + known;
        opt.*field = *x;
        return std::string();
    };
}

/** A string that must be one of @p names. */
Store
oneOf(std::string Options::*field, std::vector<std::string> names)
{
    return [field, names](Options &opt, const std::string &v) {
        if (std::find(names.begin(), names.end(), v) != names.end()) {
            opt.*field = v;
            return std::string();
        }
        std::string known = "known: ";
        for (const std::string &n : names)
            known += n + (&n == &names.back() ? "" : "|");
        return known;
    };
}

/** Tuned is a search result (tune, serve --tuned), not a preset. */
std::optional<runtime::PlanKind>
parsePresetPlan(const std::string &s)
{
    const auto kind = runtime::planKindFromString(s);
    if (kind == runtime::PlanKind::Tuned)
        return std::nullopt;
    return kind;
}

/** --help sections; a flag is listed under each section it names. */
enum Section : unsigned
{
    kCommon = 1u << 0,
    kProfile = 1u << 1,
    kTune = 1u << 2,
    kServe = 1u << 3,
    kFleet = 1u << 4,
    kFsck = 1u << 5,
};

struct Flag
{
    unsigned sections;
    /// "--name METAVAR" as --help prints it; a switch has no metavar
    const char *usage;
    /// empty for --help: parseFlags prints the usage and exits 0
    Store store;
    /// continuation lines start after a '\n'
    const char *help;

    std::string name() const
    {
        return std::string(usage, std::strcspn(usage, " "));
    }
    bool takesValue() const { return std::strchr(usage, ' ') != nullptr; }
};

/** Every flag the CLI takes: the parser and --help both read it. */
const std::vector<Flag> &
flagTable()
{
    static const std::vector<Flag> table = [] {
        std::vector<std::string> apps;
        for (const workloads::BenchmarkSpec &spec : workloads::tableII())
            apps.push_back(spec.name);
        return std::vector<Flag>{
            {kCommon, "--app NAME", oneOf(&Options::app, apps),
             "Table II application (default IMDB)"},
            {kCommon, "--plan KIND",
             choice(&Options::plan, parsePresetPlan,
                    "baseline|inter|intra-sw|intra-hw|combined|"
                    "zero-pruning|persistent (tuned plans come from "
                    "tune or serve --tuned)"),
             "baseline|inter|intra-sw|intra-hw|combined|zero-pruning|"
             "persistent"},
            {kCommon, "--set N", count<std::size_t>(&Options::set),
             "threshold ladder rung (default: AO for run; mid-ladder\n"
             "for profile, tune, serve and fleet; sweep and mts\n"
             "ignore it)"},
            {kCommon, "--quant MODE",
             choice(&Options::quantMode, quant::parseQuantMode,
                    "fp32|int8|int4"),
             "fp32|int8|int4 weight precision (default fp32)"},
            {kCommon, "--backend NAME",
             oneOf(&Options::backend, hw::registry().names()),
             "hardware backend from the registry\n"
             "(default tx1; list with `mflstm backends`)"},
            {kCommon, "--csv", setTo(&Options::csv, true),
             "emit one CSV row instead of the table"},
            {kCommon, "--trace-csv FILE", text(&Options::traceCsv),
             "dump the lowered kernel trace as CSV"},
            {kCommon, "--trace-out FILE", text(&Options::traceOut),
             "write a Chrome trace-event JSON timeline"},
            {kCommon, "--metrics-out FILE", text(&Options::metricsOut),
             "write the metrics registry (see --metrics-format)"},
            {kCommon, "--metrics-format F",
             oneOf(&Options::metricsFormat, {"json", "prom"}),
             "json (default) | prom for --metrics-out"},
            {kCommon, "--help", nullptr, "print this message and exit"},

            {kProfile | kTune, "--out FILE", text(&Options::profileOut),
             "write the report JSON (attribution or tune report)"},
            {kProfile, "--baseline FILE", text(&Options::baselinePath),
             "diff against a saved report; regressions\n"
             "beyond --tolerance-pct exit 1"},
            {kProfile, "--tolerance-pct X", finite(&Options::tolerancePct),
             "regression threshold, percent (default 0.1)"},
            {kFsck, "--cache-dir DIR", text(&Options::cacheDir),
             "directory to verify (default mflstm_model_cache)"},

            {kServe, "--tuned", setTo(&Options::tuned, true),
             "serve sched-searched plans per rung"},
            {kServe, "--requests N",
             count<std::size_t>(&Options::requests, 1),
             "requests to submit (default 64)"},
            {kTune | kServe, "--batch N",
             count<std::size_t>(&Options::batch, 1),
             "max sequences per batched run; tune: the batch\n"
             "the plan is tuned for (default 8)"},
            {kServe, "--workers N", count<std::size_t>(&Options::workers, 1),
             "engine worker threads (default 2)"},
            {kServe, "--arrival-us N",
             count<std::size_t>(&Options::arrivalUs),
             "mean inter-arrival gap, microseconds\n"
             "(default 200; 0 = all at once)"},
            {kServe, "--deadline-ms X", finite(&Options::deadlineMs),
             "per-request wall deadline (default none)"},
            {kServe, "--queue-capacity N",
             count<std::size_t>(&Options::queueCapacity),
             "bound the queue (default 0 = unbounded)"},
            {kServe, "--admission P",
             choice(&Options::admission, serve::parseAdmissionPolicy,
                    "reject-new|reject|drop-oldest|block-with-timeout|"
                    "block"),
             "reject-new (or reject) | drop-oldest |\n"
             "block-with-timeout (or block); default reject-new"},
            {kServe, "--admit-timeout-ms X", finite(&Options::admitTimeoutMs),
             "producer wait bound for block"},
            {kServe, "--fault-rate X", finite(&Options::faultRate),
             "transient-fault probability per site"},
            {kServe | kFleet, "--chaos-seed N",
             count<std::uint64_t>(&Options::chaosSeed),
             "fault-injector / chaos plan seed (default 1;\n"
             "recorded, replays bit-identically)"},
            {kServe, "--retries N", count<int>(&Options::retries),
             "retry budget per transient fault"},
            {kServe, "--governor", setTo(&Options::governor, true),
             "degrade thresholds AO->BPA under load"},
            {kServe, "--state-dir DIR", text(&Options::stateDir),
             "persist/restore calibration + engine\n"
             "warm state; SIGTERM drains gracefully"},

            {kFleet, "--replicas N", count<std::size_t>(&Options::replicas, 1),
             "engine replicas (default 2)"},
            {kFleet, "--policy P",
             choice(&Options::policy, fleet::parseRoutingPolicy,
                    "affinity|round-robin|least-loaded"),
             "affinity | round-robin | least-loaded"},
            {kFleet, "--chaos", setTo(&Options::chaos, true),
             "run the standard seeded chaos plan"},
            {kFleet, "--no-failover", setTo(&Options::failover, false),
             "failures are terminal (control arm)"},
            {kFleet, "--ticks N", count<std::size_t>(&Options::ticks, 1),
             "control ticks to drive (default 16)"},
            {kFleet, "--store-dir DIR", text(&Options::storeDir),
             "shared warm-state store (default\n"
             "mflstm_fleet_store)"},

            {kFsck, "--quarantine", setTo(&Options::quarantineBad, true),
             "rename corrupt files to <name>.corrupt"},
        };
    }();
    return table;
}

const std::pair<const char *, int (*)(const Options &)> kCommands[] = {
    {"list", cmdList},       {"run", cmdRun},         {"sweep", cmdSweep},
    {"mts", cmdMts},         {"serve", cmdServe},     {"fleet", cmdFleet},
    {"profile", cmdProfile}, {"tune", cmdTune},       {"fsck", cmdFsck},
    {"backends", cmdBackends},
};

void
printUsage(std::FILE *to)
{
    std::string commands;
    for (const auto &[name, run] : kCommands)
        commands += std::string(name) + "|";
    std::fprintf(to, "usage: mflstm_cli <%shelp> [options]\n",
                 commands.c_str());

    struct Heading
    {
        unsigned section;
        const char *title;
        const char *footer;
    };
    static const Heading kHeadings[] = {
        {kCommon, "options:", ""},
        {kProfile, "profile options:", ""},
        {kTune, "tune options:", ""},
        {kServe, "serve options (synthetic open-loop workload):", ""},
        {kFleet, "fleet options (plus the serve knobs above):",
         "  exit 0 = zero lost requests, 1 = requests lost\n"},
        {kFsck, "fsck options:",
         "  exit 0 = all artifacts verified, 1 = corruption found\n"},
        {0, "backends:",
         "  list every registered hardware backend (id, kind, revision,\n"
         "  capability flags) usable with --backend\n"},
    };
    for (const Heading &h : kHeadings) {
        std::fprintf(to, "\n%s\n", h.title);
        for (const Flag &f : flagTable()) {
            if (!(f.sections & h.section))
                continue;
            std::string help;
            for (const char *c = f.help; *c; ++c)
                help += *c == '\n' ? std::string("\n") + std::string(21, ' ')
                                   : std::string(1, *c);
            // A usage wider than its column keeps two spaces before
            // the text.
            const int len = static_cast<int>(std::strlen(f.usage));
            std::fprintf(to, "  %-*s %s\n", len > 18 ? len + 1 : 18,
                         f.usage, help.c_str());
        }
        std::fputs(h.footer, to);
    }
}

int
usage()
{
    printUsage(stderr);
    return 2;
}

/**
 * Parse argv[2..] into @p opt through flagTable(). Returns the exit
 * status when the arguments end the program (0 after --help, 2 on a
 * bad argument), nullopt when the command should run.
 */
std::optional<int>
parseFlags(int argc, char **argv, Options &opt)
{
    for (int i = 2; i < argc; ++i) {
        const std::string arg =
            std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
        const auto flag = std::find_if(
            flagTable().begin(), flagTable().end(),
            [&](const Flag &f) { return f.name() == arg; });
        if (flag == flagTable().end()) {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage();
        }
        if (!flag->store) {
            printUsage(stdout);
            return 0;
        }
        std::string value;
        if (flag->takesValue()) {
            if (i + 1 == argc) {
                std::fprintf(stderr, "missing %s value\n", arg.c_str());
                return usage();
            }
            value = argv[++i];
        }
        const std::string why = flag->store(opt, value);
        if (!why.empty()) {
            std::fprintf(stderr, "bad %s value: %s (%s)\n", arg.c_str(),
                         value.c_str(), why.c_str());
            return usage();
        }
    }
    return std::nullopt;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    Options opt;
    opt.command = argv[1];
    if (opt.command == "--help" || opt.command == "-h" ||
        opt.command == "help") {
        printUsage(stdout);
        return 0;
    }
    const auto cmd = std::find_if(
        std::begin(kCommands), std::end(kCommands),
        [&](const auto &c) { return opt.command == c.first; });
    if (cmd == std::end(kCommands)) {
        std::fprintf(stderr, "unknown command: %s\n",
                     opt.command.c_str());
        return usage();
    }
    if (const std::optional<int> rc = parseFlags(argc, argv, opt))
        return *rc;

    try {
        return cmd->second(opt);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
