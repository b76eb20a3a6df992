#include "common.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "hw/backend.hh"
#include "nn/serialize.hh"

namespace hostbench {

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
modelPath(const std::string &cache_dir,
          const workloads::BenchmarkSpec &spec)
{
    return cache_dir + "/" + spec.name + "_h" +
           std::to_string(spec.modelHidden) + "_l" +
           std::to_string(spec.modelLength) + ".bin";
}

std::size_t
fillModelCache(const std::string &cache_dir)
{
    std::size_t trained = 0;
    std::filesystem::create_directories(cache_dir);
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        const std::string path = modelPath(cache_dir, spec);
        if (nn::isModelFile(path))
            continue;
        std::fprintf(stderr, "[hostbench] training %s model...\n",
                     spec.name.c_str());
        const workloads::TaskData data =
            workloads::makeTask(spec, kTrainSamples, kTestSamples);
        nn::saveModel(
            workloads::trainAccuracyModel(spec, data, kTrainEpochs), path);
        ++trained;
    }
    return trained;
}

std::string
modelCacheFingerprint(const std::string &cache_dir)
{
    Digest d;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        std::ifstream is(modelPath(cache_dir, spec), std::ios::binary);
        const std::string bytes((std::istreambuf_iterator<char>(is)),
                                std::istreambuf_iterator<char>());
        d.add(bytes);
    }
    return d.hex();
}

App
loadApp(const workloads::BenchmarkSpec &spec, const std::string &cache_dir,
        std::uint64_t eval_seed, std::size_t n_eval, SpanRecorder *rec)
{
    App app;
    app.spec = spec;
    const std::string path = modelPath(cache_dir, spec);
    if (!nn::isModelFile(path))
        throw std::runtime_error("model cache is empty: " + path);
    {
        SpanRecorder::Scope s(rec, "io", "io.loadModel");
        app.model = std::make_shared<nn::LstmModel>(nn::loadModel(path));
    }
    {
        // The first kCalibrationSeqs training samples, exactly as a
        // figure bench calibrates on them (the generator emits the
        // training split first, so a shorter split is its prefix).
        SpanRecorder::Scope s(rec, "workloads", "workloads.makeTask");
        app.calibration = workloads::makeTask(spec, kCalibrationSeqs, 0)
                              .calibrationSequences(kCalibrationSeqs);
        workloads::BenchmarkSpec seeded = spec;
        seeded.seed = eval_seed;
        app.eval = workloads::makeTask(seeded, 0, n_eval);
    }
    {
        SpanRecorder::Scope s(rec, "nn", "nn.exactAccuracy");
        app.baselineAccuracy =
            workloads::exactAccuracy(*app.model, app.eval);
    }
    return app;
}

std::unique_ptr<core::MemoryFriendlyLstm>
makeFacade(const App &app, const std::string &backend, SpanRecorder *rec)
{
    const gpu::GpuConfig *cfg = nullptr;
    {
        SpanRecorder::Scope s(rec, "hw", "hw.registry.get");
        cfg = &hw::registry().get(backend).config;
    }
    std::unique_ptr<core::MemoryFriendlyLstm> mf;
    {
        SpanRecorder::Scope s(rec, "core", "core.construct");
        mf = std::make_unique<core::MemoryFriendlyLstm>(
            *app.model, core::MemoryFriendlyLstm::Config{
                            *cfg, app.spec.timingShape(), nullptr});
    }
    {
        SpanRecorder::Scope s(rec, "core", "core.calibrate");
        mf->calibrate(app.calibration);
    }
    return mf;
}

double
evalAccuracy(core::MemoryFriendlyLstm &mf, const App &app)
{
    if (app.eval.isLm)
        return core::approxLmNextTokenAccuracy(mf.runner(),
                                               app.eval.lm.test);
    return core::approxClassificationAccuracy(mf.runner(),
                                              app.eval.cls.test);
}

void
digestOutcome(Digest &d, const core::TimingOutcome &out)
{
    const gpu::TraceResult &r = out.report.result;
    d.add(r.timeUs)
        .add(r.cycles)
        .add(static_cast<std::uint64_t>(r.kernelCount))
        .add(r.flops)
        .add(r.dramBytes)
        .add(r.l2Bytes)
        .add(r.sharedBytes)
        .add(r.weightDramBytes)
        .add(r.energy.totalJ())
        .add(out.speedup)
        .add(out.energySavingPct);
}

void
SkipCounts::add(const std::vector<core::LayerApproxStats> &stats,
                std::size_t hidden)
{
    for (const core::LayerApproxStats &st : stats) {
        skippedRows += st.skippedRows;
        rows += static_cast<double>(st.cells) *
                static_cast<double>(hidden);
        links += static_cast<double>(st.links);
        breaks += static_cast<double>(st.breaks);
    }
}

namespace {

/** The CPUs the process started with. */
const cpu_set_t &
startCpus()
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof set, &set);
        return set;
    }();
    return allowed;
}

} // anonymous namespace

void
unpinCpu()
{
    sched_setaffinity(0, sizeof(cpu_set_t), &startCpus());
}

void
pinToFastestCpu()
{
    const cpu_set_t &allowed = startCpus();
    // A dependent multiply-add chain: pure core speed, no memory.
    auto canary = [] {
        volatile double sink = 0.0;
        double x = 1.0;
        const double t0 = nowS();
        for (int i = 0; i < 100000; ++i)
            x = x * 0.999999 + 1e-6;
        sink = x;
        (void)sink;
        return nowS() - t0;
    };
    int best_cpu = -1;
    double best = 0.0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0)
            continue;
        const double t = std::min({canary(), canary(), canary()});
        if (best_cpu < 0 || t < best) {
            best_cpu = cpu;
            best = t;
        }
    }
    if (best_cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(best_cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }
}

void
recordSkips(const SkipCounts &skips, LayerValues &layer)
{
    layer["core.rows_skipped_frac"] = skips.skippedRows / skips.rows;
    layer["core.links_broken_frac"] = skips.breaks / skips.links;
}

void
recordBestOfPasses(const std::vector<std::vector<double>> &pass_lat_ms,
                   double tail_cap, Measured &m)
{
    m.latMs = bestOfPasses(pass_lat_ms);
    m.lat = summarize(m.latMs, tail_cap);
    m.opsPerS = opsPerSecond(m.latMs);
}

void
recordTraceWindow(const SpanRecorder &rec, double window_start_us,
                  double untraced_rate, double traced_rate,
                  LayerValues &layer)
{
    const double wall_ms = (rec.nowUs() - window_start_us) / 1000.0;
    double covered = 0.0;
    for (const auto &[l, ms] : rec.selfMsByLayer(window_start_us))
        covered += ms;
    layer["trace.covered_frac"] = covered / wall_ms;
    layer["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0);
}

core::ThresholdSet
fig14Search(core::MemoryFriendlyLstm &mf, const App &app,
            obs::Observer *obs, SpanRecorder *rec,
            const std::function<void(const SweepPoint &)> &on_point)
{
    const std::vector<core::ThresholdSet> ladder =
        mf.calibration().ladder();

    auto point = [&](runtime::PlanKind kind, core::ThresholdSet set) {
        SweepPoint p;
        p.kind = kind;
        p.set = set;
        const double t0 = nowS();
        {
            SpanRecorder::Scope s(rec, "core", "core.setThresholds");
            mf.setThresholds(set);
        }
        {
            SpanRecorder::Scope s(rec, "core", "core.evalAccuracy");
            p.accuracy = evalAccuracy(mf, app);
        }
        {
            SpanRecorder::Scope s(rec, "core", "core.evaluateTiming");
            core::TimingOptions opts;
            opts.kind = kind;
            opts.observer = obs;
            p.outcome = mf.evaluateTiming(opts);
        }
        p.ms = 1000.0 * (nowS() - t0);
        on_point(p);
        return p;
    };

    // One scheme across the ladder, applying only the alphas it uses.
    auto ao_of = [&](runtime::PlanKind kind) {
        runtime::ExecutionPlan probe;
        probe.kind = kind;
        std::vector<core::OperatingPoint> pts;
        for (std::size_t i = 0; i < ladder.size(); ++i) {
            const SweepPoint p = point(
                kind, {probe.usesInter() ? ladder[i].alphaInter : 0.0,
                       probe.usesIntra() ? ladder[i].alphaIntra : 0.0,
                       ladder[i].quant});
            pts.push_back({i, p.set, p.outcome.speedup, p.accuracy});
        }
        const std::size_t ao =
            core::selectAo(pts, app.baselineAccuracy, 2.0);
        return std::pair(ao, pts[ao].accuracy);
    };

    std::size_t ao_i = 0, ao_d = 0;
    double acc_i = 0.0, acc_d = 0.0;
    std::tie(ao_i, acc_i) = ao_of(runtime::PlanKind::InterCell);
    std::tie(ao_d, acc_d) = ao_of(runtime::PlanKind::IntraCellHw);

    // Combined AO: start from each level's own AO rung and back off the
    // level with the larger standalone loss until the pair fits 2%.
    auto combined_at = [&](quant::QuantMode qm) {
        std::size_t ci = ao_i, cd = ao_d;
        for (;;) {
            const core::ThresholdSet set{ladder[ci].alphaInter,
                                         ladder[cd].alphaIntra, qm};
            const SweepPoint p = point(runtime::PlanKind::Combined, set);
            if (app.baselineAccuracy - p.accuracy <= 0.02 + 1e-9 ||
                (ci == 0 && cd == 0)) {
                return set;
            }
            const double loss_i = app.baselineAccuracy - acc_i;
            const double loss_d = app.baselineAccuracy - acc_d;
            if (ci > 0 && (cd == 0 || loss_i >= loss_d))
                --ci;
            else
                --cd;
        }
    };

    const core::ThresholdSet ao = combined_at(quant::QuantMode::Fp32);
    point(runtime::PlanKind::Baseline, {0.0, 0.0, quant::QuantMode::Int8});
    combined_at(quant::QuantMode::Int8);
    return ao;
}

RefTable::RefTable(const std::string &dir, const std::string &workload)
    : path_(dir + "/" + workload + ".ref")
{
    std::ifstream is(path_);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::uint64_t variant = 0;
        std::string key, hex;
        if (ls >> variant >> key >> hex)
            refs_[{variant, key}] = hex;
    }
}

const std::string *
RefTable::find(std::uint64_t variant, const std::string &key) const
{
    const auto it = refs_.find({variant, key});
    return it == refs_.end() ? nullptr : &it->second;
}

void
RefTable::set(std::uint64_t variant, const std::string &key,
              const std::string &hex)
{
    refs_[{variant, key}] = hex;
}

bool
RefTable::save() const
{
    std::ofstream os(path_);
    for (const auto &[k, hex] : refs_)
        os << k.first << ' ' << k.second << ' ' << hex << '\n';
    return static_cast<bool>(os);
}

} // namespace hostbench
