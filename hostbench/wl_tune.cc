/**
 * @file
 * tune-plan: sched::tune plus evaluateTiming for every Table II app x
 * {fp32, int8, int4} x hw-registry backend, in a closed loop on one
 * thread. The runner statistics each item tunes for are measured once
 * during set-up, so the timed loop never enters the functional path.
 */

#include <iterator>

#include "common.hh"
#include "hw/backend.hh"
#include "sched/tuner.hh"

namespace hostbench {

namespace {

/** Planning sequences replayed per item during set-up. */
constexpr std::size_t kPlanningSeqs = 16;

const quant::QuantMode kModes[] = {quant::QuantMode::Fp32,
                                   quant::QuantMode::Int8,
                                   quant::QuantMode::Int4};

struct Item
{
    std::string group;  ///< "<app>.<quant>", the reference key
    std::string backend;
    core::MemoryFriendlyLstm *mf = nullptr;
    sched::TuneRequest req;
};

struct TuneState
{
    std::vector<App> apps;
    std::vector<std::unique_ptr<core::MemoryFriendlyLstm>> facades;
    std::vector<Item> items;
    SkipCounts skips;
};

std::unique_ptr<TuneState>
setUp(const Options &o, std::uint64_t variant, SpanRecorder *rec)
{
    auto st = std::make_unique<TuneState>();
    const auto &specs = workloads::tableII();
    SplitMix64 rungs(mixSeed(variant, 100));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        st->apps.push_back(loadApp(specs[i], o.cacheDir,
                                   mixSeed(variant, i + 1), kPlanningSeqs,
                                   rec));
    }
    for (const App &app : st->apps) {
        const std::size_t hidden = app.model->config().hiddenSize;
        std::vector<std::size_t> rung;
        for (std::size_t q = 0; q < std::size(kModes); ++q) {
            // A seeded rung away from both ladder ends, so links break
            // and rows skip.
            rung.push_back(1 + rungs.below(9));
        }
        for (const std::string &backend : hw::registry().names()) {
            // One calibration per backend; the other precisions get
            // facades restored from it, as a warm restart does.
            const core::MemoryFriendlyLstm *calibrated =
                st->facades.emplace_back(makeFacade(app, backend, rec))
                    .get();
            for (std::size_t q = 0; q < std::size(kModes); ++q) {
                const quant::QuantMode qm = kModes[q];
                if (q > 0) {
                    SpanRecorder::Scope s(rec, "core", "core.restore");
                    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
                        *app.model, calibrated->config());
                    mf->restoreCalibration(calibrated->calibration());
                    mf->runner().predictors() =
                        calibrated->runner().predictors();
                    st->facades.push_back(std::move(mf));
                }
                core::MemoryFriendlyLstm &mf = *st->facades.back();
                const core::ThresholdSet set =
                    mf.calibration().ladder()[rung[q]];
                mf.setThresholds({set.alphaInter, set.alphaIntra, qm});
                {
                    SpanRecorder::Scope s(rec, "core",
                                          "core.evalAccuracy");
                    evalAccuracy(mf, app);
                }
                st->skips.add(mf.runner().stats(), hidden);

                Item item;
                item.group = app.spec.name + "." + quant::toString(qm);
                item.backend = backend;
                item.mf = &mf;
                item.req.shape = mf.config().timingShape;
                item.req.backendId = backend;
                item.req.stats = mf.runner().stats();
                item.req.mts = mf.calibration().mts;
                item.req.modelHidden = hidden;
                item.req.quant = qm;
                st->items.push_back(std::move(item));
            }
        }
    }
    return st;
}

struct Pass
{
    double seconds = 0.0;
    std::map<std::string, std::string> digests;
    std::map<std::string, std::size_t> groupItems;
    std::vector<double> latMs;
    std::vector<double> candidates;
    double observerSpans = 0.0;  ///< median over items
    std::size_t notDominating = 0;
};

Pass
runPass(TuneState &st, SpanRecorder *rec)
{
    Pass pass;
    std::map<std::string, Digest> digests;
    std::vector<double> spans;
    const double t0 = nowS();
    for (std::size_t i = 0; i < st.items.size(); ++i) {
        const Item &item = st.items[i];
        // Re-pick the CPU once per app's twelve items.
        if (i % (std::size(kModes) * hw::registry().names().size()) == 0)
            pinToFastestCpu();
        const double s0 = nowS();
        // A fresh observer and executor per item, as one tuning
        // invocation holds them: memory tracks one search, and releasing
        // the observer is part of the item's cost.
        auto observer = std::make_unique<obs::Observer>();
        const runtime::NetworkExecutor exec(item.mf->config().gpu,
                                            observer.get());
        sched::TuneResult res;
        {
            SpanRecorder::Scope s(rec, "sched", "sched.tune");
            res = sched::tune(exec, item.req);
        }
        core::TimingOutcome out;
        {
            SpanRecorder::Scope s(rec, "core", "core.evaluateTiming");
            core::TimingOptions opts;
            opts.kind = runtime::PlanKind::Combined;
            opts.observer = observer.get();
            out = item.mf->evaluateTiming(opts);
        }
        spans.push_back(
            static_cast<double>(observer->tracer().spans().size()));
        {
            SpanRecorder::Scope s(rec, "obs", "obs.release");
            observer.reset();
        }
        pass.latMs.push_back(1000.0 * (nowS() - s0));
        pass.candidates.push_back(
            static_cast<double>(res.candidates.size()));
        if (!res.dominatesReference ||
            res.chosen.timeUs > res.referenceTimeUs ||
            res.chosen.dramBytes > res.referenceDramBytes) {
            ++pass.notDominating;
        }

        Digest &d = digests[item.group];
        d.add(item.backend)
            .add(res.chosen.label)
            .add(res.chosen.timeUs)
            .add(res.chosen.dramBytes)
            .add(res.referenceLabel)
            .add(res.referenceTimeUs)
            .add(res.referenceDramBytes)
            .add(static_cast<std::uint64_t>(res.candidates.size()));
        digestOutcome(d, out);
        ++pass.groupItems[item.group];
    }
    pass.seconds = nowS() - t0;
    pass.observerSpans = median(spans);
    for (const auto &[g, d] : digests)
        pass.digests[g] = d.hex();
    return pass;
}

void
check(const Pass &pass, const RefTable &refs, std::uint64_t variant,
      Measured &m)
{
    for (const auto &[group, hex] : pass.digests) {
        const std::string *ref = refs.find(variant, group);
        const bool ok = ref && *ref == hex;
        if (!ok) {
            m.notes.push_back("tune-plan: " + group + " digest " + hex +
                              " != reference " + (ref ? *ref : "(none)"));
        }
        m.tally.add(ok, pass.groupItems.at(group));
    }
    if (pass.notDominating) {
        // The tuner guarantees dominance over the best preset; a plan
        // that breaks it is a wrong output even when it matches.
        m.notes.push_back("tune-plan: " +
                          std::to_string(pass.notDominating) +
                          " tuned plans lost to a preset");
        m.tally.add(false, pass.notDominating);
    }
}

} // anonymous namespace

Measured
runTunePlan(const Options &o, SpanRecorder *rec)
{
    Measured m;
    RefTable refs(o.refsDir, "tune-plan");

    if (o.recordRefs) {
        for (std::uint64_t v = 0; v < kVariants; ++v) {
            auto st = setUp(o, v, nullptr);
            for (const auto &[group, hex] : runPass(*st, nullptr).digests)
                refs.set(v, group, hex);
        }
        m.tally.add(refs.save());
        m.passRates.push_back(1.0);
        return m;
    }

    std::unique_ptr<TuneState> st;
    for (int i = 0; i < kSetupRepeats; ++i) {
        st.reset();
        const double t0 = nowS();
        st = setUp(o, o.variant(), rec);
        m.setupS.push_back(nowS() - t0);
    }

    std::vector<Pass> passes;
    auto measure = [&](SpanRecorder *r, double seconds) {
        std::vector<double> rates;
        repeatFor(seconds, [&] {
            passes.push_back(runPass(*st, r));
            const Pass &p = passes.back();
            check(p, refs, o.variant(), m);
            rates.push_back(static_cast<double>(p.latMs.size()) /
                            p.seconds);
        });
        return rates;
    };

    if (!rec) {
        m.passRates = measure(nullptr, o.seconds);
    } else {
        measure(nullptr, o.seconds / 2);
        const std::size_t untraced = passes.size();
        const double window = rec->nowUs();
        m.passRates = measure(rec, o.seconds / 2);
        recordTraceWindow(*rec, window, bestRate(passes, 0, untraced),
                          bestRate(passes, untraced, passes.size()),
                          m.layer);
        // The first item is IMDB at fp32 on tx1: the probes' facade.
        runProbes(st->apps.front(), *st->items.front().mf, rec, true,
                  m.layer, m.tally);
    }

    std::vector<double> spans, candidates;
    std::vector<std::vector<double>> lat;
    for (const Pass &p : passes) {
        lat.push_back(p.latMs);
        candidates.insert(candidates.end(), p.candidates.begin(),
                          p.candidates.end());
        spans.push_back(p.observerSpans);
    }
    // 72 items a pass: the rule always lands on p75 (ten items beyond).
    recordBestOfPasses(lat, 99.9, m);
    m.layer["sched.candidates"] = median(candidates);
    recordSkips(st->skips, m.layer);
    m.layer["obs.trace_spans"] = median(spans);
    return m;
}

} // namespace hostbench
