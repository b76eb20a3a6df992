/**
 * @file
 * repro-sweep: the Fig. 14 AO search over all six Table II apps, in a
 * closed loop on one thread. One pass is the whole search; every point
 * is setThresholds -> evalAccuracy -> evaluateTiming. Each app's
 * points are digested and compared with the committed reference for
 * the seed's input variant.
 */

#include <cstdio>

#include "common.hh"

namespace hostbench {

namespace {

struct SweepState
{
    std::vector<App> apps;
    std::vector<std::unique_ptr<core::MemoryFriendlyLstm>> facades;
};

std::unique_ptr<SweepState>
setUp(const Options &o, std::uint64_t variant, SpanRecorder *rec)
{
    auto st = std::make_unique<SweepState>();
    const auto &specs = workloads::tableII();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        st->apps.push_back(loadApp(specs[i], o.cacheDir,
                                   mixSeed(variant, i + 1),
                                   kEvalSamples, rec));
        st->facades.push_back(makeFacade(st->apps.back(), "tx1", rec));
    }
    return st;
}

struct Pass
{
    double seconds = 0.0;
    std::size_t points = 0;
    std::map<std::string, std::string> digests;  ///< per app
    std::map<std::string, std::size_t> appPoints;
    std::vector<double> latMs;
    SkipCounts skips;
    double observerSpans = 0.0;  ///< median over app searches
};

Pass
runPass(SweepState &st, SpanRecorder *rec)
{
    Pass pass;
    std::vector<double> spans;
    const double t0 = nowS();
    for (std::size_t i = 0; i < st.apps.size(); ++i) {
        pinToFastestCpu();
        // A fresh observer per app search: memory then tracks the work
        // of one search, not how many passes a run holds.
        auto observer = std::make_unique<obs::Observer>();
        const App &app = st.apps[i];
        core::MemoryFriendlyLstm &mf = *st.facades[i];
        const std::size_t hidden = app.model->config().hiddenSize;
        Digest d;
        std::size_t n = 0;
        fig14Search(mf, app, observer.get(), rec, [&](const SweepPoint &p) {
            d.add(static_cast<std::uint64_t>(p.kind))
                .add(p.set.alphaInter)
                .add(p.set.alphaIntra)
                .add(static_cast<std::uint64_t>(p.set.quant))
                .add(p.accuracy);
            digestOutcome(d, p.outcome);
            pass.skips.add(mf.runner().stats(), hidden);
            pass.latMs.push_back(p.ms);
            ++n;
        });
        pass.digests[app.spec.name] = d.hex();
        pass.appPoints[app.spec.name] = n;
        pass.points += n;
        spans.push_back(
            static_cast<double>(observer->tracer().spans().size()));
        // Releasing the search's observer is charged to its last point.
        const double r0 = nowS();
        {
            SpanRecorder::Scope s(rec, "obs", "obs.release");
            observer.reset();
        }
        pass.latMs.back() += 1000.0 * (nowS() - r0);
    }
    pass.seconds = nowS() - t0;
    pass.observerSpans = median(spans);
    return pass;
}

/** Count each app's points as failed unless its digest matches. */
void
check(const Pass &pass, const RefTable &refs, std::uint64_t variant,
      Measured &m)
{
    for (const auto &[app, hex] : pass.digests) {
        const std::string *ref = refs.find(variant, app);
        const bool ok = ref && *ref == hex;
        if (!ok) {
            m.notes.push_back("repro-sweep: " + app + " digest " + hex +
                              " != reference " + (ref ? *ref : "(none)"));
        }
        m.tally.add(ok, pass.appPoints.at(app));
    }
}

} // anonymous namespace

Measured
runReproSweep(const Options &o, SpanRecorder *rec)
{
    Measured m;
    RefTable refs(o.refsDir, "repro-sweep");

    if (o.recordRefs) {
        for (std::uint64_t v = 0; v < kVariants; ++v) {
            auto st = setUp(o, v, nullptr);
            const Pass pass = runPass(*st, nullptr);
            for (const auto &[app, hex] : pass.digests)
                refs.set(v, app, hex);
            std::fprintf(stderr, "[hostbench] variant %llu recorded\n",
                         static_cast<unsigned long long>(v));
        }
        m.tally.add(refs.save());
        m.passRates.push_back(1.0);
        return m;
    }

    std::unique_ptr<SweepState> st;
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
            rates.push_back(static_cast<double>(p.points) / p.seconds);
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
        runProbes(st->apps.front(), *st->facades.front(), rec, true,
                  m.layer, m.tally);
    }

    SkipCounts skips;
    std::vector<double> spans;
    std::vector<std::vector<double>> lat;
    for (const Pass &p : passes) {
        lat.push_back(p.latMs);
        skips.merge(p.skips);
        spans.push_back(p.observerSpans);
    }
    // About 150 points a pass: p90 always leaves ten samples beyond it,
    // so the tail is the same percentile in every run.
    recordBestOfPasses(lat, 90.0, m);
    recordSkips(skips, m.layer);
    m.layer["obs.trace_spans"] = median(spans);
    return m;
}

} // namespace hostbench
