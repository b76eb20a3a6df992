/**
 * @file
 * Auto-scheduler acceptance gate (DESIGN.md §14): for every Table II
 * application, at fp32 and int8, run the tuner and check its dominance
 * guarantee end-to-end — the chosen plan must be no worse than the
 * best preset on simulated time AND DRAM bytes, per app and in
 * geomean. Exit 1 on any violation, so CI fails when a search or cost
 * model regression lets the tuner pick a worse schedule than the
 * presets it replaces.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hh"
#include "sched/tuner.hh"

namespace {

using namespace mflstm;
using namespace mflstm::bench;

struct GateRow
{
    std::string app;
    std::string mode;
    std::string chosenLabel;
    std::string referenceLabel;
    double timeRatio = 0.0;   ///< chosen / reference, <= 1 required
    double bytesRatio = 0.0;  ///< chosen / reference, <= 1 required
    bool ok = false;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Positional args select a subset of the Table II applications.
    std::vector<workloads::BenchmarkSpec> specs;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        bool wanted = argc < 2;
        for (int i = 1; i < argc && !wanted; ++i)
            wanted = spec.name == argv[i] || spec.abbrev == argv[i];
        if (wanted)
            specs.push_back(spec);
    }
    if (specs.empty()) {
        std::fprintf(stderr,
                     "no matching application; valid names are:\n");
        for (const workloads::BenchmarkSpec &spec : workloads::tableII())
            std::fprintf(stderr, "  %s (%s)\n", spec.name.c_str(),
                         spec.abbrev.c_str());
        return 2;
    }

    const quant::QuantMode modes[] = {quant::QuantMode::Fp32,
                                      quant::QuantMode::Int8};

    std::printf("Auto-scheduler dominance gate: tuned plan vs best "
                "preset (time AND DRAM bytes)\n");
    rule('=');
    std::printf("%-6s %-5s | %-20s %-20s | %9s %9s | %s\n", "App",
                "quant", "chosen", "reference", "time", "bytes",
                "ok?");
    rule();

    BenchReport rep("tune_gate");
    std::vector<GateRow> rows;

    for (const workloads::BenchmarkSpec &spec : specs) {
        const AppContext app = makeApp(spec);
        auto mf = makeCalibrated(app);
        const auto ladder = mf->calibration().ladder();
        // Mid-ladder rung: active break/skip statistics without the
        // cost of an AO sweep (mirrors `mflstm tune`).
        const std::size_t rung = ladder.size() / 2;

        for (quant::QuantMode qm : modes) {
            mf->runner().resetStats();
            mf->setThresholds({ladder[rung].alphaInter,
                               ladder[rung].alphaIntra, qm});
            evalAccuracy(*mf, app);

            sched::TuneRequest req;
            req.shape = mf->config().timingShape;
            req.stats = mf->runner().stats();
            req.mts = mf->calibration().mts;
            req.modelHidden =
                mf->runner().model().config().hiddenSize;
            req.quant = qm;
            const sched::TuneResult res =
                sched::tune(mf->executor(), req);

            // The residency axis must actually be searched: the
            // persistent preset has to show up in the candidate table
            // for the dominance guarantee to cover it (DESIGN.md §15).
            bool sawPersistent = false;
            for (const sched::Candidate &c : res.candidates)
                sawPersistent =
                    sawPersistent || c.label == "preset:persistent";
            if (!sawPersistent) {
                std::fprintf(stderr,
                             "%s/%s: preset:persistent missing from "
                             "the tuner's candidate table\n",
                             spec.name.c_str(),
                             quant::toString(qm));
                return 1;
            }

            GateRow row;
            row.app = spec.name;
            row.mode = quant::toString(qm);
            row.chosenLabel = res.chosen.label;
            row.referenceLabel = res.referenceLabel;
            row.timeRatio = res.chosen.timeUs / res.referenceTimeUs;
            row.bytesRatio =
                res.chosen.dramBytes / res.referenceDramBytes;
            row.ok = res.dominatesReference &&
                     res.chosen.timeUs <= res.referenceTimeUs &&
                     res.chosen.dramBytes <= res.referenceDramBytes;
            rows.push_back(row);

            std::printf("%-6s %-5s | %-20s %-20s | %8.4fx %8.4fx | "
                        "%s\n",
                        row.app.c_str(), row.mode.c_str(),
                        row.chosenLabel.c_str(),
                        row.referenceLabel.c_str(), row.timeRatio,
                        row.bytesRatio, row.ok ? "yes" : "NO");

            const std::string key = spec.name + "." + row.mode;
            rep.metric(key + ".tuned_over_ref.time_ratio",
                       row.timeRatio);
            rep.metric(key + ".tuned_over_ref.bytes_ratio",
                       row.bytesRatio);
            rep.metric(key + ".dominates", row.ok ? 1.0 : 0.0);
        }
    }
    rule();

    bool all_ok = true;
    for (quant::QuantMode qm : modes) {
        const std::string mode = quant::toString(qm);
        std::vector<double> times, bytes;
        for (const GateRow &row : rows) {
            if (row.mode != mode)
                continue;
            all_ok = all_ok && row.ok;
            times.push_back(row.timeRatio);
            bytes.push_back(row.bytesRatio);
        }
        const double gt = geomean(times), gb = geomean(bytes);
        // The per-app gate already implies <= 1; the geomean is what
        // the acceptance criterion names, so gate it explicitly too.
        all_ok = all_ok && gt <= 1.0 && gb <= 1.0;
        std::printf("%-5s geomean: time %.4fx, bytes %.4fx of the "
                    "best preset\n",
                    mode.c_str(), gt, gb);
        rep.metric("geomean." + mode + ".tuned_over_ref.time_ratio",
                   gt);
        rep.metric("geomean." + mode + ".tuned_over_ref.bytes_ratio",
                   gb);
    }
    std::printf("gate: %s\n",
                all_ok ? "PASS (tuned never worse than the best "
                         "preset on either axis)"
                       : "FAIL");
    rep.metric("gate.pass", all_ok ? 1.0 : 0.0);
    rep.write();
    return all_ok ? 0 : 1;
}
