/**
 * @file
 * Layer probes of the traced run: small fixed calls into the layers a
 * workload reaches only inside the library, each timed with a span in
 * this file, so every per-layer metric is measured on every workload.
 */

#include "common.hh"
#include "gpu/simulator.hh"
#include "sched/tuner.hh"
#include "serve/engine.hh"
#include "tensor/ops.hh"

namespace hostbench {

namespace {

constexpr int kRepeats = 7;

/** Median over kRepeats of @p f's wall time, in seconds. */
template <class F>
double
medianTime(F f)
{
    std::vector<double> ts;
    for (int i = 0; i < kRepeats; ++i) {
        const double t0 = nowS();
        f();
        ts.push_back(nowS() - t0);
    }
    return median(ts);
}

bool
sameReport(const runtime::RunReport &a, const runtime::RunReport &b)
{
    return a.result.timeUs == b.result.timeUs &&
           a.result.dramBytes == b.result.dramBytes &&
           a.result.kernelCount == b.result.kernelCount &&
           a.result.energy.totalJ() == b.result.energy.totalJ();
}

} // anonymous namespace

void
runProbes(const App &app, core::MemoryFriendlyLstm &mf, SpanRecorder *rec,
          bool serve_burst, LayerValues &layer, Tally &tally)
{
    // The closed loops leave this thread on one CPU; the burst engine's
    // workers must not inherit that.
    unpinCpu();
    // tensor: one U.h product at the accuracy models' hidden sizes.
    for (std::size_t h : {40, 48, 56}) {
        tensor::Matrix a(h, h);
        tensor::Vector x(h), y(h);
        for (std::size_t i = 0; i < a.size(); ++i)
            a.data()[i] = static_cast<float>(i % 13) * 0.01f - 0.06f;
        for (std::size_t i = 0; i < h; ++i)
            x[i] = static_cast<float>(i % 7) * 0.1f;
        constexpr int kCalls = 4000;
        SpanRecorder::Scope s(rec, "tensor", "tensor.gemv");
        const double t = medianTime([&] {
            for (int i = 0; i < kCalls; ++i)
                tensor::gemv(a, x, y);
        });
        layer["tensor.gemv_ns.h" + std::to_string(h)] = t / kCalls * 1e9;
    }

    // nn: the exact forward pass; core: the approximate one at a
    // mid-ladder rung.
    const std::vector<core::ThresholdSet> ladder = mf.calibration().ladder();
    const core::ThresholdSet mid = ladder[ladder.size() / 2];
    std::vector<std::vector<std::int32_t>> seqs;
    for (const nn::Sample &s : app.eval.cls.test)
        seqs.push_back(s.tokens);
    {
        SpanRecorder::Scope s(rec, "nn", "nn.classify");
        const double t = medianTime([&] {
            for (const auto &seq : seqs)
                app.model->classify(seq);
        });
        layer["nn.exact_seq_us"] = t / static_cast<double>(seqs.size()) * 1e6;
    }
    core::ApproxRunner runner = mf.runner();
    runner.setThresholds(mid.alphaInter, mid.alphaIntra);
    {
        SpanRecorder::Scope s(rec, "core", "core.approxClassify");
        const double t = medianTime([&] {
            for (const auto &seq : seqs)
                runner.classify(seq);
        });
        layer["core.approx_seq_us"] =
            t / static_cast<double>(seqs.size()) * 1e6;
    }
    {
        // quant: building the fake-quantized twin on a precision switch.
        std::vector<double> ts;
        for (int i = 0; i < kRepeats; ++i) {
            runner.setQuantMode(quant::QuantMode::Fp32);
            SpanRecorder::Scope s(rec, "quant", "quant.twinRebuild");
            const double t0 = nowS();
            runner.setQuantMode(quant::QuantMode::Int8);
            ts.push_back(nowS() - t0);
        }
        layer["quant.twin_rebuild_ms"] = median(ts) * 1e3;
    }

    // core: one combined evaluation at the mid rung.
    mf.setThresholds(mid);
    {
        SpanRecorder::Scope s(rec, "core", "core.evalAccuracy");
        evalAccuracy(mf, app);
    }
    core::TimingOutcome out;
    {
        SpanRecorder::Scope s(rec, "core", "core.evaluateTiming");
        out = mf.evaluateTiming(runtime::PlanKind::Combined);
    }

    // Executor runs behind one evaluation, counted by a pre-run hook on
    // an executor that rebuilds the same plan the facade does; its
    // report must equal the facade's.
    const gpu::GpuConfig &cfg = mf.config().gpu;
    runtime::NetworkExecutor plain(cfg);
    std::size_t runs = 0;
    runtime::NetworkExecutor hooked(cfg);
    hooked.setPreRunHook([&runs](const runtime::RunRequest &) { ++runs; });
    sched::TuneRequest req;
    req.shape = mf.config().timingShape;
    req.stats = mf.runner().stats();
    req.mts = mf.calibration().mts;
    req.modelHidden = app.model->config().hiddenSize;
    req.quant = mid.quant;
    const runtime::RunReport again = hooked.run(
        req.shape, sched::presetPlan(hooked, req, runtime::PlanKind::Combined));
    tally.add(sameReport(again, out.report));
    layer["core.executor_runs_per_eval"] = static_cast<double>(runs);

    // runtime: lowering; gpu: simulating the lowered trace.
    gpu::KernelTrace trace;
    {
        SpanRecorder::Scope s(rec, "runtime", "runtime.lower");
        layer["runtime.lower_us"] = 1e6 * medianTime([&] {
            trace = plain.lowering().lower(req.shape, out.plan);
        });
    }
    layer["runtime.kernels_per_run"] = static_cast<double>(trace.size());
    {
        SpanRecorder::Scope s(rec, "gpu", "gpu.runTrace");
        gpu::TraceResult res;
        const double t = medianTime([&] {
            gpu::Simulator sim(cfg, out.plan.usesCrmHardware());
            res = sim.runTrace(trace);
        });
        tally.add(res.timeUs == out.report.result.timeUs);
        layer["gpu.run_trace_us"] = t * 1e6;
        layer["gpu.sim_kernels_per_s"] =
            static_cast<double>(trace.size()) / t;
    }

    // obs: one executor run with an observer attached over one without.
    {
        obs::Observer observer;
        runtime::NetworkExecutor observed(cfg, &observer);
        double with = 0.0, without = 0.0;
        {
            SpanRecorder::Scope s(rec, "obs", "obs.observedRun");
            with = medianTime([&] { observed.run(req.shape, out.plan); });
        }
        {
            SpanRecorder::Scope s(rec, "runtime", "runtime.run");
            without = medianTime([&] { plain.run(req.shape, out.plan); });
        }
        layer["obs.executor_overhead_x"] = with / without;
    }

    // sched: one search.
    {
        SpanRecorder::Scope s(rec, "sched", "sched.tune");
        const sched::TuneResult res = sched::tune(plain, req);
        layer["sched.candidates"] =
            static_cast<double>(res.candidates.size());
    }

    if (!serve_burst)
        return;
    // serve: a burst of requests, all due at once, into a fresh engine.
    std::vector<tensor::Vector> reference;
    core::ApproxRunner solo = mf.runner();
    for (const auto &seq : seqs)
        reference.push_back(solo.classify(seq));
    const std::unique_ptr<serve::InferenceEngine> engine =
        startEngine(mf, rec);
    std::vector<Arrival> burst;
    for (std::size_t i = 0; i < 4 * seqs.size(); ++i)
        burst.push_back({0.0, i % seqs.size()});
    const ServeResult res =
        serveOpenLoop(*engine, seqs, reference, burst, rec);
    tally.merge(res.tally);
    recordServeLayers(res, static_cast<double>(burst.size()) / res.wallS,
                      95.0, layer);
}

} // namespace hostbench
