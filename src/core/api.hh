/**
 * @file
 * MemoryFriendlyLstm — the library's public facade. Wraps a trained
 * accuracy model (nn::LstmModel) and a full-size timing shape (Table II
 * row) and drives the paper's whole flow:
 *
 *   offline (Fig. 10 ops 1-4): MTS sweep on the target GPU, threshold
 *   upper limits from the calibration profile, context-link predictors;
 *
 *   per threshold set: run the approximate dataflow for accuracy +
 *   division/skip statistics, project the statistics onto the timing
 *   shape, and simulate the resulting kernel schedule for speedup and
 *   energy.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   nn::LstmModel model = ...train...;
 *   core::MemoryFriendlyLstm mf(model, {gpu::GpuConfig::tegraX1(),
 *                                       runtime::NetworkShape::stacked(
 *                                           512, 512, 3, 80)});
 *   mf.calibrate(train_seqs);
 *   mf.setThresholds({a_inter, a_intra});
 *   double acc = core::approxClassificationAccuracy(mf.runner(), test);
 *   auto timing = mf.evaluateTiming({runtime::PlanKind::Combined});
 */

#ifndef MFLSTM_CORE_API_HH
#define MFLSTM_CORE_API_HH

#include <memory>
#include <optional>

#include "core/approx.hh"
#include "core/planner.hh"
#include "core/thresholds.hh"
#include "core/tissue.hh"
#include "gpu/config.hh"
#include "runtime/executor.hh"

namespace mflstm {
namespace core {

/** One timing evaluation (vs the cached baseline). */
struct TimingOutcome
{
    runtime::RunReport report;
    runtime::ExecutionPlan plan;
    double speedup = 1.0;
    double energySavingPct = 0.0;
};

/** Everything one evaluateTiming call needs, in one descriptor. */
struct TimingOptions
{
    runtime::PlanKind kind = runtime::PlanKind::Combined;
    /// element fraction pruned by the ZeroPruning comparator ([31]'s
    /// reported LSTM sparsity); ignored by every other kind
    double pruneFraction = 0.37;
    /**
     * Observability sink for this evaluation only, overriding (not
     * merging with) Config::observer. nullptr keeps the configured
     * sink.
     */
    obs::Observer *observer = nullptr;
};

class MemoryFriendlyLstm
{
  public:
    struct Config
    {
        gpu::GpuConfig gpu = gpu::GpuConfig::tegraX1();
        runtime::NetworkShape timingShape;
        /**
         * Optional observability sink: host phases (calibration,
         * planning, lowering, simulation), the simulated-kernel
         * timeline and the metrics registry all record into it. The
         * facade never owns it; nullptr (the default) disables all
         * recording.
         */
        obs::Observer *observer = nullptr;
    };

    /** Offline calibration results (Fig. 10 left half). */
    struct Calibration
    {
        std::size_t mts = 1;
        MtsResult mtsSweep;
        ThresholdLimits limits;
        ApproxRunner::CalibrationProfile profile;

        /** The Fig. 19 threshold ladder for this application. */
        std::vector<ThresholdSet> ladder(std::size_t count = 11) const
        {
            return thresholdLadder(profile, limits, count);
        }
    };

    MemoryFriendlyLstm(const nn::LstmModel &accuracy_model,
                       const Config &cfg);

    /**
     * Offline phase: MTS sweep, threshold limits, link predictors.
     * @param train_seqs token sequences representative of training data.
     */
    const Calibration &
    calibrate(const std::vector<std::vector<std::int32_t>> &train_seqs);

    bool calibrated() const { return calibration_.has_value(); }
    const Calibration &calibration() const;

    /**
     * Install a previously computed Calibration without re-running the
     * offline phase — the warm-restart path (core/persist.hh). The
     * caller is responsible for the calibration matching this model;
     * loadCalibration enforces that with a model fingerprint.
     */
    void restoreCalibration(const Calibration &calib)
    {
        calibration_ = calib;
    }

    /**
     * Set the two approximation thresholds and reset the accumulated
     * division/skip statistics (every threshold change starts a fresh
     * measurement window). This is the supported mutation path; use
     * runner() for inspection and accuracy evaluation.
     *
     * @throws std::logic_error when set.alphaInter > 0 before
     *         calibrate() has run (layer division needs predictors).
     */
    void setThresholds(const ThresholdSet &set);

    /** The thresholds most recently applied via setThresholds(). */
    const ThresholdSet &thresholds() const { return thresholds_; }

    /** The approximate dataflow runner (inspection / accuracy eval). */
    ApproxRunner &runner() { return runner_; }
    const ApproxRunner &runner() const { return runner_; }

    const runtime::NetworkExecutor &executor() const { return executor_; }
    const Config &config() const { return cfg_; }

    /** Cached baseline (Algorithm 1) timing of the full-size shape. */
    const runtime::RunReport &baseline() const { return baseline_; }

    /**
     * Project the runner's current statistics onto the timing shape and
     * simulate @p opts.kind. Run an accuracy evaluation through
     * runner() first so the statistics reflect the active thresholds.
     */
    TimingOutcome evaluateTiming(const TimingOptions &opts) const;

    /**
     * Per-rung snapshot for the serving governor: a private runner
     * configured at one threshold set plus the execution plan its
     * measured statistics imply.
     */
    struct RungSnapshot
    {
        ThresholdSet set;
        runtime::ExecutionPlan plan;
        ApproxRunner runner;
    };

    /**
     * Build a RungSnapshot for @p set without mutating the facade:
     * copies the calibrated runner, applies the thresholds, replays
     * @p eval_seqs to measure division/skip statistics, and builds the
     * plan exactly as evaluateTiming would for @p opts.kind. The
     * serving engine snapshots every governor-ladder rung this way at
     * construction.
     *
     * @throws std::logic_error when set.alphaInter > 0 before
     *         calibrate() has run.
     * @throws std::invalid_argument when @p opts.kind is statistics-
     *         driven and @p eval_seqs is empty.
     */
    RungSnapshot
    snapshotRung(const ThresholdSet &set,
                 const std::vector<std::vector<std::int32_t>> &eval_seqs,
                 const TimingOptions &opts) const;

    /**
     * Positional form; delegates to evaluateTiming(const
     * TimingOptions&).
     */
    TimingOutcome evaluateTiming(runtime::PlanKind kind,
                                 double prune_fraction = 0.37) const;

  private:
    runtime::ExecutionPlan
    planFromStats(const TimingOptions &opts,
                  const std::vector<LayerApproxStats> &stats,
                  quant::QuantMode quant_mode,
                  const runtime::NetworkExecutor &exec,
                  obs::Observer *observer) const;

    Config cfg_;
    runtime::NetworkExecutor executor_;
    ApproxRunner runner_;
    runtime::RunReport baseline_;
    std::optional<Calibration> calibration_;
    ThresholdSet thresholds_;
};

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_API_HH
