/**
 * @file
 * State shared by the workloads: command-line options, the model
 * cache, one Table II application's model and seeded inputs, the
 * calibrated facade, the Fig. 14 AO search, and the report every run
 * prints.
 */

#ifndef HOSTBENCH_COMMON_HH
#define HOSTBENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arith.hh"
#include "core/api.hh"
#include "spans.hh"
#include "workloads/benchmarks.hh"
#include "workloads/datagen.hh"

namespace mflstm::serve {
class InferenceEngine;
}

namespace hostbench {

using namespace mflstm;

/** Seconds on the steady clock. */
double nowS();

/** Training and calibration sizes, equal to the figure benches'. */
constexpr std::size_t kTrainSamples = 400;
constexpr std::size_t kTestSamples = 120;
constexpr std::size_t kTrainEpochs = 20;
constexpr std::size_t kCalibrationSeqs = 40;
/**
 * Evaluation samples per app for accuracy: one repro-sweep pass then
 * takes a few seconds on a 4-core Xeon, so a run holds several passes.
 */
constexpr std::size_t kEvalSamples = 20;

/**
 * Inputs come in this many seeded variants (variant = seed mod this);
 * refs/ holds the reference digests of each one.
 */
constexpr std::uint64_t kVariants = 16;

/** Set-up runs per process; setup_s is their median. */
constexpr int kSetupRepeats = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cacheDir;
    std::string outDir;
    std::string refsDir;
    /// write this workload's reference digests for every variant
    bool recordRefs = false;

    std::uint64_t variant() const { return seed % kVariants; }
};

/** One Table II application: model, calibration and seeded inputs. */
struct App
{
    workloads::BenchmarkSpec spec;
    std::shared_ptr<nn::LstmModel> model;
    std::vector<std::vector<std::int32_t>> calibration;
    /// seeded evaluation inputs (test split only)
    workloads::TaskData eval;
    double baselineAccuracy = 0.0;
};

std::string modelPath(const std::string &cache_dir,
                      const workloads::BenchmarkSpec &spec);

/** Train and save every missing model; returns how many it trained. */
std::size_t fillModelCache(const std::string &cache_dir);

/** FNV digest of every cached model file, in Table II order. */
std::string modelCacheFingerprint(const std::string &cache_dir);

/**
 * Load @p spec's cached model and build its inputs: the calibration
 * sequences (the fixed training split) and @p n_eval evaluation
 * samples drawn from the task generator under @p eval_seed.
 * @throws std::runtime_error when the model is not cached.
 */
App loadApp(const workloads::BenchmarkSpec &spec,
            const std::string &cache_dir, std::uint64_t eval_seed,
            std::size_t n_eval, SpanRecorder *rec);

/** A calibrated facade on hw-registry backend @p backend. */
std::unique_ptr<core::MemoryFriendlyLstm>
makeFacade(const App &app, const std::string &backend, SpanRecorder *rec);

/** Accuracy through the approximate dataflow on the app's inputs. */
double evalAccuracy(core::MemoryFriendlyLstm &mf, const App &app);

/** Fold every simulated figure of one timing outcome into @p d. */
void digestOutcome(Digest &d, const core::TimingOutcome &out);

/** Useful-work counts summed over runner statistics. */
struct SkipCounts
{
    double skippedRows = 0.0;
    double rows = 0.0;    ///< cells x hidden size
    double links = 0.0;
    double breaks = 0.0;

    void add(const std::vector<core::LayerApproxStats> &stats,
             std::size_t hidden);
    void merge(const SkipCounts &o)
    {
        skippedRows += o.skippedRows;
        rows += o.rows;
        links += o.links;
        breaks += o.breaks;
    }
};

/** One evaluated point of the Fig. 14 search. */
struct SweepPoint
{
    runtime::PlanKind kind = runtime::PlanKind::Baseline;
    core::ThresholdSet set;
    double accuracy = 0.0;
    core::TimingOutcome outcome;
    double ms = 0.0;  ///< host wall time of the three calls
};

/**
 * The Fig. 14 AO search for one app, as bench_fig14_overall runs it:
 * inter and intra ladders, the combined back-off at fp32, int8 alone
 * and the combined back-off at int8. Every point is setThresholds ->
 * evalAccuracy -> evaluateTiming (timed under @p obs) and is handed to
 * @p on_point. Returns the combined fp32 AO threshold set.
 */
core::ThresholdSet
fig14Search(core::MemoryFriendlyLstm &mf, const App &app,
            obs::Observer *obs, SpanRecorder *rec,
            const std::function<void(const SweepPoint &)> &on_point);

/** Reference digests: "<variant> <key> <hex>" lines, one file each. */
class RefTable
{
  public:
    RefTable(const std::string &dir, const std::string &workload);
    /** nullptr when no reference was recorded for the key. */
    const std::string *find(std::uint64_t variant,
                            const std::string &key) const;
    void set(std::uint64_t variant, const std::string &key,
             const std::string &hex);
    bool save() const;

  private:
    std::string path_;
    std::map<std::pair<std::uint64_t, std::string>, std::string> refs_;
};

/** Per-layer values of one run, keyed by metric name. */
using LayerValues = std::map<std::string, double>;

/** What one workload measured. */
struct Measured
{
    Tally tally;
    /// the end-to-end throughput (ops_per_s)
    double opsPerS = 0.0;
    /// operations per second of each complete pass (or phase)
    std::vector<double> passRates;
    /// every per-operation latency sample, ms
    std::vector<double> latMs;
    /// the reported latency (lat_p50_ms, lat_tail_ms)
    Summary lat;
    /// seconds of each set-up repeat
    std::vector<double> setupS;
    LayerValues layer;
    /// human-readable notes printed before the result line
    std::vector<std::string> notes;
};

/**
 * Closed-loop results from per-pass operation latencies: each
 * operation's best time over the passes becomes its latency sample, and
 * ops_per_s is the operation count over the sum of those best times.
 * The host switches between fast and slow phases lasting seconds; the
 * best of several passes measures the program rather than the phase.
 */
void recordBestOfPasses(const std::vector<std::vector<double>> &pass_lat_ms,
                        double tail_cap, Measured &m);

/**
 * Move the calling thread to the CPU, of those the process started
 * with, that runs a short fixed loop fastest right now. Shared VMs slow
 * single vCPUs down by ~1.45x for seconds to minutes at a time, each
 * vCPU on its own schedule; the closed loops call this between app
 * searches so their timings follow the program, not the neighbours.
 */
void pinToFastestCpu();

/**
 * Give the calling thread back every CPU the process started with, so
 * threads it starts afterwards (a serving engine's workers) spread out.
 */
void unpinCpu();

/** Best-of-passes operations per second over passes [from, to). */
template <class Pass>
double
bestRate(const std::vector<Pass> &passes, std::size_t from, std::size_t to)
{
    std::vector<std::vector<double>> lat;
    for (std::size_t i = from; i < to; ++i)
        lat.push_back(passes[i].latMs);
    return opsPerSecond(bestOfPasses(lat));
}

/** Run @p pass until @p seconds have elapsed (at least once). */
template <class F>
void
repeatFor(double seconds, F pass)
{
    const double t0 = nowS();
    do {
        pass();
    } while (nowS() - t0 < seconds);
}

/**
 * Traced-run bookkeeping shared by the workloads: the self-time share
 * of the traced window and the tracing overhead against the untraced
 * window measured in the same process.
 */
void recordTraceWindow(const SpanRecorder &rec, double window_start_us,
                       double untraced_rate, double traced_rate,
                       LayerValues &layer);

/**
 * Layer probes of the traced run: small fixed calls into tensor, nn,
 * core, quant, runtime, gpu, obs and sched on the facade of @p app (a
 * classification app; every workload passes IMDB on tx1), plus a
 * burst into a serving engine when @p serve_burst. Fills the per-call
 * layer metrics the workload itself does not produce; failed checks
 * count in @p tally.
 */
void runProbes(const App &app, core::MemoryFriendlyLstm &mf,
               SpanRecorder *rec, bool serve_burst, LayerValues &layer,
               Tally &tally);

/** Everything one serving phase observed, one entry per request. */
struct ServeResult
{
    Tally tally;
    std::vector<double> latMs;   ///< from due (open) or submit (closed) time
    std::vector<double> lateMs;  ///< generator lateness at submit
    std::vector<double> queueMs, batchWaitMs, execMs;
    std::size_t good = 0;  ///< correct and within the latency limit
    std::size_t shed = 0;
    double meanBatch = 0.0;
    double wallS = 0.0;    ///< generator wall time
    double doneS = 0.0;    ///< last completion, from the phase start
};

/**
 * The serving engine every serve measurement uses on @p mf's active
 * thresholds: combined plan on tx1, maxBatch 8, 2 workers.
 */
std::unique_ptr<serve::InferenceEngine>
startEngine(const core::MemoryFriendlyLstm &mf, SpanRecorder *rec);

/**
 * Submit @p schedule into @p engine from this thread, then collect and
 * check every response against @p reference.
 */
ServeResult
serveOpenLoop(serve::InferenceEngine &engine,
              const std::vector<std::vector<std::int32_t>> &pool,
              const std::vector<tensor::Vector> &reference,
              const std::vector<Arrival> &schedule, SpanRecorder *rec);

/** The serve.* layer metrics of one phase. */
void recordServeLayers(const ServeResult &r, double offered_rps,
                       double tail_cap, LayerValues &layer);

/** Skipped-row and broken-link shares of one runner's statistics. */
void recordSkips(const SkipCounts &skips, LayerValues &layer);

Measured runReproSweep(const Options &o, SpanRecorder *rec);
Measured runTunePlan(const Options &o, SpanRecorder *rec);
Measured runServe(const Options &o, SpanRecorder *rec);

} // namespace hostbench

#endif // HOSTBENCH_COMMON_HH
