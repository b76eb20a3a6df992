/**
 * @file
 * Shared harness for the figure/table reproduction binaries: per-app
 * context (trained accuracy model + synthetic datasets, disk-cached),
 * threshold-ladder evaluation per execution scheme, and small table
 * formatting helpers. Every bench_* binary prints the rows/series the
 * corresponding paper figure reports.
 */

#ifndef MFLSTM_BENCH_HARNESS_HH
#define MFLSTM_BENCH_HARNESS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hh"
#include "obs/observer.hh"
#include "workloads/benchmarks.hh"
#include "workloads/datagen.hh"

namespace mflstm {
namespace bench {

/**
 * Machine-readable results of one bench binary, written as
 * `BENCH_<name>.json` in the working directory under the one shared
 * schema every bench emits (obs::kBenchSchema / kBenchVersion; read
 * back only through obs::readBenchMetrics):
 *
 *   { "schema": "mflstm.bench", "version": 1, "name": "...",
 *     "config": { "<key>": "<string>", ... },
 *     "metrics": { "<metric>": <number>, ... } }
 *
 * Metric names are hierarchical dotted paths ("IMDB.combined.speedup",
 * "geomean.inter.speedup") so diffs group naturally; config records
 * the knobs that make two runs comparable (GPU, app filter, sizes).
 * Keys are kept in sorted order, so byte-identical inputs produce
 * byte-identical reports (the determinism `bench_diff` relies on).
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    void config(const std::string &key, const std::string &value);
    void metric(const std::string &name, double value);

    const std::string &name() const { return name_; }
    const std::map<std::string, double> &metrics() const
    {
        return metrics_;
    }

    /** `BENCH_<name>.json` (relative, next to the printed tables). */
    std::string path() const;

    /** Write the report; warns on stderr and returns false on I/O error. */
    bool write() const;

  private:
    std::string name_;
    std::map<std::string, std::string> config_;
    std::map<std::string, double> metrics_;
};

/**
 * Process-wide observability sink shared by every facade the harness
 * builds (makeCalibrated wires it in). At process exit the accumulated
 * metrics registry is written to `<program>_metrics.json` in the
 * working directory, next to the bench's printed tables; nothing is
 * written when no metrics were recorded.
 */
obs::Observer &benchObserver();

/** Everything one Table II application needs for an experiment. */
struct AppContext
{
    workloads::BenchmarkSpec spec;
    workloads::TaskData data;
    std::shared_ptr<nn::LstmModel> model;
    double baselineAccuracy = 0.0;
};

/** Dataset sizes used across the benches (kept modest but meaningful). */
constexpr std::size_t kTrainSamples = 400;
constexpr std::size_t kTestSamples = 120;
constexpr std::size_t kTrainEpochs = 20;
constexpr std::size_t kCalibrationSeqs = 40;

/**
 * Build (or load from the on-disk cache) the trained accuracy model and
 * datasets for one benchmark. The cache lives in ./mflstm_model_cache;
 * models are deterministic, so the cache only saves training time.
 */
AppContext makeApp(const workloads::BenchmarkSpec &spec);

/** makeApp for every Table II application, in order. */
std::vector<AppContext> makeAllApps();

/**
 * A facade for one app (baseline timing already run, not calibrated)
 * on the named hw-registry backend, reporting to @p obs (may be null).
 * @throws std::out_of_range on an unknown backend id.
 */
std::unique_ptr<core::MemoryFriendlyLstm>
makeFacade(const AppContext &app, const std::string &backendId,
           obs::Observer *obs);

/**
 * makeFacade reporting to benchObserver(), plus the offline calibration
 * over kCalibrationSeqs sequences. "tx1" is the paper's anchor and the
 * default every existing bench keeps.
 */
std::unique_ptr<core::MemoryFriendlyLstm>
makeCalibrated(const AppContext &app,
               const std::string &backendId = "tx1");

/** Task-appropriate accuracy through the approximate dataflow. */
double evalAccuracy(core::MemoryFriendlyLstm &mf, const AppContext &app);

/** One evaluated scheme across the whole threshold ladder. */
struct SchemeCurve
{
    runtime::PlanKind kind;
    std::vector<core::OperatingPoint> points;   ///< one per ladder set
    std::vector<core::TimingOutcome> outcomes;  ///< matching timing runs
};

/**
 * The thresholds scheme @p kind applies at @p set: inter-only schemes
 * zero alpha_intra and vice versa. The quant mode passes through
 * unconditionally: it is orthogonal to which alphas the scheme uses
 * (DESIGN.md §12).
 */
core::ThresholdSet schemeThresholds(runtime::PlanKind kind,
                                    const core::ThresholdSet &set);

/**
 * Sweep the Fig. 19 ladder for one scheme, applying schemeThresholds
 * at every rung.
 */
SchemeCurve evaluateScheme(core::MemoryFriendlyLstm &mf,
                           const AppContext &app, runtime::PlanKind kind,
                           const std::vector<core::ThresholdSet> &ladder);

/** Geometric mean (the paper's cross-app average for speedups). */
double geomean(const std::vector<double> &xs);

/** Arithmetic mean. */
double mean(const std::vector<double> &xs);

/** Print a horizontal rule sized for the bench tables. */
void rule(char c = '-', int width = 78);

} // namespace bench
} // namespace mflstm

#endif // MFLSTM_BENCH_HARNESS_HH
