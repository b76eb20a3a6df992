/**
 * @file
 * Execution plans: which dataflow the runtime lowers an LSTM network
 * onto. A plan is pure schedule/approximation metadata — the decisions
 * themselves (where to break context links, how many rows to skip) are
 * produced by the optimisation passes in src/core (or searched by
 * src/sched) and recorded here.
 *
 * A plan is a kind (the label reports and artifacts carry) plus the
 * explicit per-layer ScheduleDecisions the lowering consumes
 * (DESIGN.md §14). The paper's schemes are presets: preset() spells out
 * each kind's decisions; a searched plan (fromDecisions) reports
 * PlanKind::Tuned.
 */

#ifndef MFLSTM_RUNTIME_PLAN_HH
#define MFLSTM_RUNTIME_PLAN_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "quant/qformat.hh"
#include "runtime/schedule.hh"

namespace mflstm {
namespace runtime {

/** The execution schemes compared in the paper's evaluation. */
enum class PlanKind {
    Baseline,     ///< Algorithm 1: per-cell Sgemv (state of the art)
    InterCell,    ///< Section IV: layer division + tissue Sgemm
    IntraCellSw,  ///< Section V DRS, pure software (divergent)
    IntraCellHw,  ///< Section V DRS with the CRM hardware
    Combined,     ///< inter + intra(HW) together
    ZeroPruning,  ///< element-level magnitude pruning comparator [31]
    Tuned,        ///< explicit searched ScheduleDecisions (src/sched)
    Persistent,   ///< tissue waves + register-file weight residency
};

const char *toString(PlanKind kind);

/**
 * Parse a plan-kind spelling; nullopt on anything unknown. Accepts the
 * canonical toString() names plus the historical CLI short forms
 * ("inter", "intra-sw", "intra-hw") so reports and flags round-trip.
 */
std::optional<PlanKind> planKindFromString(const std::string &s);

/** Static shape of one LSTM layer on the device. */
struct LstmLayerShape
{
    std::size_t inputSize = 0;   ///< E for layer 0, H above
    std::size_t hiddenSize = 0;  ///< H
    std::size_t length = 0;      ///< cells per layer (timesteps)

    bool operator==(const LstmLayerShape &) const = default;
};

/** Shape of a whole stacked-LSTM network (Table II row). */
struct NetworkShape
{
    std::vector<LstmLayerShape> layers;

    /** Standard stack: embed-size input, uniform hidden size. */
    static NetworkShape stacked(std::size_t embed_size,
                                std::size_t hidden_size,
                                std::size_t num_layers,
                                std::size_t length);

    bool operator==(const NetworkShape &) const = default;
};

/**
 * Per-layer measurements a preset derives its decisions from (the core
 * planner projects them from the approximation statistics). A preset
 * reads only the fields its kind uses.
 */
struct PresetLayer
{
    /// aligned tissue schedule; sums to the layer length
    std::vector<std::size_t> tissueSizes;
    /// mean fraction of U_{f,i,c} rows skipped per cell
    double skipFraction = 0.0;
};

/**
 * A full execution plan for one network: a display label plus the
 * per-layer decisions the lowering consumes (DESIGN.md §14).
 */
struct ExecutionPlan
{
    /// the scheme this plan reports as (Tuned for searched schedules)
    PlanKind kind = PlanKind::Baseline;
    /// one LayerSchedule per layer; empty lowers every layer dense fp32
    ScheduleDecisions decisions;

    /**
     * The canonical decisions of preset @p kind, one layer per entry
     * of @p layers — the only place that spells out what each PlanKind
     * means:
     *   - Baseline: dense layers at @p quant;
     *   - InterCell: the tissue schedule;
     *   - Persistent: the tissue schedule with register-file residency;
     *   - IntraCellSw: software row skip, standalone DRS scan;
     *   - IntraCellHw: CRM row skip fed by the fused U_o epilogue;
     *   - Combined: tissues plus CRM row skip;
     *   - ZeroPruning: the CSR comparator at @p prune_fraction, always
     *     fp32 (the comparator is defined on full-precision weights).
     *
     * @throws std::invalid_argument for PlanKind::Tuned (not a preset).
     */
    static ExecutionPlan preset(PlanKind kind,
                                const std::vector<PresetLayer> &layers,
                                quant::QuantMode quant =
                                    quant::QuantMode::Fp32,
                                double prune_fraction = 0.0);

    /**
     * Wrap searched decisions @p d into a plan reporting
     * PlanKind::Tuned. @throws std::invalid_argument via d.validate().
     */
    static ExecutionPlan fromDecisions(ScheduleDecisions d);

    /**
     * The schedule the lowering executes for @p layer_index: the
     * decision for that layer, or a dense layer at quantMode() beyond
     * the decision vector.
     */
    LayerSchedule layerSchedule(std::size_t layer_index) const;

    /**
     * The layers' uniform precision; Fp32 when they disagree or when
     * there are no decisions (a display label — the lowering reads
     * LayerSchedule::quant).
     */
    quant::QuantMode quantMode() const;

    // The predicates answer from the decisions; a plan without
    // decisions (a bare kind) answers from its kind.
    bool usesInter() const;
    bool usesIntra() const;
    /** Lowering emits HW-compacted row-skip kernels (CRM available). */
    bool usesCrmHardware() const;

    bool operator==(const ExecutionPlan &) const = default;
};

} // namespace runtime
} // namespace mflstm

#endif // MFLSTM_RUNTIME_PLAN_HH
