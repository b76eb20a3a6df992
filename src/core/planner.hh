/**
 * @file
 * Plan builder: projects the approximation statistics measured on the
 * (scaled) accuracy model onto the full Table II timing shape and emits
 * the preset runtime::ExecutionPlan — per-layer tissue schedules
 * (division rate -> sub-layer lengths -> aligned tissues under the MTS)
 * and per-layer DRS skip fractions. presetPlan() is the one builder the
 * facade (evaluateTiming, snapshotRung) and the tuner share.
 */

#ifndef MFLSTM_CORE_PLANNER_HH
#define MFLSTM_CORE_PLANNER_HH

#include <vector>

#include "core/approx.hh"
#include "runtime/executor.hh"
#include "runtime/plan.hh"

namespace mflstm {
namespace core {

/**
 * Evenly divide @p length cells into @p parts sub-layers (what the
 * measured break rate implies on the timing-shape sequence length).
 */
std::vector<std::size_t> evenSubLayers(std::size_t length,
                                       std::size_t parts);

/**
 * Build the preset plan for @p kind from per-layer stats.
 *
 * @param stats        one LayerApproxStats per layer, populated by an
 *                     ApproxRunner evaluation pass.
 * @param shape        full-size timing shape (Table II row).
 * @param mts          maximum tissue size from the offline sweep.
 * @param model_hidden hidden size of the accuracy model (to normalise
 *                     skippedRows into a fraction).
 * @param quant        weight precision of the plan's layers.
 * @param prune_fraction comparator fraction (ZeroPruning only).
 */
runtime::ExecutionPlan
buildPlan(runtime::PlanKind kind,
          const std::vector<LayerApproxStats> &stats,
          const runtime::NetworkShape &shape, std::size_t mts,
          std::size_t model_hidden,
          quant::QuantMode quant = quant::QuantMode::Fp32,
          double prune_fraction = 0.0);

/** Everything a preset plan is derived from besides its kind. */
struct PresetInputs
{
    runtime::NetworkShape shape;
    /// one entry per layer, from an ApproxRunner evaluation pass
    std::vector<LayerApproxStats> stats;
    /// maximum tissue size from the offline sweep (Fig. 10 op 1)
    std::size_t mts = 1;
    /// hidden size of the accuracy model (normalises skippedRows)
    std::size_t modelHidden = 0;
    /// weight precision of the plan's layers
    quant::QuantMode quant = quant::QuantMode::Fp32;
    /// comparator fraction for the zero-pruning preset ([31])
    double pruneFraction = 0.37;
};

/**
 * The preset plan for @p kind: buildPlan() at the calibrated MTS,
 * except that Combined first re-runs the MTS sweep on @p exec with the
 * measured mean skip fraction (DRS relieves on-chip traffic inside the
 * tissue GEMM, which raises the bandwidth-limited MTS).
 */
runtime::ExecutionPlan presetPlan(const runtime::NetworkExecutor &exec,
                                  runtime::PlanKind kind,
                                  const PresetInputs &in);

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_PLANNER_HH
