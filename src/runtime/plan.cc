#include "runtime/plan.hh"

#include <algorithm>
#include <stdexcept>

namespace mflstm {
namespace runtime {

const char *
toString(PlanKind kind)
{
    switch (kind) {
      case PlanKind::Baseline:
        return "baseline";
      case PlanKind::InterCell:
        return "inter-cell";
      case PlanKind::IntraCellSw:
        return "intra-cell-sw";
      case PlanKind::IntraCellHw:
        return "intra-cell-hw";
      case PlanKind::Combined:
        return "combined";
      case PlanKind::ZeroPruning:
        return "zero-pruning";
      case PlanKind::Tuned:
        return "tuned";
      case PlanKind::Persistent:
        return "persistent";
    }
    return "unknown";
}

std::optional<PlanKind>
planKindFromString(const std::string &s)
{
    if (s == "baseline")
        return PlanKind::Baseline;
    if (s == "inter-cell" || s == "inter")
        return PlanKind::InterCell;
    if (s == "intra-cell-sw" || s == "intra-sw")
        return PlanKind::IntraCellSw;
    if (s == "intra-cell-hw" || s == "intra-hw")
        return PlanKind::IntraCellHw;
    if (s == "combined")
        return PlanKind::Combined;
    if (s == "zero-pruning")
        return PlanKind::ZeroPruning;
    if (s == "tuned")
        return PlanKind::Tuned;
    if (s == "persistent")
        return PlanKind::Persistent;
    return std::nullopt;
}

NetworkShape
NetworkShape::stacked(std::size_t embed_size, std::size_t hidden_size,
                      std::size_t num_layers, std::size_t length)
{
    if (!embed_size || !hidden_size || !num_layers || !length)
        throw std::invalid_argument("NetworkShape: zero dimension");

    NetworkShape shape;
    shape.layers.reserve(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        shape.layers.push_back({l == 0 ? embed_size : hidden_size,
                                hidden_size, length});
    }
    return shape;
}

ExecutionPlan
ExecutionPlan::preset(PlanKind kind, const std::vector<PresetLayer> &layers,
                      quant::QuantMode quant, double prune_fraction)
{
    if (kind == PlanKind::Tuned)
        throw std::invalid_argument(
            "ExecutionPlan::preset: Tuned is not a preset");

    ExecutionPlan plan;
    plan.kind = kind;
    const bool inter = plan.usesInter();
    const bool intra = plan.usesIntra();
    const bool crm = plan.usesCrmHardware();
    plan.decisions.layers.reserve(layers.size());
    for (const PresetLayer &in : layers) {
        LayerSchedule ls;
        ls.quant = quant;
        if (kind == PlanKind::ZeroPruning) {
            ls.quant = quant::QuantMode::Fp32;
            ls.prunedCsr = true;
            ls.pruneFraction = prune_fraction;
        }
        if (inter)
            ls.tissueSizes = in.tissueSizes;
        if (kind == PlanKind::Persistent) {
            // The persistent preset targets the fast tier the persistent-
            // RNN literature uses; the tuner also searches the shared tier.
            ls.residency = WeightResidency::Regfile;
        }
        if (intra) {
            ls.skipFraction = in.skipFraction;
            ls.skipPath = crm ? SkipPath::HwCrm : SkipPath::Software;
            ls.flagFusion = crm ? FlagFusion::FusedEpilogue
                                : FlagFusion::Standalone;
        }
        plan.decisions.layers.push_back(std::move(ls));
    }
    return plan;
}

ExecutionPlan
ExecutionPlan::fromDecisions(ScheduleDecisions d)
{
    d.validate();

    ExecutionPlan plan;
    plan.kind = PlanKind::Tuned;
    plan.decisions = std::move(d);
    return plan;
}

LayerSchedule
ExecutionPlan::layerSchedule(std::size_t layer_index) const
{
    if (layer_index < decisions.layers.size())
        return decisions.layers[layer_index];
    LayerSchedule ls;
    ls.quant = quantMode();
    return ls;
}

quant::QuantMode
ExecutionPlan::quantMode() const
{
    const std::vector<LayerSchedule> &layers = decisions.layers;
    if (layers.empty())
        return quant::QuantMode::Fp32;
    const quant::QuantMode q0 = layers.front().quant;
    const bool uniform =
        std::all_of(layers.begin(), layers.end(),
                    [&](const LayerSchedule &l) { return l.quant == q0; });
    return uniform ? q0 : quant::QuantMode::Fp32;
}

bool
ExecutionPlan::usesInter() const
{
    if (decisions.empty()) {
        // The persistent preset rides the tissue schedule: its waves
        // are the DRS-relaxed tissue waves.
        return kind == PlanKind::InterCell || kind == PlanKind::Combined ||
               kind == PlanKind::Persistent;
    }
    return std::any_of(decisions.layers.begin(), decisions.layers.end(),
                       [](const LayerSchedule &l) {
                           return l.usesTissues();
                       });
}

bool
ExecutionPlan::usesIntra() const
{
    if (decisions.empty()) {
        return kind == PlanKind::IntraCellSw ||
               kind == PlanKind::IntraCellHw || kind == PlanKind::Combined;
    }
    return std::any_of(decisions.layers.begin(), decisions.layers.end(),
                       [](const LayerSchedule &l) {
                           return l.skipPath != SkipPath::Off;
                       });
}

bool
ExecutionPlan::usesCrmHardware() const
{
    if (decisions.empty())
        return kind == PlanKind::IntraCellHw || kind == PlanKind::Combined;
    return std::any_of(decisions.layers.begin(), decisions.layers.end(),
                       [](const LayerSchedule &l) {
                           return l.skipPath == SkipPath::HwCrm;
                       });
}

} // namespace runtime
} // namespace mflstm
