#include "core/planner.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/tissue.hh"

namespace mflstm {
namespace core {

std::vector<std::size_t>
evenSubLayers(std::size_t length, std::size_t parts)
{
    if (length == 0)
        return {};
    parts = std::clamp<std::size_t>(parts, 1, length);

    std::vector<std::size_t> lens(parts, length / parts);
    for (std::size_t i = 0; i < length % parts; ++i)
        ++lens[i];
    return lens;
}

runtime::ExecutionPlan
buildPlan(runtime::PlanKind kind,
          const std::vector<LayerApproxStats> &stats,
          const runtime::NetworkShape &shape, std::size_t mts,
          std::size_t model_hidden, quant::QuantMode quant,
          double prune_fraction)
{
    if (stats.size() != shape.layers.size())
        throw std::invalid_argument("buildPlan: stats/shape mismatch");
    if (model_hidden == 0)
        throw std::invalid_argument("buildPlan: zero model hidden");

    runtime::ExecutionPlan probe;
    probe.kind = kind;
    const bool inter = probe.usesInter();
    const bool intra = probe.usesIntra();

    std::vector<runtime::PresetLayer> layers(shape.layers.size());
    for (std::size_t l = 0; l < shape.layers.size(); ++l) {
        const std::size_t n = shape.layers[l].length;

        if (inter) {
            // Projected sub-layer count: the measured break rate applied
            // to this layer's (timing-shape) link count.
            const double rate = stats[l].breakRate();
            const auto parts = static_cast<std::size_t>(
                std::round(rate * static_cast<double>(n - 1))) + 1;
            layers[l].tissueSizes =
                alignTissues(evenSubLayers(n, parts), mts);
        }
        if (intra)
            layers[l].skipFraction = stats[l].skipFraction(model_hidden);
    }
    return runtime::ExecutionPlan::preset(kind, layers, quant,
                                          prune_fraction);
}

runtime::ExecutionPlan
presetPlan(const runtime::NetworkExecutor &exec, runtime::PlanKind kind,
           const PresetInputs &in)
{
    std::size_t mts = in.mts;
    if (kind == runtime::PlanKind::Combined && !in.stats.empty() &&
        in.modelHidden) {
        double skip = 0.0;
        for (const LayerApproxStats &st : in.stats)
            skip += st.skipFraction(in.modelHidden);
        skip /= static_cast<double>(in.stats.size());
        if (skip > 0.0)
            mts = findMts(exec, in.shape.layers.front(), 12, skip).mts;
    }
    return buildPlan(kind, in.stats, in.shape, mts, in.modelHidden,
                     in.quant, in.pruneFraction);
}

} // namespace core
} // namespace mflstm
