#include "core/approx.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "quant/quantize.hh"
#include "tensor/ops.hh"

namespace mflstm {
namespace core {

ApproxRunner::ApproxRunner(const nn::LstmModel &model) : model_(model)
{
    const std::size_t hid = model.config().hiddenSize;
    rebuildRelevanceContexts();
    for (std::size_t l = 0; l < model.layers().size(); ++l)
        predictors_.emplace_back(hid);
    stats_.resize(model.layers().size());
}

void
ApproxRunner::rebuildRelevanceContexts()
{
    relevanceCtx_.clear();
    relevanceCtx_.reserve(activeModel().layers().size());
    for (const nn::LstmLayerParams &p : activeModel().layers())
        relevanceCtx_.emplace_back(p);
}

void
ApproxRunner::setQuantMode(quant::QuantMode mode)
{
    if (mode == quantMode_)
        return;
    quantMode_ = mode;
    if (mode == quant::QuantMode::Fp32) {
        qmodel_.reset();
    } else {
        qmodel_ = model_;
        quant::applyFakeQuant(*qmodel_, mode);
    }
    // The relevance norms are precomputed from the weight rows, so they
    // must follow the precision of the model actually served.
    rebuildRelevanceContexts();
}

void
ApproxRunner::calibrate(
    const std::vector<std::vector<std::int32_t>> &token_seqs)
{
    for (const auto &seq : token_seqs) {
        if (seq.empty())
            continue;
        std::vector<std::vector<nn::LstmCellTrace>> traces;
        activeModel().runLayers(activeModel().embed(seq), &traces);
        for (std::size_t l = 0; l < traces.size(); ++l)
            predictors_[l].observe(traces[l]);
    }
}

bool
ApproxRunner::calibrated() const
{
    return !predictors_.empty() && predictors_.front().samples() > 0;
}

void
ApproxRunner::setThresholds(double alpha_inter, double alpha_intra)
{
    if (alpha_inter < 0.0 || alpha_intra < 0.0 || alpha_intra >= 1.0)
        throw std::invalid_argument("setThresholds: out of range");
    if (alpha_inter > 0.0 && !calibrated())
        throw std::logic_error(
            "setThresholds: layer division needs calibrate() first "
            "(predicted links are undefined)");
    alphaInter_ = alpha_inter;
    alphaIntra_ = alpha_intra;
}

std::vector<Vector>
ApproxRunner::runLayers(const std::vector<Vector> &inputs)
{
    const nn::LstmModel &m = activeModel();
    const nn::SigmoidKind sk = m.config().sigmoid;
    // alpha_intra = 0 runs the exact cell: a hard-sigmoid o_t can be
    // exactly 0, which a zero threshold would still skip.
    const std::optional<nn::DrsSkip> drs =
        alphaIntra_ > 0.0
            ? std::optional(nn::DrsSkip{alphaIntra_, drsPolicy_})
            : std::nullopt;
    std::vector<Vector> acts = inputs;

    for (std::size_t l = 0; l < m.layers().size(); ++l) {
        const nn::LstmLayerParams &p = m.layers()[l];
        LayerApproxStats &st = stats_[l];
        ++st.sequences;

        const std::vector<Vector> projs = nn::projectInputs(p, acts);

        // Inter-cell: find the weak links of this sequence.
        std::vector<std::uint8_t> is_break(projs.size(), 0);
        if (alphaInter_ > 0.0 && projs.size() > 1) {
            for (std::size_t t = 1; t < projs.size(); ++t) {
                ++st.links;
                const double s =
                    relevanceCtx_[l].relevance(p, projs[t]);
                if (s < alphaInter_) {
                    is_break[t] = 1;
                    ++st.breaks;
                }
            }
        }

        const Vector pred_h =
            alphaInter_ > 0.0 ? predictors_[l].predictedH() : Vector();
        const Vector pred_c =
            alphaInter_ > 0.0 ? predictors_[l].predictedC() : Vector();

        nn::LstmState state(p.hiddenSize());
        std::vector<Vector> outs;
        outs.reserve(projs.size());
        for (std::size_t t = 0; t < projs.size(); ++t) {
            if (is_break[t]) {
                // Breakpoint: the real link is severed; substitute the
                // predicted one (Fig. 8(a2)).
                state.h = pred_h;
                state.c = pred_c;
            }
            ++st.cells;
            std::size_t skipped = 0;
            state = nn::lstmCellForward(p, projs[t], state, sk, nullptr,
                                        drs, &skipped);
            st.skippedRows += static_cast<double>(skipped);
            outs.push_back(state.h);
        }
        acts = std::move(outs);
    }
    return acts;
}

Vector
ApproxRunner::classify(std::span<const std::int32_t> tokens)
{
    assert(model_.config().task == nn::TaskKind::Classification);
    if (tokens.empty())
        throw std::invalid_argument("ApproxRunner::classify: empty");
    const std::vector<Vector> top = runLayers(activeModel().embed(tokens));
    return nn::linearForward(activeModel().head(), top.back());
}

std::vector<Vector>
ApproxRunner::lmLogits(std::span<const std::int32_t> tokens)
{
    assert(model_.config().task == nn::TaskKind::LanguageModel);
    const std::vector<Vector> top = runLayers(activeModel().embed(tokens));
    std::vector<Vector> logits;
    logits.reserve(top.size());
    for (const Vector &h : top)
        logits.push_back(nn::linearForward(activeModel().head(), h));
    return logits;
}

double
ApproxRunner::CalibrationProfile::relevanceQuantile(double q) const
{
    if (relevances.empty())
        return 0.0;
    const double pos =
        std::clamp(q, 0.0, 1.0) *
        static_cast<double>(relevances.size() - 1);
    return relevances[static_cast<std::size_t>(pos)];
}

double
ApproxRunner::CalibrationProfile::outputGateQuantile(double q) const
{
    if (outputGates.empty())
        return 0.0;
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(outputGates.size() - 1);
    return outputGates[static_cast<std::size_t>(pos)];
}

double
ApproxRunner::CalibrationProfile::layerBreakFraction(std::size_t l,
                                                     double alpha) const
{
    if (l >= layerRelevances.size() || layerRelevances[l].empty())
        return 0.0;
    const auto &xs = layerRelevances[l];
    const auto it = std::lower_bound(xs.begin(), xs.end(), alpha);
    return static_cast<double>(it - xs.begin()) /
           static_cast<double>(xs.size());
}

ApproxRunner::CalibrationProfile
ApproxRunner::profile(
    const std::vector<std::vector<std::int32_t>> &token_seqs) const
{
    const nn::LstmModel &m = activeModel();
    CalibrationProfile prof;
    prof.layerRelevances.resize(m.layers().size());
    const nn::SigmoidKind sk = m.config().sigmoid;

    for (const auto &seq : token_seqs) {
        if (seq.empty())
            continue;
        std::vector<Vector> acts = m.embed(seq);
        for (std::size_t l = 0; l < m.layers().size(); ++l) {
            const nn::LstmLayerParams &p = m.layers()[l];
            const std::vector<Vector> projs = nn::projectInputs(p, acts);

            for (std::size_t t = 1; t < projs.size(); ++t) {
                const double sv = relevanceCtx_[l].relevance(p, projs[t]);
                prof.relevances.push_back(sv);
                prof.layerRelevances[l].push_back(sv);
            }

            std::vector<nn::LstmCellTrace> traces;
            acts = nn::lstmLayerForward(p, projs, sk, &traces);
            for (const nn::LstmCellTrace &trace : traces)
                prof.outputGates.insert(prof.outputGates.end(),
                                        trace.o.begin(), trace.o.end());
        }
    }
    std::sort(prof.relevances.begin(), prof.relevances.end());
    for (auto &xs : prof.layerRelevances)
        std::sort(xs.begin(), xs.end());
    std::sort(prof.outputGates.begin(), prof.outputGates.end());
    return prof;
}

void
ApproxRunner::resetStats()
{
    for (LayerApproxStats &st : stats_)
        st = LayerApproxStats{};
}

double
approxClassificationAccuracy(ApproxRunner &runner,
                             const std::vector<nn::Sample> &data)
{
    if (data.empty())
        return 0.0;
    std::size_t correct = 0;
    for (const nn::Sample &s : data) {
        const Vector logits = runner.classify(s.tokens);
        if (tensor::argmax(logits.span()) ==
            static_cast<std::size_t>(s.label)) {
            ++correct;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(data.size());
}

double
approxLmNextTokenAccuracy(
    ApproxRunner &runner,
    const std::vector<std::vector<std::int32_t>> &seqs)
{
    std::size_t correct = 0;
    std::size_t total = 0;
    for (const auto &seq : seqs) {
        if (seq.size() < 2)
            continue;
        const auto logits =
            runner.lmLogits(std::span(seq.data(), seq.size() - 1));
        for (std::size_t t = 0; t < logits.size(); ++t) {
            if (tensor::argmax(logits[t].span()) ==
                static_cast<std::size_t>(seq[t + 1])) {
                ++correct;
            }
            ++total;
        }
    }
    return total ? static_cast<double>(correct) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace core
} // namespace mflstm
