#include "quant/quantize.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/ops.hh"

namespace mflstm {
namespace quant {

FakeQuantStats
applyFakeQuant(nn::LstmModel &model, QuantMode mode)
{
    FakeQuantStats st;
    st.mode = mode;
    if (mode == QuantMode::Fp32)
        return st;
    const int qm = qmax(mode);
    double err_sum = 0.0;
    for (nn::LstmLayerParams &p : model.layers()) {
        for (tensor::Matrix *m :
             {&p.wf, &p.wi, &p.wc, &p.wo, &p.uf, &p.ui, &p.uc, &p.uo}) {
            const std::size_t packed_row_bytes =
                mode == QuantMode::Int4 ? (m->cols() + 1) / 2 : m->cols();
            st.matrices += 1;
            st.elements += m->size();
            st.fp32Bytes += static_cast<double>(m->bytes());
            st.quantBytes += static_cast<double>(
                m->rows() * (packed_row_bytes + sizeof(float)));
            for (std::size_t r = 0; r < m->rows(); ++r) {
                float absmax = 0.0f;
                for (const float w : m->row(r))
                    absmax = std::max(absmax, std::fabs(w));
                // A zero row keeps scale 1 so 1/s stays finite: every
                // code is 0 and the dequantized row is exactly zero.
                const float s =
                    absmax > 0.0f ? absmax / static_cast<float>(qm) : 1.0f;
                const float inv = 1.0f / s;
                for (float &w : m->row(r)) {
                    const int q = std::clamp(
                        static_cast<int>(
                            std::lround(static_cast<double>(w) * inv)),
                        -qm, qm);
                    const float dq = s * static_cast<float>(q);
                    const double e = std::fabs(static_cast<double>(w) -
                                               static_cast<double>(dq));
                    st.maxAbsError = std::max(st.maxAbsError, e);
                    err_sum += e;
                    w = dq;
                }
            }
        }
    }
    if (st.elements > 0)
        st.meanAbsError = err_sum / static_cast<double>(st.elements);
    return st;
}

QuantErrorReport
measureQuantError(const nn::LstmModel &model, QuantMode mode,
                  const std::vector<std::vector<std::int32_t>> &seqs)
{
    QuantErrorReport rep;
    rep.mode = mode;
    rep.sequences = seqs.size();
    if (mode == QuantMode::Fp32 || seqs.empty())
        return rep;

    nn::LstmModel quantized = model;
    applyFakeQuant(quantized, mode);

    const bool lm =
        model.config().task == nn::TaskKind::LanguageModel;
    double err_sum = 0.0;
    std::size_t logits_seen = 0;
    std::size_t argmax_total = 0;
    std::size_t argmax_flips = 0;
    const auto compare = [&](const tensor::Vector &exact,
                             const tensor::Vector &approx) {
        assert(exact.size() == approx.size());
        for (std::size_t i = 0; i < exact.size(); ++i) {
            const double e = std::fabs(
                static_cast<double>(exact[i]) -
                static_cast<double>(approx[i]));
            rep.maxAbsLogitError = std::max(rep.maxAbsLogitError, e);
            err_sum += e;
        }
        logits_seen += exact.size();
        argmax_total += 1;
        if (tensor::argmax(exact.span()) !=
            tensor::argmax(approx.span()))
            argmax_flips += 1;
    };
    for (const auto &s : seqs) {
        if (s.empty())
            continue;
        if (lm) {
            const auto exact = model.lmLogits(s);
            const auto approx = quantized.lmLogits(s);
            for (std::size_t t = 0; t < exact.size(); ++t)
                compare(exact[t], approx[t]);
        } else {
            compare(model.classify(s), quantized.classify(s));
        }
    }
    if (logits_seen > 0)
        rep.meanAbsLogitError =
            err_sum / static_cast<double>(logits_seen);
    if (argmax_total > 0)
        rep.argmaxFlipRate = static_cast<double>(argmax_flips) /
                             static_cast<double>(argmax_total);
    return rep;
}

} // namespace quant
} // namespace mflstm
