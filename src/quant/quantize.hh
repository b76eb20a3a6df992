/**
 * @file
 * Post-training weight quantization of an LSTM model (DESIGN.md §12).
 *
 * The quantized network is represented one way: fake-quant
 * (applyFakeQuant) rounds every W/U weight in place to the value its
 * symmetric per-row integer code dequantizes to, so the existing fp32
 * dataflow (ApproxRunner, DRS, tissues) serves the quantized network.
 * The narrower DRAM fetch of the packed codes is priced by the
 * lowering (quant::bytesPerWeight), not materialized.
 *
 * Error bound: per-row symmetric quantization guarantees
 * |w - s_r q| <= s_r/2 = absmax_r/(2 qmax), so a GEMV row output
 * drifts by at most (s_r/2) sum|x| — measured end-to-end by
 * measureQuantError over workload-registry sequences.
 */

#ifndef MFLSTM_QUANT_QUANTIZE_HH
#define MFLSTM_QUANT_QUANTIZE_HH

#include <cstdint>
#include <vector>

#include "nn/model.hh"
#include "quant/qformat.hh"

namespace mflstm {
namespace quant {

/** What applyFakeQuant did to the weights. */
struct FakeQuantStats
{
    QuantMode mode = QuantMode::Fp32;
    std::size_t matrices = 0;  ///< W/U matrices rewritten
    std::size_t elements = 0;  ///< weight elements rewritten
    double maxAbsError = 0.0;  ///< max |w - dequant(quant(w))|
    double meanAbsError = 0.0;
    double fp32Bytes = 0.0;    ///< what the rewritten matrices occupied
    /// what their packed codes (rows * ceil(cols / 2) bytes for int4)
    /// plus one fp32 scale per row occupy
    double quantBytes = 0.0;

    /** Weight-byte compression (4x for int8, 8x for int4). */
    double compressionRatio() const
    {
        return quantBytes > 0.0 ? fp32Bytes / quantBytes : 1.0;
    }
};

/**
 * Quantize-dequantize every W/U matrix of @p model in place: row r
 * gets scale s = absmax_r/qmax (1 for an all-zero row) and each weight
 * becomes s * clamp(round(w/s), ±qmax). Fp32 mode is a no-op
 * (zero-error stats). Idempotent: quantizing an already
 * fake-quantized model reproduces it exactly, because every value is
 * already representable at its row's scale.
 */
FakeQuantStats applyFakeQuant(nn::LstmModel &model, QuantMode mode);

/** End-to-end drift of the quantized forward pass vs exact fp32. */
struct QuantErrorReport
{
    QuantMode mode = QuantMode::Fp32;
    std::size_t sequences = 0;
    double maxAbsLogitError = 0.0;
    double meanAbsLogitError = 0.0;
    /// fraction of sequences whose argmax logit changed (classification
    /// top-1 flips; per-step flips for language models)
    double argmaxFlipRate = 0.0;
};

/**
 * The calibration pass: run @p seqs (typically the workload registry's
 * calibration sequences) through @p model exact and fake-quantized, and
 * report logit drift. The model is copied; nothing is mutated.
 */
QuantErrorReport
measureQuantError(const nn::LstmModel &model, QuantMode mode,
                  const std::vector<std::vector<std::int32_t>> &seqs);

} // namespace quant
} // namespace mflstm

#endif // MFLSTM_QUANT_QUANTIZE_HH
