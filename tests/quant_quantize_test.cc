/**
 * @file
 * Tests for model-level post-training quantization: fake-quant is
 * bit-identical to an independent packed-code reference encoder, obeys
 * the per-row error bound and code range, is idempotent, reports its
 * stats, and the end-to-end calibration error report measures drift.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "quant/quantize.hh"

namespace {

using namespace mflstm;
using quant::QuantMode;

nn::ModelConfig
someConfig()
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 20;
    cfg.embedSize = 6;
    cfg.hiddenSize = 8;
    cfg.numLayers = 2;
    cfg.numClasses = 3;
    return cfg;
}

std::vector<std::vector<std::int32_t>>
someSequences()
{
    return {{1, 2, 3, 4, 5}, {7, 7, 2, 9}, {11, 0, 3, 15, 4, 6}};
}

std::vector<const tensor::Matrix *>
weightMatrices(const nn::LstmLayerParams &p)
{
    return {&p.wf, &p.wi, &p.wc, &p.wo, &p.uf, &p.ui, &p.uc, &p.uo};
}

/** Calls @p fn(original, fake-quantized) for every W/U matrix. */
void
forEachWeightPair(
    const nn::LstmModel &original, const nn::LstmModel &quantized,
    const std::function<void(const tensor::Matrix &,
                             const tensor::Matrix &)> &fn)
{
    ASSERT_EQ(original.layers().size(), quantized.layers().size());
    for (std::size_t l = 0; l < original.layers().size(); ++l) {
        const auto a = weightMatrices(original.layers()[l]);
        const auto b = weightMatrices(quantized.layers()[l]);
        for (std::size_t i = 0; i < a.size(); ++i)
            fn(*a[i], *b[i]);
    }
}

/** The scale applyFakeQuant gives a row: absmax/qmax, 1 for zeros. */
float
rowScale(std::span<const float> row, QuantMode mode)
{
    float absmax = 0.0f;
    for (const float w : row)
        absmax = std::max(absmax, std::fabs(w));
    return absmax > 0.0f ? absmax / static_cast<float>(quant::qmax(mode))
                         : 1.0f;
}

/**
 * Independent reference: encode each row to the packed integer codes a
 * deployed kernel would stream (int8: one code per byte; int4: two
 * codes per byte, low nibble = even column) and decode them back with
 * sign extension, then dequantize as scale * code.
 */
tensor::Matrix
referenceQuantDequant(const tensor::Matrix &m, QuantMode mode)
{
    const int qm = quant::qmax(mode);
    const bool int4 = mode == QuantMode::Int4;
    const std::size_t stride = int4 ? (m.cols() + 1) / 2 : m.cols();
    std::vector<std::int8_t> packed(m.rows() * stride, 0);
    std::vector<float> scales(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const float s = rowScale(m.row(r), mode);
        scales[r] = s;
        const float inv = 1.0f / s;
        std::int8_t *row = packed.data() + r * stride;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            const int q = std::clamp(
                static_cast<int>(
                    std::lround(static_cast<double>(m.at(r, c)) * inv)),
                -qm, qm);
            if (!int4)
                row[c] = static_cast<std::int8_t>(q);
            else if ((c & 1) == 0)
                row[c / 2] = static_cast<std::int8_t>(q & 0x0f);
            else
                row[c / 2] = static_cast<std::int8_t>(
                    (row[c / 2] & 0x0f) | ((q & 0x0f) << 4));
        }
    }
    tensor::Matrix out(m.rows(), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const std::int8_t *row = packed.data() + r * stride;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            int q = 0;
            if (!int4) {
                q = row[c];
            } else {
                const int nib = (c & 1) == 0 ? row[c / 2] & 0x0f
                                             : (row[c / 2] >> 4) & 0x0f;
                q = nib >= 8 ? nib - 16 : nib;
            }
            out.at(r, c) = scales[r] * static_cast<float>(q);
        }
    }
    return out;
}

TEST(QuantModel, FakeQuantMatchesReferenceEncoderBitForBit)
{
    nn::ModelConfig cfg = someConfig();
    cfg.embedSize = 7;  // odd column count: int4 pads the last byte
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        nn::LstmModel original(cfg, 9);
        nn::LstmLayerParams &l0 = original.layers()[0];
        for (float &w : l0.uf.row(2))
            w = 0.0f;            // an all-zero row
        l0.wc.at(1, 3) = -4.0f;  // a row whose absmax is negative
        ASSERT_EQ(rowScale(l0.wc.row(1), mode),
                  4.0f / static_cast<float>(quant::qmax(mode)));

        nn::LstmModel fake = original;
        quant::applyFakeQuant(fake, mode);

        forEachWeightPair(original, fake,
                          [&](const tensor::Matrix &src,
                              const tensor::Matrix &got) {
                              const tensor::Matrix want =
                                  referenceQuantDequant(src, mode);
                              ASSERT_EQ(got.size(), want.size());
                              EXPECT_EQ(std::memcmp(got.data(),
                                                    want.data(),
                                                    got.bytes()),
                                        0)
                                  << quant::toString(mode);
                          });
        // Biases, embedding and head stay exactly fp32.
        EXPECT_EQ(fake.layers()[0].bf, original.layers()[0].bf);
        EXPECT_EQ(fake.embedding().table, original.embedding().table);
        EXPECT_EQ(fake.head().w, original.head().w);
    }
}

/**
 * Every fake-quantized weight lies within half its row's scale of the
 * original. The layer-0 W matrices get 7 columns, so int4 rows end on
 * a half-filled packed byte.
 */
void
expectErrorWithinHalfScale(QuantMode mode)
{
    nn::ModelConfig cfg = someConfig();
    cfg.embedSize = 7;
    const nn::LstmModel original(cfg, 7);
    nn::LstmModel fake = original;
    quant::applyFakeQuant(fake, mode);
    forEachWeightPair(
        original, fake,
        [&](const tensor::Matrix &src, const tensor::Matrix &got) {
            for (std::size_t r = 0; r < src.rows(); ++r) {
                const float s = rowScale(src.row(r), mode);
                for (std::size_t c = 0; c < src.cols(); ++c)
                    EXPECT_LE(std::fabs(got.at(r, c) - src.at(r, c)),
                              s / 2.0f + 1e-7f)
                        << "at (" << r << ", " << c << ")";
            }
        });
}

// The QuantizedMatrix suite checks per-matrix properties of the
// fake-quantized W/U weights; the QuantModel suite checks the model.
TEST(QuantizedMatrix, Int8ErrorWithinHalfScale)
{
    expectErrorWithinHalfScale(QuantMode::Int8);
}

TEST(QuantizedMatrix, Int4ErrorWithinHalfScale)
{
    expectErrorWithinHalfScale(QuantMode::Int4);
}

TEST(QuantModel, CodesStayInSymmetricRange)
{
    // Every fake-quantized weight is exactly scale * q for an integer
    // code q in [-qmax, qmax].
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        const int qm = quant::qmax(mode);
        const nn::LstmModel original(someConfig(), 3);
        nn::LstmModel fake = original;
        quant::applyFakeQuant(fake, mode);
        forEachWeightPair(
            original, fake,
            [&](const tensor::Matrix &src, const tensor::Matrix &got) {
                for (std::size_t r = 0; r < src.rows(); ++r) {
                    const float s = rowScale(src.row(r), mode);
                    for (const float w : got.row(r)) {
                        const long q = std::lround(w / s);
                        EXPECT_LE(std::labs(q), qm);
                        EXPECT_EQ(w, s * static_cast<float>(q));
                    }
                }
            });
    }
}

TEST(QuantModel, ZeroRowGetsFiniteNonZeroScale)
{
    // A zero row must not divide by a zero scale: it stays exactly zero
    // (no NaN) and the error stats stay finite.
    nn::LstmModel m(someConfig(), 4);
    for (float &w : m.layers()[1].uo.row(0))
        w = 0.0f;
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        nn::LstmModel fake = m;
        const quant::FakeQuantStats st = quant::applyFakeQuant(fake, mode);
        for (const float w : fake.layers()[1].uo.row(0))
            EXPECT_EQ(w, 0.0f);
        EXPECT_TRUE(std::isfinite(st.maxAbsError));
        EXPECT_TRUE(std::isfinite(st.meanAbsError));
    }
}

TEST(QuantModel, AbsmaxIsExactlyRepresentable)
{
    // The row maximum maps to exactly +/-qmax and round-trips to itself.
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        nn::LstmModel m(someConfig(), 5);
        tensor::Matrix &u = m.layers()[0].ui;
        u.at(0, 1) = -2.0f;  // the absmax, negative
        u.at(3, 5) = 3.0f;   // the absmax, positive
        quant::applyFakeQuant(m, mode);
        EXPECT_EQ(u.at(0, 1), -2.0f);
        EXPECT_EQ(u.at(3, 5), 3.0f);
    }
}

TEST(QuantModel, FakeQuantStatsAndCompression)
{
    nn::LstmModel m(someConfig(), 9);
    const quant::FakeQuantStats st =
        quant::applyFakeQuant(m, QuantMode::Int8);
    EXPECT_EQ(st.mode, QuantMode::Int8);
    EXPECT_EQ(st.matrices, 2u * 8u);  // 8 W/U matrices per layer
    EXPECT_GT(st.elements, 0u);
    EXPECT_GT(st.maxAbsError, 0.0);
    EXPECT_GE(st.maxAbsError, st.meanAbsError);
    // 4 bytes -> 1 byte per weight plus the per-row scale stream. The
    // 8-wide test model's rows are short, so the scale stream costs a
    // visible slice of the budget here.
    EXPECT_GT(st.compressionRatio(), 2.0);
    EXPECT_LT(st.compressionRatio(), 4.0);

    // At a realistic width the scale stream amortises: near 4x.
    nn::ModelConfig wide = someConfig();
    wide.embedSize = 48;
    wide.hiddenSize = 64;
    nn::LstmModel w(wide, 9);
    const quant::FakeQuantStats ws =
        quant::applyFakeQuant(w, QuantMode::Int8);
    EXPECT_GT(ws.compressionRatio(), 3.5);
    EXPECT_LT(ws.compressionRatio(), 4.0);

    // Packed int4 bytes: ceil(cols / 2) codes per row plus a 4 B scale.
    // All 16 matrices have 8 rows; the 8 x 7 layer-0 W rows round up to
    // 4 code bytes like the 8-column rows.
    nn::ModelConfig odd = someConfig();
    odd.embedSize = 7;
    nn::LstmModel o(odd, 9);
    const quant::FakeQuantStats os =
        quant::applyFakeQuant(o, QuantMode::Int4);
    EXPECT_EQ(os.quantBytes, 16.0 * 8.0 * (4.0 + 4.0));
    EXPECT_EQ(os.fp32Bytes, (4.0 * 8.0 * 7.0 + 12.0 * 8.0 * 8.0) * 4.0);
}

TEST(QuantModel, FakeQuantFp32IsNoOp)
{
    const nn::LstmModel original(someConfig(), 2);
    nn::LstmModel m = original;
    const quant::FakeQuantStats st =
        quant::applyFakeQuant(m, QuantMode::Fp32);
    EXPECT_EQ(st.maxAbsError, 0.0);
    EXPECT_EQ(m.layers()[0].uf, original.layers()[0].uf);
}

TEST(QuantModel, FakeQuantIsIdempotent)
{
    // A second pass over an already fake-quantized model reports no
    // error: every weight is representable at its row's scale.
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        nn::LstmModel m(someConfig(), 9);
        quant::applyFakeQuant(m, mode);
        const quant::FakeQuantStats again = quant::applyFakeQuant(m, mode);
        EXPECT_EQ(again.maxAbsError, 0.0) << quant::toString(mode);
        EXPECT_EQ(again.meanAbsError, 0.0) << quant::toString(mode);
    }
}

TEST(QuantizedMatrix, QuantizeIsIdempotent)
{
    // Re-quantizing every fake-quantized W/U matrix reproduces it.
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        nn::LstmModel m(someConfig(), 9);
        quant::applyFakeQuant(m, mode);
        const nn::LstmModel once = m;
        quant::applyFakeQuant(m, mode);
        forEachWeightPair(once, m,
                          [](const tensor::Matrix &a,
                             const tensor::Matrix &b) { EXPECT_EQ(a, b); });
    }
}

TEST(QuantModel, Int4CompressesMoreButErrsMore)
{
    nn::LstmModel a(someConfig(), 9);
    nn::LstmModel b(someConfig(), 9);
    const quant::FakeQuantStats s8 =
        quant::applyFakeQuant(a, QuantMode::Int8);
    const quant::FakeQuantStats s4 =
        quant::applyFakeQuant(b, QuantMode::Int4);
    EXPECT_GT(s4.compressionRatio(), s8.compressionRatio());
    EXPECT_GT(s4.meanAbsError, s8.meanAbsError);
}

TEST(QuantModel, MeasureQuantErrorReportsDrift)
{
    const nn::LstmModel m(someConfig(), 13);
    const quant::QuantErrorReport r8 =
        quant::measureQuantError(m, QuantMode::Int8, someSequences());
    EXPECT_EQ(r8.sequences, 3u);
    EXPECT_GT(r8.maxAbsLogitError, 0.0);
    EXPECT_TRUE(std::isfinite(r8.maxAbsLogitError));
    EXPECT_GE(r8.argmaxFlipRate, 0.0);
    EXPECT_LE(r8.argmaxFlipRate, 1.0);

    const quant::QuantErrorReport r4 =
        quant::measureQuantError(m, QuantMode::Int4, someSequences());
    EXPECT_GE(r4.meanAbsLogitError, r8.meanAbsLogitError);
}

TEST(QuantModel, MeasureQuantErrorFp32IsExactlyZero)
{
    const nn::LstmModel m(someConfig(), 13);
    const quant::QuantErrorReport r =
        quant::measureQuantError(m, QuantMode::Fp32, someSequences());
    EXPECT_EQ(r.maxAbsLogitError, 0.0);
    EXPECT_EQ(r.argmaxFlipRate, 0.0);
}

} // namespace
