#include "quant/serialize.hh"

#include <cmath>
#include <utility>

namespace mflstm {
namespace quant {

namespace {

using io::ArtifactError;
using io::ErrorKind;

constexpr std::uint32_t kQuantSchemaVersion = 1;
constexpr std::uint32_t kChunkConfig = io::fourcc('Q', 'C', 'F', 'G');

std::uint32_t
layerTag(std::size_t l)
{
    return io::indexedTag('Q', 'L', l);
}

void
writeMatrix(io::ByteWriter &w, const tensor::QuantizedMatrix &m)
{
    w.u64(m.rows());
    w.u64(m.cols());
    w.f32Array(m.scales());
    w.u8Array(m.payload());
}

tensor::QuantizedMatrix
readMatrix(io::ByteReader &r, QuantMode mode,
           const io::ArtifactLimits &limits, const std::string &ctx)
{
    const std::uint64_t rows = r.u64();
    const std::uint64_t cols = r.u64();
    if (rows == 0 || cols == 0 || rows > limits.maxDim ||
        cols > limits.maxDim)
        throw ArtifactError(ErrorKind::Malformed,
                            ctx + ": bad dimensions " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols));
    io::checkedMul(rows, cols, ctx.c_str());
    if (rows * cols > limits.maxElements)
        throw ArtifactError(ErrorKind::LimitExceeded,
                            ctx + ": matrix exceeds element limit");

    std::vector<float> scales = r.f32Array();
    if (scales.size() != rows)
        throw ArtifactError(ErrorKind::Malformed,
                            ctx + ": " + std::to_string(scales.size()) +
                                " scales for " + std::to_string(rows) +
                                " rows");
    for (float s : scales) {
        if (!std::isfinite(s))
            throw ArtifactError(ErrorKind::NonFinite,
                                ctx + ": non-finite row scale");
        if (s == 0.0f)
            throw ArtifactError(ErrorKind::Malformed,
                                ctx + ": zero row scale");
    }

    std::vector<std::int8_t> payload = r.u8Array();
    const std::uint64_t packed_row =
        mode == QuantMode::Int4 ? (cols + 1) / 2 : cols;
    if (payload.size() != rows * packed_row)
        throw ArtifactError(ErrorKind::Malformed,
                            ctx + ": payload of " +
                                std::to_string(payload.size()) +
                                " bytes, expected " +
                                std::to_string(rows * packed_row));
    // Canonical-code checks: the encoder never emits the asymmetric
    // minimum (-128 / nibble -8), and a trailing odd int4 column
    // leaves its high nibble zero. Enforcing this keeps save(load(x))
    // bit-identical and catches in-payload bit flips the CRC already
    // caught at the container level.
    if (mode == QuantMode::Int8) {
        for (std::int8_t b : payload)
            if (b == -128)
                throw ArtifactError(ErrorKind::Malformed,
                                    ctx + ": int8 code -128");
    } else {
        const bool odd = (cols % 2) != 0;
        for (std::uint64_t row = 0; row < rows; ++row)
            for (std::uint64_t i = 0; i < packed_row; ++i) {
                const std::uint8_t b = static_cast<std::uint8_t>(
                    payload[row * packed_row + i]);
                if ((b & 0x0f) == 0x08 ||
                    ((b >> 4) == 0x08 &&
                     !(odd && i + 1 == packed_row)))
                    throw ArtifactError(ErrorKind::Malformed,
                                        ctx + ": int4 code -8");
                if (odd && i + 1 == packed_row && (b >> 4) != 0)
                    throw ArtifactError(
                        ErrorKind::Malformed,
                        ctx + ": trailing int4 nibble not zero");
            }
    }
    return tensor::QuantizedMatrix::fromParts(
        static_cast<std::size_t>(rows), static_cast<std::size_t>(cols),
        mode, std::move(scales), std::move(payload));
}

QuantizedModel
loadValidated(const std::string &path, const io::ArtifactLimits &limits)
{
    io::ArtifactReader reader(path, io::kSchemaQuantModel, limits);
    reader.requireSchemaVersion(kQuantSchemaVersion);

    io::ByteReader cfg = reader.chunk(kChunkConfig);
    QuantizedModel q;
    const std::uint32_t mode = cfg.u32();
    if (mode != static_cast<std::uint32_t>(QuantMode::Int8) &&
        mode != static_cast<std::uint32_t>(QuantMode::Int4))
        throw ArtifactError(ErrorKind::Malformed,
                            "loadQuantizedModel: " + path +
                                ": bad quant mode " +
                                std::to_string(mode));
    q.mode = static_cast<QuantMode>(mode);
    q.sourceWeightsCrc = cfg.u32();
    const std::uint64_t layers = cfg.u64();
    cfg.expectEnd();
    if (layers == 0 || layers > limits.maxChunks)
        throw ArtifactError(ErrorKind::Malformed,
                            "loadQuantizedModel: " + path + ": " +
                                std::to_string(layers) + " layers");

    q.layers.resize(static_cast<std::size_t>(layers));
    for (std::size_t l = 0; l < q.layers.size(); ++l) {
        const std::string ctx =
            "loadQuantizedModel: " + path + ": layer " +
            std::to_string(l);
        io::ByteReader r = reader.chunk(layerTag(l));
        auto read = [&](const char *name) {
            return readMatrix(r, q.mode, limits,
                              ctx + " " + name);
        };
        QuantizedLayer &ql = q.layers[l];
        ql.wf = read("wf");
        ql.wi = read("wi");
        ql.wc = read("wc");
        ql.wo = read("wo");
        ql.uf = read("uf");
        ql.ui = read("ui");
        ql.uc = read("uc");
        ql.uo = read("uo");
        r.expectEnd();
        // The recurrent matrices must be square and agree with each
        // other — "row counts match header" at the layer level.
        const std::size_t h = ql.uf.rows();
        for (const tensor::QuantizedMatrix *m :
             {&ql.wf, &ql.wi, &ql.wc, &ql.wo})
            if (m->rows() != h)
                throw ArtifactError(ErrorKind::Malformed,
                                    ctx + ": W row count " +
                                        std::to_string(m->rows()) +
                                        " != hidden " +
                                        std::to_string(h));
        for (const tensor::QuantizedMatrix *m :
             {&ql.uf, &ql.ui, &ql.uc, &ql.uo})
            if (m->rows() != h || m->cols() != h)
                throw ArtifactError(ErrorKind::Malformed,
                                    ctx + ": U is not " +
                                        std::to_string(h) + "x" +
                                        std::to_string(h));
    }
    return q;
}

} // namespace

void
saveQuantizedModel(const QuantizedModel &q, const std::string &path)
{
    io::ArtifactWriter w(io::kSchemaQuantModel, kQuantSchemaVersion);
    io::ByteWriter &cfg = w.chunk(kChunkConfig);
    cfg.u32(static_cast<std::uint32_t>(q.mode));
    cfg.u32(q.sourceWeightsCrc);
    cfg.u64(q.layers.size());
    for (std::size_t l = 0; l < q.layers.size(); ++l) {
        io::ByteWriter &lw = w.chunk(layerTag(l));
        const QuantizedLayer &ql = q.layers[l];
        for (const tensor::QuantizedMatrix *m :
             {&ql.wf, &ql.wi, &ql.wc, &ql.wo, &ql.uf, &ql.ui, &ql.uc,
              &ql.uo})
            writeMatrix(lw, *m);
    }
    w.commit(path);
}

QuantizedModel
loadQuantizedModel(const std::string &path,
                   const io::ArtifactLimits &limits, obs::Observer *obs)
{
    try {
        return loadValidated(path, limits);
    } catch (const ArtifactError &e) {
        io::recordRejection(obs, e.kind());
        throw;
    }
}

QuantizedModel
loadQuantizedModelFor(const nn::LstmModel &source, const std::string &path,
                      const io::ArtifactLimits &limits,
                      obs::Observer *obs)
{
    QuantizedModel q = loadQuantizedModel(path, limits, obs);
    if (q.sourceWeightsCrc != modelWeightsCrc(source)) {
        io::recordRejection(obs, ErrorKind::Stale);
        throw ArtifactError(ErrorKind::Stale,
                            "loadQuantizedModelFor: " + path +
                                ": fingerprint does not match the "
                                "fp32 source model");
    }
    return q;
}

void
verifyQuantizedModelFile(const std::string &path,
                         const io::ArtifactLimits &limits)
{
    (void)loadValidated(path, limits);
}

} // namespace quant
} // namespace mflstm
