#include "serve/persist.hh"

#include <algorithm>
#include <cmath>

#include "quant/qformat.hh"

namespace mflstm {
namespace serve {

namespace {

using io::ArtifactError;
using io::ErrorKind;

/**
 * The one schema version this build reads and writes (DESIGN.md §11):
 * the fingerprint carries the tuning-mode flag and the hw registry
 * backend id, and each rung plan is a u32 PlanKind followed by its
 * ScheduleDecisions in the plan codec below. Older files are Stale: the
 * caller quarantines them and rebuilds the state.
 */
constexpr std::uint32_t kEngineSchemaVersion = 6;

constexpr std::uint32_t kChunkFingerprint = io::fourcc('E', 'F', 'P', 'R');
constexpr std::uint32_t kChunkShape = io::fourcc('E', 'S', 'H', 'P');
constexpr std::uint32_t kChunkLadder = io::fourcc('E', 'L', 'A', 'D');

std::uint32_t
rungPlanTag(std::size_t rung)
{
    return io::indexedTag('E', 'P', rung);
}

[[noreturn]] void
fail(ErrorKind kind, const std::string &path, const std::string &what)
{
    throw ArtifactError(kind, "loadEngineState: " + path + ": " + what);
}

void
requireFinite(double v, const char *what, const std::string &path)
{
    if (!std::isfinite(v))
        fail(ErrorKind::NonFinite, path, std::string("non-finite ") + what);
}

// --- Plan codec -------------------------------------------------------
// The encoding of strings, network shapes and schedule decisions. Decoding
// bounds every field before anything allocates from it or simulates it.
// No decoder checks for trailing bytes; callers finish the chunk with
// expectEnd().

[[noreturn]] void
codecFail(ErrorKind kind, const std::string &msg)
{
    throw ArtifactError(kind, "plan codec: " + msg);
}

/// deeper than any network this repo builds, far below any allocation risk
constexpr std::uint64_t kMaxLayers = 1024;

void
writeString(io::ByteWriter &w, const std::string &s)
{
    w.u8Array({reinterpret_cast<const std::int8_t *>(s.data()),
               s.size()});
}

std::string
readString(io::ByteReader &r)
{
    const std::vector<std::int8_t> raw = r.u8Array();
    return std::string(raw.begin(), raw.end());
}

void
writeShape(io::ByteWriter &w, const runtime::NetworkShape &shape)
{
    w.u64(shape.layers.size());
    for (const runtime::LstmLayerShape &l : shape.layers) {
        w.u64(l.inputSize);
        w.u64(l.hiddenSize);
        w.u64(l.length);
    }
}

/**
 * LimitExceeded when the layer count is zero or over 1024, or any
 * dimension is zero or over @p limits.maxDim.
 */
runtime::NetworkShape
readShape(io::ByteReader &r, const io::ArtifactLimits &limits)
{
    const std::uint64_t count = r.u64();
    if (count == 0 || count > std::min(kMaxLayers, limits.maxDim))
        codecFail(ErrorKind::LimitExceeded, "implausible layer count");
    runtime::NetworkShape shape;
    shape.layers.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t in = r.u64();
        const std::uint64_t hid = r.u64();
        const std::uint64_t len = r.u64();
        for (std::uint64_t dim : {in, hid, len})
            if (dim == 0 || dim > limits.maxDim)
                codecFail(ErrorKind::LimitExceeded,
                          "layer dimension out of range");
        shape.layers.push_back({static_cast<std::size_t>(in),
                                static_cast<std::size_t>(hid),
                                static_cast<std::size_t>(len)});
    }
    return shape;
}

void
writeDecisions(io::ByteWriter &w,
               const runtime::ScheduleDecisions &decisions)
{
    w.u64(decisions.layers.size());
    for (const runtime::LayerSchedule &ls : decisions.layers) {
        std::vector<std::uint64_t> sizes(ls.tissueSizes.begin(),
                                         ls.tissueSizes.end());
        w.u64Array(sizes);
        w.u32(static_cast<std::uint32_t>(ls.skipPath));
        w.f64(ls.skipFraction);
        w.u32(static_cast<std::uint32_t>(ls.flagFusion));
        w.u32(static_cast<std::uint32_t>(ls.quant));
        w.u32(ls.prunedCsr ? 1 : 0);
        w.f64(ls.pruneFraction);
        w.u64(ls.batch);
        w.u32(static_cast<std::uint32_t>(ls.residency));
    }
}

/**
 * One LayerSchedule per layer of @p shape. Malformed on a layer count
 * that differs from @p shape, tissue sizes that do not sum to the layer
 * length, an unknown enum value or decisions that fail validate();
 * LimitExceeded on a tissue size or batch over @p limits.maxDim;
 * NonFinite on a NaN/Inf fraction.
 */
runtime::ScheduleDecisions
readDecisions(io::ByteReader &r, const runtime::NetworkShape &shape,
              const io::ArtifactLimits &limits)
{
    const auto enumValue = [&](auto max, const char *what) {
        const std::uint32_t v = r.u32();
        if (v > static_cast<std::uint32_t>(max))
            codecFail(ErrorKind::Malformed,
                      std::string("unknown ") + what);
        return static_cast<decltype(max)>(v);
    };
    const auto fraction = [&](const char *what) {
        const double v = r.f64();
        if (!std::isfinite(v))
            codecFail(ErrorKind::NonFinite,
                      std::string(what) + " is not finite");
        return v;
    };
    const auto bounded = [&](std::uint64_t v, const char *what) {
        if (v > limits.maxDim)
            codecFail(ErrorKind::LimitExceeded,
                      std::string(what) + " out of range");
        return static_cast<std::size_t>(v);
    };

    if (r.u64() != shape.layers.size())
        codecFail(ErrorKind::Malformed,
                  "decision/shape layer count mismatch");
    runtime::ScheduleDecisions decisions;
    decisions.layers.resize(shape.layers.size());
    for (std::size_t l = 0; l < shape.layers.size(); ++l) {
        runtime::LayerSchedule &ls = decisions.layers[l];
        std::size_t cells = 0;
        for (std::uint64_t t : r.u64Array()) {
            ls.tissueSizes.push_back(bounded(t, "tissue size"));
            cells += ls.tissueSizes.back();
        }
        if (!ls.tissueSizes.empty() && cells != shape.layers[l].length)
            codecFail(ErrorKind::Malformed,
                      "tissue sizes do not cover the layer");
        ls.skipPath = enumValue(runtime::SkipPath::HwCrm, "skip path");
        ls.skipFraction = fraction("skip fraction");
        ls.flagFusion = enumValue(runtime::FlagFusion::FusedEpilogue,
                                  "flag fusion");
        ls.quant = enumValue(quant::QuantMode::Int4, "quant mode");
        ls.prunedCsr = r.u32() != 0;
        ls.pruneFraction = fraction("prune fraction");
        ls.batch = bounded(r.u64(), "layer batch");
        ls.residency = enumValue(runtime::WeightResidency::Regfile,
                                 "residency");
    }
    try {
        decisions.validate();
    } catch (const std::invalid_argument &e) {
        codecFail(ErrorKind::Malformed, e.what());
    }
    return decisions;
}

runtime::PlanKind
readPlanKind(io::ByteReader &r, const std::string &path)
{
    const std::uint32_t kind = r.u32();
    if (kind > static_cast<std::uint32_t>(runtime::PlanKind::Persistent))
        fail(ErrorKind::Malformed, path,
             "unknown plan kind " + std::to_string(kind));
    return static_cast<runtime::PlanKind>(kind);
}

EngineWarmState
parseState(const io::ArtifactReader &reader,
           const io::ArtifactLimits &limits, const std::string &path)
{
    reader.requireSchemaVersion(kEngineSchemaVersion);

    EngineWarmState state;
    {
        io::ByteReader r = reader.chunk(kChunkFingerprint);
        state.modelWeightsCrc = r.u32();
        state.plan = readPlanKind(r, path);
        state.pruneFraction = r.f64();
        requireFinite(state.pruneFraction, "pruneFraction", path);
        const std::uint32_t tuned = r.u32();
        if (tuned > 1)
            fail(ErrorKind::Malformed, path, "bad tunedPlans flag");
        state.tunedPlans = tuned != 0;
        state.backendId = readString(r);
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkShape);
        state.shape = readShape(r, limits);
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkLadder);
        const std::uint64_t rungs = r.u64();
        if (rungs == 0 || rungs > limits.maxChunks)
            fail(ErrorKind::Malformed, path, "absurd rung count");
        for (std::uint64_t i = 0; i < rungs; ++i) {
            core::ThresholdSet set;
            set.alphaInter = r.f64();
            set.alphaIntra = r.f64();
            const std::uint32_t qm = r.u32();
            if (qm > static_cast<std::uint32_t>(quant::QuantMode::Int4))
                fail(ErrorKind::Malformed, path,
                     "unknown quant mode " + std::to_string(qm));
            set.quant = static_cast<quant::QuantMode>(qm);
            requireFinite(set.alphaInter, "alphaInter", path);
            requireFinite(set.alphaIntra, "alphaIntra", path);
            if (set.alphaInter < 0.0 || set.alphaIntra < 0.0 ||
                set.alphaIntra >= 1.0)
                fail(ErrorKind::Malformed, path, "threshold out of range");
            state.ladder.push_back(set);
        }
        r.expectEnd();
    }
    for (std::size_t i = 0; i < state.ladder.size(); ++i) {
        io::ByteReader r = reader.chunk(rungPlanTag(i));
        runtime::ExecutionPlan plan;
        plan.kind = readPlanKind(r, path);
        plan.decisions = readDecisions(r, state.shape, limits);
        r.expectEnd();
        state.plans.push_back(std::move(plan));
    }
    return state;
}

} // anonymous namespace

void
saveEngineState(const EngineWarmState &state, const std::string &path)
{
    io::ArtifactWriter w(io::kSchemaEngineState, kEngineSchemaVersion);

    io::ByteWriter &f = w.chunk(kChunkFingerprint);
    f.u32(state.modelWeightsCrc);
    f.u32(static_cast<std::uint32_t>(state.plan));
    f.f64(state.pruneFraction);
    f.u32(state.tunedPlans ? 1 : 0);
    writeString(f, state.backendId);

    writeShape(w.chunk(kChunkShape), state.shape);

    io::ByteWriter &l = w.chunk(kChunkLadder);
    l.u64(state.ladder.size());
    for (const core::ThresholdSet &set : state.ladder) {
        l.f64(set.alphaInter);
        l.f64(set.alphaIntra);
        l.u32(static_cast<std::uint32_t>(set.quant));
    }

    for (std::size_t i = 0; i < state.plans.size(); ++i) {
        io::ByteWriter &p = w.chunk(rungPlanTag(i));
        p.u32(static_cast<std::uint32_t>(state.plans[i].kind));
        writeDecisions(p, state.plans[i].decisions);
    }

    w.commit(path);
}

void
saveEngineState(const InferenceEngine &engine, const std::string &path)
{
    saveEngineState(engine.exportWarmState(), path);
}

EngineWarmState
loadEngineState(const std::string &path, const io::ArtifactLimits &limits,
                obs::Observer *obs)
{
    try {
        const io::ArtifactReader reader(path, io::kSchemaEngineState,
                                        limits);
        return parseState(reader, limits, path);
    } catch (const ArtifactError &e) {
        io::recordRejection(obs, e.kind());
        throw;
    }
}

void
verifyEngineStateFile(const std::string &path,
                      const io::ArtifactLimits &limits)
{
    (void)loadEngineState(path, limits);
}

} // namespace serve
} // namespace mflstm
