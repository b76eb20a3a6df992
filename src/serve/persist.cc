#include "serve/persist.hh"

#include <cmath>

#include "quant/qformat.hh"
#include "sched/persist.hh"

namespace mflstm {
namespace serve {

namespace {

using io::ArtifactError;
using io::ErrorKind;

/**
 * The one schema version this build reads and writes (DESIGN.md §11):
 * the fingerprint carries the tuning-mode flag and the hw registry
 * backend id, and each rung plan is a u32 PlanKind followed by its
 * ScheduleDecisions in the shared plan codec (sched/persist.hh). Older
 * files are Stale: the caller quarantines them and rebuilds the state.
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
        state.backendId = sched::readString(r);
        r.expectEnd();
    }
    {
        io::ByteReader r = reader.chunk(kChunkShape);
        state.shape = sched::readShape(r, limits);
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
        plan.decisions = sched::readDecisions(r, state.shape, limits);
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
    sched::writeString(f, state.backendId);

    sched::writeShape(w.chunk(kChunkShape), state.shape);

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
        sched::writeDecisions(p, state.plans[i].decisions);
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
