/**
 * @file
 * Calibration persistence on the crash-safe artifact layer (DESIGN.md
 * §11). The offline phase of Fig. 10 — the MTS sweep, the relevance /
 * output-gate profile, the threshold limits and the per-layer context-
 * link predictor distributions — is the expensive part of bringing a
 * MemoryFriendlyLstm up; saving it lets a warm restart skip straight to
 * threshold selection. The predictors are stored as their raw histogram
 * bin counts, so the restored Eq. 6 expectations are bit-identical to
 * the ones the original process computed.
 *
 * A calibration is only meaningful for the exact model it was computed
 * on, so the file carries a model fingerprint (config dimensions plus a
 * CRC32 over every weight byte); loadCalibration rejects a mismatch
 * with ErrorKind::Stale instead of silently degrading accuracy.
 */

#ifndef MFLSTM_CORE_PERSIST_HH
#define MFLSTM_CORE_PERSIST_HH

#include <string>

#include "core/api.hh"
#include "io/artifact.hh"

namespace mflstm {
namespace core {

/**
 * CRC32 over every trainable parameter of @p model in a fixed order
 * (embedding, per-layer W/U/b, head): the one weight fingerprint that
 * calibration and warm-state artifacts record.
 */
std::uint32_t modelWeightsCrc(const nn::LstmModel &model);

/**
 * Write @p mf's calibration (and predictor distributions) to @p path
 * atomically. @throws std::logic_error when calibrate() has not run;
 * io::ArtifactError on I/O failure.
 */
void saveCalibration(const MemoryFriendlyLstm &mf,
                     const std::string &path);

/**
 * Restore a saved calibration into @p mf: predictor bin counts into the
 * runner, the Calibration struct into the facade. Either completes
 * fully or throws io::ArtifactError leaving @p mf uncalibrated
 * (ErrorKind::Stale when the file belongs to a different model). When
 * @p obs is non-null a rejection bumps artifact_load_rejected_total.
 */
void loadCalibration(MemoryFriendlyLstm &mf, const std::string &path,
                     const io::ArtifactLimits &limits = {},
                     obs::Observer *obs = nullptr);

/**
 * Structural deep-verification for `mflstm fsck`: parse every chunk and
 * check internal consistency (without a model, staleness cannot be
 * checked). @throws io::ArtifactError on any defect.
 */
void verifyCalibrationFile(const std::string &path,
                           const io::ArtifactLimits &limits = {});

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_PERSIST_HH
