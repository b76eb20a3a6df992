/**
 * @file
 * Hardware backend registry (DESIGN.md §17). Generalizes the single
 * hand-configured TX1 `gpu::GpuConfig` into named, versioned backend
 * descriptors: the Maxwell anchor (`tx1`, bit-identical to the historic
 * `GpuConfig::tegraX1()`), its Pascal-class sibling (`tx2`), a
 * DP4A-class mobile GPU (`dp4a`, int8 dot-product units price the
 * dequant stream to zero so int4 becomes the interesting quant row) and
 * an E-PUR/SHARP-style RNN accelerator (`epur`, a large explicit
 * on-chip weight SRAM that makes streamed-weight plans pointless when a
 * layer fits). Every consumer that used to hand-roll `tegraX1()` looks
 * the anchor up here instead, so the config exists in exactly one place
 * and warm-state artifacts can carry a backend identity.
 */

#ifndef MFLSTM_HW_BACKEND_HH
#define MFLSTM_HW_BACKEND_HH

#include <optional>
#include <string>
#include <vector>

#include "gpu/config.hh"

namespace mflstm {
namespace hw {

/** Classification of a backend for display / rule-set selection. */
enum class BackendKind
{
    MobileGpu,     ///< streaming-multiprocessor part, weights from DRAM
    Accelerator,   ///< explicit on-chip weight memory (E-PUR/SHARP)
};

/** Stable lowercase token ("mobile-gpu" / "accelerator"). */
const char *toString(BackendKind kind);

/** Inverse of toString; nullopt on an unknown token. */
std::optional<BackendKind> backendKindFromString(const std::string &s);

/**
 * One named, versioned hardware descriptor. The `config` member is the
 * complete simulator input; everything else is registry metadata. The
 * `revision` counter is bumped whenever the numbers inside `config`
 * change, so a serialized descriptor records which vintage produced it.
 */
struct Backend
{
    std::string id;       ///< registry key, e.g. "tx1"
    std::string display;  ///< human name for tables
    BackendKind kind = BackendKind::MobileGpu;
    std::string summary;  ///< one-liner for `mflstm backends`
    int revision = 1;
    gpu::GpuConfig config;
};

/**
 * The process-wide backend registry. Entries are fixed at startup (this
 * is a model zoo, not a plugin system); lookup is by id. Registration
 * order is the presentation order of `mflstm backends` and the bench
 * sweeps: tx1, tx2, dp4a, epur.
 */
class Registry
{
  public:
    /** @throws std::out_of_range on an unknown id. */
    const Backend &get(const std::string &id) const;

    /** nullptr on an unknown id (CLI-friendly lookup). */
    const Backend *find(const std::string &id) const;

    bool contains(const std::string &id) const;

    /** Backend ids in registration order. */
    std::vector<std::string> names() const;

    const std::vector<Backend> &entries() const { return entries_; }

  private:
    friend const Registry &registry();
    Registry();

    std::vector<Backend> entries_;
};

/** The singleton registry (constructed on first use, immutable). */
const Registry &registry();

/**
 * Serialize one descriptor as a deterministic JSON object (sorted
 * member groups, %.17g numbers, so parse(serialize(b)) reproduces the
 * GpuConfig bit-for-bit). Schema: {"schema":"mflstm.backend",
 * "version":1, "id":..., "display":..., "kind":..., "summary":...,
 * "revision":..., "config":{...}}.
 */
std::string serializeBackend(const Backend &backend);

/**
 * Parse a serialized descriptor. Fields absent from the JSON keep the
 * GpuConfig defaults; nullopt on malformed JSON, a wrong schema tag, an
 * unsupported version, or a bad kind token.
 */
std::optional<Backend> parseBackend(const std::string &json);

} // namespace hw
} // namespace mflstm

#endif // MFLSTM_HW_BACKEND_HH
