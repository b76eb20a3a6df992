/**
 * @file
 * SM-level kernel timing with stall attribution. The model is a
 * bottleneck (roofline-style) issue model: a kernel's duration is set by
 * its most contended resource — FP issue, off-chip bandwidth, L2
 * bandwidth, or shared-memory bandwidth — plus synchronization and fixed
 * latencies. Cycles the issue stage could not retire useful work are
 * attributed to stall causes, reproducing the Fig. 4 breakdown.
 */

#ifndef MFLSTM_GPU_SM_HH
#define MFLSTM_GPU_SM_HH

#include "gpu/config.hh"
#include "gpu/kernel.hh"

namespace mflstm {
namespace gpu {

/** Pipeline stall cycles by cause (the Fig. 4 categories). */
struct StallBreakdown
{
    double offChipMemory = 0.0;
    double onChipBandwidth = 0.0;
    double synchronization = 0.0;
    double executionDependency = 0.0;
    double other = 0.0;

    double total() const
    {
        return offChipMemory + onChipBandwidth + synchronization +
               executionDependency + other;
    }

    StallBreakdown &operator+=(const StallBreakdown &rhs);
};

/**
 * The resource that set a kernel's duration. DequantIssue is split out
 * of Compute because it is actionable in a different way: it prices the
 * in-register int->fp converts quantized weights pay, i.e. the
 * compute-side cost of the DRAM bytes quantization saved.
 */
enum class KernelBound : std::uint8_t {
    Compute,       ///< FP issue bound, useful FLOPs dominant
    DequantIssue,  ///< FP issue bound, dequant converts dominant
    Bandwidth,     ///< off-chip DRAM bandwidth bound
    Occupancy,     ///< shared-memory bound -> kernel reconfiguration
    L2,            ///< on-chip L2 bandwidth bound
};

const char *toString(KernelBound b);

/** Timing result for one kernel launch. */
struct KernelTiming
{
    double cycles = 0.0;        ///< on-GPU execution cycles
    double timeUs = 0.0;        ///< simulated time incl. launch overhead
    double computeCycles = 0.0; ///< cycles retiring useful FP work
    double dequantCycles = 0.0; ///< dequant-convert share of computeCycles
    KernelBound boundBy = KernelBound::Compute;

    StallBreakdown stalls;

    double flops = 0.0;
    double dramBytes = 0.0;     ///< after coalescing inflation
    double l2Bytes = 0.0;
    double sharedBytes = 0.0;

    double dramUtilization = 0.0;    ///< of off-chip bandwidth, [0,1]
    double sharedUtilization = 0.0;  ///< of on-chip bandwidth; may be
                                     ///< reported >1 as *demand* before
                                     ///< the reconfiguration clamp
    double l2Utilization = 0.0;

    double crmCycles = 0.0;     ///< CRM pipeline latency charged
    double crmEnergyJ = 0.0;
    /// extra execution cycles paid for pinned-weight occupancy loss
    double residencyOccCycles = 0.0;
    unsigned activeThreads = 0;
    unsigned smsUsed = 1;       ///< SMs the grid occupies (for timelines)
    bool reconfigured = false;  ///< shared-BW-driven kernel reconfig hit
};

/**
 * Pinnable weight capacity of one residency tier across the whole GPU
 * (per-SM tier size x SM count x the tier's pinnable fraction). The
 * lowering sizes the resident weight block against this; the overflow
 * streams from DRAM as spill (KernelDesc::dramResidencyReloadBytes).
 */
double residencyCapacityBytes(const GpuConfig &cfg, WeightResidency r);

/**
 * Execution-cycle inflation for pinning @p pinned_bytes of weights in
 * tier @p r: 1.0 at zero pinning, 1 + residencyOccupancyPenalty at a
 * fully pinned tier (pinned registers/shared rows displace the warps
 * that would otherwise hide latency).
 */
double residencyOccupancyFactor(const GpuConfig &cfg, WeightResidency r,
                                double pinned_bytes);

/**
 * Time one kernel on the configured GPU.
 *
 * @param crm_applied  the GMU ran this kernel's grid through the CRM:
 *                     divergence from the row-skip branch disappears and
 *                     the thread count shrinks to the active set.
 */
KernelTiming timeKernel(const GpuConfig &cfg, const KernelDesc &desc,
                        bool crm_applied = false);

} // namespace gpu
} // namespace mflstm

#endif // MFLSTM_GPU_SM_HH
