/**
 * @file
 * Mobile-GPU hardware description consumed by the timing/energy simulator.
 * The default preset models the Jetson TX1 of Table I (Maxwell, 2 SMs x
 * 128 cores at 998 MHz, 25.6 GB/s LPDDR4, 256 KB L2). Timing constants
 * are calibrated for *shape* fidelity to the paper's measurements (see
 * DESIGN.md section 5), not cycle-exact Maxwell behaviour.
 */

#ifndef MFLSTM_GPU_CONFIG_HH
#define MFLSTM_GPU_CONFIG_HH

#include <cstddef>
#include <string>

namespace mflstm {
namespace gpu {

/** Static hardware parameters of one simulated mobile GPU + SoC. */
struct GpuConfig
{
    std::string name = "generic-mobile-gpu";

    // --- Compute ------------------------------------------------------
    unsigned numSms = 2;
    unsigned coresPerSm = 128;
    double coreClockGhz = 0.998;
    unsigned warpSize = 32;
    unsigned maxThreadsPerSm = 2048;
    unsigned maxCtasPerSm = 32;

    // --- Off-chip memory ----------------------------------------------
    double dramBandwidthGBs = 25.6;
    double dramLatencyNs = 120.0;
    std::size_t l2Bytes = 256 * 1024;
    unsigned l2Assoc = 16;
    unsigned lineBytes = 32;
    /// L2 service bandwidth, bytes per core cycle (total).
    double l2BytesPerCycle = 128.0;

    // --- On-chip (shared) memory ---------------------------------------
    std::size_t sharedMemPerSmBytes = 64 * 1024;
    /// Shared-memory bandwidth, bytes per core cycle *per SM*
    /// (32 banks x 4 B on Maxwell).
    double sharedBytesPerCyclePerSm = 128.0;

    // --- Persistent weight residency (Appleyard-style kernels) ----------
    /// Register file per SM: 64K 32-bit registers on Maxwell-class SMs.
    std::size_t regFileBytesPerSm = 256 * 1024;
    /**
     * Fraction of each tier a persistent kernel may pin for weights.
     * Shared memory still has to stage the H_t operand tiles; the
     * register file still carries the live thread state of the resident
     * CTAs, so neither tier is pinnable wall to wall.
     */
    double sharedResidencyFraction = 0.75;
    double regfileResidencyFraction = 0.5;
    /**
     * Execution-cycle inflation at a fully pinned tier: pinned bytes
     * displace warps (regfile) or operand staging room (shared), so
     * fewer concurrent warps are left to hide latency. Scales linearly
     * with pinned/raw tier capacity in the SM model.
     */
    double residencyOccupancyPenalty = 0.30;

    // --- Kernel machinery ----------------------------------------------
    double kernelLaunchUs = 2.0;      ///< CPU-side launch + GMU dispatch
    /**
     * Fraction of the launch overhead that remains exposed when kernels
     * are enqueued back-to-back on one stream: the CPU-side work of
     * later launches overlaps the GPU executing earlier ones.
     */
    double streamedLaunchFraction = 0.3;

    /** Exposed launch overhead for a non-leading kernel in a stream. */
    double streamedLaunchUs() const
    {
        return kernelLaunchUs * streamedLaunchFraction;
    }
    double barrierCostCycles = 40.0;  ///< one __syncthreads per CTA wave
    /**
     * Execution-time multiplier paid when shared-memory demand exceeds
     * capacity and the kernel is re-configured at compile time with more,
     * thinner threads (the Fig. 9 performance-droop mechanism).
     */
    double reconfigPenalty = 1.35;

    // --- Energy (system-level, Section VI-A measures the whole board) --
    double socStaticW = 2.2;    ///< CPU + board rails while inferencing
    double gpuIdleW = 0.6;      ///< GPU leakage + clocks
    /**
     * Extra GPU draw per unit of *FP-issue* activity. The simulator's
     * busy fraction counts only FP-retiring cycles, roughly 4x below
     * total pipeline activity (ld/st, address math, control), so this
     * coefficient is correspondingly ~4x the physical ~10 W full-tilt
     * core power of a TX1-class part.
     */
    double gpuIssueActiveW = 40.0;
    double dramPjPerByte = 70.0;
    double l2PjPerByte = 6.0;
    double sharedPjPerByte = 4.0;
    double fmaPjPerFlop = 1.6;
    /**
     * In-register dequantization cost per quantized weight element
     * (int8/int4 -> fp32 convert feeding the FMA). Well under one FMA:
     * the convert is a single-cycle ALU op with no operand fetch.
     */
    double dequantPjPerWeight = 0.3;
    /**
     * Issue slots per quantized weight spent on the in-register
     * convert. Maxwell-class parts (TX1) have no DP4A: every int8/int4
     * weight costs one single-lane cvt op sharing the FMA issue pipes,
     * so narrow weights trade DRAM cycles for ALU cycles and the win
     * shrinks once a kernel turns compute-bound.
     */
    double dequantOpsPerWeight = 1.0;

    // --- Backend capability flags (hw registry, DESIGN.md §17) ---------
    /**
     * True when the part has int8 dot-product units (DP4A-class): the
     * quantized inner product consumes packed narrow weights directly,
     * so no per-weight convert shares the FMA issue pipes
     * (dequantOpsPerWeight ~0) and the per-row scale factors fold into
     * the accumulator epilogue instead of streaming beside the matrix
     * (the lowering attributes no separate scale bytes).
     */
    bool int8DotUnits = false;
    /**
     * True for accelerator-style parts (E-PUR/SHARP) whose shared tier
     * models a large explicit on-chip weight SRAM sized for whole RNN
     * layers: when the pinnable capacity covers a layer's recurrent
     * footprint, the tuner prices streamed-weight plans out of the menu
     * (the dense point is kept as the comparison anchor).
     */
    bool explicitWeightMemory = false;

    // --- CTA-reorganization module (Section V-B hardware design) -------
    /// Threads the CRM prefix-sum datapath retires per cycle (one warp).
    unsigned crmThreadsPerCycle = 32;
    /// Pipeline fill latency of the two CRM stages (Fig. 12).
    unsigned crmPipelineCycles = 6;
    /// Dynamic energy per thread-slot the CRM filters (gate-level est.).
    double crmPjPerThread = 0.8;
    /// CRM static power adder (simple logic + TRB SRAM), watts.
    double crmStaticW = 0.012;

    /** Peak FP32 throughput, FLOP per core cycle (FMA = 2 FLOP/core). */
    double flopsPerCycle() const
    {
        return 2.0 * static_cast<double>(numSms) * coresPerSm;
    }

    /** DRAM bandwidth expressed in bytes per core cycle. */
    double dramBytesPerCycle() const
    {
        return dramBandwidthGBs / coreClockGhz;
    }

    /** Aggregate shared-memory bandwidth, bytes per core cycle. */
    double sharedBytesPerCycle() const
    {
        return sharedBytesPerCyclePerSm * static_cast<double>(numSms);
    }

    /** Core cycles per microsecond. */
    double cyclesPerUs() const { return coreClockGhz * 1e3; }

    /** The Jetson TX1 development board of Table I. */
    static GpuConfig tegraX1();

    /** A roughly 2x larger mobile part for scalability studies. */
    static GpuConfig tegraX2Like();

    /** Field-by-field equality; a new field joins it by construction. */
    bool operator==(const GpuConfig &) const = default;
};

} // namespace gpu
} // namespace mflstm

#endif // MFLSTM_GPU_CONFIG_HH
