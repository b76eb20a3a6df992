/**
 * @file
 * LSTM layer reorganization (Section IV-C): tissue formation — fusing
 * one cell per independent sub-layer into a concurrently executed tissue
 * — and tissue alignment, which rebalances fat/thin tissues so every
 * tissue size is at most the maximum tissue size (MTS) imposed by the
 * on-chip bandwidth. Also the MTS finder (Fig. 10, offline op 1), which
 * sweeps tissue sizes on the target GPU and picks the performance peak
 * of Fig. 9.
 */

#ifndef MFLSTM_CORE_TISSUE_HH
#define MFLSTM_CORE_TISSUE_HH

#include <cstddef>
#include <vector>

#include "runtime/executor.hh"
#include "runtime/plan.hh"

namespace mflstm {
namespace core {

/**
 * Plain tissue formation (Fig. 8(b1)): tissue j contains the j-th cell
 * of every sub-layer long enough — so the tissue sizes are the
 * "column heights" of the sub-layer length multiset. Ignores the MTS.
 *
 * @return tissue sizes in execution order (non-increasing).
 */
std::vector<std::size_t>
formTissues(const std::vector<std::size_t> &sub_layer_lengths);

/**
 * Tissue alignment (Fig. 8(b2)): rebalance cells so no tissue exceeds
 * @p mts while preserving every sub-layer's internal order (a sub-layer
 * contributes at most one cell per tissue, in sequence). Uses the
 * longest-remaining-first schedule over
 * N = max(max sub-layer length, ceil(total / mts)) tissues, which is
 * feasible and yields the minimal tissue count N_min of Eq. 7 whenever
 * the division permits it.
 *
 * @return tissue sizes in execution order; sums to the total cells.
 */
std::vector<std::size_t>
alignTissues(const std::vector<std::size_t> &sub_layer_lengths,
             std::size_t mts);

/** Result of the offline MTS sweep. */
struct MtsResult
{
    std::size_t mts = 1;
    /// per sweep point: simulated layer time (microseconds)
    std::vector<double> timesUs;
    /// per sweep point: shared-memory bandwidth utilisation
    std::vector<double> sharedUtilization;
};

/**
 * Offline MTS determination (Fig. 10 op 1): execute one layer with
 * uniform tissue sizes 1..max_k on the target GPU and return the
 * fastest point. @p skip_fraction lets the combined scheme account for
 * DRS's on-chip traffic relief, which extends the MTS.
 */
MtsResult findMts(const runtime::NetworkExecutor &executor,
                  const runtime::LstmLayerShape &layer,
                  std::size_t max_k = 12, double skip_fraction = 0.0);

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_TISSUE_HH
