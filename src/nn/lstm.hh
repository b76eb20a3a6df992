/**
 * @file
 * LSTM cell and layer forward pass implementing Eq. 1-5 of the paper,
 * with its Dynamic Row Skip variant (Algorithm 3) and the gate-level
 * tracing hooks that both the BPTT trainer and the paper's approximation
 * passes need. The heavyweight matrix products follow the cuDNN
 * decomposition of Section II-C: a per-layer Sgemm over the inputs
 * (W x_t for all t) and a per-cell Sgemv over the recurrent state
 * (U h_{t-1}).
 */

#ifndef MFLSTM_NN_LSTM_HH
#define MFLSTM_NN_LSTM_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "tensor/matrix.hh"
#include "tensor/rng.hh"

namespace mflstm {
namespace nn {

using tensor::Matrix;
using tensor::Vector;

/** Which sigmoid variant the gates use (Section IV-A, Fig. 7). */
enum class SigmoidKind { Logistic, Hard };

/**
 * What a DRS-skipped row means for the cell state. Algorithm 3 row-skips
 * only the Sgemv(U_{f,i,c}, h, R) kernel; the element-wise kernel of
 * line 8 carries no R argument, so the faithful reading (the default) is
 * that a skipped row merely loses its recurrent contribution
 * U_* h_{t-1} while the gate still evaluates on the input projection.
 * Section V-A's prose alternatively describes the affected c_t elements
 * as "approximated to zero"; ZeroState implements that harsher variant
 * (kept for the ablation study in bench_ablation).
 */
enum class DrsStatePolicy {
    DropRecurrent,  ///< skipped rows: gates see W x_t + b only (default)
    ZeroState,      ///< skipped rows: c_t (and hence h_t) forced to 0
};

/**
 * Dynamic Row Skip for one cell (Algorithm 3): the rows whose output
 * gate element is at most alphaIntra skip their U_{f,i,c} products.
 */
struct DrsSkip
{
    double alphaIntra = 0.0;
    DrsStatePolicy policy = DrsStatePolicy::DropRecurrent;
};

/**
 * Parameters of one LSTM layer: four input projections W_* (hidden x
 * input), four recurrent projections U_* (hidden x hidden) and four
 * biases b_* — the f/i/c/o order of the paper throughout.
 */
struct LstmLayerParams
{
    LstmLayerParams() = default;
    LstmLayerParams(std::size_t input_size, std::size_t hidden_size);

    std::size_t inputSize() const { return wf.cols(); }
    std::size_t hiddenSize() const { return wf.rows(); }

    /** Xavier-initialise weights; biases zero except forget bias = 1. */
    void init(tensor::Rng &rng);

    /**
     * United recurrent matrix U_{f,i,c,o} (4H x H) as cuDNN concatenates
     * it for the per-cell Sgemv (Section II-C, circled 1).
     */
    Matrix unitedU() const;

    /** United input matrix W_{f,i,c,o} (4H x E), Section II-C circled 2. */
    Matrix unitedW() const;

    /** United bias (4H). */
    Vector unitedBias() const;

    Matrix wf, wi, wc, wo;
    Matrix uf, ui, uc, uo;
    Vector bf, bi, bc, bo;
};

/** Recurrent state threaded between cells: (h_{t-1}, c_{t-1}). */
struct LstmState
{
    LstmState() = default;
    explicit LstmState(std::size_t hidden_size)
        : h(hidden_size), c(hidden_size)
    {}

    Vector h;
    Vector c;
};

/**
 * Everything one cell computed, cached for BPTT and for the gate
 * statistics the approximation passes consume. `x_proj` holds the four
 * pre-activation input projections W_* x_t + b_* in f/i/c/o order.
 */
struct LstmCellTrace
{
    Vector f;       ///< forget gate, Eq. 1
    Vector i;       ///< input gate, Eq. 2
    Vector g;       ///< candidate tanh(...) inside Eq. 3
    Vector o;       ///< output gate, Eq. 4
    Vector c;       ///< new cell state, Eq. 3
    Vector h;       ///< new output, Eq. 5
    Vector c_prev;  ///< cell state entering this cell
    Vector h_prev;  ///< output entering this cell (the context link)
};

/**
 * Precomputed input projections for one layer: the result of the
 * per-layer Sgemm(W_{f,i,c,o}, x) in Algorithm 1 line 2. Element t holds
 * the four H-sized chunks for timestep t, concatenated (4H).
 */
std::vector<Vector> projectInputs(const LstmLayerParams &p,
                                  const std::vector<Vector> &xs);

/**
 * One LSTM cell step (Eq. 1-5) given the precomputed input projection for
 * this timestep, in Algorithm 3's order: o_t first, then the f/i/c rows.
 * Without @p drs every row is computed and this is the exact cell.
 *
 * @param x_proj        the 4H vector W_{f,i,c,o} x_t (no bias)
 * @param drs           Dynamic Row Skip threshold and skipped-row policy
 * @param skipped_rows  when non-null, receives the number of DRS-skipped
 *                      rows (0 without @p drs)
 */
LstmState lstmCellForward(const LstmLayerParams &p, const Vector &x_proj,
                          const LstmState &prev,
                          SigmoidKind sk = SigmoidKind::Logistic,
                          LstmCellTrace *trace = nullptr,
                          const std::optional<DrsSkip> &drs = std::nullopt,
                          std::size_t *skipped_rows = nullptr);

/**
 * Full-layer forward: chains the exact cells over the layer's input
 * projections. Returns h_t for every timestep.
 *
 * @param x_projs  projectInputs(p, xs): one 4H projection per timestep
 * @param traces   when non-null, receives one LstmCellTrace per timestep.
 */
std::vector<Vector> lstmLayerForward(const LstmLayerParams &p,
                                     const std::vector<Vector> &x_projs,
                                     SigmoidKind sk = SigmoidKind::Logistic,
                                     std::vector<LstmCellTrace> *traces
                                         = nullptr);

} // namespace nn
} // namespace mflstm

#endif // MFLSTM_NN_LSTM_HH
