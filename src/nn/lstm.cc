#include "nn/lstm.hh"

#include <cassert>
#include <cmath>
#include <cstdint>

#include "tensor/activations.hh"
#include "tensor/ops.hh"

namespace mflstm {
namespace nn {

using tensor::hardSigmoid;
using tensor::sigmoid;

LstmLayerParams::LstmLayerParams(std::size_t input_size,
                                 std::size_t hidden_size)
    : wf(hidden_size, input_size), wi(hidden_size, input_size),
      wc(hidden_size, input_size), wo(hidden_size, input_size),
      uf(hidden_size, hidden_size), ui(hidden_size, hidden_size),
      uc(hidden_size, hidden_size), uo(hidden_size, hidden_size),
      bf(hidden_size), bi(hidden_size), bc(hidden_size), bo(hidden_size)
{}

void
LstmLayerParams::init(tensor::Rng &rng)
{
    const std::size_t in = inputSize();
    const std::size_t hid = hiddenSize();

    for (Matrix *w : {&wf, &wi, &wc, &wo})
        rng.fillXavier(*w, in, hid);
    for (Matrix *u : {&uf, &ui, &uc, &uo})
        rng.fillXavier(*u, hid, hid);

    // The standard forget-gate bias of 1 keeps early-training gradients
    // flowing; it also biases f_t toward the insensitive area, which is
    // exactly the structure the inter-cell analysis exploits.
    for (std::size_t j = 0; j < hid; ++j)
        bf[j] = 1.0f;
}

Matrix
LstmLayerParams::unitedU() const
{
    return tensor::vconcat({&uf, &ui, &uc, &uo});
}

Matrix
LstmLayerParams::unitedW() const
{
    return tensor::vconcat({&wf, &wi, &wc, &wo});
}

Vector
LstmLayerParams::unitedBias() const
{
    const std::size_t hid = hiddenSize();
    Vector out(4 * hid);
    const Vector *parts[] = {&bf, &bi, &bc, &bo};
    for (std::size_t p = 0; p < 4; ++p)
        for (std::size_t j = 0; j < hid; ++j)
            out[p * hid + j] = (*parts[p])[j];
    return out;
}

std::vector<Vector>
projectInputs(const LstmLayerParams &p, const std::vector<Vector> &xs)
{
    const Matrix w = p.unitedW();
    std::vector<Vector> out;
    out.reserve(xs.size());
    for (const Vector &x : xs) {
        Vector proj;
        tensor::gemv(w, x, proj);
        out.push_back(std::move(proj));
    }
    return out;
}

LstmState
lstmCellForward(const LstmLayerParams &p, const Vector &x_proj,
                const LstmState &prev, SigmoidKind sk, LstmCellTrace *trace,
                const std::optional<DrsSkip> &drs, std::size_t *skipped_rows)
{
    const std::size_t hid = p.hiddenSize();
    assert(x_proj.size() == 4 * hid);
    assert(prev.h.size() == hid && prev.c.size() == hid);

    auto sig = [sk](float v) {
        return sk == SigmoidKind::Logistic ? sigmoid(v) : hardSigmoid(v);
    };

    // Algorithm 3 lines 4-5: the output gate first, over every row.
    Vector ro;
    tensor::gemv(p.uo, prev.h, ro);
    Vector o(hid);
    for (std::size_t j = 0; j < hid; ++j)
        o[j] = sig(x_proj[3 * hid + j] + ro[j] + p.bo[j]);

    // Line 6: the row set R = {j : o_t[j] <= alpha_intra}, empty
    // without DRS.
    std::vector<std::uint8_t> skip(hid, 0);
    std::size_t skipped = 0;
    if (drs) {
        for (std::size_t j = 0; j < hid; ++j) {
            if (o[j] <= drs->alphaIntra) {
                skip[j] = 1;
                ++skipped;
            }
        }
    }
    if (skipped_rows)
        *skipped_rows = skipped;

    // Line 7: Sgemv(U_{f,i,c}, h, R) — a skipped row is neither loaded
    // nor computed, and its recurrent terms stay 0. A row's three dots
    // share one column loop (three independent chains), and each keeps
    // tensor::gemv's serial column order, so every term is bit-identical
    // to the full product's.
    Vector rf(hid), ri(hid), rc(hid);
    const float *h = prev.h.data();
    for (std::size_t j = 0; j < hid; ++j) {
        if (skip[j])
            continue;
        const float *uf = p.uf.data() + j * hid;
        const float *ui = p.ui.data() + j * hid;
        const float *uc = p.uc.data() + j * hid;
        float af = 0.0f;
        float ai = 0.0f;
        float ac = 0.0f;
        for (std::size_t k = 0; k < hid; ++k) {
            af += uf[k] * h[k];
            ai += ui[k] * h[k];
            ac += uc[k] * h[k];
        }
        rf[j] = af;
        ri[j] = ai;
        rc[j] = ac;
    }

    // Line 8: the element-wise kernel. Under DropRecurrent a skipped row's
    // gates see W x_t + b alone; under ZeroState its c_t and h_t stay 0.
    LstmState next(hid);
    Vector f(hid), i(hid), g(hid);
    for (std::size_t j = 0; j < hid; ++j) {
        if (skip[j] && drs->policy == DrsStatePolicy::ZeroState)
            continue;
        f[j] = sig(x_proj[j] + rf[j] + p.bf[j]);
        i[j] = sig(x_proj[hid + j] + ri[j] + p.bi[j]);
        g[j] = std::tanh(x_proj[2 * hid + j] + rc[j] + p.bc[j]);
        next.c[j] = f[j] * prev.c[j] + i[j] * g[j];
        next.h[j] = o[j] * std::tanh(next.c[j]);
    }

    if (trace) {
        trace->f = std::move(f);
        trace->i = std::move(i);
        trace->g = std::move(g);
        trace->o = std::move(o);
        trace->c = next.c;
        trace->h = next.h;
        trace->c_prev = prev.c;
        trace->h_prev = prev.h;
    }
    return next;
}

std::vector<Vector>
lstmLayerForward(const LstmLayerParams &p, const std::vector<Vector> &x_projs,
                 SigmoidKind sk, std::vector<LstmCellTrace> *traces)
{
    LstmState state(p.hiddenSize());
    std::vector<Vector> outputs;
    outputs.reserve(x_projs.size());
    if (traces) {
        traces->clear();
        traces->resize(x_projs.size());
    }

    for (std::size_t t = 0; t < x_projs.size(); ++t) {
        state = lstmCellForward(p, x_projs[t], state, sk,
                                traces ? &(*traces)[t] : nullptr);
        outputs.push_back(state.h);
    }
    return outputs;
}

} // namespace nn
} // namespace mflstm
