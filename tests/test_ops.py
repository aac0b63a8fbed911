"""Network-op tests against hand-rolled loop oracles and closed-form cases."""

import math

import numpy as np
import pytest

from shiftseq.blocks import ModelConfig, build_model
from shiftseq.errors import ConfigError, DimensionError
from shiftseq.shift import ShiftConfig, temporal_shift
from shiftseq.tensor_autograd import (
    AttentionParams,
    LstmDirection,
    Tensor,
    avg_pool_mixer,
    backward,
    bilstm,
    cross_entropy,
    depthwise_conv1d,
    gelu,
    grad_check,
    layer_norm,
    linear,
    mean_pool_time,
    mhsa,
    mul,
    named_tensors,
    softmax,
    sum_all,
)
from shiftseq.tensor_autograd.ops import (
    _pack,
    _transposed,
    _unpack,
    batch_norm1d,
    conv1d_full,
    frame_rows,
    rel_position_bias,
)


def rnd(shape, seed, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------------------
# independent oracles (plain loops, no library calls)
# ---------------------------------------------------------------------------

def linear_oracle(x, w, b):
    bs, t, cin = x.shape
    cout = w.shape[1]
    out = np.zeros((bs, t, cout))
    for bi in range(bs):
        for ti in range(t):
            for j in range(cout):
                acc = b[j]
                for i in range(cin):
                    acc += x[bi, ti, i] * w[i, j]
                out[bi, ti, j] = acc
    return out


def depthwise_oracle(x, kernel, bias):
    bs, t, c = x.shape
    k = kernel.shape[0]
    half = (k - 1) // 2
    out = np.zeros_like(x)
    for bi in range(bs):
        for ti in range(t):
            for ci in range(c):
                acc = bias[ci]
                for ki in range(k):
                    src = ti + ki - half
                    if 0 <= src < t:
                        acc += x[bi, src, ci] * kernel[ki, ci]
                out[bi, ti, ci] = acc
    return out


def conv_full_oracle(x, kernel, bias):
    bs, t, cin = x.shape
    k, _, cout = kernel.shape
    half = (k - 1) // 2
    out = np.zeros((bs, t, cout))
    for bi in range(bs):
        for ti in range(t):
            for o in range(cout):
                acc = bias[o]
                for ki in range(k):
                    src = ti + ki - half
                    if 0 <= src < t:
                        for i in range(cin):
                            acc += x[bi, src, i] * kernel[ki, i, o]
                out[bi, ti, o] = acc
    return out


def attention_oracle(x, p):
    """Order-blind attention, one head per table row: a one-column table
    adds one constant to every logit of a head, which the softmax cancels."""
    bs, t, c = x.shape
    heads = p.rel_table.shape[0]
    d = c // heads
    q = x @ p.wq.data + p.bq.data
    k = x @ p.wk.data + p.bk.data
    v = x @ p.wv.data + p.bv.data
    out = np.zeros_like(x)
    for bi in range(bs):
        for h in range(heads):
            sl = slice(h * d, (h + 1) * d)
            logits = q[bi][:, sl] @ k[bi][:, sl].T / math.sqrt(d)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            attn = e / e.sum(axis=1, keepdims=True)
            out[bi][:, sl] = attn @ v[bi][:, sl]
    return out @ p.wo.data + p.bo.data


def pool_oracle(x, window):
    bs, t, c = x.shape
    r = window // 2
    out = np.zeros_like(x)
    for bi in range(bs):
        for ti in range(t):
            lo, hi = max(0, ti - r), min(t - 1, ti + r)
            out[bi, ti] = x[bi, lo:hi + 1].mean(axis=0) - x[bi, ti]
    return out


def lstm_cell_oracle(x, w_ih, w_hh, b, reverse):
    bs, t, _ = x.shape
    hidden = w_hh.shape[0]
    dtype = np.result_type(x, w_ih, w_hh, b)  # complex under complex-step differentiation
    h = np.zeros((bs, hidden), dtype=dtype)
    c = np.zeros((bs, hidden), dtype=dtype)
    outs = np.zeros((bs, t, hidden), dtype=dtype)
    order = range(t - 1, -1, -1) if reverse else range(t)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    for ti in order:
        pre = x[:, ti] @ w_ih + h @ w_hh + b
        gi = sig(pre[:, 0 * hidden:1 * hidden])
        gf = sig(pre[:, 1 * hidden:2 * hidden])
        gc = np.tanh(pre[:, 2 * hidden:3 * hidden])
        go = sig(pre[:, 3 * hidden:4 * hidden])
        c = gf * c + gi * gc
        h = go * np.tanh(c)
        outs[:, ti] = h
    return outs


def make_attention(c, heads, seed, rel_d=0):
    rng = np.random.default_rng(seed)

    def t(shape, req=True):
        return Tensor(rng.standard_normal(shape) * 0.3, requires_grad=req, dtype=np.float64)

    return AttentionParams(
        wq=t((c, c)), bq=t((c,)), wk=t((c, c)), bk=t((c,)),
        wv=t((c, c)), bv=t((c,)), wo=t((c, c)), bo=t((c,)),
        rel_table=t((heads, 2 * rel_d + 1)),
    )


class TestLinear:
    def test_identity_weights(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_zero_weights_pass_bias(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 2))), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [[3.0, 4.0]])

    def test_matches_triple_loop_oracle(self):
        x, w, b = rnd((2, 3, 4), 1), rnd((4, 5), 2), rnd((5,), 3)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, linear_oracle(x, w, b), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradients(self):
        report = grad_check(
            lambda x, w, b: linear(x, w, b),
            [Tensor(rnd((2, 3, 4), 4)), Tensor(rnd((4, 5), 5)), Tensor(rnd((5,), 6))],
            tol=1e-5)
        assert report.passed, str(report)


class TestDepthwiseConv:
    def test_identity_kernel(self):
        x = rnd((1, 4, 3), 7)
        kernel = np.zeros((3, 3))
        kernel[1] = 1.0
        out = depthwise_conv1d(Tensor(x), Tensor(kernel), Tensor(np.zeros(3)))
        assert np.allclose(out.data, x)

    def test_overlap_counting(self):
        x = np.ones((1, 4, 1))
        out = depthwise_conv1d(Tensor(x), Tensor(np.ones((3, 1))), Tensor(np.zeros(1)))
        assert np.allclose(out.data[0, :, 0], [2.0, 3.0, 3.0, 2.0])

    def test_matches_loop_oracle(self):
        x, k, b = rnd((1, 5, 2), 8), rnd((3, 2), 9), rnd((2,), 10)
        out = depthwise_conv1d(Tensor(x), Tensor(k), Tensor(b))
        assert np.allclose(out.data, depthwise_oracle(x, k, b), atol=1e-6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            depthwise_conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradients(self):
        report = grad_check(
            lambda x, k, b: depthwise_conv1d(x, k, b),
            [Tensor(rnd((2, 5, 3), 11)), Tensor(rnd((5, 3), 12)), Tensor(rnd((3,), 13))],
            tol=1e-5)
        assert report.passed, str(report)


class TestConvFull:
    def test_k1_reduces_to_linear(self):
        x, w, b = rnd((2, 4, 3), 14), rnd((3, 5), 15), rnd((5,), 16)
        conv = conv1d_full(Tensor(x), Tensor(w[None]), Tensor(b))
        lin = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(conv.data, lin.data)

    def test_delta_identity_kernel(self):
        x = rnd((1, 4, 3), 17)
        kernel = np.zeros((3, 3, 3))
        kernel[1] = np.eye(3)
        out = conv1d_full(Tensor(x), Tensor(kernel), Tensor(np.zeros(3)))
        assert np.allclose(out.data, x)

    def test_matches_loop_oracle(self):
        x, k, b = rnd((2, 5, 3), 18), rnd((3, 3, 4), 19), rnd((4,), 20)
        out = conv1d_full(Tensor(x), Tensor(k), Tensor(b))
        assert np.allclose(out.data, conv_full_oracle(x, k, b), atol=1e-6)

    def test_gradients(self):
        report = grad_check(
            lambda x, k, b: conv1d_full(x, k, b),
            [Tensor(rnd((1, 4, 2), 21)), Tensor(rnd((3, 2, 3), 22)), Tensor(rnd((3,), 23))],
            tol=1e-5)
        assert report.passed, str(report)


class TestLayerNorm:
    def test_constant_slice_returns_beta(self):
        x = np.full((1, 2, 4), 7.0)
        beta = np.array([1.0, 2.0, 3.0, 4.0])
        out = layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(beta))
        assert np.allclose(out.data, beta, atol=1e-6)

    def test_symmetric_two_point_case(self):
        out = layer_norm(Tensor([[[1.0, 3.0]]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[[-1.0, 1.0]]], atol=1e-3)

    def test_normalization_statistics(self):
        x = rnd((2, 5, 16), 24)
        out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_gradients(self):
        report = grad_check(
            lambda x, g, b: layer_norm(x, g, b),
            [Tensor(rnd((2, 3, 5), 25)), Tensor(rnd((5,), 26)), Tensor(rnd((5,), 27))],
            tol=1e-5)
        assert report.passed, str(report)


class TestBatchNorm:
    def test_training_constant_channels_go_to_zero(self):
        x = np.broadcast_to(np.array([1.0, -2.0, 5.0]), (2, 4, 3)).copy()
        out, _, _ = batch_norm1d(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                                 np.zeros(3), np.ones(3), training=True)
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_eval_with_init_stats_is_identity(self):
        x = rnd((2, 3, 4), 28)
        out, rm, rv = batch_norm1d(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                                   np.zeros(4), np.ones(4), training=False)
        assert np.allclose(out.data, x, atol=1e-5)
        assert np.array_equal(rm, np.zeros(4)) and np.array_equal(rv, np.ones(4))

    def test_training_matches_statistic_oracle(self):
        x = rnd((3, 4, 2), 29)
        gamma, beta = rnd((2,), 30), rnd((2,), 31)
        out, rm, rv = batch_norm1d(Tensor(x), Tensor(gamma), Tensor(beta),
                                   np.zeros(2), np.ones(2), training=True)
        mu = x.reshape(-1, 2).mean(axis=0)
        var = x.reshape(-1, 2).var(axis=0)
        expect = gamma * (x - mu) / np.sqrt(var + 1e-5) + beta
        assert np.allclose(out.data, expect, atol=1e-6)
        n = 12
        assert np.allclose(rm, 0.1 * mu)
        assert np.allclose(rv, 0.9 + 0.1 * var * n / (n - 1))

    def test_single_sample_training_rejected(self):
        with pytest.raises(DimensionError):
            batch_norm1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         np.zeros(2), np.ones(2), training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, training):
        def f(x, g, b):
            out, _, _ = batch_norm1d(x, g, b, rnd((4,), 1) * 0.1, np.abs(rnd((4,), 2)) + 0.5,
                                     training=training)
            return out

        report = grad_check(
            f, [Tensor(rnd((2, 3, 4), 32)), Tensor(rnd((4,), 33)), Tensor(rnd((4,), 34))],
            tol=1e-5)
        assert report.passed, str(report)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_large_positive_asymptote(self):
        assert abs(gelu(Tensor([8.0], dtype=np.float64)).data[0] - 8.0) < 1e-4

    def test_scalar_reference_at_one(self):
        expect = 0.5 * 1.0 * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)))
        assert abs(gelu(Tensor([1.0], dtype=np.float64)).data[0] - expect) < 1e-12

    def test_gradients(self):
        report = grad_check(gelu, [Tensor(rnd((3, 4), 35))], tol=1e-5)
        assert report.passed, str(report)


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor(np.zeros((2, 4))), axis=-1)
        assert np.allclose(out.data, 0.25)

    def test_huge_logit_is_one_hot(self):
        out = softmax(Tensor([[1e9, 0.0, 0.0]]), axis=-1)
        assert np.allclose(out.data, [[1.0, 0.0, 0.0]])

    def test_matches_direct_formula_and_sums_to_one(self):
        x = rnd((3, 5), 36)
        out = softmax(Tensor(x), axis=1).data
        direct = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        assert np.allclose(out, direct, atol=1e-12)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_gradients(self):
        report = grad_check(lambda x: softmax(x, axis=-1), [Tensor(rnd((2, 6), 37))], tol=1e-5)
        assert report.passed, str(report)


class TestRelPositionBias:
    def test_gather_pattern(self):
        table = Tensor(np.arange(3.0)[None, :])  # D = 1: values [0, 1, 2] at offsets -1, 0, +1
        out = rel_position_bias(table, 3).data[0]
        # out[q, k] = table[clip(q - k, -1, 1) + 1]
        assert np.array_equal(out, [[1, 0, 0], [2, 1, 0], [2, 2, 1]])

    def test_gradients_scatter(self):
        report = grad_check(lambda t: rel_position_bias(t, 4), [Tensor(rnd((2, 5), 38))], tol=1e-5)
        assert report.passed, str(report)


class TestAttention:
    def test_single_frame_weight_is_one(self):
        p = make_attention(4, 2, seed=39)
        x = rnd((2, 1, 4), 40)
        out = mhsa(Tensor(x), p)
        v = x @ p.wv.data + p.bv.data
        assert np.allclose(out.data, v @ p.wo.data + p.bo.data, atol=1e-10)

    def test_zero_value_path_gives_zero(self):
        p = make_attention(4, 1, seed=41)
        p.wv.data[:] = 0.0
        p.bv.data[:] = 0.0
        p.wo.data[:] = p.wo.data
        p.bo.data[:] = 0.0
        out = mhsa(Tensor(rnd((1, 3, 4), 42)), p)
        assert np.allclose(out.data, 0.0)

    def test_matches_hand_rolled_oracle(self):
        p = make_attention(4, 1, seed=43)
        x = rnd((1, 3, 4), 44)
        out = mhsa(Tensor(x), p)
        assert np.allclose(out.data, attention_oracle(x, p), atol=1e-10)

    def test_multihead_matches_oracle_up_to_2x8x8(self):
        p = make_attention(8, 4, seed=45)
        x = rnd((2, 8, 8), 46)
        out = mhsa(Tensor(x), p)
        assert np.allclose(out.data, attention_oracle(x, p), atol=1e-6)

    def test_heads_must_divide_channels(self):
        p = make_attention(4, 3, seed=47)
        with pytest.raises(DimensionError, match="must divide 4 channels"):
            mhsa(Tensor(rnd((1, 2, 4), 48)), p)

    def test_relative_mode_biases_logits(self):
        heads, c, t = 2, 4, 3
        p = make_attention(c, heads, seed=51, rel_d=2)
        x = rnd((1, t, c), 52)
        out = mhsa(Tensor(x), p).data
        # oracle with bias folded into the logits
        d = c // heads
        q = x @ p.wq.data + p.bq.data
        k = x @ p.wk.data + p.bk.data
        v = x @ p.wv.data + p.bv.data
        expect = np.zeros_like(x)
        offs = np.arange(t)
        idx = np.clip(offs[:, None] - offs[None, :], -2, 2) + 2
        for h in range(heads):
            sl = slice(h * d, (h + 1) * d)
            logits = q[0][:, sl] @ k[0][:, sl].T / math.sqrt(d) + p.rel_table.data[h][idx]
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            expect[0][:, sl] = (e / e.sum(axis=1, keepdims=True)) @ v[0][:, sl]
        expect = expect @ p.wo.data + p.bo.data
        assert np.allclose(out, expect, atol=1e-10)

    def test_gradients_relative(self):
        p = make_attention(4, 2, seed=55, rel_d=2)
        tensors = [Tensor(rnd((1, 3, 4), 56)), p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo, p.rel_table]

        report = grad_check(lambda x, *_: mhsa(x, p), tensors, tol=1e-4)
        assert report.passed, str(report)


class TestPoolMixer:
    def test_constant_in_time_is_zero(self):
        x = np.broadcast_to(rnd((1, 1, 4), 57), (1, 5, 4)).copy()
        out = avg_pool_mixer(Tensor(x))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_matches_loop_oracle(self):
        x = rnd((2, 6, 3), 59)
        out = avg_pool_mixer(Tensor(x))
        assert np.allclose(out.data, pool_oracle(x, 3), atol=1e-12)

    def test_gradients(self):
        report = grad_check(avg_pool_mixer, [Tensor(rnd((2, 5, 3), 60))], tol=1e-5)
        assert report.passed, str(report)


def make_lstm_direction(c, hidden, seed, zero=False):
    rng = np.random.default_rng(seed)
    scale = 0.0 if zero else 0.4
    return LstmDirection(
        w_ih=Tensor(rng.standard_normal((c, 4 * hidden)) * scale, requires_grad=True, dtype=np.float64),
        w_hh=Tensor(rng.standard_normal((hidden, 4 * hidden)) * scale, requires_grad=True, dtype=np.float64),
        b=Tensor(rng.standard_normal(4 * hidden) * scale, requires_grad=True, dtype=np.float64),
    )


def bilstm_reference(x, fw, bw, lengths):
    """Each record run alone on its first lengths[b] frames; zero past them."""
    bs, t, _ = x.shape
    hidden = fw[1].shape[0]
    out = np.zeros((bs, t, 2 * hidden), dtype=np.result_type(x, *fw, *bw))
    for i, n in enumerate(lengths):
        out[i, :n, :hidden] = lstm_cell_oracle(x[i:i + 1, :n], *fw, reverse=False)[0]
        out[i, :n, hidden:] = lstm_cell_oracle(x[i:i + 1, :n], *bw, reverse=True)[0]
    return out


def complex_step_gradients(f, arrays, r, h=1e-30):
    """d sum(f(*arrays) * r) / d arrays, exact to rounding for a real-analytic f."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros(a.size)
        for j in range(a.size):
            probe = [arr.astype(complex) for arr in arrays]
            probe[k].reshape(-1)[j] += 1j * h
            g[j] = np.sum(f(*probe) * r).imag / h
        grads.append(g.reshape(a.shape))
    return grads


class TestBiLstm:
    def test_zero_parameters_zero_output(self):
        fwd = make_lstm_direction(2, 3, 61, zero=True)
        bwd = make_lstm_direction(2, 3, 62, zero=True)
        out = bilstm(Tensor(rnd((2, 4, 2), 63)), fwd, bwd)
        assert np.allclose(out.data, 0.0)
        assert out.shape == (2, 4, 6)

    def test_single_frame_directions_agree(self):
        fwd = make_lstm_direction(2, 3, 64)
        bwd = LstmDirection(Tensor(fwd.w_ih.data.copy()), Tensor(fwd.w_hh.data.copy()),
                            Tensor(fwd.b.data.copy()))
        out = bilstm(Tensor(rnd((2, 1, 2), 65)), fwd, bwd).data
        assert np.allclose(out[:, :, :3], out[:, :, 3:])

    def test_matches_scalar_recurrence_oracle(self):
        fwd = make_lstm_direction(2, 2, 66)
        bwd = make_lstm_direction(2, 2, 67)
        x = rnd((1, 3, 2), 68)
        out = bilstm(Tensor(x), fwd, bwd).data
        fwd_expect = lstm_cell_oracle(x, fwd.w_ih.data, fwd.w_hh.data, fwd.b.data, reverse=False)
        bwd_expect = lstm_cell_oracle(x, bwd.w_ih.data, bwd.w_hh.data, bwd.b.data, reverse=True)
        assert np.allclose(out[:, :, :2], fwd_expect, atol=1e-10)
        assert np.allclose(out[:, :, 2:], bwd_expect, atol=1e-10)

    def test_gradients(self):
        fwd = make_lstm_direction(2, 2, 69)
        bwd = make_lstm_direction(2, 2, 70)

        report = grad_check(
            lambda x, *_: bilstm(x, fwd, bwd),
            [Tensor(rnd((1, 3, 2), 71)), fwd.w_ih, fwd.w_hh, fwd.b, bwd.w_ih, bwd.w_hh, bwd.b],
            tol=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("b,t,c,hidden,lengths", [
        (2, 4, 3, 2, None),
        (1, 3, 2, 3, None),
        (2, 1, 3, 2, None),
        (1, 1, 2, 2, None),
        (3, 5, 2, 2, [5, 2, 1]),
    ])
    def test_forward_and_gradients_match_reference(self, b, t, c, hidden, lengths):
        fw = make_lstm_direction(c, hidden, 80)
        bw = make_lstm_direction(c, hidden, 81)
        x = Tensor(rnd((b, t, c), 82), requires_grad=True)
        params = [fw.w_ih, fw.w_hh, fw.b, bw.w_ih, bw.w_hh, bw.b]
        r = rnd((b, t, 2 * hidden), 83)
        out = bilstm(x, fw, bw, lengths)
        backward(sum_all(mul(out, Tensor(r))))

        def reference(xa, *p):
            return bilstm_reference(xa, p[:3], p[3:], lengths or [t] * b)

        arrays = [x.data] + [p.data for p in params]
        np.testing.assert_allclose(out.data, reference(*arrays), rtol=0, atol=1e-10)
        expected = complex_step_gradients(reference, arrays, r)
        for tensor, grad in zip([x] + params, expected):
            np.testing.assert_allclose(tensor.grad, grad, rtol=1e-10, atol=1e-10)

    def test_reverse_direction_sees_only_later_frames(self):
        fw = make_lstm_direction(3, 2, 84)
        bw = make_lstm_direction(3, 2, 85)
        x = rnd((2, 6, 3), 86)
        base = bilstm(Tensor(x), fw, bw).data
        frames = np.arange(6)
        for t in range(6):
            bumped = x.copy()
            bumped[:, t] += 0.5
            moved = np.any(bilstm(Tensor(bumped), fw, bw).data != base, axis=0)
            assert np.array_equal(moved[:, :2].any(axis=1), frames >= t)
            assert np.array_equal(moved[:, 2:].any(axis=1), frames <= t)

    @pytest.mark.parametrize("lengths", [[3], [0, 3], [3, 4], [[3, 3]]])
    def test_bad_lengths_rejected(self, lengths):
        fw = make_lstm_direction(2, 2, 90)
        bw = make_lstm_direction(2, 2, 91)
        with pytest.raises(DimensionError):
            bilstm(Tensor(rnd((2, 3, 2), 92)), fw, bw, np.array(lengths))

    def test_graph_size_does_not_grow_with_frames(self):
        cfg = ModelConfig(family="lstm", channels=(8, 8), blocks=1, num_input_layers=1,
                          shift=ShiftConfig(alpha=0.25, placement="residual"))
        block = build_model(cfg, seed=0, dtype=np.float64).blocks[0]

        def reachable(t):
            out = block.forward(Tensor(rnd((2, t, 8), 93), requires_grad=True))
            seen, stack = set(), [out]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._parents)
            return len(seen)

        assert reachable(5) == reachable(50)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (130, 260), (768, 3072)])
    def test_tiled_transpose_is_the_contiguous_transpose(self, shape, dtype):
        """The recurrent weight's transposed copy, made tile by tile, on shapes
        that are and are not tile multiples."""
        w = rnd(shape, 94, dtype)
        got, want = _transposed(w), np.ascontiguousarray(w.T)
        assert got.flags.c_contiguous and got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestMeanPoolTime:
    def test_constant_sequence(self):
        x = np.broadcast_to(np.array([1.0, 2.0]), (1, 5, 2)).copy()
        out = mean_pool_time(Tensor(x), [5])
        assert np.allclose(out.data, [[1.0, 2.0]])

    def test_length_one_takes_first_frame(self):
        x = rnd((2, 4, 3), 72)
        out = mean_pool_time(Tensor(x), [1, 1])
        assert np.allclose(out.data, x[:, 0, :])

    def test_matches_loop_oracle(self):
        x = rnd((3, 5, 2), 73)
        lengths = [2, 5, 3]
        out = mean_pool_time(Tensor(x), lengths).data
        for b, n in enumerate(lengths):
            assert np.allclose(out[b], x[b, :n].mean(axis=0), atol=1e-12)

    def test_padding_never_contributes(self):
        x = rnd((1, 4, 2), 74)
        y = x.copy()
        y[:, 2:, :] = 123.0
        a = mean_pool_time(Tensor(x), [2]).data
        b = mean_pool_time(Tensor(y), [2]).data
        assert np.array_equal(a, b)

    def test_length_bounds(self):
        with pytest.raises(DimensionError):
            mean_pool_time(Tensor(np.zeros((1, 3, 2))), [4])
        with pytest.raises(DimensionError):
            mean_pool_time(Tensor(np.zeros((1, 3, 2))), [0])

    def test_gradients(self):
        report = grad_check(lambda x: mean_pool_time(x, [2, 4]),
                            [Tensor(rnd((2, 4, 3), 75))], tol=1e-5)
        assert report.passed, str(report)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((2, 4))), [0, 3])
        assert abs(loss.item() - math.log(4.0)) < 1e-6

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e9
        assert cross_entropy(Tensor(logits), [2]).item() < 1e-6

    def test_matches_direct_formula(self):
        logits = rnd((3, 5), 76)
        labels = [1, 4, 0]
        loss = cross_entropy(Tensor(logits), labels).item()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expect = -np.mean([math.log(probs[i, y]) for i, y in enumerate(labels)])
        assert abs(loss - expect) < 1e-10

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        logits = Tensor(rnd((2, 3), 77), requires_grad=True)
        labels = [2, 0]
        backward(cross_entropy(logits, labels))
        probs = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        onehot = np.zeros((2, 3))
        onehot[[0, 1], labels] = 1.0
        assert np.allclose(logits.grad, (probs - onehot) / 2.0, atol=1e-10)

    def test_label_bounds(self):
        with pytest.raises(DimensionError):
            cross_entropy(Tensor(np.zeros((1, 3))), [3])

    @pytest.mark.parametrize("labels", [[1.7, 0.2], np.array([1.5, 2.9]), [1.0, 0.0], [True, False]],
                             ids=["fractional", "float-array", "whole-floats", "bools"])
    def test_labels_must_be_integers(self, labels):
        """A float label is not truncated to a class, nor a bool read as 0 or 1."""
        with pytest.raises(DimensionError, match="labels must be integers"):
            cross_entropy(Tensor(np.zeros((2, 3))), labels)

    def test_any_integer_labels_dtype_is_accepted(self):
        logits = Tensor(rnd((2, 3), 79))
        want = cross_entropy(logits, [2, 0]).data
        for labels in (np.array([2, 0], np.int32), np.array([2, 0], np.uint8), (2, 0)):
            assert np.array_equal(cross_entropy(logits, labels).data, want)

    def test_gradients_fd(self):
        report = grad_check(lambda x: cross_entropy(x, [0, 2, 1]),
                            [Tensor(rnd((3, 4), 78))], tol=1e-5)
        assert report.passed, str(report)


# ---------------------------------------------------------------------------
# padding: the four ops that read across time honour `lengths`
# ---------------------------------------------------------------------------

def cross_time_op(name, dtype=np.float64):
    """(f(x, lengths), parameters) for one of the ops that read neighbouring frames."""
    if name == "depthwise_conv1d":
        kernel = Tensor(rnd((5, 6), 90, dtype), requires_grad=True)
        bias = Tensor(rnd((6,), 91, dtype), requires_grad=True)
        return (lambda x, n: depthwise_conv1d(x, kernel, bias, n)), [kernel, bias]
    if name == "temporal_shift":
        shift = ShiftConfig(alpha=0.5, direction="bidirectional", placement="residual")
        return (lambda x, n: temporal_shift(x, shift, n)), []
    if name == "avg_pool_mixer":
        return avg_pool_mixer, []
    params = make_attention(6, 2, 92, rel_d=3)
    for _, p in named_tensors(params):
        p.data = p.data.astype(dtype)
    return (lambda x, n: mhsa(x, params, n)), [p for _, p in named_tensors(params)]


CROSS_TIME_OPS = ("depthwise_conv1d", "temporal_shift", "avg_pool_mixer", "mhsa")


def run_with_grads(f, x, lengths, r, params):
    """f's output and the gradients of sum(f * r) for x and each parameter."""
    x = Tensor(x, requires_grad=True)
    for p in params:
        p.grad = None
    out = f(x, lengths)
    backward(sum_all(mul(out, Tensor(r))))
    return out.data, [x.grad] + [p.grad.copy() for p in params]


@pytest.mark.parametrize("name", CROSS_TIME_OPS)
def test_lengths_none_means_every_frame_is_real(name):
    """`lengths=None` gives the bits, output and gradients, of full-length
    counts: each op maps it to them before its one masked path runs. The
    full-length bits themselves are pinned against explicit-mask references
    in test_op_bits.py."""
    f, params = cross_time_op(name, np.float32)
    x, r = rnd((3, 7, 6), 93, np.float32), rnd((3, 7, 6), 94, np.float32)
    out, grads = run_with_grads(f, x, None, r, params)
    full_out, full_grads = run_with_grads(f, x, np.array([7, 7, 7]), r, params)
    assert np.array_equal(out, full_out)
    for g, full in zip(grads, full_grads):
        assert np.array_equal(g, full)


@pytest.mark.parametrize("name", CROSS_TIME_OPS)
def test_real_frames_neither_read_nor_pass_gradient_to_padding(name):
    """Each record's real frames, padded into a batch whose padding holds
    noise, match the record alone; padding gets zero gradient, and the
    parameter gradient is the sum of the records' own."""
    f, params = cross_time_op(name)
    lengths = np.array([9, 4, 6])
    x, r = rnd((3, 9, 6), 95), rnd((3, 9, 6), 96)
    real = np.arange(9)[None, :, None] < lengths[:, None, None]
    r = np.where(real, r, 0.0)  # a padding-exact consumer reads no padded frame
    out, grads = run_with_grads(f, x, lengths, r, params)
    assert np.all(grads[0][~np.broadcast_to(real, x.shape)] == 0.0)
    param_sums = [np.zeros_like(p.data) for p in params]
    for i, n in enumerate(lengths):
        alone, alone_grads = run_with_grads(f, x[i:i + 1, :n], None, r[i:i + 1, :n], params)
        np.testing.assert_allclose(out[i, :n], alone[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[0][i, :n], alone_grads[0][0], rtol=0, atol=1e-12)
        for total, g in zip(param_sums, alone_grads[1:]):
            total += g
    for g, total in zip(grads[1:], param_sums):
        np.testing.assert_allclose(g, total, rtol=0, atol=1e-12)


LENGTH_READERS = CROSS_TIME_OPS + ("bilstm", "mean_pool_time")


def length_reader(name):
    """f(x, lengths) for each op that takes per-record frame counts."""
    if name == "bilstm":
        fw, bw = make_lstm_direction(6, 2, 97), make_lstm_direction(6, 2, 98)
        return lambda x, n: bilstm(x, fw, bw, n)
    if name == "mean_pool_time":
        return mean_pool_time
    return cross_time_op(name)[0]


@pytest.mark.parametrize("lengths", [[4.7, 2.2, 3.0], [5.0, 5.0, 5.0], [True, True, True]],
                         ids=["fractional", "whole-floats", "bools"])
@pytest.mark.parametrize("name", LENGTH_READERS)
def test_lengths_must_be_integers(name, lengths):
    """A float count is not truncated to a frame count, nor a bool read as 1."""
    with pytest.raises(DimensionError, match="integers"):
        length_reader(name)(Tensor(rnd((3, 5, 6), 99)), np.array(lengths))
    with pytest.raises(DimensionError, match="integers"):
        length_reader(name)(Tensor(rnd((3, 5, 6), 99)), lengths)


@pytest.mark.parametrize("name", LENGTH_READERS)
def test_any_integer_lengths_dtype_is_accepted(name):
    f, x = length_reader(name), Tensor(rnd((3, 5, 6), 99))
    want = f(x, np.array([5, 2, 4], dtype=np.int64)).data
    for lengths in ([5, 2, 4], np.array([5, 2, 4], dtype=np.int32), np.array([5, 2, 4], dtype=np.uint8)):
        assert np.array_equal(f(x, lengths).data, want)


def test_frame_rows_pack_and_unpack_the_real_frames():
    rows = frame_rows(np.array([2, 3, 1]), 3)
    x = np.arange(36, dtype=np.float32).reshape(3, 3, 4)
    packed = _pack(Tensor(x), rows)
    np.testing.assert_array_equal(packed.data, np.concatenate([x[0, :2], x[1], x[2, :1]]))
    back = _unpack(packed, rows).data
    want = x.copy()
    want[0, 2:] = want[2, 1:] = 0.0
    np.testing.assert_array_equal(back, want)
    assert not np.signbit(back).any()
    assert _pack(Tensor(x), None).data is x


def test_recorded_frame_rows_scatter_and_gather_the_gradient():
    """Recorded, `_pack`'s backward puts the gradient back at its frames and
    `_unpack`'s gathers the real rows: exactly, with padded rows at +0.0."""
    rows = frame_rows(np.array([2, 3, 1]), 3)
    real = np.array([[1, 1, 0], [1, 1, 1], [1, 0, 0]], dtype=bool)
    x = Tensor(np.ones((3, 3, 4)), requires_grad=True)
    g = -np.arange(1, 25, dtype=np.float64).reshape(6, 4)  # negative, so a -0.0 would show
    backward(sum_all(mul(_pack(x, rows), Tensor(g))))
    assert np.array_equal(x.grad[real], g)
    assert not x.grad[~real].any() and not np.signbit(x.grad[~real]).any()
    r = Tensor(np.ones((6, 4)), requires_grad=True)
    h = -np.arange(1, 37, dtype=np.float64).reshape(3, 3, 4)
    backward(sum_all(mul(_unpack(r, rows), Tensor(h))))
    assert np.array_equal(r.grad, h[real])
