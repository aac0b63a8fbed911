"""Allocation-lean ops against their textbook numpy expressions, bit for bit.

Each oracle below is the op's plain expression: fresh temporaries, the
same floating-point operations in the same order. The ops compute them
with in-place ufuncs and hand their gradient buffers over, so forward
values and every input gradient must be bit-identical in float32 and
float64, not merely close.
"""

import math
import tracemalloc

import numpy as np
import pytest

from shiftseq.blocks import weighted_layer_sum
from shiftseq.shift import ShiftConfig, temporal_shift
from shiftseq.tensor_autograd import (
    AttentionParams,
    LstmDirection,
    Tensor,
    add,
    avg_pool_mixer,
    backward,
    bilstm,
    cross_entropy,
    depthwise_conv1d,
    gelu,
    layer_norm,
    linear,
    mean_pool_time,
    mhsa,
    mul,
    no_grad,
    softmax,
    sum_all,
)
from shiftseq.tensor_autograd.engine import matmul, reduce_sum, reshape, scale, transpose
from shiftseq.tensor_autograd.ops import _GELU_BLOCK, _TILED_ROWS, batch_norm1d, rel_position_bias

DTYPES = [np.float32, np.float64]


def arr(shape, seed, dtype, scale=1.0):
    return (scale * np.random.default_rng(seed).standard_normal(shape)).astype(dtype)


def run(fn, arrays, g, requires=None):
    """Forward `fn` over tensors made from `arrays`, backpropagate the output gradient `g`.

    Returns (output data, [input grads]). The loss sum(out * g) hands the op
    exactly `g` (1 * g is exact), so its gradients can be compared bitwise.
    """
    requires = requires or [True] * len(arrays)
    ts = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
    out = fn(*ts)
    backward(sum_all(mul(out, Tensor(g))))
    return out.data, [t.grad for t in ts]


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want), np.max(np.abs(got.astype(np.float64) - want))
    assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# oracles: the expressions as written with fresh temporaries
# ---------------------------------------------------------------------------

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715


def gelu_ref(x, g):
    c = np.asarray(GELU_C, dtype=x.dtype)
    a = np.asarray(GELU_A, dtype=x.dtype)
    sq = x * x
    u = c * (x + a * (sq * x))
    th = np.tanh(u)
    out = 0.5 * x * (1.0 + th)
    du = c * (1.0 + 3.0 * a * sq)
    return out, [g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du)]


def linear_ref(x, w, b, g):
    out = np.matmul(x, w) + b
    g2 = g.reshape(-1, g.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    return out, [np.matmul(g, w.T), x2.T @ g2, g2.sum(axis=0)]


def real_frames(b, t, lengths):
    """(B, T, 1) mask of the frames before each record's length (all, for None)."""
    lengths = np.full(b, t) if lengths is None else np.asarray(lengths)
    return (np.arange(t)[None, :] < lengths[:, None])[:, :, None]


def depthwise_ref(x, kernel, bias, g, lengths=None):
    k = kernel.shape[0]
    t = x.shape[1]
    halo = (k - 1) // 2
    real = real_frames(x.shape[0], t, lengths)
    xp = np.zeros((x.shape[0], t + 2 * halo, x.shape[2]), dtype=x.dtype)
    xp[:, halo:halo + t, :] = np.where(real, x, 0.0)
    out = np.zeros_like(x)
    for j in range(k):
        out += xp[:, j:j + t, :] * kernel[j]
    out += bias
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for j in range(k):
        gxp[:, j:j + t, :] += g * kernel[j]
        gk[j] = (xp[:, j:j + t, :] * g).sum(axis=(0, 1))
    return out, [np.where(real, gxp[:, halo:halo + t, :], 0.0), gk, g.sum(axis=(0, 1))]


def layer_norm_ref(x, gamma, beta, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = centered * inv
    out = gamma * xhat + beta
    lead = tuple(range(x.ndim - 1))
    gx = g * gamma
    gx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    return out, [gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


def batch_norm_ref(x, gamma, beta, running_mean, running_var, g, training, eps=1e-5):
    eps = np.asarray(eps, dtype=x.dtype)
    if training:
        mu = x.mean(axis=(0, 1))
        centered = x - mu
        var = (centered * centered).mean(axis=(0, 1))
        inv = 1.0 / np.sqrt(var + eps)
        xhat = centered * inv
    else:
        inv = 1.0 / np.sqrt(running_var + eps)
        xhat = (x - running_mean) * inv
    out = gamma * xhat + beta
    gx = g * gamma
    if training:
        gx = inv * (gx - gx.mean(axis=(0, 1)) - xhat * (gx * xhat).mean(axis=(0, 1)))
    else:
        gx = gx * inv
    return out, [gx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]


def softmax_ref(x, g, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    dot = (g * out).sum(axis=axis, keepdims=True)
    return out, [out * (g - dot)]


def avg_pool_ref(x, g, lengths=None):
    t = x.shape[1]
    r = 1  # a window of three frames
    real = real_frames(x.shape[0], t, lengths)

    def window_sum(a):
        sums = np.zeros_like(a)
        for off in range(-r, r + 1):
            if off >= 0:
                sums[:, :t - off, :] += a[:, off:, :]
            else:
                sums[:, -off:, :] += a[:, :t + off, :]
        return sums

    def window_spread(a):
        # the transpose of window_sum
        gx = np.zeros_like(a)
        for off in range(-r, r + 1):
            if off >= 0:
                gx[:, off:, :] += a[:, :t - off, :]
            else:
                gx[:, :t + off, :] += a[:, -off:, :]
        return gx

    # the real frames in each window; a window with none counts one, and reads zero
    counts = np.maximum(window_sum(real.astype(x.dtype)), 1.0)
    sums = window_sum(np.where(real, x, 0.0))
    gx = np.where(real, window_spread(g / counts), 0.0)
    return sums / counts - x, [gx - g]


def mean_pool_ref(x, lengths, g):
    t = x.shape[1]
    mask = (np.arange(t)[None, :] < lengths[:, None]).astype(x.dtype)
    denom = lengths.astype(x.dtype)[:, None]
    out = (x * mask[:, :, None]).sum(axis=1) / denom
    return out, [mask[:, :, None] * (g / denom)[:, None, :]]


def cross_entropy_ref(logits, labels, g):
    b = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    nll = np.log(e.sum(axis=1)) - shifted[rows, labels]
    glogits = probs.copy()
    glogits[rows, labels] -= 1.0
    return np.asarray(nll.mean(), dtype=logits.dtype), [glogits * (g / b)]


def shift_ref(x, g, fwd, bwd_count, lengths=None):
    split = fwd + bwd_count
    b, t = x.shape[:2]
    out = x.copy()
    out[:, 1:, :fwd] = x[:, :-1, :fwd]
    out[:, 0, :fwd] = 0.0
    if bwd_count:
        # a record's last real frame has no next real frame to read
        before_last = real_frames(b, t, None if lengths is None else np.asarray(lengths) - 1)
        out[:, :-1, fwd:split] = x[:, 1:, fwd:split]
        out[:, -1, fwd:split] = 0.0
        out[:, :, fwd:split] = np.where(before_last, out[:, :, fwd:split], 0.0)
    gx = g.copy()
    gx[:, :-1, :fwd] = g[:, 1:, :fwd]
    gx[:, -1, :fwd] = 0.0
    if bwd_count:
        gx[:, 1:, fwd:split] = g[:, :-1, fwd:split]
        gx[:, 0, fwd:split] = 0.0
        gx[:, :, fwd:split] = np.where(real_frames(b, t, lengths), gx[:, :, fwd:split], 0.0)
    return out, [gx]


def sigmoid_ref(v):
    return 1.0 / (1.0 + np.exp(-v))


def bilstm_ref(x, dirs, g, lengths=None):
    """Both LSTM directions frame by frame, the reverse one from the last frame down.

    Each frame adds the recurrent product to its input projection row, takes
    the gates, then the cell and hidden states, and multiplies both states by
    the frame's 0/1 mask; the output is +0.0 on padded frames. BPTT visits
    the frames in the opposite order. The weight gradients are products over
    all (B*T) rows, each row paired with the hidden state its frame started
    from: the previous frame's in the forward direction, the next frame's in
    the reverse one.
    """
    b, t, c = x.shape
    hidden = dirs[0][1].shape[0]
    mask = real_frames(b, t, lengths).astype(x.dtype)
    zeros = np.zeros((b, hidden), dtype=x.dtype)
    x2 = x.reshape(b * t, c)
    out = np.empty((b, t, 2 * hidden), dtype=x.dtype)
    grads, dxs = [], []
    for s, (w_ih, w_hh, bias) in enumerate(dirs):
        frames = list(range(t)) if s == 0 else list(range(t - 1, -1, -1))
        half = slice(s * hidden, (s + 1) * hidden)
        xw = (x2 @ w_ih + bias).reshape(b, t, 4 * hidden)
        w_hh_t = np.ascontiguousarray(w_hh.T)
        h, cell = zeros, zeros
        h_start = np.empty((b, t, hidden), dtype=x.dtype)
        saved = {}
        for f in frames:
            h_start[:, f] = h
            pre = xw[:, f] + (w_hh_t @ h.T).T
            gi = sigmoid_ref(pre[:, :hidden])
            gf = sigmoid_ref(pre[:, hidden:2 * hidden])
            gg = np.tanh(pre[:, 2 * hidden:3 * hidden])
            go = sigmoid_ref(pre[:, 3 * hidden:])
            cell = gf * cell + gi * gg
            tanh_c = np.tanh(cell)
            h = go * tanh_c
            cell = cell * mask[:, f]
            h = h * mask[:, f]
            out[:, f, half] = h
            saved[f] = (gi, gf, gg, go, cell, tanh_c)
        dpre = np.empty((b, t, 4 * hidden), dtype=x.dtype)
        dh_next, dc_next = zeros, zeros
        for k in range(t - 1, -1, -1):
            f = frames[k]
            gi, gf, gg, go, _, tanh_c = saved[f]
            c_prev = saved[frames[k - 1]][4] if k > 0 else zeros
            dh = (g[:, f, half] + dh_next) * mask[:, f]
            dc_next = dc_next * mask[:, f]
            dc = dc_next + dh * go * (1.0 - tanh_c * tanh_c)
            d = dpre[:, f]
            d[:, :hidden] = dc * gg * gi * (1.0 - gi)
            d[:, hidden:2 * hidden] = dc * c_prev * gf * (1.0 - gf)
            d[:, 2 * hidden:3 * hidden] = dc * gi * (1.0 - gg * gg)
            d[:, 3 * hidden:] = dh * tanh_c * go * (1.0 - go)
            dc_next = dc * gf
            dh_next = (w_hh @ d.T).T
        dpre2 = dpre.reshape(b * t, 4 * hidden)
        grads += [x2.T @ dpre2, h_start.reshape(b * t, hidden).T @ dpre2, dpre2.sum(axis=0)]
        dxs.append(dpre2 @ w_ih.T)
    out[mask[:, :, 0] == 0] = 0.0
    return out, [(dxs[0] + dxs[1]).reshape(b, t, c)] + grads


def mhsa_composition(x, params, lengths=None):
    """Attention from engine primitives with the padded keys' -inf bias as
    its own `add` node, added only when some record is shorter than T."""
    b, t, c = x.shape
    heads = params.rel_table.shape[0]
    head_dim = c // heads

    def split(p):
        return transpose(reshape(p, (b, t, heads, head_dim)), (0, 2, 1, 3))

    q = split(linear(x, params.wq, params.bq))
    k = split(linear(x, params.wk, params.bk))
    v = split(linear(x, params.wv, params.bv))
    logits = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(head_dim))
    logits = add(logits, rel_position_bias(params.rel_table, t))
    if lengths is not None and min(lengths) < t:
        key_bias = np.where(np.arange(t) < np.asarray(lengths)[:, None], 0.0, -np.inf).astype(x.dtype)
        logits = add(logits, Tensor(key_bias.reshape(b, 1, 1, t)))
    mixed = matmul(softmax(logits, axis=-1), v)
    return linear(reshape(transpose(mixed, (0, 2, 1, 3)), (b, t, c)), params.wo, params.bo)


def layer_mix_composition(x, layer_weights):
    """The layer mix as it was composed before it was fused: softmax, a
    (L, 1, 1) reshape, a broadcast product and a sum over the layer axis."""
    w = reshape(softmax(layer_weights, axis=0), (layer_weights.shape[0], 1, 1))
    return reduce_sum(mul(x, w), axis=1)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,scale", [((32, 50, 256), 1.0), ((3, 7, 5), 6.0), ((4, 9), 0.1)])
def test_gelu(dtype, shape, scale):
    x = arr(shape, 1, dtype, scale)
    x.reshape(-1)[:6] = [0.0, -0.0, 10.5, -10.5, 40.0, -40.0]  # zeros and |x| > 10
    g = arr(shape, 2, dtype)
    out, grads = run(gelu, [x], g)
    want_out, want_grads = gelu_ref(x, g)
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_extremes(dtype):
    x = np.array([0.0, -0.0, 1e-30, -1e-30, 11.0, -11.0, 1e4, -1e4], dtype=dtype)
    g = np.linspace(-2.0, 2.0, x.size).astype(dtype)
    out, grads = run(gelu, [x], g)
    want_out, want_grads = gelu_ref(x, g)
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", [1, _GELU_BLOCK - 1, _GELU_BLOCK, 3 * _GELU_BLOCK + 7])
@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
def test_gelu_blocks(dtype, size, grad):
    """Every block of the forward, the short last one included, keeps the
    whole-array bits, whether the node saves th for a backward or not."""
    x = arr((size,), 5, dtype, 4.0)
    g = arr((size,), 6, dtype)
    want_out, want_grads = gelu_ref(x, g)
    if grad:
        out, grads = run(gelu, [x], g)
        assert_bits(grads[0], want_grads[0])
    else:
        with no_grad():
            out = gelu(Tensor(x, requires_grad=True)).data
    assert_bits(out, want_out)
    frozen = gelu(Tensor(x))  # needs no gradient, so saves nothing either
    assert not frozen.requires_grad
    assert_bits(frozen.data, want_out)


def test_gelu_under_no_grad_allocates_its_output_and_two_blocks():
    x = Tensor(arr((4, 2 * _GELU_BLOCK), 7, np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with no_grad():
            out = gelu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = 2 * _GELU_BLOCK * x.data.itemsize
    assert peak < out.data.nbytes + scratch + 64 * 1024  # whole-array GELU holds three outputs


LINEAR_OUT = {6: 4, 64: 256, 768: 3072}  # c_in -> c_out


# the last two are the benchmark's pointwise projections: synthetic and paper shape
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(2, 5, 6), (7, 6), (32, 50, 64), (8, 100, 768)])
def test_linear(dtype, shape):
    c_out = LINEAR_OUT[shape[-1]]
    x, w, b = arr(shape, 1, dtype), arr((shape[-1], c_out), 2, dtype), arr((c_out,), 3, dtype)
    g = arr(shape[:-1] + (c_out,), 4, dtype)
    out, grads = run(linear, [x, w, b], g)
    want_out, want_grads = linear_ref(x, w, b, g)
    assert_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        assert_bits(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("x_requires_grad", [False, True])
def test_linear_frozen_or_strided_input(dtype, strided, x_requires_grad):
    # a strided x is copied into rows again in the backward, not saved from the forward
    x = arr((50, 32, 64), 1, dtype).transpose(1, 0, 2) if strided else arr((32, 50, 64), 1, dtype)
    w, b = arr((64, 256), 2, dtype), arr((256,), 3, dtype)
    g = arr((32, 50, 256), 4, dtype)
    out, grads = run(linear, [x, w, b], g, requires=[x_requires_grad, True, True])
    want_out, want_grads = linear_ref(x, w, b, g)
    assert_bits(out, want_out)
    if not x_requires_grad:
        assert grads[0] is None
        grads, want_grads = grads[1:], want_grads[1:]
    for got, want in zip(grads, want_grads):
        assert_bits(got, want)


# a masked case pads one record: its frames past the length hold values the op must not read
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k,t,lengths", [
    pytest.param(1, 5, None, id="1-5"), pytest.param(3, 6, None, id="3-6"),
    pytest.param(5, 4, None, id="5-4"), pytest.param(9, 2, None, id="9-2"),
    pytest.param(7, 1, None, id="7-1"), pytest.param(3, 6, [6, 4], id="3-6-masked"),
    pytest.param(5, 4, [1, 4], id="5-4-masked"), pytest.param(9, 2, [2, 1], id="9-2-masked")])
def test_depthwise_conv1d(dtype, k, t, lengths):
    x, kernel, bias = arr((2, t, 3), 1, dtype), arr((k, 3), 2, dtype), arr((3,), 3, dtype)
    g = arr((2, t, 3), 4, dtype)
    out, grads = run(lambda *a: depthwise_conv1d(*a, lengths), [x, kernel, bias], g)
    want_out, want_grads = depthwise_ref(x, kernel, bias, g, lengths)
    assert_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        assert_bits(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(2, 5, 8), (6, 8)])
def test_layer_norm(dtype, shape):
    x, gamma, beta = arr(shape, 1, dtype, 3.0), arr((8,), 2, dtype), arr((8,), 3, dtype)
    g = arr(shape, 4, dtype)
    out, grads = run(layer_norm, [x, gamma, beta], g)
    want_out, want_grads = layer_norm_ref(x, gamma, beta, g)
    assert_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        assert_bits(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm1d(dtype, training):
    x, gamma, beta = arr((3, 5, 4), 1, dtype, 2.0), arr((4,), 2, dtype), arr((4,), 3, dtype)
    running_mean, running_var = arr((4,), 5, dtype), np.abs(arr((4,), 6, dtype)) + 0.5
    g = arr((3, 5, 4), 4, dtype)

    def fn(x, gamma, beta):
        return batch_norm1d(x, gamma, beta, running_mean, running_var, training=training)[0]

    out, grads = run(fn, [x, gamma, beta], g)
    want_out, want_grads = batch_norm_ref(x, gamma, beta, running_mean, running_var, g, training)
    assert_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        assert_bits(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("axis", [-1, 0])
def test_softmax(dtype, axis):
    x, g = arr((3, 4, 5), 1, dtype, 3.0), arr((3, 4, 5), 2, dtype)
    out, grads = run(lambda t: softmax(t, axis=axis), [x], g)
    want_out, want_grads = softmax_ref(x, g, axis)
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b,t,lengths", [
    pytest.param(3, 6, None, id="3-6"), pytest.param(5, 3, None, id="5-3"),
    pytest.param(1, 4, None, id="1-4"), pytest.param(3, 6, [6, 3, 6], id="3-6-masked"),
    pytest.param(2, 4, [4, 1], id="2-4-masked")])
def test_avg_pool_mixer(dtype, b, t, lengths):
    x, g = arr((b, t, 3), 1, dtype), arr((b, t, 3), 2, dtype)
    out, grads = run(lambda v: avg_pool_mixer(v, lengths), [x], g)
    want_out, want_grads = avg_pool_ref(x, g, lengths)
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_mean_pool_time(dtype):
    lengths = np.array([5, 2, 4])
    x, g = arr((3, 5, 4), 1, dtype), arr((3, 4), 2, dtype)
    out, grads = run(lambda v: mean_pool_time(v, lengths), [x], g)
    want_out, want_grads = mean_pool_ref(x, lengths, g)
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_cross_entropy(dtype):
    labels = np.array([2, 0, 1])
    x = arr((3, 4), 1, dtype, 4.0)
    g = np.asarray(1.7, dtype=dtype)  # g / 3 is inexact, so its rounding shows
    out, grads = run(lambda v: cross_entropy(v, labels), [x], g)
    want_out, want_grads = cross_entropy_ref(x, labels, g)
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("direction,lengths", [
    pytest.param("unidirectional", None, id="unidirectional"),
    pytest.param("bidirectional", None, id="bidirectional"),
    pytest.param("unidirectional", [4, 2], id="unidirectional-masked"),
    pytest.param("bidirectional", [4, 2], id="bidirectional-masked"),
    pytest.param("bidirectional", [1, 4], id="bidirectional-length-one")])
def test_temporal_shift(dtype, direction, lengths):
    cfg = ShiftConfig(alpha=0.5, direction=direction)
    x, g = arr((2, 4, 6), 1, dtype), arr((2, 4, 6), 2, dtype)
    out, grads = run(lambda v: temporal_shift(v, cfg, lengths), [x], g)
    counts = (3, 0) if direction == "unidirectional" else (2, 1)
    want_out, want_grads = shift_ref(x, g, *counts, lengths)
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lengths", [None, [5, 5, 5], [5, 2, 4]], ids=["none", "full", "masked"])
def test_mhsa(dtype, lengths):
    b, t, c, heads, clip = 3, 5, 8, 2, 2
    weights = [arr((c, c), 10 + i, dtype, 0.5) if i % 2 == 0 else arr((c,), 10 + i, dtype, 0.1)
               for i in range(8)]
    arrays = [arr((b, t, c), 1, dtype)] + weights + [arr((heads, 2 * clip + 1), 20, dtype)]
    g = arr((b, t, c), 2, dtype)
    out, grads = run(lambda x, *p: mhsa(x, AttentionParams(*p), lengths), arrays, g)
    want_out, want_grads = run(lambda x, *p: mhsa_composition(x, AttentionParams(*p), lengths), arrays, g)
    assert_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        assert_bits(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("t", [1, 2, 127, 129, 300])
@pytest.mark.parametrize("b", [1, 3, 32])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_mhsa_core_is_the_batched_composition(dtype, t, b, masked):
    """The per-record core against the batched composition, across numpy's
    128-element pairwise-sum block of the softmax rows, bit for bit."""
    c, heads, clip = 4, 2, 64
    lengths = np.random.default_rng(t * b).integers(1, t + 1, size=b) if masked else None
    weights = [arr((c, c), 10 + i, dtype, 0.5) if i % 2 == 0 else arr((c,), 10 + i, dtype, 0.1)
               for i in range(8)]
    arrays = [arr((b, t, c), 1, dtype)] + weights + [arr((heads, 2 * clip + 1), 20, dtype)]
    g = arr((b, t, c), 2, dtype)
    out, grads = run(lambda x, *p: mhsa(x, AttentionParams(*p), lengths), arrays, g)
    want_out, want_grads = run(lambda x, *p: mhsa_composition(x, AttentionParams(*p), lengths), arrays, g)
    assert_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        assert_bits(got, want)


def attention_peak(b: int, t: int) -> int:
    """Traced peak bytes of one float32 attention forward and backward, 2 heads of 2 channels."""
    c, heads = 4, 2
    params = AttentionParams(*[Tensor(arr((c, c) if i % 2 == 0 else (c,), 10 + i, np.float32, 0.5),
                                      requires_grad=True) for i in range(8)],
                             rel_table=Tensor(arr((heads, 129), 20, np.float32), requires_grad=True))
    x, g = Tensor(arr((b, t, c), 1, np.float32)), Tensor(arr((b, t, c), 2, np.float32))
    tracemalloc.start()
    try:
        backward(sum_all(mul(mhsa(x, params), g)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mhsa_peak_at_1500_frames_does_not_grow_with_the_batch():
    """One record's (H, T, T) buffers at a time: the batched composition
    held several (B, H, T, T) ones, 18 MB per record here."""
    t, heads = 1500, 2
    one = heads * t * t * 4
    peaks = [attention_peak(b, t) for b in (1, 4)]
    assert peaks[0] < 7 * one
    assert peaks[1] < peaks[0] + one / 8


@pytest.mark.parametrize("dtype", DTYPES)
def test_rel_position_bias(dtype):
    table, g = arr((2, 5), 1, dtype), arr((2, 4, 4), 2, dtype)
    out, grads = run(lambda v: rel_position_bias(v, 4), [table], g)
    idx = np.clip(np.arange(4)[:, None] - np.arange(4)[None, :], -2, 2) + 2
    want = np.zeros_like(table)
    np.add.at(want, (np.arange(2)[:, None, None], idx[None, :, :]), g)
    assert_bits(out, table[:, idx])
    assert_bits(grads[0], want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lengths", [None, [4, 2], [1, 4]])
def test_bilstm(dtype, lengths):
    b, t, c, hidden = 2, 4, 3, 2
    x = arr((b, t, c), 1, dtype)
    dirs = [(arr((c, 4 * hidden), 10 + s, dtype), arr((hidden, 4 * hidden), 20 + s, dtype),
             arr((4 * hidden,), 30 + s, dtype)) for s in range(2)]
    g = arr((b, t, 2 * hidden), 2, dtype)

    def fn(x, *flat):
        return bilstm(x, LstmDirection(*flat[:3]), LstmDirection(*flat[3:]),
                      None if lengths is None else np.array(lengths))

    out, grads = run(fn, [x] + [a for d in dirs for a in d], g)
    want_out, want_grads = bilstm_ref(x, dirs, g, lengths)
    assert_bits(out, want_out)
    for got, want in zip(grads, want_grads):
        assert_bits(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,lengths", [
    ((3, 7, 5, 4), None),
    ((3, 7, 5, 4), [7, 1, 4]),
    ((4, 9, 6, 3), [9, 3, 1, 8]),
    ((2, 5, 4, 2), [1, 5]),
    ((2, 1, 4, 2), None),
    ((8, 50, 16, 8), None),
    ((8, 50, 16, 8), [50, 1, 20, 49, 2, 50, 33, 7]),
])
def test_bilstm_reverse_half_is_the_forward_half_on_reversed_records(dtype, shape, lengths):
    """The reverse direction is the forward recurrence run on each record's
    real frames in reverse order: swapping the two directions' parameters and
    reversing every record's real frames turns one half into the other."""
    b, t, c, hidden = shape
    x = arr((b, t, c), 1, dtype)
    fw, bw = [LstmDirection(Tensor(arr((c, 4 * hidden), 10 + s, dtype, 0.5)),
                            Tensor(arr((hidden, 4 * hidden), 20 + s, dtype, 0.5)),
                            Tensor(arr((4 * hidden,), 30 + s, dtype, 0.5))) for s in range(2)]
    n = np.full(b, t) if lengths is None else np.array(lengths)
    x_rev = x.copy()
    for i in range(b):
        x_rev[i, :n[i]] = x[i, n[i] - 1::-1]
    lengths = None if lengths is None else n
    reverse_half = bilstm(Tensor(x), fw, bw, lengths).data[:, :, hidden:]
    forward_half = bilstm(Tensor(x_rev), bw, fw, lengths).data[:, :, :hidden]
    for i in range(b):
        assert_bits(reverse_half[i, :n[i]], forward_half[i, n[i] - 1::-1])
        assert not reverse_half[i, n[i]:].any() and not forward_half[i, n[i]:].any()


@pytest.mark.parametrize("hidden", [32, 64, 768])
def test_bilstm_record_bits_do_not_depend_on_its_batch(hidden, measured_blas):
    """One record's output rows are the same bits in batches of 2 to
    _TILED_ROWS records of 1-9 frames, where the recurrence runs on column
    tiles."""
    c = 8
    dirs = [LstmDirection(Tensor(arr((c, 4 * hidden), 10 + s, np.float32, 0.3)),
                          Tensor(arr((hidden, 4 * hidden), 20 + s, np.float32, hidden ** -0.5)),
                          Tensor(arr((4 * hidden,), 30 + s, np.float32, 0.1))) for s in range(2)]
    record = arr((6, c), 1, np.float32)
    rng = np.random.default_rng(hidden)
    batches, outs = range(2, _TILED_ROWS + 1), []
    for n in batches:
        lengths = np.append(rng.integers(1, 10, n - 1), len(record))
        x = rng.standard_normal((n, lengths.max(), c), dtype=np.float32)
        x[-1, :len(record)] = record
        with no_grad():
            outs.append(bilstm(Tensor(x), *dirs, lengths).data[-1, :len(record)])
    assert [n for n, out in zip(batches, outs) if not np.array_equal(out, outs[0])] == []


def test_bilstm_under_no_grad_keeps_no_bptt_buffers():
    """Unrecorded, the recurrence keeps one frame's gates: beyond its output
    and one input projection, it allocates under a quarter of a (B, T, 4H)
    buffer, where saving gates and cells for both directions takes four."""
    b, t, c, hidden = 4, 400, 16, 32
    x = arr((b, t, c), 1, np.float32)
    lengths = np.array([400, 170, 1, 399])
    dirs = [LstmDirection(*(Tensor(arr(s, 10 * k + i, np.float32), requires_grad=True)
                            for i, s in enumerate([(c, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,)])))
            for k in range(2)]
    tracemalloc.start()
    try:
        with no_grad():
            out = bilstm(Tensor(x), *dirs, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    recorded = bilstm(Tensor(x), *dirs, lengths)
    assert recorded.requires_grad
    assert_bits(out.data, recorded.data)
    projection = b * t * 4 * hidden * x.itemsize
    assert peak - out.data.nbytes - projection < projection / 4


@pytest.mark.parametrize("op", ["linear", "depthwise_conv1d", "layer_norm", "batch_norm1d"])
def test_frozen_input_gets_no_gradient(op):
    dtype = np.float64
    x = arr((2, 5, 4), 1, dtype)
    params = {"linear": [arr((4, 3), 2, dtype), arr((3,), 3, dtype)],
              "depthwise_conv1d": [arr((3, 4), 2, dtype), arr((4,), 3, dtype)],
              "layer_norm": [arr((4,), 2, dtype), arr((4,), 3, dtype)],
              "batch_norm1d": [arr((4,), 2, dtype), arr((4,), 3, dtype)]}[op]
    fn = {"linear": linear, "depthwise_conv1d": depthwise_conv1d, "layer_norm": layer_norm,
          "batch_norm1d": lambda *a: batch_norm1d(*a, np.zeros(4), np.ones(4), training=True)[0]}[op]
    g = arr((2, 5, 3 if op == "linear" else 4), 4, dtype)
    _, frozen = run(fn, [x] + params, g, requires=[False, True, True])
    _, full = run(fn, [x] + params, g)
    assert frozen[0] is None
    for got, want in zip(frozen[1:], full[1:]):
        assert_bits(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(3, 5, 7, 9), (2, 1, 4, 3), (32, 1, 50, 64), (4, 13, 37, 48)])
def test_weighted_layer_sum_matches_its_composition(dtype, shape):
    """The node on record arrays, of full and of ragged lengths (1 among
    them), against the composition on their zero-padded stack: the output
    and the layer weights' gradient, sign bits included."""
    b, _, t, _ = shape
    ragged = np.random.default_rng(4).integers(1, t + 1, b)
    ragged[0], ragged[-1] = t, 1
    for lengths in (np.full(b, t), ragged):
        x = arr(shape, 1, dtype)
        x[0, :, 0, 0] = -0.0  # a column of negative zeros sums to +0.0
        x[-1, :, 0, :] = 0.0
        x[1:, :, 1, :] = -0.0  # g * x is -0.0 over every record
        for row, n in zip(x, lengths):
            row[:, n:] = 0.0
        w = arr(shape[1:2], 3, dtype)
        g = arr(shape[:1] + shape[2:], 2, dtype)
        g[0, 0] = -0.0
        g[:, 1] = np.abs(g[:, 1])
        out, grads = run(lambda w: weighted_layer_sum([r[:, :n] for r, n in zip(x, lengths)], w), [w], g)
        want_out, want_grads = run(layer_mix_composition, [x, w], g, requires=[False, True])
        assert_bits(out, want_out)
        assert_bits(grads[0], want_grads[1])  # layer weights
