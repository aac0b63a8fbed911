"""Allocation-lean ops against their textbook numpy expressions, bit for bit.

Each oracle below is the op's plain expression: fresh temporaries, the
same floating-point operations in the same order. The ops compute them
with in-place ufuncs and hand their gradient buffers over, so forward
values and every input gradient must be bit-identical in float32 and
float64, not merely close.
"""

import math

import numpy as np
import pytest

from shiftseq.blocks import weighted_layer_sum
from shiftseq.shift import ShiftConfig, temporal_shift
from shiftseq.tensor_autograd import (
    LstmDirection,
    Tensor,
    avg_pool_mixer,
    backward,
    batch_norm1d,
    bilstm,
    cross_entropy,
    depthwise_conv1d,
    gelu,
    layer_norm,
    linear,
    mean_pool_time,
    mul,
    reduce_sum,
    rel_position_bias,
    reshape,
    softmax,
    sum_all,
)
from shiftseq.tensor_autograd.ops import _lstm_backward, _lstm_forward, _previous_hidden

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


def depthwise_ref(x, kernel, bias, g):
    k = kernel.shape[0]
    t = x.shape[1]
    halo = (k - 1) // 2
    xp = np.zeros((x.shape[0], t + 2 * halo, x.shape[2]), dtype=x.dtype)
    xp[:, halo:halo + t, :] = x
    out = np.zeros_like(x)
    for j in range(k):
        out += xp[:, j:j + t, :] * kernel[j]
    out += bias
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for j in range(k):
        gxp[:, j:j + t, :] += g * kernel[j]
        gk[j] = (xp[:, j:j + t, :] * g).sum(axis=(0, 1))
    return out, [gxp[:, halo:halo + t, :], gk, g.sum(axis=(0, 1))]


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


def avg_pool_ref(x, g):
    t = x.shape[1]
    r = 1  # a window of three frames
    positions = np.arange(t)
    counts = (np.minimum(positions + r, t - 1) - np.maximum(positions - r, 0) + 1)
    counts = counts.astype(x.dtype)[None, :, None]
    sums = np.zeros_like(x)
    for off in range(-r, r + 1):
        if off >= 0:
            sums[:, :t - off, :] += x[:, off:, :]
        else:
            sums[:, -off:, :] += x[:, :t + off, :]
    gavg = g / counts
    gx = np.zeros_like(x)
    for off in range(-r, r + 1):
        if off >= 0:
            gx[:, off:, :] += gavg[:, :t - off, :]
        else:
            gx[:, :t + off, :] += gavg[:, -off:, :]
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


def shift_ref(x, g, fwd, bwd_count):
    split = fwd + bwd_count
    out = x.copy()
    out[:, 1:, :fwd] = x[:, :-1, :fwd]
    out[:, 0, :fwd] = 0.0
    if bwd_count:
        out[:, :-1, fwd:split] = x[:, 1:, fwd:split]
        out[:, -1, fwd:split] = 0.0
    gx = g.copy()
    gx[:, :-1, :fwd] = g[:, 1:, :fwd]
    gx[:, -1, :fwd] = 0.0
    if bwd_count:
        gx[:, 1:, fwd:split] = g[:, :-1, fwd:split]
        gx[:, 0, fwd:split] = 0.0
    return out, [gx]


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


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k,t", [(1, 5), (3, 6), (5, 4), (9, 2), (7, 1)])
def test_depthwise_conv1d(dtype, k, t):
    x, kernel, bias = arr((2, t, 3), 1, dtype), arr((k, 3), 2, dtype), arr((3,), 3, dtype)
    g = arr((2, t, 3), 4, dtype)
    out, grads = run(depthwise_conv1d, [x, kernel, bias], g)
    want_out, want_grads = depthwise_ref(x, kernel, bias, g)
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
@pytest.mark.parametrize("b,t", [(3, 6), (5, 3), (1, 4)])
def test_avg_pool_mixer(dtype, b, t):
    x, g = arr((b, t, 3), 1, dtype), arr((b, t, 3), 2, dtype)
    out, grads = run(avg_pool_mixer, [x], g)
    want_out, want_grads = avg_pool_ref(x, g)
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
@pytest.mark.parametrize("direction", ["unidirectional", "bidirectional"])
def test_temporal_shift(dtype, direction):
    cfg = ShiftConfig(alpha=0.5, direction=direction)
    x, g = arr((2, 4, 6), 1, dtype), arr((2, 4, 6), 2, dtype)
    out, grads = run(lambda v: temporal_shift(v, cfg), [x], g)
    want_out, want_grads = shift_ref(x, g, *((3, 0) if direction == "unidirectional" else (2, 1)))
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])


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
@pytest.mark.parametrize("lengths", [None, np.array([4, 2])])
def test_bilstm(dtype, lengths):
    b, t, c, hidden = 2, 4, 3, 2
    x = arr((b, t, c), 1, dtype)
    dirs = [(arr((c, 4 * hidden), 10 + s, dtype), arr((hidden, 4 * hidden), 20 + s, dtype),
             arr((4 * hidden,), 30 + s, dtype)) for s in range(2)]
    g = arr((b, t, 2 * hidden), 2, dtype)

    def fn(x, *flat):
        return bilstm(x, LstmDirection(*flat[:3]), LstmDirection(*flat[3:]), lengths)

    out, grads = run(fn, [x] + [a for d in dirs for a in d], g)
    # the fused op's forward and BPTT helpers, with the accumulation written out
    real = np.full(b, t) if lengths is None else lengths  # no lengths: every frame is real
    mask = (np.arange(t)[None, :] < real[:, None]).astype(dtype)[:, :, None]
    x2 = x.reshape(b * t, c)
    want_out = np.empty((b, t, 2 * hidden), dtype=dtype)
    want_grads, gx = [], None
    for s, (w_ih, w_hh, bias) in enumerate(dirs):
        h_out = want_out[:, :, s * hidden:(s + 1) * hidden]
        xw = (x2 @ w_ih + bias).reshape(b, t, 4 * hidden)
        saved = _lstm_forward(xw, w_hh, h_out, mask, reverse=bool(s))
        dpre2 = _lstm_backward(g[:, :, s * hidden:(s + 1) * hidden], saved, w_hh, mask,
                               bool(s)).reshape(b * t, 4 * hidden)
        want_grads += [x2.T @ dpre2, _previous_hidden(h_out, bool(s)).T @ dpre2, dpre2.sum(axis=0)]
        dx = dpre2 @ w_ih.T
        gx = dx if gx is None else gx + dx
    assert_bits(out, want_out)
    assert_bits(grads[0], gx.reshape(b, t, c))
    for got, want in zip(grads[1:], want_grads):
        assert_bits(got, want)


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
    x = arr(shape, 1, dtype)
    x[0, :, 0, 0] = -0.0  # a column of negative zeros sums to +0.0
    x[-1, :, 1, :] = 0.0
    w = arr(shape[1:2], 3, dtype)
    g = arr(shape[:1] + shape[2:], 2, dtype)
    g[0, 0] = -0.0
    out, grads = run(weighted_layer_sum, [x, w], g)
    want_out, want_grads = run(layer_mix_composition, [x, w], g)
    assert_bits(out, want_out)
    assert_bits(grads[0], want_grads[0])  # features
    assert_bits(grads[1], want_grads[1])  # layer weights


@pytest.mark.parametrize("dtype", DTYPES)
def test_weighted_layer_sum_frozen_features(dtype):
    x, w, g = arr((2, 3, 4, 5), 1, dtype), arr((3,), 3, dtype), arr((2, 4, 5), 2, dtype)
    _, frozen = run(weighted_layer_sum, [x, w], g, requires=[False, True])
    _, want = run(layer_mix_composition, [x, w], g, requires=[False, True])
    assert frozen[0] is None
    assert_bits(frozen[1], want[1])
