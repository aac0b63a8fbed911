"""Network operations built on the autograd engine.

Each op fuses its forward/backward pair for efficiency (linear,
convolutions, norms, pooling, losses, the bidirectional LSTM, attention's
core); attention puts four `linear` nodes around its core. All ops
preserve the input dtype; run them at float64 for gradient checking and
float32 for training.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionError
from .engine import (
    Tensor,
    _copy,
    _empty,
    _will_record,
    _zeros,
    accumulate_grad,
    track,
)


def _integers(values, name: str) -> np.ndarray:
    """`values` as int64: a float or bool array raises, not truncates."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise DimensionError(f"{name} must be integers, got dtype {values.dtype.name}")
    return values.astype(np.int64, copy=False)


def _check_lengths(lengths, b: int, t: int) -> np.ndarray:
    """Per-record real frame counts as int64, each in [1, t]; None means t each.

    Counts must be integers: a float or bool array raises, not truncates.
    """
    if lengths is None:
        return np.full(b, t, dtype=np.int64)
    lengths = _integers(lengths, "lengths")
    if lengths.shape != (b,):
        raise DimensionError(f"lengths shape {lengths.shape} does not match batch {b}")
    if lengths.min(initial=1) < 1 or lengths.max(initial=1) > t:
        raise DimensionError(f"lengths must lie in [1, {t}], got {lengths.tolist()}")
    return lengths


def linear(x: Tensor, w: Tensor, b: Tensor, rows: FrameRows | None = None) -> Tensor:
    """x @ w + b over the trailing channel axis; x may be (N, Cin) or (B, T, Cin).

    Batch and time fold into the rows of one GEMM, (B·T, Cin) @ (Cin, Cout),
    in the forward and in the input gradient, rather than B GEMMs of T rows.
    Each output row is the same dot products, so the bits are those of the
    batched `np.matmul`. The output and the input gradient are step buffers.

    Given the batch's real `rows`, x is their packed (N, Cin) rows, and the
    weight and bias gradients sum x and the output gradient put back at
    their frames (:meth:`FrameRows.scatter`), in the padded layout's order.
    """
    if x.ndim not in (2, 3):
        raise DimensionError(f"linear expects rank-2 or rank-3 input, got {x.shape}")
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear weight {w.shape} does not fit input {x.shape}")
    if b.ndim != 1 or b.shape[0] != w.shape[1]:
        raise DimensionError(f"linear bias {b.shape} does not fit weight {w.shape}")
    # the step buffers take the (B, T, C) shapes the other ops use, so that they share them
    out = _empty(x.shape[:-1] + (w.shape[1],), np.result_type(x.data, w.data))
    np.matmul(x.data.reshape(-1, x.shape[-1]), w.data, out=out.reshape(-1, w.shape[1]))
    out += b.data

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            gx = _empty(x.shape, g.dtype)
            np.matmul(g2, w.data.T, out=gx.reshape(-1, x.shape[-1]))
            accumulate_grad(x, gx, owned=True)
        # re-derived, not saved: a view of x.data, or a copy only while it is needed
        x2 = x.data.reshape(-1, x.shape[-1])
        if rows is not None:
            x2, g2 = rows.scatter(x2), rows.scatter(g2)
        accumulate_grad(w, x2.T @ g2, owned=True)
        accumulate_grad(b, g2.sum(axis=0), owned=True)

    return track(out, (x, w, b), bwd)


def _zero_padding(a: np.ndarray, lengths: np.ndarray) -> None:
    """Zero each record's frames at and past its length, in place, visiting
    only the records shorter than axis 1: a full-length batch costs nothing."""
    for i in np.flatnonzero(lengths < a.shape[1]):
        a[i, lengths[i]:] = 0.0


@dataclass(frozen=True)
class FrameRows:
    """The real frames of a padded (batch, frames, C) layout: record b's
    first lengths[b] frames, as the positions `index` of those rows among
    the layout's batch·frames rows, in batch then time order.

    Per-frame ops (`linear`, `layer_norm`, `gelu`, `add`) run on the packed
    (N, C) rows of :func:`_pack` with the bits those rows get in the
    padded layout: they work row by row, and a GEMM over a subset of its
    rows gives those rows' bits of the whole GEMM when it has at least two.
    :func:`_pack` and :func:`_unpack` record, so training runs this path too.
    """

    index: np.ndarray
    lengths: np.ndarray
    frames: int

    def scatter(self, a: np.ndarray) -> np.ndarray:
        """The packed (N, C) rows `a` at their frames of a new (batch·frames,
        C) array whose padded rows are +0.0."""
        out = np.zeros((len(self.lengths) * self.frames, a.shape[-1]), a.dtype)
        out[self.index] = a
        return out

    def spread(self, a: np.ndarray) -> None:
        """Move the packed rows a[:N] of a (batch·frames, C) array to their
        frames, in place, and set the padded rows to +0.0. Records go last
        first: each row moves to a position at or past its own, and past
        every packed row not yet moved."""
        ends = np.cumsum(self.lengths)
        for b in range(len(self.lengths) - 1, -1, -1):
            n, start = int(self.lengths[b]), b * self.frames
            a[start:start + n] = a[ends[b] - n:ends[b]]
            a[start + n:start + self.frames] = 0.0


def frame_rows(lengths: np.ndarray, t: int) -> FrameRows:
    """The real frames of a batch of records of `lengths` padded to `t` frames."""
    return FrameRows(np.flatnonzero(np.arange(t) < lengths[:, None]), lengths, t)


def _pack(x: Tensor, rows: FrameRows | None) -> Tensor:
    """The (N, C) real rows of a (B, T, C) `x`, or `x` itself when `rows` is
    None. Its backward puts the gradient back at its frames, padded rows +0.0."""
    if rows is None:
        return x
    return track(x.data.reshape(-1, x.shape[-1])[rows.index], (x,),
                 lambda g: accumulate_grad(x, rows.scatter(g).reshape(x.shape), owned=True))


def _unpack(r: Tensor, rows: FrameRows | None) -> Tensor:
    """(N, C) real rows back in the (B, T, C) layout, padded rows +0.0, or
    `r` itself when `rows` is None. Its backward gathers the real rows."""
    if rows is None:
        return r
    return track(rows.scatter(r.data).reshape(len(rows.lengths), rows.frames, -1), (r,),
                 lambda g: accumulate_grad(r, g.reshape(-1, g.shape[-1])[rows.index], owned=True))


def _frame_shift(t: int, d: int) -> tuple[slice, slice]:
    """The frames written and the frames read, on a time axis of t frames,
    when frame i reads frame i + d; both empty once |d| >= t."""
    n = max(t - abs(d), 0)
    return slice(max(-d, 0), max(-d, 0) + n), slice(max(d, 0), max(d, 0) + n)


def _same_pad(x: np.ndarray, halo: int) -> np.ndarray:
    b, t, c = x.shape
    padded = _empty((b, t + 2 * halo, c), x.dtype)
    padded[:, :halo, :] = 0.0
    padded[:, halo + t:, :] = 0.0
    padded[:, halo:halo + t, :] = x
    return padded


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor, lengths=None) -> Tensor:
    """Per-channel temporal convolution with zero same-padding.

    out[b,t,c] = sum_k x[b, t+k-(K-1)/2, c] * kernel[k,c] + bias[c]

    Frames at or past lengths[b] are padding: they read as zero, as the
    same-padding does, so a record's real frames see its own boundary, and
    they get zero gradient. `lengths=None` (every frame real) runs the same path.
    """
    if x.ndim != 3:
        raise DimensionError(f"depthwise_conv1d expects rank-3 input, got {x.shape}")
    if kernel.ndim != 2 or kernel.shape[1] != x.shape[2]:
        raise DimensionError(f"depthwise kernel {kernel.shape} does not fit input {x.shape}")
    if bias.ndim != 1 or bias.shape[0] != x.shape[2]:
        raise DimensionError(f"depthwise bias {bias.shape} does not fit input {x.shape}")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"depthwise_conv1d kernel size must be odd, got {k}")
    b, t, _ = x.shape
    halo = (k - 1) // 2
    lengths = _check_lengths(lengths, b, t)
    xp = _same_pad(x.data, halo)
    _zero_padding(xp[:, halo:halo + t], lengths)
    out = _zeros(x.shape, x.dtype)
    tmp = _empty(x.shape, x.dtype)
    for j in range(k):
        out += np.multiply(xp[:, j:j + t, :], kernel.data[j], out=tmp)
    out += bias.data

    def bwd(g):
        tmp = _empty(g.shape, g.dtype)
        gk = np.zeros_like(kernel.data)
        for j in range(k):
            gk[j] = np.multiply(xp[:, j:j + t, :], g, out=tmp).sum(axis=(0, 1))
        if x.requires_grad:
            # the same sums, in the same tap order, as accumulating into a
            # padded buffer and keeping its interior: tap j moves g by j - halo
            gx = _zeros(x.shape, x.dtype)
            for j in range(k):
                dst, src = _frame_shift(t, halo - j)
                gx[:, dst] += np.multiply(g[:, src], kernel.data[j], out=tmp[:, dst])
            _zero_padding(gx, lengths)
            accumulate_grad(x, gx, owned=True)
        accumulate_grad(kernel, gk, owned=True)
        accumulate_grad(bias, g.sum(axis=(0, 1)), owned=True)

    return track(out, (x, kernel, bias), bwd)


def _affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray, out=None) -> np.ndarray:
    """gamma * xhat + beta, written into `out` when one is given."""
    out = np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def _norm_input_grad(g, gamma, xhat, inv, axis, tmp) -> np.ndarray:
    """inv * (gx - mean(gx) - xhat * mean(gx * xhat)) with gx = g * gamma.

    The input gradient of a batch-statistics normalization over `axis`, in
    a fresh step buffer; `tmp` (shaped like `g`) is overwritten.
    """
    gx = np.multiply(g, gamma, out=_empty(g.shape, np.result_type(g, gamma)))
    m1 = gx.mean(axis=axis, keepdims=True)
    m2 = np.multiply(gx, xhat, out=tmp).mean(axis=axis, keepdims=True)
    gx -= m1
    gx -= np.multiply(xhat, m2, out=tmp)
    gx *= inv
    return gx


NORM_EPS = 1e-5
BN_MOMENTUM = 0.1


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each (batch, time) slice over channels (NORM_EPS added to
    the variance), then scale and shift."""
    if x.shape[-1] != gamma.shape[-1] or gamma.shape != beta.shape or gamma.ndim != 1:
        raise DimensionError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not fit {x.shape}")
    # centred, then scaled in place
    xhat = np.subtract(x.data, x.data.mean(axis=-1, keepdims=True), out=_empty(x.shape, x.dtype))
    out = np.multiply(xhat, xhat, out=_empty(x.shape, x.dtype))  # the squares, then the output
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + np.asarray(NORM_EPS, dtype=x.data.dtype))
    xhat *= inv
    _affine(xhat, gamma.data, beta.data, out=out)

    def bwd(g):
        lead = tuple(range(x.ndim - 1))
        tmp = np.multiply(g, xhat, out=_empty(g.shape, g.dtype))
        accumulate_grad(gamma, tmp.sum(axis=lead), owned=True)
        accumulate_grad(beta, g.sum(axis=lead), owned=True)
        if x.requires_grad:
            accumulate_grad(x, _norm_input_grad(g, gamma.data, xhat, inv, -1, tmp), owned=True)

    return track(out, (x, gamma, beta), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# elements per block of the forward, as Adam's: a block's scratch stays in
# cache, and an unrecorded forward allocates its output plus two blocks
_GELU_BLOCK = 65536


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    The forward walks `x` in C order, in blocks of `_GELU_BLOCK` elements,
    through block-sized scratch. It keeps th = tanh(...) in a full-size
    buffer only when the node is recorded, for the backward; otherwise
    (under :func:`no_grad`, or for an input that needs no gradient) it
    allocates nothing full-size but the output. Each block runs the same
    ufuncs in the same order as a whole-array pass, so the bits are theirs.
    """
    c = np.asarray(_GELU_C, dtype=x.data.dtype)
    a = np.asarray(_GELU_A, dtype=x.data.dtype)
    xd = x.data

    def buf():
        return _empty(xd.shape, xd.dtype)

    # In-place ufuncs over the textbook expression's operations, in its
    # order (a product may swap operands); only th is saved, and x^2 is
    # recomputed in the backward. x*x, not x**2: float32 integer-power
    # takes a slow generic path.
    recorded = _will_record((x,))
    out = buf()
    th = buf() if recorded else None  # saved for the backward
    flat_x, flat_out = xd.reshape(-1), out.reshape(-1)
    n = flat_x.size
    block = max(1, min(n, _GELU_BLOCK))
    sq_block = _empty((block,), xd.dtype)
    th_flat = th.reshape(-1) if recorded else _empty((block,), xd.dtype)
    for i in range(0, n, block):
        j = min(i + block, n)
        xb, sq = flat_x[i:j], sq_block[:j - i]
        np.multiply(xb, xb, out=sq)
        tb = np.multiply(sq, xb, out=th_flat[i:j] if recorded else th_flat[:j - i])
        tb *= a
        tb += xb
        tb *= c
        np.tanh(tb, out=tb)  # th = tanh(c * (x + a * x^3))
        ob = np.multiply(xb, 0.5, out=flat_out[i:j])
        ob *= np.add(tb, 1.0, out=sq)  # 0.5 * x * (1 + th)

    def bwd(g):
        # g * (0.5 * (1 + th) + 0.5 * x * (1 - th^2) * du) with
        # du = c * (1 + 3a * x^2), in two scratch buffers and the saved th
        rest = np.multiply(th, th, out=buf())
        np.subtract(1.0, rest, out=rest)  # 1 - th^2
        scratch = np.multiply(xd, 0.5, out=buf())
        rest *= scratch  # (1 - th^2) * (0.5 * x)
        du = np.multiply(xd, xd, out=scratch)
        du *= 3.0 * a
        du += 1.0
        du *= c
        rest *= du
        gx = th
        gx += 1.0
        gx *= 0.5
        gx += rest
        gx *= g
        accumulate_grad(x, gx, owned=True)

    return track(out, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis` (max-subtracted before exponentiation)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        gx = g * out
        dot = gx.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= out
        accumulate_grad(x, gx, owned=True)

    return track(out, (x,), bwd)


def _rel_index(t: int, d: int) -> np.ndarray:
    """(T, T) relative table columns: clip(query - key, -d, d) + d."""
    idx = np.subtract.outer(np.arange(t), np.arange(t))
    np.clip(idx, -d, d, out=idx)
    idx += d
    return idx


@dataclass
class AttentionParams:
    """Multi-head self-attention's parameters, and a model's attention layer.

    Projections (C, C) with (C,) biases for queries, keys, values and
    output. `rel_table` (heads, 2*D+1), the only position signal, adds a
    learned bias per head and clipped query-key distance to the attention
    logits; its rows are the heads. A one-column table (D = 0) is order-blind.
    """

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    rel_table: Tensor


def named_tensors(params):
    """Yield (name, tensor) for every tensor of a parameter dataclass, in
    field order: the order parameters are saved in. A name is the field path
    to its tensor: a `Tensor` field's own name, and `<field>.<name>` for each
    tensor of a dataclass field (`attn.wq`, `rnn.fw.w_ih`). Other fields (a
    shift config, a string, an absent layer) yield nothing."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            yield f.name, value
        elif dataclasses.is_dataclass(value):
            yield from ((f"{f.name}.{name}", t) for name, t in named_tensors(value))


def _attention_core(q: Tensor, k: Tensor, v: Tensor, table: Tensor, lengths: np.ndarray) -> Tensor:
    """softmax(q kᵀ / sqrt(d) + bias + key mask) v per head, one record at a time.

    q, k and v are (B, T, C) projections whose channels split into the
    table's H heads of d = C/H; the output is their (B, T, C) mix. For
    record i the forward takes, in this order, q[i] k[i]ᵀ per head, the
    scale, the (H, T, T) relative bias, the -inf bias of the keys at or past
    lengths[i], the softmax and the product with v[i]. Only one record's
    (H, T, T) buffers exist at a time, and none is saved: the backward
    recomputes each record's probabilities. The records' bias gradients are
    added in batch order and applied to the table with one `np.add.at`.
    Every value is bit-identical to composing the engine's matmul, scale,
    add and softmax nodes over the batch with :func:`rel_position_bias`.
    """
    if {q.dtype, k.dtype, v.dtype, table.dtype} != {q.dtype}:
        raise DimensionError(f"mixed dtypes in one op: attention table {table.dtype.name} "
                             f"vs projections {q.dtype.name}")
    b, t, c = q.shape
    heads = table.shape[0]
    s = np.asarray(1.0 / math.sqrt(c // heads), dtype=q.dtype)
    d = (table.shape[1] - 1) // 2
    key_bias = np.where(np.arange(t) < lengths[:, None], 0.0, -np.inf).astype(q.dtype)

    def rec(a: np.ndarray, i: int) -> np.ndarray:
        """Record i of a (B, T, C) array as an (H, T, C/H) view, head first."""
        return a[i].reshape(t, heads, c // heads).transpose(1, 0, 2)

    def probs(i: int, bias: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Record i's (H, T, T) attention probabilities, written into `out`."""
        np.matmul(rec(q.data, i), rec(k.data, i).transpose(0, 2, 1), out=out)
        out *= s
        out += bias
        out += key_bias[i]
        out -= out.max(axis=-1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)
        return out

    out = _empty((b, t, c), q.dtype)
    bias = table.data[:, _rel_index(t, d)]
    p = _empty((heads, t, t), q.dtype)
    for i in range(b):
        np.matmul(probs(i, bias, p), rec(v.data, i), out=rec(out, i))

    def bwd(g):
        gq, gk, gv = (_empty((b, t, c), q.dtype) for _ in range(3))
        idx = _rel_index(t, d)
        bias = table.data[:, idx]
        p, gp, tmp = (_empty((heads, t, t), q.dtype) for _ in range(3))
        for i in range(b):
            probs(i, bias, p)
            np.matmul(rec(g, i), rec(v.data, i).transpose(0, 2, 1), out=gp)
            np.matmul(p.transpose(0, 2, 1), rec(g, i), out=rec(gv, i))
            # the softmax's backward, in place: (gp - sum(gp * p)) * p
            gp -= np.multiply(gp, p, out=tmp).sum(axis=-1, keepdims=True)
            gp *= p
            if i == 0:
                gbias = _copy(gp)
            else:
                gbias += gp
            gp *= s
            np.matmul(gp, rec(k.data, i), out=rec(gq, i))
            # the key gradient is qᵀ gp transposed, as the composition's bits are
            np.copyto(rec(gk, i), np.matmul(rec(q.data, i).transpose(0, 2, 1), gp).transpose(0, 2, 1))
        gt = np.zeros_like(table.data)
        np.add.at(gt, (np.arange(heads)[:, None, None], idx[None, :, :]), gbias)
        for tensor, grad in ((q, gq), (k, gk), (v, gv), (table, gt)):
            accumulate_grad(tensor, grad, owned=True)

    return track(out, (q, k, v, table), bwd)


def mhsa(x: Tensor, params: AttentionParams, lengths=None, rows: FrameRows | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention.

    The head count is the row count of `params.rel_table`, and positions
    enter only through that table (see :class:`AttentionParams`).
    Keys at or past lengths[b] are padding: a -inf logit bias gives them
    zero weight, so no query reads them and they get zero gradient.
    `lengths=None` (every frame real) runs the same path: its +0.0 bias
    may turn a -0.0 logit into +0.0, which the softmax maps to the same bits.

    Four `linear` nodes project queries, keys, values and the output; the
    core between them is one node (:func:`_attention_core`) that runs one
    record at a time and recomputes its probabilities in the backward, so
    attention holds (H, T, T) buffers, not (B, H, T, T) ones.

    Given the batch's real `rows`, the four projections run on those rows
    (see :func:`linear`), the core reads +0.0 projections on padded frames,
    and the output's padded rows are +0.0.
    """
    if x.ndim != 3:
        raise DimensionError(f"mhsa expects rank-3 input, got {x.shape}")
    b, t, c = x.shape
    heads = params.rel_table.shape[0]
    if heads < 1 or c % heads != 0:
        raise DimensionError(f"{heads} heads (relative bias table rows) must divide {c} channels")
    if params.rel_table.ndim != 2 or params.rel_table.shape[1] % 2 == 0:
        raise DimensionError(f"relative bias table must be (heads, 2*D+1), got {params.rel_table.shape}")
    lengths = _check_lengths(lengths, b, t)
    xr = _pack(x, rows)
    q, k, v = (_unpack(linear(xr, w, bias, rows), rows)
               for w, bias in ((params.wq, params.bq), (params.wk, params.bk), (params.wv, params.bv)))
    mixed = _attention_core(q, k, v, params.rel_table, lengths)
    return _unpack(linear(_pack(mixed, rows), params.wo, params.bo, rows), rows)


POOL_WINDOW = 3  # frames averaged by the pooling token mixer


def avg_pool_mixer(x: Tensor, lengths=None) -> Tensor:
    """Temporal average pooling minus identity.

    Each frame is replaced by the mean of the POOL_WINDOW frames centred on
    it (boundary windows average over the valid frames only), and the input is
    subtracted so a residual branch carries only the mixing delta. Frames
    at or past lengths[b] are padding: they read as zero, a record's
    windows count only its real frames, and they get zero gradient from
    the mean. `lengths=None` (every frame real) runs the same path.
    """
    if x.ndim != 3:
        raise DimensionError(f"avg_pool_mixer expects rank-3 input, got {x.shape}")
    b, t, _ = x.shape
    r = POOL_WINDOW // 2
    lengths = _check_lengths(lengths, b, t)
    positions = np.arange(t)
    # a padded frame's window may hold no real frame; it counts one, and reads zero
    counts = np.maximum(np.minimum(positions + r, lengths[:, None] - 1) - np.maximum(positions - r, 0) + 1, 1)
    counts = counts.astype(x.data.dtype)[:, :, None]
    xs = _copy(x.data)
    _zero_padding(xs, lengths)
    out = np.zeros_like(x.data)
    for off in range(-r, r + 1):
        dst, src = _frame_shift(t, off)
        out[:, dst] += xs[:, src]
    out /= counts
    out -= x.data

    def bwd(g):
        gavg = g / counts
        gx = np.zeros_like(x.data)
        for off in range(-r, r + 1):
            dst, src = _frame_shift(t, -off)
            gx[:, dst] += gavg[:, src]
        _zero_padding(gx, lengths)
        gx -= g
        accumulate_grad(x, gx, owned=True)

    return track(out, (x,), bwd)


@dataclass
class LstmDirection:
    """One direction's LSTM parameters, gate order (input, forget, cell, output).

    w_ih: (C, 4H); w_hh: (H, 4H); b: (4H,). One shared bias per gate.
    """

    w_ih: Tensor
    w_hh: Tensor
    b: Tensor


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def _gate_views(gates: np.ndarray, hidden: int):
    """The (input, forget, cell, output) column blocks of a (B, 4H) array."""
    return tuple(gates[:, k * hidden:(k + 1) * hidden] for k in range(4))


_TILE = 128  # rows and columns of a block of _transposed's copy


def _transposed(w: np.ndarray) -> np.ndarray:
    """A C-ordered copy of `w.T`, made in _TILE x _TILE blocks: each block's
    reads and writes stay in cache, where a whole-array copy strides across
    every row for each element it writes. For a 768 x 3072 float32 weight on
    a 2-vCPU x86 host: 4.3 ms, against 12.7 ms for `np.ascontiguousarray`."""
    rows, cols = w.shape
    out = np.empty((cols, rows), w.dtype)
    for i in range(0, rows, _TILE):
        for j in range(0, cols, _TILE):
            out[j:j + _TILE, i:i + _TILE] = w[i:i + _TILE, j:j + _TILE].T
    return out


def _lstm_forward(xw: np.ndarray, w_hh: np.ndarray, out: np.ndarray,
                  mask: np.ndarray, save: bool = True):
    """Run the recurrence over the hoisted input projection `xw`, frame 0 first.

    Writes the hidden states into `out` (a (B, T, H) view). With `save` it
    returns the (B, T, .) buffers BPTT reads, in the order it ran: the
    activated (i, f, g, o) gates, the cell state after each frame, and that
    state's tanh before masking. Without, it keeps one frame's gates and
    returns None. A masked frame ends with zero state, so a run over
    time-reversed views starts fresh at each record's last real frame.
    """
    b, t, four_h = xw.shape
    hidden = four_h // 4
    if save:
        gates_all = _empty((b, t, four_h), xw.dtype)
        cells = _empty((b, t, hidden), xw.dtype)
        tanh_cells = _empty((b, t, hidden), xw.dtype)
    else:
        frame_gates = np.empty((b, four_h), xw.dtype)
    # (w_hh.T @ h.T).T with w_hh.T made contiguous once: single-threaded
    # OpenBLAS runs this few-row product 1.5-2x faster than h @ w_hh
    w_hh_t = _transposed(w_hh)
    h = np.zeros((b, hidden), dtype=xw.dtype)
    c = np.zeros((b, hidden), dtype=xw.dtype)
    for step in range(t):
        pre = xw[:, step] + (w_hh_t @ h.T).T
        gates = gates_all[:, step] if save else frame_gates
        gates[:, :2 * hidden] = _sigmoid(pre[:, :2 * hidden])
        gates[:, 2 * hidden:3 * hidden] = np.tanh(pre[:, 2 * hidden:3 * hidden])
        gates[:, 3 * hidden:] = _sigmoid(pre[:, 3 * hidden:])
        gi, gf, gg, go = _gate_views(gates, hidden)
        c = gf * c + gi * gg
        tanh_c = np.tanh(c)
        h = go * tanh_c
        c *= mask[:, step]
        h *= mask[:, step]
        if save:
            cells[:, step] = c
            tanh_cells[:, step] = tanh_c
        out[:, step] = h
    return (gates_all, cells, tanh_cells) if save else None


def _lstm_backward(g: np.ndarray, saved, w_hh: np.ndarray,
                   mask: np.ndarray, dpre: np.ndarray) -> None:
    """BPTT of :func:`_lstm_forward`: writes d(pre-activation) of every frame into `dpre` (B, T, 4H).

    `g` is the gradient of the hidden outputs and `saved` the buffers
    :func:`_lstm_forward` returned; `g`, `mask` and `dpre` are views in the
    recurrence's frame order.
    """
    gates_all, cells, tanh_cells = saved
    b, t, hidden = g.shape
    dh_next = np.zeros((b, hidden), dtype=g.dtype)
    dc_next = np.zeros((b, hidden), dtype=g.dtype)
    zeros = np.zeros((b, hidden), dtype=g.dtype)
    for step in range(t - 1, -1, -1):
        c_prev = cells[:, step - 1] if step > 0 else zeros
        gi, gf, gg, go = _gate_views(gates_all[:, step], hidden)
        tanh_c = tanh_cells[:, step]
        dh = g[:, step] + dh_next
        dh *= mask[:, step]
        dc_next *= mask[:, step]
        dc = dc_next + dh * go * (1.0 - tanh_c * tanh_c)
        d = dpre[:, step]
        d[:, :hidden] = dc * gg * gi * (1.0 - gi)
        d[:, hidden:2 * hidden] = dc * c_prev * gf * (1.0 - gf)
        d[:, 2 * hidden:3 * hidden] = dc * gi * (1.0 - gg * gg)
        d[:, 3 * hidden:] = dh * tanh_c * go * (1.0 - go)
        dc_next = dc * gf
        dh_next = (w_hh @ d.T).T  # faster than d @ w_hh.T, as in _lstm_forward


def bilstm(x: Tensor, forward: LstmDirection, backward: LstmDirection,
           lengths=None, rows: FrameRows | None = None) -> Tensor:
    """Bidirectional LSTM over time; per-direction outputs concatenated on channels.

    Standard gates (sigmoid input/forget/output, tanh cell) with zero initial
    states; output shape (B, T, 2H). Frames at or past lengths[b] are
    padding: the reverse direction starts from zero state at each record's
    last real frame, and both directions output zero on padded frames.
    `lengths=None` means every frame is real; the all-ones mask it builds
    leaves every value unchanged.

    One fused graph node: each direction's input projection is a single
    (B*T, C) @ (C, 4H) GEMM hoisted out of the recurrence; only h @ w_hh runs
    per frame. The backward pass is hand-written BPTT over the saved gate
    activations, finishing with whole-sequence GEMMs for w_ih, w_hh and x.
    The reverse direction is the same recurrence and BPTT run on time-reversed
    views (`a[:, ::-1]`) of its projection, output half, the mask, its output
    gradient and its pre-activation gradient.
    The whole-sequence buffers are step buffers. The gate and cell buffers
    BPTT reads are kept only when the node is recorded: an unrecorded
    forward holds the output, one input projection and one frame's gates.
    Given the batch's real `rows`, the input projection runs on those rows,
    read by index, padded frames project to +0.0, and the output's padded
    rows are +0.0; without them the mask multiplies, so a NaN passes.
    """
    if x.ndim != 3:
        raise DimensionError(f"bilstm expects rank-3 input, got {x.shape}")
    b, t, c = x.shape
    hidden = forward.w_hh.shape[0]
    for p in (forward, backward):
        if {p.w_ih.dtype, p.w_hh.dtype, p.b.dtype} != {x.dtype}:
            raise DimensionError(f"mixed dtypes in one op: lstm parameters vs input {x.dtype.name}")
        if p.w_ih.shape != (c, 4 * hidden) or p.w_hh.shape != (hidden, 4 * hidden) \
                or p.b.shape != (4 * hidden,):
            raise DimensionError(
                f"lstm parameter shapes {p.w_ih.shape}/{p.w_hh.shape}/{p.b.shape} do not fit input {x.shape}")
    lengths = _check_lengths(lengths, b, t)
    mask = (np.arange(t)[None, :] < lengths[:, None]).astype(x.data.dtype)[:, :, None]
    x2 = x.data.reshape(b * t, c)
    out = _empty((b, t, 2 * hidden), x.dtype)
    halves = ((forward, 1, slice(0, hidden)), (backward, -1, slice(hidden, None)))  # time stride, channels
    parents = (x, forward.w_ih, forward.w_hh, forward.b, backward.w_ih, backward.w_hh, backward.b)
    save = _will_record(parents)
    xw = _empty((b, t, 4 * hidden), x.dtype)  # each direction's in turn; the backward reads neither
    xr = x2 if rows is None else x2[rows.index]  # the rows projected, into the first rows of xw
    proj = xw.reshape(b * t, 4 * hidden)[:len(xr)]
    saved = []
    for p, stride, half in halves:
        np.matmul(xr, p.w_ih.data, out=proj)
        proj += p.b.data
        if rows is not None:
            rows.spread(xw.reshape(b * t, 4 * hidden))
        saved.append(_lstm_forward(xw[:, ::stride], p.w_hh.data, out[:, ::stride, half], mask[:, ::stride], save))
    if rows is not None:
        _zero_padding(out, lengths)

    def bwd(g):
        gx = None
        h_prev = _empty((b, t, hidden), x.dtype)  # the hidden state each frame's step started from
        for (p, stride, half), buffers in zip(halves, saved):
            dpre = _empty((b, t, 4 * hidden), g.dtype)
            _lstm_backward(g[:, ::stride, half], buffers, p.w_hh.data, mask[:, ::stride], dpre[:, ::stride])
            dpre2 = dpre.reshape(b * t, 4 * hidden)
            accumulate_grad(p.w_ih, x2.T @ dpre2, owned=True)
            h_prev[:, ::stride][:, 0] = 0.0
            h_prev[:, ::stride][:, 1:] = out[:, ::stride, half][:, :-1]
            accumulate_grad(p.w_hh, h_prev.reshape(b * t, hidden).T @ dpre2, owned=True)
            accumulate_grad(p.b, dpre2.sum(axis=0), owned=True)
            if x.requires_grad:
                dx = np.matmul(dpre2, p.w_ih.data.T, out=_empty((b, t, c), x.dtype).reshape(-1, c))
                gx = dx if gx is None else np.add(gx, dx, out=gx)
        if gx is not None:
            accumulate_grad(x, gx.reshape(b, t, c), owned=True)

    return track(out, parents, bwd)


def mean_pool_time(x: Tensor, lengths) -> Tensor:
    """Average over the first `lengths[b]` frames of each sequence (all, if None)."""
    if x.ndim != 3:
        raise DimensionError(f"mean_pool_time expects rank-3 input, got {x.shape}")
    b, t, _ = x.shape
    lengths = _check_lengths(lengths, b, t)
    mask = (np.arange(t)[None, :] < lengths[:, None]).astype(x.data.dtype)
    denom = lengths.astype(x.data.dtype)[:, None]
    out = (x.data * mask[:, :, None]).sum(axis=1) / denom

    def bwd(g):
        gx = np.multiply(mask[:, :, None], (g / denom)[:, None, :], out=_empty(x.shape, x.dtype))
        accumulate_grad(x, gx, owned=True)

    return track(out, (x,), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects rank-2 logits, got {logits.shape}")
    b, k = logits.shape
    labels = _integers(labels, "labels")
    if labels.shape != (b,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise DimensionError(f"labels must lie in [0, {k}), got {labels.tolist()}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    nll = np.log(e.sum(axis=1)) - shifted[rows, labels]
    out = np.asarray(nll.mean(), dtype=logits.data.dtype)

    def bwd(g):
        glogits = probs  # saved for this closure only, which runs at most once
        glogits[rows, labels] -= 1.0
        glogits *= g / b
        accumulate_grad(logits, glogits, owned=True)

    return track(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# ops no model runs
# ---------------------------------------------------------------------------
# No model runs these ops, and the package does not export them. They stay
# only because the benchmark's tracer (perfbench/spans.py) wraps each one by
# name; the grad suite checks each of them.

def conv1d_full(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Channel-mixing temporal convolution with zero same-padding.

    out[b,t,o] = sum_{k,i} x[b, t+k-(K-1)/2, i] * kernel[k,i,o] + bias[o]
    """
    if x.ndim != 3:
        raise DimensionError(f"conv1d_full expects rank-3 input, got {x.shape}")
    if kernel.ndim != 3 or kernel.shape[1] != x.shape[2]:
        raise DimensionError(f"conv kernel {kernel.shape} does not fit input {x.shape}")
    if bias.ndim != 1 or bias.shape[0] != kernel.shape[2]:
        raise DimensionError(f"conv bias {bias.shape} does not fit kernel {kernel.shape}")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"conv1d_full kernel size must be odd, got {k}")
    t = x.shape[1]
    halo = (k - 1) // 2
    xp = _same_pad(x.data, halo)
    out = np.zeros(x.shape[:2] + (kernel.shape[2],), dtype=x.data.dtype)
    for j in range(k):
        out += np.matmul(xp[:, j:j + t, :], kernel.data[j])
    out += bias.data

    def bwd(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kernel.data)
        for j in range(k):
            gxp[:, j:j + t, :] += np.matmul(g, kernel.data[j].T)
            gk[j] = np.einsum("bti,bto->io", xp[:, j:j + t, :], g)
        accumulate_grad(x, gxp[:, halo:halo + t, :])
        accumulate_grad(kernel, gk)
        accumulate_grad(bias, g.sum(axis=(0, 1)))

    return track(out, (x, kernel, bias), bwd)


def batch_norm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool = False) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize per channel over the (batch, time) axes.

    Training mode normalizes by batch statistics and returns running stats
    blended with momentum BN_MOMENTUM (variance stored unbiased, as is
    conventional); eval mode normalizes by the running stats and returns
    them unchanged. Both add NORM_EPS to the variance.
    """
    if x.ndim != 3:
        raise DimensionError(f"batch_norm1d expects rank-3 input, got {x.shape}")
    c = x.shape[2]
    for name, arr in (("gamma", gamma.data), ("beta", beta.data),
                      ("running_mean", running_mean), ("running_var", running_var)):
        if arr.shape != (c,):
            raise DimensionError(f"batch_norm1d {name} shape {arr.shape} does not fit input {x.shape}")
    eps = np.asarray(NORM_EPS, dtype=x.data.dtype)
    if training:
        n = x.shape[0] * x.shape[1]
        if n < 2:
            raise DimensionError("batch_norm1d training mode needs more than one (batch, time) sample")
        mu = x.data.mean(axis=(0, 1))
        xhat = x.data - mu  # centred, then scaled in place
        out = np.multiply(xhat, xhat)  # the squares for the variance, then the output
        var = out.mean(axis=(0, 1))
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv
        new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mu
        new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var * (n / (n - 1))
    else:
        inv = 1.0 / np.sqrt(running_var + eps)
        xhat = x.data - running_mean
        xhat *= inv
        out = None
        new_mean, new_var = running_mean, running_var
    out = _affine(xhat, gamma.data, beta.data, out=out)

    def bwd(g):
        tmp = np.multiply(g, xhat)
        accumulate_grad(gamma, tmp.sum(axis=(0, 1)), owned=True)
        accumulate_grad(beta, g.sum(axis=(0, 1)), owned=True)
        if not x.requires_grad:
            return
        if training:
            gx = _norm_input_grad(g, gamma.data, xhat, inv, (0, 1), tmp)
        else:
            gx = np.multiply(g, gamma.data)
            gx *= inv
        accumulate_grad(x, gx, owned=True)

    return track(out, (x, gamma, beta), bwd), new_mean, new_var


def rel_position_bias(table: Tensor, t: int) -> Tensor:
    """Expand a per-head table indexed by clipped signed distance to (H, T, T).

    table has shape (heads, 2*D+1); entry [h, clip(q-k, -D, D) + D] is added
    to the attention logit for query frame q and key frame k.
    """
    if table.ndim != 2 or table.shape[1] % 2 == 0:
        raise DimensionError(f"relative bias table must be (heads, 2*D+1), got {table.shape}")
    idx = _rel_index(t, (table.shape[1] - 1) // 2)
    out = table.data[:, idx]

    def bwd(g):
        gt = np.zeros_like(table.data)
        heads = table.shape[0]
        hidx = np.arange(heads)[:, None, None]
        np.add.at(gt, (hidx, idx[None, :, :]), g)
        accumulate_grad(table, gt, owned=True)

    return track(out, (table,), bwd)
