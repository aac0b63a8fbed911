"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap numpy arrays of rank <= 4 in float32 or float64. Differentiable
operations record their parents and a backward closure on the tensor they
produce; :func:`backward` replays that record once in reverse topological
order (the tape), accumulating gradients into every tensor that requires
them. It severs each node as the walk reaches it, and the rest if a
closure raises, so intermediate buffers are freed early and every
backward closure runs at most once: a closure may overwrite the buffers
it saved.

Gradient buffers are owned. An op that hands :func:`accumulate_grad` an
array it has just allocated, and that nothing else references, marks it
`owned` and it becomes `.grad` as is; any other array is copied on first
use. Later uses add in place, so `.grad` keeps its identity across
accumulations, and across backward calls until `train.Optimizer.zero_grad`.

Inside :func:`no_grad` nothing is recorded: ops return plain tensors with
no parents, so a forward-only pass (evaluation, finite differences) keeps
no closures or saved buffers alive and its values are unchanged.

Step buffers are recycled. The ops take their large outputs, scratch and
gradient buffers (64 KiB to 4 MiB) from a private pool of free lists keyed
by exact (shape, dtype), and write into them with ``out=``, so every
value is bit-identical to a fresh allocation. An array is handed out
again only once the pool holds its only reference: a tensor's data, a
view, a saved buffer or a `.grad` keeps it out of reuse. The pool keeps
a training step's buffers from one step to the next, so the allocator
never returns their pages to the system and a steady-state step touches
no fresh memory. It never grows inside :func:`no_grad`, and the first
request for a shape it does not hold releases every idle buffer. At the
end of each :func:`backward` it forgets the shapes that step did not ask
for, so a length that comes back later counts as new again: varying
lengths, in training or evaluation, hold at most one length's set idle.

This module holds the primitive ops plus the finite-difference checker;
fused network operations (convolutions, normalizations, attention, ...)
live in :mod:`shiftseq.tensor_autograd.ops`.
"""

from __future__ import annotations

import contextlib
import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionError, UsageError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_MAX_RANK = 4


class _GradMode(threading.local):
    enabled = True  # per thread, so a no_grad block in one thread leaves the others recording


_grad_mode = _GradMode()


# ---------------------------------------------------------------------------
# step buffers
# ---------------------------------------------------------------------------

_POOL_MIN_BYTES = 64 * 1024  # smaller arrays come from the allocator's free lists anyway
# Larger arrays (the paper shape's (8, 100, 3072) activations) are left to
# the allocator: pooling them measured no faster at the paper shape and
# kept 10-18 MB more resident, idle while another model's step ran.
_POOL_MAX_BYTES = 4 * 1024 * 1024
_pool: dict[tuple, list[np.ndarray]] = {}  # each (shape, dtype) in use -> its buffers, busy or idle
_requested: set[tuple] = set()  # the keys of `_pool` asked for since the last backward
_pool_lock = threading.Lock()


def _refs(bufs: list, i: int) -> int:
    """The reference count of `bufs[i]`, as seen from here."""
    return sys.getrefcount(bufs[i])


# what `_refs` reads for an array that only its list holds
_IDLE_REFS = _refs([np.empty(0)], 0)


def _drop_idle(bufs: list) -> None:
    bufs[:] = [bufs[i] for i in range(len(bufs)) if _refs(bufs, i) != _IDLE_REFS]


def _release_idle() -> None:
    for bufs in _pool.values():
        _drop_idle(bufs)


def _end_step() -> None:
    """Forget the shapes the step just ended did not ask for.

    Their idle buffers are released and, once none is busy, the shape
    itself, so that a later request for it counts as a new shape again.
    """
    with _pool_lock:
        for key in [key for key in _pool if key not in _requested]:
            _drop_idle(_pool[key])
            if not _pool[key]:
                del _pool[key]
        _requested.clear()


def _empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised C-ordered array, recycled from the pool when it can be.

    An idle pool buffer of exactly this shape and dtype is handed out
    again; otherwise a fresh array is made and, while grad mode is on,
    kept in the pool. A shape the pool does not hold first releases
    every idle buffer.
    """
    dtype = np.dtype(dtype)
    if not _POOL_MIN_BYTES <= math.prod(shape) * dtype.itemsize <= _POOL_MAX_BYTES:
        return np.empty(shape, dtype)
    key = (tuple(shape), dtype)
    with _pool_lock:
        bufs = _pool.get(key)
        if bufs is None:
            # a new shape mostly means a new batch length: free the last length's idle set
            # now, not at the step's end, or this step's peak holds both. 40 training steps
            # on 20-200-frame batches peaked at 150.4 MB ru_maxrss with this, 188.9 without
            _release_idle()
            if not _grad_mode.enabled:
                return np.empty(shape, dtype)
            bufs = _pool[key] = []
        _requested.add(key)
        for i in range(len(bufs)):
            if _refs(bufs, i) == _IDLE_REFS:
                return bufs[i]
        arr = np.empty(shape, dtype)
        if _grad_mode.enabled:
            bufs.append(arr)
        return arr


def _zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zero-filled (+0.0) step buffer."""
    out = _empty(shape, dtype)
    out.fill(0.0)
    return out


def _copy(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of `a` in a step buffer."""
    out = _empty(a.shape, a.dtype)
    np.copyto(out, a)
    return out


def _as_array(data, dtype) -> np.ndarray:
    """`data` as a float32 or float64 array: `dtype` if given, else its own
    float dtype, else float32. Data that is not bool, integer or real float
    (complex, object, text, dates), or another `dtype`, raises DimensionError."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "biuf":
        raise DimensionError(f"a tensor holds real numbers, got {arr.dtype} data")
    if dtype is None:
        dtype = arr.dtype if arr.dtype in _FLOAT_DTYPES else np.float32
    elif np.dtype(dtype) not in _FLOAT_DTYPES:
        raise DimensionError(f"a tensor holds float32 or float64, got dtype {np.dtype(dtype)}")
    arr = arr.astype(dtype, copy=False)
    if arr.ndim > _MAX_RANK:
        raise DimensionError(f"rank-{arr.ndim} array exceeds the supported maximum rank {_MAX_RANK}")
    return arr


class Tensor:
    """A dense float array plus optional gradient bookkeeping.

    `data` is the raw numpy payload; `grad` (same shape) is populated by
    :func:`backward` when `requires_grad` is set. Activation tensors carry
    (batch, time, channel) axis semantics by convention.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on a tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def accumulate_grad(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add `g` (shaped like `t`) into `t.grad`. No-op without requires_grad.

    On first use `t.grad` becomes a private copy of `g`, or `g` itself when
    the caller passes ``owned=True``. That promises `g` is a buffer the
    caller has just allocated and nothing else references: not a view of
    the output gradient, not a saved buffer still in use, not a broadcast.
    Later uses add in place into the buffer `t` owns.

    The copy is a recycled step buffer (see the module notes) when one of
    its shape is idle; `.grad` holds it, so it is not handed out again
    until the gradient is dropped. Inside :func:`no_grad` the pool is not
    grown, and a shape it does not hold releases its idle buffers first.
    """
    if not t.requires_grad:
        return
    arr = np.asarray(g, dtype=t.data.dtype)
    if arr.shape != t.data.shape:
        raise DimensionError(f"gradient of shape {arr.shape} for a tensor of shape {t.shape}")
    if t.grad is None:
        t.grad = arr if owned or arr is not g else _copy(arr)  # a cast already copied
    else:
        t.grad += arr


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block; the previous mode returns on exit.

    Blocks nest, the mode is restored when the block raises, and it holds
    for the calling thread only.
    """
    previous, _grad_mode.enabled = _grad_mode.enabled, False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _will_record(parents: tuple[Tensor, ...]) -> bool:
    """Whether :func:`track` will record an op over `parents`: grad mode is
    on and some parent requires grad. An op may ask before its forward, to
    save buffers for its backward only when that backward can run."""
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


def track(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap `out_data` as the result of an op over `parents`.

    This is the extension point for fused ops: `backward_fn(g)` receives the
    output gradient and must call :func:`accumulate_grad` on each parent.
    It runs at most once, so it may overwrite buffers it saved in the
    forward pass; it must not write to `g`, which `out.grad` still holds.
    A buffer it allocates for a parent's gradient can be handed over with
    ``owned=True`` instead of being copied.

    The closure is only recorded when some parent requires grad and grad
    mode is on. Model parameters always require grad, so a forward pass
    outside :func:`no_grad`, eval mode (``training=False``) included,
    records each node and keeps its saved buffers alive until the output
    is dropped.
    """
    out = Tensor(out_data)
    if _will_record(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _check_same_dtype(*tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise DimensionError(f"mixed dtypes in one op: {sorted(d.name for d in dtypes)}")


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss, then drop the tape.

    Gradients sum over every use of a tensor. The walk is iterative so deep
    recurrent graphs do not hit the interpreter recursion limit. Each node
    is severed when the walk reaches it, and every node left is severed if
    a closure raises, so no closure ever runs twice; a second call on the
    same loss does nothing beyond reseeding `loss.grad`. Each call ends a
    step of the buffer pool (see the module notes).
    """
    if loss.data.size != 1:
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    try:
        while topo:
            # sever each node as it is reached: its closure and saved buffers,
            # and (unless the caller holds it) the node itself, are freed for
            # the allocations still to come
            node = topo.pop()
            fn, node._backward, node._parents = node._backward, None, ()
            if fn is not None and node.grad is not None:
                fn(node.grad)
    finally:
        for node in topo:
            node._parents = ()
            node._backward = None
        _end_step()


def unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    out = np.add(a.data, b.data, out=_empty(np.broadcast_shapes(a.shape, b.shape), a.dtype))

    def bwd(g):
        if a.requires_grad:
            accumulate_grad(a, unbroadcast(g, a.shape))
        if b.requires_grad:
            accumulate_grad(b, unbroadcast(g, b.shape))

    return track(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    out = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            accumulate_grad(a, unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            accumulate_grad(b, unbroadcast(g * a.data, b.shape), owned=True)

    return track(out, (a, b), bwd)


def scale(t: Tensor, s: float) -> Tensor:
    s = np.asarray(float(s), dtype=t.data.dtype)
    out = t.data * s

    def bwd(g):
        accumulate_grad(t, g * s, owned=True)

    return track(out, (t,), bwd)


def sum_all(t: Tensor) -> Tensor:
    out = t.data.sum()

    def bwd(g):
        accumulate_grad(t, np.broadcast_to(g, t.shape))

    return track(out, (t,), bwd)


def mean_all(t: Tensor) -> Tensor:
    n = t.data.size
    out = t.data.mean()

    def bwd(g):
        accumulate_grad(t, np.broadcast_to(g / n, t.shape))

    return track(out, (t,), bwd)


def reduce_sum(t: Tensor, axis: int) -> Tensor:
    out = t.data.sum(axis=axis)

    def bwd(g):
        accumulate_grad(t, np.broadcast_to(np.expand_dims(g, axis), t.shape))

    return track(out, (t,), bwd)


def sigmoid(t: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-t.data))

    def bwd(g):
        accumulate_grad(t, g * out * (1.0 - out))

    return track(out, (t,), bwd)


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)

    def bwd(g):
        accumulate_grad(t, g * (1.0 - out * out))

    return track(out, (t,), bwd)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = t.data.reshape(shape)
    if out.ndim > _MAX_RANK:
        raise DimensionError(f"reshape to rank {out.ndim} exceeds maximum rank {_MAX_RANK}")

    def bwd(g):
        accumulate_grad(t, g.reshape(t.shape))

    return track(out, (t,), bwd)


def transpose(t: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = np.argsort(axes)
    out = t.data.transpose(axes)

    def bwd(g):
        accumulate_grad(t, g.transpose(inv))

    return track(out, (t,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the two trailing axes.

    Either both operands share identical leading (batch) axes, or `b` is a
    plain 2-D matrix applied to every batch element of `a`.
    """
    _check_same_dtype(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if b.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul batch axes differ: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            accumulate_grad(a, np.matmul(g, np.swapaxes(b.data, -1, -2)), owned=True)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            if b.ndim == 2 and gb.ndim > 2:
                gb = gb.sum(axis=tuple(range(gb.ndim - 2)))
            accumulate_grad(b, gb, owned=True)

    return track(out, (a, b), bwd)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    _check_same_dtype(*tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + n)
            accumulate_grad(t, g[tuple(index)])
            offset += n

    return track(out, tuple(tensors), bwd)


def select_time(x: Tensor, t: int) -> Tensor:
    """x[:, t, :] for a (batch, time, channel) tensor."""
    if x.ndim != 3:
        raise DimensionError(f"select_time expects rank-3 input, got {x.shape}")
    out = x.data[:, t, :]

    def bwd(g):
        full = np.zeros_like(x.data)
        full[:, t, :] = g
        accumulate_grad(x, full)

    return track(out, (x,), bwd)


def stack_time(frames: list[Tensor]) -> Tensor:
    """Stack per-frame (batch, channel) tensors into (batch, time, channel)."""
    _check_same_dtype(*frames)
    out = np.stack([f.data for f in frames], axis=1)

    def bwd(g):
        for t, f in enumerate(frames):
            accumulate_grad(f, g[:, t, :])

    return track(out, tuple(frames), bwd)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """x[..., start:stop] along the last axis."""
    out = x.data[..., start:stop]

    def bwd(g):
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        accumulate_grad(x, full)

    return track(out, (x,), bwd)


def slice_rows(x: Tensor, n: int) -> Tensor:
    """x[:n] along the first axis."""
    out = x.data[:n]

    def bwd(g):
        full = np.zeros_like(x.data)
        full[:n] = g
        accumulate_grad(x, full, owned=True)

    return track(out, (x,), bwd)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of one analytic-vs-finite-difference comparison."""

    tol: float
    step: float
    per_input: list[float] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max(self.per_input) if self.per_input else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        per = ", ".join(f"{e:.3e}" for e in self.per_input)
        return f"grad_check {verdict}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e}) [{per}]"


def grad_check(f, inputs: list[Tensor], tol: float = 1e-5, step: float = 1e-3,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of `f` against central finite differences.

    `f` is called as ``f(*inputs)`` and may also read inputs through a
    closure: the check differentiates and perturbs the given tensors, not
    copies. It sets `requires_grad` and clears `.grad` on each, leaving its
    analytic gradient there, and restores each element bit for bit after
    its difference. The output is reduced to a scalar through a fixed
    random linear functional so every output coordinate participates. The
    check passes iff the max relative error, with denominator
    max(|analytic|, |numeric|, 1e-8), stays below `tol` for every input.
    Run `f` at float64 for meaningful tolerances. The finite differences
    run under :func:`no_grad`.
    """
    for inp in inputs:
        if not inp.data.flags.c_contiguous:  # reshape(-1) would copy, and perturb the copy
            raise UsageError(f"grad_check perturbs inputs in place; got non-contiguous "
                             f"data of shape {inp.shape}, strides {inp.data.strides}")
    for inp in inputs:
        inp.requires_grad, inp.grad = True, None
    out = f(*inputs)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(out.shape).astype(out.data.dtype)
    backward(sum_all(mul(out, Tensor(r))))

    def objective() -> float:
        with no_grad():
            return float(np.sum(f(*inputs).data * r))

    report = GradCheckReport(tol=tol, step=step)
    for inp in inputs:
        flat = inp.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = objective()
            flat[j] = orig - step
            lo = objective()
            flat[j] = orig
            numeric[j] = (hi - lo) / (2.0 * step)
        a = np.zeros_like(flat) if inp.grad is None else inp.grad.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        rel = np.abs(a - numeric) / denom
        report.per_input.append(float(rel.max()) if rel.size else 0.0)
    return report
