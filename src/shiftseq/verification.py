"""Finite-difference verification suite over every op and block type.

Each case builds a differentiable function plus the tensors to check: an
op's arguments, or an attention, BiLSTM or whole-block input together with
every parameter it reads through a closure, bar the three whose exact
gradient is zero. :func:`grad_check` compares each at 64-bit over several
seeds. Elementwise ops must agree to 1e-5, composed ops and whole blocks
to 1e-4, and the shift, being exact data movement, to 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import ModelConfig, build_model
from .blocks.model import weighted_layer_sum
from .errors import UsageError, as_integer
from .shift import ShiftConfig, temporal_shift
from .tensor_autograd import (
    AttentionParams,
    LstmDirection,
    Tensor,
    add,
    avg_pool_mixer,
    batch_norm1d,
    bilstm,
    concat,
    conv1d_full,
    cross_entropy,
    depthwise_conv1d,
    gelu,
    grad_check,
    layer_norm,
    linear,
    matmul,
    mean_all,
    mean_pool_time,
    mhsa,
    mul,
    named_tensors,
    reduce_sum,
    rel_position_bias,
    sigmoid,
    softmax,
    tanh,
)
from .tensor_autograd.ops import _attention_core

TOL_ELEMENTWISE = 1e-5
TOL_COMPOSED = 1e-4
TOL_SHIFT = 1e-6


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _attention_params(rng, width, heads=2, clip=3):
    def w():
        return _t(rng, width, width)

    def b():
        return _t(rng, width)

    rel = _t(rng, heads, 2 * clip + 1)
    return AttentionParams(wq=w(), bq=b(), wk=w(), bk=b(), wv=w(), bv=b(),
                           wo=w(), bo=b(), rel_table=rel)


def _lstm_direction(rng, c_in, hidden):
    return LstmDirection(w_ih=_t(rng, c_in, 4 * hidden),
                         w_hh=_t(rng, hidden, 4 * hidden),
                         b=_t(rng, 4 * hidden))


def _mhsa_case(lengths=None):
    def build(rng, _seed):
        params = _attention_params(rng, 6)
        x = _t(rng, 2, 5, 6)
        # bk left out: a key bias adds one constant to every logit of a query
        tensors = [t for name, t in named_tensors(params) if name != "bk"]
        return (lambda *_: mhsa(x, params, lengths)), [x, *tensors]
    return build


def _bilstm_case(lengths=None):
    def build(rng, _seed):
        fw = _lstm_direction(rng, 3, 2)
        bw = _lstm_direction(rng, 3, 2)
        x = _t(rng, 2, 4, 3)
        return ((lambda *_: bilstm(x, fw, bw, lengths)),
                [x, fw.w_ih, fw.w_hh, fw.b, bw.w_ih, bw.w_hh, bw.b])
    return build


def _layer_mix_case(rng, _seed):
    """The layer mix of ragged records, 5 and 3 frames; only its weights get a gradient."""
    seqs = [rng.standard_normal((3, 5, 4)), rng.standard_normal((3, 3, 4))]
    return (lambda w: weighted_layer_sum(seqs, w)), [_t(rng, 3)]


# Per mixer, the block parameter left out: its exact gradient is zero, so
# its finite difference reads only roundoff against the 1e-8 floor.
_ZERO_GRADIENT = {
    "attention": "attn.bk",  # a key bias adds one constant to every logit of a query
    "pooling": "norm1.beta",  # pooling minus identity cancels a per-channel constant
}


def _block_case(family, **cfg_kw):
    """A whole preset-shaped block: its input and every parameter, bar `_ZERO_GRADIENT`."""
    def build(rng, seed):
        cfg = ModelConfig(family=family, **cfg_kw)
        model = build_model(cfg, seed=seed, dtype=np.float64)
        block = model.blocks[0]
        x = _t(rng, 2, 5, cfg.channels[0])
        params = [p for name, p in named_tensors(block) if name != _ZERO_GRADIENT.get(cfg.mixer)]
        shift = model.trunk_shift  # in place, the classifier shifts every block input
        return (lambda *_: block.forward(temporal_shift(x, shift) if shift else x)), [x, *params]
    return build


def _suite_cases():
    shift_uni = ShiftConfig(alpha=0.25, direction="unidirectional", placement="residual")
    shift_bi = ShiftConfig(alpha=0.25, direction="bidirectional", placement="residual")
    cases = [
        ("op.add", TOL_ELEMENTWISE,
         lambda rng, _: (add, [_t(rng, 3, 4), _t(rng, 3, 4)])),
        ("op.mul_broadcast", TOL_ELEMENTWISE,
         lambda rng, _: (mul, [_t(rng, 3, 4), _t(rng, 4)])),
        ("op.sigmoid", TOL_ELEMENTWISE,
         lambda rng, _: (sigmoid, [_t(rng, 3, 5)])),
        ("op.tanh", TOL_ELEMENTWISE,
         lambda rng, _: (tanh, [_t(rng, 3, 5)])),
        ("op.gelu", TOL_ELEMENTWISE,
         lambda rng, _: (gelu, [_t(rng, 3, 5)])),
        ("op.softmax", TOL_ELEMENTWISE,
         lambda rng, _: (lambda x: softmax(x, axis=-1), [_t(rng, 3, 6)])),
        ("op.matmul", TOL_ELEMENTWISE,
         lambda rng, _: (matmul, [_t(rng, 2, 3, 4), _t(rng, 4, 5)])),
        ("op.reduce_sum", TOL_ELEMENTWISE,
         lambda rng, _: (lambda x: reduce_sum(x, axis=1), [_t(rng, 3, 4, 2)])),
        ("op.mean_all", TOL_ELEMENTWISE,
         lambda rng, _: (mean_all, [_t(rng, 3, 4)])),
        ("op.concat", TOL_ELEMENTWISE,
         lambda rng, _: (lambda a, b: concat([a, b], axis=1),
                         [_t(rng, 2, 3), _t(rng, 2, 2)])),
        ("op.linear", TOL_ELEMENTWISE,
         lambda rng, _: (linear, [_t(rng, 2, 4, 3), _t(rng, 3, 5), _t(rng, 5)])),
        ("op.depthwise_conv1d", TOL_ELEMENTWISE,
         lambda rng, _: (depthwise_conv1d, [_t(rng, 2, 6, 4), _t(rng, 3, 4), _t(rng, 4)])),
        ("op.depthwise_conv1d_masked", TOL_ELEMENTWISE,
         lambda rng, _: (lambda x, k, b: depthwise_conv1d(x, k, b, np.array([6, 4])),
                         [_t(rng, 2, 6, 4), _t(rng, 3, 4), _t(rng, 4)])),
        ("op.conv1d_full", TOL_ELEMENTWISE,
         lambda rng, _: (conv1d_full, [_t(rng, 2, 6, 3), _t(rng, 3, 3, 4), _t(rng, 4)])),
        ("op.layer_norm", TOL_COMPOSED,
         lambda rng, _: (layer_norm, [_t(rng, 2, 4, 5), _t(rng, 5), _t(rng, 5)])),
        ("op.batch_norm_train", TOL_COMPOSED,
         lambda rng, _: (lambda x, g, b: batch_norm1d(
             x, g, b, np.zeros(4), np.ones(4), training=True)[0],
             [_t(rng, 2, 5, 4), _t(rng, 4), _t(rng, 4)])),
        ("op.batch_norm_eval", TOL_ELEMENTWISE,
         lambda rng, _: (lambda x, g, b: batch_norm1d(
             x, g, b, np.full(4, 0.3), np.full(4, 1.7), training=False)[0],
             [_t(rng, 2, 5, 4), _t(rng, 4), _t(rng, 4)])),
        ("op.rel_position_bias", TOL_ELEMENTWISE,
         lambda rng, _: (lambda tbl: rel_position_bias(tbl, 5), [_t(rng, 2, 7)])),
        ("op.mhsa_relative", TOL_COMPOSED, _mhsa_case()),
        ("op.mhsa_masked", TOL_COMPOSED, _mhsa_case(lengths=np.array([5, 3]))),
        ("op.mhsa_core_masked", TOL_COMPOSED,
         lambda rng, _: (lambda q, k, v, tbl: _attention_core(q, k, v, tbl, np.array([5, 3])),
                         [_t(rng, 2, 5, 6), _t(rng, 2, 5, 6), _t(rng, 2, 5, 6), _t(rng, 2, 7)])),
        ("op.avg_pool_mixer", TOL_ELEMENTWISE,
         lambda rng, _: (avg_pool_mixer, [_t(rng, 2, 6, 4)])),
        ("op.avg_pool_mixer_masked", TOL_ELEMENTWISE,
         lambda rng, _: (lambda x: avg_pool_mixer(x, np.array([6, 4])), [_t(rng, 2, 6, 4)])),
        ("op.bilstm", TOL_COMPOSED, _bilstm_case()),
        ("op.bilstm_masked", TOL_COMPOSED, _bilstm_case(np.array([4, 2]))),
        ("op.mean_pool_time", TOL_ELEMENTWISE,
         lambda rng, _: (lambda x: mean_pool_time(x, np.array([3, 5])),
                         [_t(rng, 2, 5, 4)])),
        ("op.cross_entropy", TOL_ELEMENTWISE,
         lambda rng, _: (lambda z: cross_entropy(z, np.array([0, 2, 1])),
                         [_t(rng, 3, 4)])),
        ("op.weighted_layer_sum", TOL_ELEMENTWISE, _layer_mix_case),
        ("op.temporal_shift_uni", TOL_SHIFT,
         lambda rng, _: (lambda x: temporal_shift(x, shift_uni), [_t(rng, 2, 5, 8)])),
        ("op.temporal_shift_bi", TOL_SHIFT,
         lambda rng, _: (lambda x: temporal_shift(x, shift_bi), [_t(rng, 2, 5, 8)])),
        ("op.temporal_shift_bi_masked", TOL_SHIFT,
         lambda rng, _: (lambda x: temporal_shift(x, shift_bi, np.array([5, 3])),
                         [_t(rng, 2, 5, 8)])),
        ("block.conv_shift_residual", TOL_COMPOSED,
         _block_case("cnn", channels=(16, 32, 16), blocks=1, kernel=7,
                     num_input_layers=1,
                     shift=ShiftConfig(alpha=1.0 / 16.0, direction="unidirectional",
                                       placement="residual"))),
        ("block.conv_shift_in_place", TOL_COMPOSED,
         _block_case("cnn", channels=(8, 16, 8), blocks=1, kernel=3,
                     num_input_layers=1,
                     shift=ShiftConfig(alpha=0.25, placement="in_place"))),
        ("block.shiftformer", TOL_COMPOSED,
         _block_case("transformer", channels=(8, 16, 8), blocks=1, mixer="shift",
                     num_input_layers=1, shift=shift_bi)),
        ("block.transformer_attention", TOL_COMPOSED,
         _block_case("transformer", channels=(8, 16, 8), blocks=1, heads=2,
                     num_input_layers=1, clip_dist=4)),
        ("block.transformer_pooling", TOL_COMPOSED,
         _block_case("transformer", channels=(8, 16, 8), blocks=1, mixer="pooling",
                     num_input_layers=1)),
        ("block.mlp_only", TOL_COMPOSED,
         _block_case("transformer", channels=(8, 16, 8), blocks=1, mixer="none",
                     num_input_layers=1)),
        ("block.lstm_shift_in_place", TOL_COMPOSED,
         _block_case("lstm", channels=(8, 8), blocks=1, num_input_layers=1,
                     shift=ShiftConfig(alpha=0.25, placement="in_place"))),
        ("block.lstm_shift_residual", TOL_COMPOSED,
         _block_case("lstm", channels=(8, 8), blocks=1, num_input_layers=1,
                     shift=ShiftConfig(alpha=0.25, placement="residual"))),
    ]
    return cases


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    tol: float
    max_rel_err: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple
    num_seeds: int

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def format(self) -> str:
        lines = [f"{'PASS' if e.passed else 'FAIL'} {e.name:32s} "
                 f"max_rel_err={e.max_rel_err:.3e} tol={e.tol:.0e}"
                 for e in self.entries]
        verdict = "all passed" if self.passed else "FAILURES PRESENT"
        lines.append(f"{len(self.entries)} checks x {self.num_seeds} seeds: {verdict}")
        return "\n".join(lines)


def run_grad_suite(num_seeds: int = 10) -> SuiteReport:
    """Run every case over `num_seeds` seeds; worst error per case is kept."""
    as_integer(num_seeds, UsageError, "num_seeds must be a positive integer", 1)
    entries = []
    for name, tol, case in _suite_cases():
        worst = 0.0
        for seed in range(num_seeds):
            rng = np.random.default_rng((seed + 1) * 7919)
            f, inputs = case(rng, seed)
            # 1e-4 keeps truncation error (~h^2) below the tightest
            # tolerance while 64-bit roundoff stays near 1e-11
            report = grad_check(f, inputs, tol=tol, step=1e-4, seed=seed)
            worst = max(worst, report.max_rel_err)
        entries.append(SuiteEntry(name=name, tol=tol, max_rel_err=worst,
                                  passed=worst < tol))
    return SuiteReport(entries=tuple(entries), num_seeds=num_seeds)
