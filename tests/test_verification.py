"""Smoke tests for the finite-difference verification suite.

The full ten-seed run is exercised by the acceptance tests; here we run
two seeds to keep the default test loop fast while still covering the
reporting surface, and check that every tensor a case lists is one its
function reads, and that the tensors the suite leaves out have zero
gradient.
"""

import numpy as np
import pytest

from shiftseq.blocks import ModelConfig, build_model
from shiftseq import verification
from shiftseq.errors import UsageError
from shiftseq.tensor_autograd import (
    Tensor,
    backward,
    grad_check,
    mhsa,
    mul,
    named_tensors,
    sum_all,
)
from shiftseq.verification import (
    TOL_COMPOSED,
    TOL_ELEMENTWISE,
    TOL_SHIFT,
    _attention_params,
    _suite_cases,
    _t,
    run_grad_suite,
)


def _seed_rng(seed):
    # the generator run_grad_suite draws seed `seed`'s case tensors from
    return np.random.default_rng((seed + 1) * 7919)


def _backward_through(out, seed):
    r = np.random.default_rng(seed).standard_normal(out.shape)
    backward(sum_all(mul(out, Tensor(r))))


@pytest.fixture(scope="module")
def report():
    return run_grad_suite(num_seeds=2)


def test_suite_passes(report):
    assert report.passed
    for entry in report.entries:
        assert entry.passed, f"{entry.name}: {entry.max_rel_err} > {entry.tol}"


def test_suite_covers_ops_and_blocks(report):
    names = [e.name for e in report.entries]
    assert len(names) == len(set(names))
    ops = [n for n in names if n.startswith("op.")]
    blocks = [n for n in names if n.startswith("block.")]
    assert len(ops) + len(blocks) == len(names)
    assert len(ops) >= 25
    assert len(blocks) >= 8
    for required in ("op.temporal_shift_uni", "op.temporal_shift_bi",
                     "block.shiftformer", "block.conv_shift_in_place",
                     "block.lstm_shift_residual"):
        assert required in names


def test_tolerance_tiers(report):
    by_name = {e.name: e for e in report.entries}
    assert by_name["op.sigmoid"].tol == TOL_ELEMENTWISE
    assert by_name["op.temporal_shift_uni"].tol == TOL_SHIFT
    assert by_name["block.shiftformer"].tol == TOL_COMPOSED


def test_format_lines(report):
    lines = report.format().splitlines()
    assert lines[-1] == f"{len(report.entries)} checks x 2 seeds: all passed"
    for line in lines[:-1]:
        assert line.startswith("PASS ")
        assert "max_rel_err=" in line and "tol=" in line


def test_errors_are_finite_and_small(report):
    for entry in report.entries:
        assert 0.0 <= entry.max_rel_err < entry.tol


def test_seed_count_validation(monkeypatch):
    for bad in (0, True, 1.0):
        with pytest.raises(UsageError, match="num_seeds"):
            run_grad_suite(num_seeds=bad)
    # a NumPy integer is a seed count; one cheap case keeps this quick
    monkeypatch.setattr(verification, "_suite_cases", lambda: _suite_cases()[:1])
    report = run_grad_suite(num_seeds=np.int64(1))
    assert report.num_seeds == 1 and len(report.entries) == 1


@pytest.mark.parametrize("name,case", [(name, case) for name, _, case in _suite_cases()],
                         ids=[name for name, _, _ in _suite_cases()])
def test_every_listed_tensor_gets_a_gradient(name, case):
    # a tensor f never reads would be checked vacuously: 0 against 0;
    # grad_check leaves each input holding the analytic gradient it checked
    f, inputs = case(_seed_rng(0), 0)
    grad_check(f, inputs, step=1e-4, seed=0)
    for i, t in enumerate(inputs):
        assert t.grad is not None and np.any(t.grad != 0), f"{name}: input {i} {t!r}"


def _zero_grad_ratio(left_out, others):
    return np.abs(left_out.grad).max() / max(np.abs(p.grad).max() for p in others)


@pytest.mark.parametrize("seed", range(10))
def test_left_out_tensors_have_zero_gradient(seed):
    """The suite leaves out mhsa's `bk` and the pooling block's `norm1.beta`."""
    rng = _seed_rng(seed)
    params = _attention_params(rng, 6)
    x = _t(rng, 2, 5, 6)
    _backward_through(mhsa(x, params), seed)
    named = dict(named_tensors(params))
    assert _zero_grad_ratio(named.pop("bk"), named.values()) <= 1e-12

    # the configs of block.transformer_attention and block.transformer_pooling
    for left_out, kw in (("attn.bk", dict(heads=2, clip_dist=4)),
                         ("norm1.beta", dict(mixer="pooling"))):
        cfg = ModelConfig(family="transformer", channels=(8, 16, 8), blocks=1,
                          num_input_layers=1, **kw)
        block = build_model(cfg, seed=seed, dtype=np.float64).blocks[0]
        x = _t(_seed_rng(seed), 2, 5, 8)
        _backward_through(block.forward(x), seed)
        named = dict(named_tensors(block))
        assert _zero_grad_ratio(named.pop(left_out), named.values()) <= 1e-12, left_out


@pytest.mark.parametrize("name", [name for name, _, _ in _suite_cases()
                                  if name.endswith("_shift_in_place")])
def test_in_place_block_cases_run_the_trunk_shift(name, monkeypatch):
    """An in-place case checks the gradient through the shift, not the bare block."""
    def x_grad():
        case = dict((n, c) for n, _, c in _suite_cases())[name]
        f, inputs = case(_seed_rng(0), 0)
        _backward_through(f(*inputs), 0)
        return inputs[0].grad

    shifted = x_grad()
    monkeypatch.setattr(verification, "temporal_shift", lambda x, shift: x)
    unshifted = x_grad()
    assert not np.allclose(shifted, unshifted), name
