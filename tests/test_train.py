"""Optimizer math, schedule, metrics, and the fold-training loop."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import shiftseq
from shiftseq.blocks import ModelConfig, build_model
from shiftseq.data import FeatureSequence, GenConfig, gen_synthetic
from shiftseq.errors import (
    ConfigError,
    DimensionError,
    EmptyInputError,
    TrainingDiverged,
    UsageError,
    check_config_dict,
)
from shiftseq.tensor_autograd import Tensor, no_grad
from shiftseq.train import (
    _CHUNK,
    BETA1,
    BETA2,
    EPS,
    Metrics,
    Optimizer,
    TrainConfig,
    collate,
    compute_metrics,
    cosine_warmup_lr,
    cross_validate,
    evaluate,
    format_curves,
    format_metrics,
    pair_recall_average,
    predict_logits,
    train_fold,
)

LN4 = math.log(4.0)


def tiny_model_cfg(**kw):
    base = dict(family="cnn", channels=(16, 32, 16), blocks=2, kernel=3,
                num_classes=4, num_input_layers=1)
    base.update(kw)
    return ModelConfig(**base)


def tiny_dataset():
    gcfg = GenConfig(channels=16, frames=30, groups=3, per_class_per_group=4,
                     min_gap=6, margin=6, group_b_start=8, group_width=8)
    return gen_synthetic(gcfg, seed=0).records


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mutate", [
    dict(optimizer="sgd"),
    dict(peak_lr=0.0),
    dict(peak_lr=-1e-4),
    dict(weight_decay=-0.1),
    dict(batch_size=0),
    dict(epochs=-1),
    dict(warmup_epochs=-1),
    dict(epochs=5, warmup_epochs=5),
    dict(min_lr_ratio=1.5),
    dict(augment_prob=-0.2),
    dict(seed=-1),
    dict(peak_lr=math.inf),
    dict(peak_lr=math.nan),
    dict(weight_decay=math.inf),
    dict(weight_decay=math.nan),
])
def test_train_config_validation(mutate):
    with pytest.raises(ConfigError):
        TrainConfig(**mutate)


def test_train_config_is_checked_when_replaced():
    with pytest.raises(ConfigError, match="warmup_epochs"):
        dataclasses.replace(TrainConfig(), epochs=5)


def test_train_config_is_frozen():
    cfg = TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.optimizer = "sgd"
    assert cfg == TrainConfig()


def train_config_from_json(raw):
    return TrainConfig(**check_config_dict(raw, TrainConfig, "train"))


def test_train_config_round_trip():
    cfg = TrainConfig(weight_decay=0.0, epochs=7, warmup_epochs=2, augment_prob=0.5)
    assert train_config_from_json(dataclasses.asdict(cfg)) == cfg
    assert train_config_from_json({}) == TrainConfig()
    with pytest.raises(ConfigError, match="momentum"):
        train_config_from_json({"momentum": 0.9})


@pytest.mark.parametrize("raw", [
    {"epochs": "3"}, {"peak_lr": "1e-3"}, {"batch_size": 8.0}, {"seed": True},
    {"augment_prob": None}, {"optimizer": 1},
])
def test_train_config_from_dict_rejects_mistyped_values(raw):
    with pytest.raises(ConfigError, match=next(iter(raw))):
        train_config_from_json(raw)


def test_plain_adam_is_adamw_without_weight_decay():
    """AdamW is the one update, so "adam" is refused with the setting that gives it."""
    for build in (lambda: TrainConfig(optimizer="adam"),
                  lambda: train_config_from_json({"optimizer": "adam", "weight_decay": 0})):
        with pytest.raises(ConfigError, match="weight_decay: 0 gives plain Adam"):
            build()
    assert train_config_from_json({"weight_decay": 0}).optimizer == "adamw"


def test_train_config_from_dict_takes_integers_for_floats():
    assert train_config_from_json({"peak_lr": 1, "weight_decay": 0}).peak_lr == 1


# ---------------------------------------------------------------------------
# adamw, and plain adam at weight_decay 0
# ---------------------------------------------------------------------------

class OneParam:
    """The smallest model an Optimizer binds to: one float64 parameter named w."""

    def __init__(self, values):
        self.w = Tensor(np.array(values, dtype=np.float64), requires_grad=True)

    def named_parameters(self):
        return {"w": self.w}


def adam_on(values, weight_decay=0.0):
    model = OneParam(values)
    return model.w, Optimizer(model, TrainConfig(weight_decay=weight_decay))


def test_adam_zero_gradients_never_move_parameters():
    w, opt = adam_on([1.0, -2.0, 3.0])
    for _ in range(5):
        w.grad = np.zeros(3)
        opt.step(lr=0.1)
    np.testing.assert_array_equal(w.data, [1.0, -2.0, 3.0])


def test_adam_first_step_hand_value():
    w, opt = adam_on([1.0])
    w.grad = np.array([0.5])
    opt.step(lr=0.1)
    # bias correction makes m_hat = g and v_hat = g^2, so the step is lr
    np.testing.assert_allclose(w.data, [0.9], atol=1e-7)


def test_adamw_pure_decay_step():
    w, opt = adam_on([1.0], weight_decay=0.1)
    w.grad = np.array([0.0])
    opt.step(lr=0.1)
    np.testing.assert_allclose(w.data, [0.99], rtol=1e-12)


def adam_reference(theta, grads_by_step, lr, wd=0.0, b1=0.9, b2=0.999, eps=1e-8):
    """Straightforward restatement of the update rule; plain Adam, with no decay term, at wd 0."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads_by_step, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        step = lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        if wd:
            step = step + lr * wd * theta
        theta = theta - step
    return theta


@pytest.mark.parametrize("decays", [False, True])
def test_adam_trajectory_matches_reference(decays):
    rng = np.random.default_rng(0)
    theta0 = rng.standard_normal(7)
    grads = [rng.standard_normal(7) for _ in range(12)]
    wd = 0.1 if decays else 0.0
    w, opt = adam_on(theta0, weight_decay=wd)
    for g in grads:
        w.grad = g
        opt.step(lr=0.05)
    assert opt.t == len(grads)
    expected = adam_reference(theta0, grads, lr=0.05, wd=wd)
    np.testing.assert_allclose(w.data, expected, rtol=1e-12)


def test_adam_steps_a_parameter_without_gradient_as_zero_gradient():
    rng = np.random.default_rng(1)
    theta0 = rng.standard_normal(5)
    grads = [rng.standard_normal(5), None, None]
    w, opt = adam_on(theta0)
    for g in grads:
        w.grad = g
        opt.step(lr=0.05)
    # the first moment carries the momentum on, so the parameter keeps moving
    expected = adam_reference(theta0, [grads[0], np.zeros(5), np.zeros(5)], lr=0.05)
    np.testing.assert_allclose(w.data, expected, rtol=1e-12)
    assert not np.allclose(w.data, adam_reference(theta0, grads[:1], lr=0.05))


def test_adam_step_input_validation():
    w, opt = adam_on(np.zeros(3))
    w.grad = np.ones(4)
    with pytest.raises(DimensionError, match="'w'"):
        opt.step(lr=0.1)
    # a rejected gradient steps nothing: parameter, moments and step count unchanged
    np.testing.assert_array_equal(w.data, np.zeros(3))
    assert opt.t == 0
    w.grad = np.ones(3)
    opt.step(lr=0.1)
    np.testing.assert_allclose(w.data, [-0.1] * 3, atol=1e-7)
    # the update writes through a flat view, which a strided parameter does not have
    model = Params([np.asfortranarray(np.ones((3, 4)))])
    opt = Optimizer(model, TrainConfig())
    with pytest.raises(DimensionError, match="'p0' is not C-contiguous"):
        opt.step(lr=0.1)
    np.testing.assert_array_equal(model.tensors["p0"].data, np.ones((3, 4)))


def test_zero_lr_leaves_parameters_untouched():
    model = build_model(tiny_model_cfg(), seed=0)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    for wd in (0.0, 0.1):
        cfg = TrainConfig(weight_decay=wd, epochs=1, warmup_epochs=0)
        opt = Optimizer(model, cfg)
        for p in model.named_parameters().values():
            p.grad = np.ones_like(p.data)
        opt.step(lr=0.0)
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[name])


# ---------------------------------------------------------------------------
# adamw, bit for bit against the unblocked update
# ---------------------------------------------------------------------------

class Params:
    """A model of the given arrays as parameters p0, p1, ..."""

    def __init__(self, arrays):
        self.tensors = {f"p{i}": Tensor(a, requires_grad=True) for i, a in enumerate(arrays)}

    def named_parameters(self):
        return self.tensors


def adam_step_ref(p, g, m, v, t, lr, weight_decay):
    """The per-parameter update as it stood before the update was blocked.

    At `weight_decay` 0 it is the plain-Adam formula: no decay term is added at all.
    """
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    decay = lr * weight_decay if weight_decay else None
    g = g if g is not None else np.zeros_like(p)
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    update = lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    if decay is not None:
        update += decay * p
    p -= update


def step_against_ref(opt, ref, lr):
    """One Optimizer.step and one reference step; p, m and v must agree bit for bit."""
    grads = {name: p.grad for name, p in opt.params.items()}  # the step consumes them
    opt.step(lr)
    for name, p in opt.params.items():
        rp, rm, rv = ref[name]
        adam_step_ref(rp, grads[name], rm, rv, opt.t, lr, opt.cfg.weight_decay)
        for got, want in ((p.data, rp), (opt.m[name], rm), (opt.v[name], rv)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (name, opt.t)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (name, opt.t)


def ref_state(model):
    return {n: [t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)]
            for n, t in model.named_parameters().items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1], ids=["adam", "adamw"])
def test_adam_step_is_bit_identical_to_the_unblocked_update(dtype, weight_decay):
    """AdamW at weight_decay 0 steps exactly as plain Adam, and at 0.1 as the decoupled formula."""
    rng = np.random.default_rng(3)
    shapes = [(1,), (_CHUNK - 1,), (_CHUNK,), (5, (3 * _CHUNK + 7) // 5)]
    arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
    # a 0-d parameter steps in place, through its flat view
    arrays.append(np.asarray(rng.standard_normal(), dtype=dtype))
    for a in arrays:
        a.reshape(-1)[::4] = -0.0  # the decay term of a -0.0 parameter is -0.0, of a +0.0 one +0.0
        a.reshape(-1)[2::4] = 0.0
    model = Params(arrays)
    opt = Optimizer(model, TrainConfig(weight_decay=weight_decay))
    ref = ref_state(model)
    # -0.0 moments: a step without gradient still adds +0.0, which clears the sign
    for name, (_, rm, rv) in ref.items():
        for state in (opt.m[name], opt.v[name], rm, rv):
            state.reshape(-1)[::3] = -0.0
    for step in range(8):
        for i, p in enumerate(model.tensors.values()):
            if step == 0 or (step == 3 and i % 2 == 0):
                p.grad = None
            else:
                p.grad = rng.standard_normal(p.shape).astype(dtype)
                p.grad.reshape(-1)[::5] = -0.0
        # every third step has lr 0, so the update and the decay term are both signed zeros
        step_against_ref(opt, ref, lr=0.0 if step % 3 == 1 else 1e-3 * (step + 1))


@pytest.mark.parametrize("p_dtype,g_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
def test_adam_step_rejects_a_gradient_of_another_dtype(p_dtype, g_dtype):
    # only a directly set .grad can differ: accumulate_grad casts to the tensor's dtype
    rng = np.random.default_rng(4)
    model = Params([rng.standard_normal(s).astype(p_dtype) for s in [(3,), (_CHUNK + 3,)]])
    opt = Optimizer(model, TrainConfig(optimizer="adamw", weight_decay=0.1))
    ref = ref_state(model)
    model.tensors["p0"].grad = rng.standard_normal(3).astype(p_dtype)
    model.tensors["p1"].grad = rng.standard_normal(_CHUNK + 3).astype(g_dtype)
    with pytest.raises(DimensionError, match="'p1'"):
        opt.step(1e-3)
    assert opt.t == 0
    for name, p in model.tensors.items():
        assert np.array_equal(p.data, ref[name][0]) and not opt.m[name].any()


def test_adam_step_allocates_under_a_quarter_of_a_parameter():
    n = 1 << 20
    model = Params([np.ones(n, np.float32), np.ones(n, np.float32)])
    opt = Optimizer(model, TrainConfig(optimizer="adamw", weight_decay=0.1))
    model.tensors["p0"].grad = np.full(n, 0.5, np.float32)  # p1 steps without a gradient
    tracemalloc.start()
    try:
        opt.step(1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.tensors["p0"].data.nbytes / 4
    assert opt.v["p1"].max() == 0.0 and opt.m["p0"].min() > 0.0


@pytest.mark.parametrize("fault", ["shape", "dtype", "strided"])
def test_a_rejected_step_keeps_every_gradient_and_parameter(fault):
    rng = np.random.default_rng(6)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in [(3,), (_CHUNK + 3,), (4, 5)]]
    if fault == "strided":
        arrays[2] = np.asfortranarray(arrays[2])
    model = Params(arrays)
    opt = Optimizer(model, TrainConfig(optimizer="adamw", weight_decay=0.1))
    ref = ref_state(model)
    for p in model.tensors.values():
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
    if fault == "shape":
        model.tensors["p2"].grad = model.tensors["p2"].grad.reshape(5, 4)
    elif fault == "dtype":
        model.tensors["p2"].grad = model.tensors["p2"].grad.astype(np.float64)
    grads = {name: (p.grad, p.grad.copy()) for name, p in model.tensors.items()}
    with pytest.raises(DimensionError, match="'p2'"):
        opt.step(1e-3)
    assert opt.t == 0
    for name, p in model.tensors.items():
        kept, values = grads[name]
        assert p.grad is kept and np.array_equal(p.grad, values), name
        assert np.array_equal(p.data, ref[name][0]) and not opt.m[name].any(), name


def test_a_model_holds_no_gradient_while_another_steps():
    """Two models stepped in turn: the peak of B's step holds B's gradients,
    and none of A's, which A's own step released."""
    n = 1 << 20
    a = Params([np.ones(n, np.float32), np.ones(n, np.float32)])
    b = Params([np.ones(n // 8, np.float32)])
    opts = [Optimizer(m, TrainConfig(optimizer="adamw", weight_decay=0.1)) for m in (a, b)]
    tracemalloc.start()
    try:
        for model, opt in zip((a, b), opts):
            for p in model.tensors.values():
                p.grad = np.full(p.shape, 0.5, np.float32)
            tracemalloc.reset_peak()
            opt.step(1e-3)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    b_grad = b.tensors["p0"].data.nbytes
    assert peak < 2 * b_grad < a.tensors["p0"].data.nbytes
    assert current < b_grad / 4


# prints, per preset at paper width, hashes of the eval logits and of the
# parameters after one train step
BLAS_PROBE = """
import hashlib
import numpy as np
import shiftseq as ss
from shiftseq.tensor_autograd import Tensor, backward
from shiftseq.train import Optimizer, TrainConfig, collate, predict_logits

rng = np.random.default_rng(0)
records = [ss.FeatureSequence(label=i % 4, group=0,
                              data=rng.standard_normal((3, 40, 768), dtype=np.float32))
           for i in range(4)]
for preset in ("shiftcnn", "transformer", "shiftlstm"):
    model = ss.build_model(ss.preset_config(preset, width=768, num_classes=4,
                                            num_input_layers=3), seed=0)
    logits, _ = predict_logits(model, records, 4)
    feats, lengths, labels = collate(records)
    loss, _ = model.loss(Tensor(feats), labels, lengths=lengths, training=True)
    backward(loss)
    Optimizer(model, TrainConfig()).step(5e-4)
    params = hashlib.sha256()
    for p in model.named_parameters().values():
        params.update(p.data.tobytes())
    print(preset, hashlib.sha256(logits.tobytes()).hexdigest(), params.hexdigest())
"""


def test_logits_and_a_train_step_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftseq.__file__)))
    outputs = []
    for threads in ("1", "2"):  # numpy's OpenBLAS reads this when it loads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


# runs synthetic-shape train steps (batch 32, 50 frames, 64 channels, one
# input layer) of one preset and prints each step's minor page faults
FAULT_PROBE = """
import resource, sys
import numpy as np
import shiftseq as ss
from shiftseq.tensor_autograd import Tensor, backward
from shiftseq.train import Optimizer, TrainConfig, collate

rng = np.random.default_rng(0)
records = [ss.FeatureSequence(label=i % 4, group=0,
                              data=rng.standard_normal((1, 50, 64), dtype=np.float32))
           for i in range(64)]
model = ss.build_model(ss.preset_config(sys.argv[1], width=64, num_classes=4,
                                        num_input_layers=1), seed=0)
opt = Optimizer(model, TrainConfig(batch_size=32))
for step in range(30):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    feats, lengths, labels = collate(records[step % 2 * 32:][:32])
    loss, _ = model.loss(Tensor(feats), labels, lengths=lengths, training=True)
    opt.zero_grad()
    backward(loss)
    opt.step(5e-4)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
# a tenth of the ~6,000 minor faults a step took when each step's buffers
# were allocated afresh and their pages returned to the system in between
FAULTS_PER_STEP = 600


@pytest.mark.parametrize("preset", ["shiftcnn", "shiftformer"])
def test_steady_state_train_steps_fault_in_little_fresh_memory(preset):
    """A fresh process, so that the objects of earlier tests cannot keep the
    heap from shrinking between steps and hide the faults."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftseq.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, preset], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 30
    assert max(faults[10:]) <= FAULTS_PER_STEP, faults


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_endpoints_and_midpoint():
    peak = 5e-4
    assert cosine_warmup_lr(0, 100, 10, peak) == 0.0
    assert cosine_warmup_lr(10, 100, 10, peak) == peak
    mid = (10 + 100) // 2
    lr = cosine_warmup_lr(mid, 100, 10, peak, min_ratio=0.2)
    assert lr == pytest.approx(peak * (0.2 + 0.8 * 0.5))
    assert cosine_warmup_lr(mid, 100, 10, peak) == pytest.approx(peak / 2)


def test_schedule_is_continuous_at_junction():
    peak = 1.0
    before = cosine_warmup_lr(9, 100, 10, peak)
    at = cosine_warmup_lr(10, 100, 10, peak)
    after = cosine_warmup_lr(11, 100, 10, peak)
    assert before == pytest.approx(0.9)
    assert at == peak
    assert peak > after > 0.99 * peak


def test_schedule_decays_to_floor():
    values = [cosine_warmup_lr(s, 50, 5, 1.0, min_ratio=0.1) for s in range(5, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] >= 0.1
    assert cosine_warmup_lr(50, 50, 5, 1.0, min_ratio=0.1) == pytest.approx(0.1)
    assert cosine_warmup_lr(1000, 50, 5, 1.0, min_ratio=0.1) == pytest.approx(0.1)


def test_schedule_without_warmup_starts_at_peak():
    assert cosine_warmup_lr(0, 10, 0, 1.0) == 1.0


def test_schedule_argument_validation():
    with pytest.raises(UsageError):
        cosine_warmup_lr(0, 0, 0, 1.0)
    with pytest.raises(UsageError):
        cosine_warmup_lr(0, 10, 10, 1.0)
    with pytest.raises(UsageError):
        cosine_warmup_lr(-1, 10, 2, 1.0)
    with pytest.raises(UsageError):
        cosine_warmup_lr(0, 10, 2, 1.0, min_ratio=2.0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_perfect_diagonal():
    m = compute_metrics(np.diag([5, 3, 9]))
    assert m.ua == 1.0 and m.wa == 1.0


def test_metrics_worked_example():
    # class a: 10 of 20 correct; class b: 30 of 30
    m = compute_metrics(np.array([[10, 10], [0, 30]]))
    assert m.wa == pytest.approx(0.8)
    assert m.ua == pytest.approx(0.75)


def test_metrics_exclude_zero_support_classes():
    m = compute_metrics(np.array([[4, 0, 0], [0, 0, 0], [2, 0, 2]]))
    assert m.ua == pytest.approx((1.0 + 0.5) / 2)


def test_metrics_empty_matrix():
    m = compute_metrics(np.zeros((3, 3), dtype=int))
    assert m.ua == 0.0 and m.wa == 0.0


def metrics_reference(confusion):
    """Independent per-element recomputation."""
    k = len(confusion)
    correct = sum(confusion[i][i] for i in range(k))
    total = sum(sum(row) for row in confusion)
    recalls = []
    for i in range(k):
        support = sum(confusion[i])
        if support:
            recalls.append(confusion[i][i] / support)
    return sum(recalls) / len(recalls), correct / total


def test_metrics_match_independent_recomputation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        confusion = rng.integers(0, 30, (k, k))
        confusion[rng.integers(k)] *= int(rng.integers(0, 2))  # sometimes a dead class
        if confusion.sum() == 0:
            continue
        m = compute_metrics(confusion)
        ua, wa = metrics_reference(confusion.tolist())
        assert m.ua == pytest.approx(ua)
        assert m.wa == pytest.approx(wa)
        assert 0.0 <= m.ua <= 1.0 and 0.0 <= m.wa <= 1.0


def test_ua_equals_wa_for_balanced_supports_and_recalls():
    m = compute_metrics(np.array([[8, 2], [2, 8]]))
    assert m.ua == pytest.approx(m.wa)


def test_metrics_input_validation():
    with pytest.raises(DimensionError):
        compute_metrics(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        compute_metrics(np.array([[1, -1], [0, 1]]))


def test_pair_recall_average_forced_choice():
    logits = np.array([
        [2.0, 1.0, 9.0, 0.0],   # true 0, pair-choice picks 0 despite class-2 spike
        [0.0, 1.0, 9.0, 0.0],   # true 0, pair-choice picks 1 (miss)
        [0.0, 3.0, 0.0, 0.0],   # true 1, hit
        [5.0, 3.0, 0.0, 0.0],   # true 1, miss
        [9.0, 0.0, 0.0, 0.0],   # true 2, ignored
    ])
    labels = np.array([0, 0, 1, 1, 2])
    assert pair_recall_average(logits, labels) == pytest.approx(0.5)
    with pytest.raises(EmptyInputError):
        pair_recall_average(logits, np.full(5, 3), pair=(0, 1))
    # lists are read as arrays, not compared whole with each class
    assert pair_recall_average(logits.tolist(), labels.tolist()) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# batching and evaluation
# ---------------------------------------------------------------------------

def test_collate_pads_and_masks():
    rng = np.random.default_rng(0)
    records = [FeatureSequence(1, 0, rng.standard_normal((2, 4, 3)).astype(np.float32)),
               FeatureSequence(2, 0, rng.standard_normal((2, 7, 3)).astype(np.float32))]
    feats, lengths, labels = collate(records)
    assert feats.shape == (2, 2, 7, 3)
    np.testing.assert_array_equal(lengths, [4, 7])
    np.testing.assert_array_equal(labels, [1, 2])
    np.testing.assert_array_equal(feats[0, :, :4], records[0].data)
    assert np.all(feats[0, :, 4:] == 0.0)


def test_collate_rejects_mismatched_records():
    a = FeatureSequence(0, 0, np.zeros((1, 4, 3), dtype=np.float32))
    b = FeatureSequence(0, 0, np.zeros((2, 4, 3), dtype=np.float32))
    c = FeatureSequence(0, 0, np.zeros((1, 4, 5), dtype=np.float32))
    with pytest.raises(DimensionError):
        collate([a, b])
    with pytest.raises(DimensionError):
        collate([a, c])
    with pytest.raises(EmptyInputError):
        collate([])


def test_predict_logits_matches_manual_forward():
    records = tiny_dataset()[:10]
    model = build_model(tiny_model_cfg(), seed=0)
    logits, labels = predict_logits(model, records, batch_size=4)
    assert logits.shape == (10, 4)
    np.testing.assert_array_equal(labels, [r.label for r in records])
    feats, lengths, _ = collate(records)
    expected = model.forward(Tensor(feats), lengths=lengths).data
    np.testing.assert_allclose(logits, expected, atol=1e-5)


def shuffled_length_records(lengths=(12, 5, 30, 5, 21, 8, 30, 3, 17)):
    rng = np.random.default_rng(3)
    return [FeatureSequence(i % 4, 0, rng.standard_normal((1, t, 16)).astype(np.float32))
            for i, t in enumerate(lengths)]


def test_predict_logits_returns_rows_in_input_order():
    records = shuffled_length_records()
    model = build_model(tiny_model_cfg(), seed=0)
    logits, labels = predict_logits(model, records, batch_size=4)
    np.testing.assert_array_equal(labels, [r.label for r in records])
    for i, rec in enumerate(records):
        feats, lengths, _ = collate([rec])
        with no_grad():
            own = model.forward(Tensor(feats), lengths=lengths).data[0]
        np.testing.assert_allclose(logits[i], own, rtol=0, atol=1e-6)


def test_predict_logits_batches_contiguous_runs_of_the_length_order(monkeypatch):
    records = shuffled_length_records()
    model = build_model(tiny_model_cfg(), seed=0)
    batches = []
    predict = model.predict

    def recording_predict(batch):
        batches.append([next(i for i, r in enumerate(records) if r is rec) for rec in batch])
        return predict(batch)

    monkeypatch.setattr(model, "predict", recording_predict)
    predict_logits(model, records, batch_size=4)
    order = sorted(range(len(records)), key=lambda i: records[i].data.shape[1])  # stable
    assert batches == [order[:4], order[4:8], order[8:]]


def test_equal_length_records_keep_input_order_batches_and_bits():
    records = tiny_dataset()[:10]
    model = build_model(tiny_model_cfg(), seed=0)
    logits, _ = predict_logits(model, records, batch_size=4)
    chunks = []
    for start in range(0, len(records), 4):
        feats, lengths, _ = collate(records[start:start + 4])
        with no_grad():
            chunks.append(model.forward(Tensor(feats), lengths=lengths).data)
    np.testing.assert_array_equal(logits, np.concatenate(chunks))


def test_evaluate_counts_rows_as_true_classes():
    records = tiny_dataset()[:12]
    model = build_model(tiny_model_cfg(), seed=0)
    metrics = evaluate(model, records, batch_size=5)
    assert metrics.confusion.sum() == 12
    labels = np.array([r.label for r in records])
    for cls in range(4):
        assert metrics.confusion[cls].sum() == np.sum(labels == cls)


def test_evaluate_rejects_labels_beyond_the_model_classes(monkeypatch):
    records = tiny_dataset()
    model = build_model(tiny_model_cfg(num_classes=3), seed=0)
    assert max(r.label for r in records) == 3

    def no_forward(*args, **kwargs):
        raise AssertionError("evaluate ran a forward before checking labels")

    monkeypatch.setattr(model, "forward", no_forward)
    monkeypatch.setattr(model, "predict", no_forward)
    with pytest.raises(DimensionError, match=r"\[3\]"):
        evaluate(model, records)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_predict_logits_rejects_batch_size_below_one(batch_size):
    model, records = build_model(tiny_model_cfg(), seed=0), tiny_dataset()[:3]
    with pytest.raises(UsageError, match="batch_size"):
        predict_logits(model, records, batch_size)
    with pytest.raises(UsageError, match="batch_size"):
        evaluate(model, records, batch_size)



@pytest.mark.parametrize("batch_size", [2.5, 2.0, True])
def test_predict_logits_rejects_a_batch_size_that_is_not_an_integer(batch_size):
    """A float is not a batch size, nor a bool a batch of one."""
    model, records = build_model(tiny_model_cfg(), seed=0), tiny_dataset()[:3]
    with pytest.raises(UsageError, match="batch_size must be an integer"):
        predict_logits(model, records, batch_size)
    with pytest.raises(UsageError, match="batch_size must be an integer"):
        evaluate(model, records, batch_size)


@pytest.mark.parametrize("batch_size", [np.int64(2), np.int32(2)])
def test_predict_logits_takes_a_numpy_integer_batch_size(batch_size):
    model, records = build_model(tiny_model_cfg(), seed=0), tiny_dataset()[:3]
    np.testing.assert_array_equal(predict_logits(model, records, batch_size)[0],
                                  predict_logits(model, records, 2)[0])

# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_initial_model_metrics():
    records = tiny_dataset()
    cfg = TrainConfig(epochs=0, warmup_epochs=0, seed=3)
    result = train_fold(tiny_model_cfg(), cfg, records[:24], records[24:36])
    fresh = build_model(tiny_model_cfg(), seed=3)
    expected = evaluate(fresh, records[24:36], cfg.batch_size)
    np.testing.assert_array_equal(result.metrics.confusion, expected.confusion)
    assert math.isnan(result.final_loss)


def test_training_is_deterministic():
    records = tiny_dataset()
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=16, seed=5,
                      augment_prob=0.5)
    runs = [train_fold(tiny_model_cfg(), cfg, records[:32], records[32:40], fold=1)
            for _ in range(2)]
    a, b = runs
    assert a.final_loss == b.final_loss
    np.testing.assert_array_equal(a.metrics.confusion, b.metrics.confusion)
    pa, pb = a.model.named_parameters(), b.model.named_parameters()
    for name in pa:
        np.testing.assert_array_equal(pa[name].data, pb[name].data)


def test_training_reduces_loss_below_chance_level():
    records = tiny_dataset()
    cfg = TrainConfig(epochs=12, warmup_epochs=2, batch_size=16, peak_lr=3e-3, seed=0)
    result = train_fold(tiny_model_cfg(), cfg, records, records)
    assert result.final_loss < LN4


def test_augmentation_changes_the_trajectory():
    records = tiny_dataset()[:16]
    base = TrainConfig(epochs=1, warmup_epochs=0, batch_size=8, seed=2)
    augmented = TrainConfig(epochs=1, warmup_epochs=0, batch_size=8, seed=2,
                            augment_prob=1.0)
    r0 = train_fold(tiny_model_cfg(), base, records, records)
    r1 = train_fold(tiny_model_cfg(), augmented, records, records)
    p0, p1 = r0.model.named_parameters(), r1.model.named_parameters()
    assert any(not np.array_equal(p0[n].data, p1[n].data) for n in p0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_step_in_message():
    records = tiny_dataset()[:8]
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=4, peak_lr=1e8, seed=0)
    with pytest.raises(TrainingDiverged, match="step"):
        train_fold(tiny_model_cfg(), cfg, records, records)


def test_train_fold_rejects_empty_training_set():
    with pytest.raises(EmptyInputError):
        train_fold(tiny_model_cfg(), TrainConfig(epochs=1, warmup_epochs=0), [],
                   tiny_dataset()[:4])


@pytest.mark.parametrize("held_out,error", [
    ([], EmptyInputError),
    ([FeatureSequence(label=4, group=0, data=np.zeros((1, 5, 16), np.float32))], DimensionError),
], ids=["empty", "label-out-of-range"])
def test_train_fold_checks_held_out_records_before_any_step(monkeypatch, held_out, error):
    def no_step(*_):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(Optimizer, "step", no_step)
    cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=4)
    with pytest.raises(error):
        train_fold(tiny_model_cfg(), cfg, tiny_dataset()[:4], held_out)


def test_curves_follow_the_schedule():
    records = tiny_dataset()[:32]
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=16, seed=0)
    result = train_fold(tiny_model_cfg(), cfg, records, records, keep_curve=True)
    assert len(result.curve) == 4  # 2 steps/epoch * 2 epochs
    for step, lr, loss in result.curve:
        assert lr == cosine_warmup_lr(step, 4, 2, cfg.peak_lr)
        assert math.isfinite(loss)


# ---------------------------------------------------------------------------
# cross-validation and reporting
# ---------------------------------------------------------------------------

def test_cross_validate_means_and_rows():
    records = tiny_dataset()
    cfg = TrainConfig(epochs=0, warmup_epochs=0, seed=1)
    result = cross_validate(tiny_model_cfg(), cfg, records)
    assert [r.fold for r in result.folds] == [0, 1, 2]
    assert result.mean_ua == pytest.approx(np.mean([r.metrics.ua for r in result.folds]))
    assert result.mean_wa == pytest.approx(np.mean([r.metrics.wa for r in result.folds]))
    text = format_metrics(result)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("fold=0 ua=")
    assert lines[-1].startswith("fold=mean ua=")
    for line in lines[:-1]:
        fields = dict(kv.split("=") for kv in line.split())
        assert set(fields) == {"fold", "ua", "wa", "loss"}
        assert 0.0 <= float(fields["ua"]) <= 1.0


def test_cross_validate_needs_two_groups():
    """Leave-one-group-out over one group leaves its fold nothing to train on."""
    records = [rec for rec in tiny_dataset() if rec.group == 1]
    with pytest.raises(ConfigError, match="at least 2 groups, got 1"):
        cross_validate(tiny_model_cfg(), TrainConfig(epochs=1, warmup_epochs=0), records)


def test_format_curves_lines():
    records = tiny_dataset()
    cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=24, seed=1)
    result = cross_validate(tiny_model_cfg(), cfg, records, keep_curves=True)
    lines = format_curves(result).splitlines()
    assert len(lines) == sum(len(r.curve) for r in result.folds) > 0
    assert all(line.startswith("fold=") and " step=" in line and " lr=" in line
               for line in lines)
