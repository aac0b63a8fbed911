"""Model construction, wiring, parameter counts, and checkpoints."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from shiftseq.blocks import (
    PRESETS,
    CheckpointError,
    ModelConfig,
    SequenceClassifier,
    build_from_checkpoint,
    build_model,
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    preset_config,
    save_checkpoint,
    weighted_layer_sum,
)
import shiftseq
from shiftseq.blocks import model as model_module
from shiftseq.blocks.model import _DRAW_BLOCK
from shiftseq.data import FeatureSequence, GenConfig
from shiftseq.errors import ConfigError, DimensionError, EmptyInputError, UsageError
from shiftseq.seeding import substream
from shiftseq.shift import ShiftConfig, shift_augment, temporal_shift
from shiftseq.tensor_autograd import (
    Tensor,
    add,
    bilstm,
    cross_entropy,
    gelu,
    layer_norm,
    linear,
    mean_pool_time,
    mul,
    no_grad,
    softmax,
    sum_all,
)
from shiftseq.tensor_autograd import engine
from shiftseq.tensor_autograd.engine import backward, reduce_sum, reshape
from shiftseq.tensor_autograd.ops import frame_rows
from shiftseq.train import Optimizer, TrainConfig, collate, evaluate, predict_logits


# the shiftformer preset's block, spelled as the transformer family it belongs to
SHIFT_MIXER = dict(mixer="shift", shift=ShiftConfig(alpha=0.25, direction="bidirectional",
                                                    placement="residual"))


def small_cfg(family="cnn", **kw):
    """A small model config; kernel is set only for cnn and heads/clip_dist
    only for an attention transformer, as every other field keeps its default."""
    base = dict(channels=(8, 16, 8), blocks=2, num_classes=3, num_input_layers=2)
    if family == "cnn":
        base.update(kernel=3)
    elif family == "transformer" and kw.get("mixer", "attention") == "attention":
        base.update(heads=2, clip_dist=4)
    elif family == "lstm":
        base = dict(channels=(8, 12), blocks=1, num_classes=3, num_input_layers=2)
    base.update(kw)
    return ModelConfig(family=family, **base)


def features(rng, b=2, layers=2, t=9, c=8):
    return rng.standard_normal((b, layers, t, c)).astype(np.float32)


# ---------------------------------------------------------------------------
# config validation and serialization
# ---------------------------------------------------------------------------

def test_presets_validate_and_have_expected_families():
    expected = {"shiftcnn": "cnn", "cnn": "cnn", "shiftformer": "transformer",
                "transformer": "transformer", "shiftlstm": "lstm", "lstm": "lstm"}
    for name, family in expected.items():
        cfg = preset_config(name)
        assert cfg.family == family
        assert (cfg.mixer == "shift") == (name == "shiftformer")
        has_shift = name.startswith("shift")
        assert (cfg.shift is not None) == has_shift


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("resnet")


@pytest.mark.parametrize("mutate", [
    dict(family="mlp"),
    dict(channels=(8, 16, 4)),        # must enter and leave at same width
    dict(channels=(8, 16)),           # three entries for conv family
    dict(blocks=0),
    dict(kernel=4),
    dict(channels=(8, 0, 8)),
    dict(mixer="conv"),
    dict(num_classes=1),
    dict(num_input_layers=0),
])
def test_validate_rejects_bad_fields(mutate):
    with pytest.raises(ConfigError):
        small_cfg(**mutate)


def test_validate_lstm_width_must_be_even():
    with pytest.raises(ConfigError):
        small_cfg("lstm", channels=(8, 13))


def test_validate_heads_must_divide_width():
    with pytest.raises(ConfigError):
        small_cfg("transformer", heads=3)


def test_validate_shiftformer_needs_shift_mixer():
    """The shiftformer is a preset, not a family."""
    with pytest.raises(ConfigError, match="family"):
        small_cfg("shiftformer", **SHIFT_MIXER)
    raw = config_to_dict(small_cfg("transformer", **SHIFT_MIXER))
    raw.update(family="shiftformer", mixer="attention")
    with pytest.raises(ConfigError, match="family"):
        config_from_dict(raw)


def test_validate_shift_mixer_needs_residual_placement():
    shift = ShiftConfig(alpha=0.25, placement="in_place")
    with pytest.raises(ConfigError):
        small_cfg("transformer", mixer="shift", shift=shift)
    with pytest.raises(ConfigError):
        small_cfg("transformer", mixer="shift", shift=None)


def test_validate_shift_mixer_only_on_transformer_families():
    shift = ShiftConfig(alpha=0.25, placement="residual")
    with pytest.raises(ConfigError):
        small_cfg("cnn", mixer="shift", shift=shift)


@pytest.mark.parametrize("family,mixer", [("cnn", "pooling"), ("cnn", "none"),
                                          ("lstm", "pooling"), ("lstm", "none")])
def test_validate_mixer_only_on_transformer_family(family, mixer):
    """cnn and lstm blocks have no token mixer; only the default every saved config carries passes."""
    small_cfg(family, mixer="attention")
    with pytest.raises(ConfigError, match="mixer"):
        small_cfg(family, mixer=mixer)


# the (family, mixer, field) cases in which the built model reads the field
READ_FIELDS = {("cnn", "attention", "kernel"), ("transformer", "attention", "heads"),
               ("transformer", "attention", "clip_dist")} | {
    ("transformer", mixer, "mixer") for mixer in ("attention", "pooling", "shift", "none")}


@pytest.mark.parametrize("field", ["mixer", "kernel", "heads", "clip_dist"])
@pytest.mark.parametrize("family,mixer", [("cnn", "attention"), ("lstm", "attention"),
                                          ("transformer", "attention"), ("transformer", "pooling"),
                                          ("transformer", "shift"), ("transformer", "none")])
def test_a_field_the_model_does_not_read_keeps_its_default(family, mixer, field):
    """Another valid value of a field either changes the built model's
    parameter shapes or raises ConfigError naming the field: no value is
    accepted and then ignored."""
    shift = ShiftConfig(alpha=0.25, placement="residual") if mixer == "shift" else None
    cfg = ModelConfig(family=family, channels=(8, 12) if family == "lstm" else (8, 16, 8),
                      mixer=mixer, shift=shift, num_input_layers=1)
    value = {"mixer": "pooling" if mixer == "attention" else "attention",
             "kernel": 3, "heads": 2, "clip_dist": 4}[field]
    assert value != getattr(cfg, field)
    if (family, mixer, field) in READ_FIELDS:
        def shapes(c):
            return {name: p.shape for name, p in build_model(c, seed=None).named_parameters().items()}
        assert shapes(dataclasses.replace(cfg, **{field: value})) != shapes(cfg)
    else:
        with pytest.raises(ConfigError, match=f"^{field}={value!r} is not read by family '{family}'"):
            dataclasses.replace(cfg, **{field: value})


def test_validate_residual_shift_needs_a_mixer_branch():
    residual = ShiftConfig(alpha=0.25, placement="residual")
    with pytest.raises(ConfigError, match="mixer"):
        small_cfg("transformer", mixer="none", shift=residual)
    small_cfg("transformer", mixer="none", shift=ShiftConfig(alpha=0.25, placement="in_place"))


def test_validate_alpha_must_reach_one_channel():
    with pytest.raises(ConfigError):
        small_cfg(shift=ShiftConfig(alpha=0.01))


def test_config_round_trip():
    for cfg in [preset_config(p) for p in ("shiftcnn", "transformer", "shiftlstm")] + [
            small_cfg(), small_cfg("transformer", **SHIFT_MIXER)]:
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg


def test_config_from_dict_rejects_unknown_keys():
    raw = config_to_dict(small_cfg())
    raw["dropout"] = 0.1
    with pytest.raises(ConfigError, match="dropout"):
        config_from_dict(raw)


def test_config_from_dict_rejects_unknown_shift_keys():
    raw = config_to_dict(small_cfg(shift=ShiftConfig(alpha=0.25)))
    raw["shift"]["stride"] = 2
    with pytest.raises(ConfigError, match="stride"):
        config_from_dict(raw)


# the six spellings of options retired during development, then other values of their keys
RETIRED = [
    pytest.param(dict(max_len=512), "max_len", id="max_len"),
    pytest.param(dict(norm="layer"), "norm", id="norm-layer"),
    pytest.param(dict(pos="relative"), "pos", id="pos-relative"),
    pytest.param(dict(pool_window=3), "pool_window", id="pool_window-3"),
    pytest.param(dict(boundary="zero_fill"), "boundary", id="boundary-zero_fill"),
    pytest.param(dict(family="shiftformer"), "shiftformer", id="family-shiftformer"),
]
OTHER_VALUES = [
    pytest.param(dict(norm=norm), "norm", id=f"norm-{norm}") for norm in ("group", "batch")
] + [
    pytest.param(dict(pos=pos), "pos", id=f"pos-{pos}") for pos in ("absolute", "none")
] + [
    pytest.param(dict(pool_window=w), "pool_window", id=f"pool_window-{w}") for w in (1, 5)
]


@pytest.mark.parametrize("edits,named", RETIRED + OTHER_VALUES)
def test_config_from_dict_rejects_retired_keys(edits, named):
    """Configs are read in the format `config_to_dict` writes; a retired
    key or family is rejected by name, whatever its value."""
    raw = config_to_dict(preset_config("shiftformer", width=8))
    edits = dict(edits)
    if "boundary" in edits:
        raw["shift"]["boundary"] = edits.pop("boundary")
    with pytest.raises(ConfigError, match=named):
        config_from_dict(dict(raw, **edits))


def test_config_from_dict_requires_family_and_channels():
    with pytest.raises(ConfigError):
        config_from_dict({"family": "cnn"})


@pytest.mark.parametrize("section,key,value", [
    (None, "channels", 8),
    (None, "channels", "8,16,8"),
    (None, "channels", [True, 16, True]),
    (None, "blocks", "2"),
    (None, "blocks", True),
    (None, "kernel", 3.0),
    (None, "family", None),
    (None, "shift", [0.25]),
    ("shift", "alpha", "0.5"),
    ("shift", "direction", 1),
])
def test_config_from_dict_rejects_mistyped_values(section, key, value):
    raw = config_to_dict(small_cfg(shift=ShiftConfig(alpha=0.25)))
    (raw[section] if section else raw)[key] = value
    with pytest.raises(ConfigError, match=key):
        config_from_dict(raw)


def test_config_from_dict_takes_an_integer_alpha():
    raw = config_to_dict(small_cfg(shift=ShiftConfig(alpha=0.25)))
    raw["shift"]["alpha"] = 1
    assert config_from_dict(raw).shift.alpha == 1


def test_model_config_fields():
    assert [f.name for f in dataclasses.fields(ModelConfig)] == [
        "family", "channels", "blocks", "kernel", "heads", "mixer", "shift",
        "num_classes", "num_input_layers", "clip_dist"]


def test_model_config_is_checked_when_replaced():
    """A shift token mixer without its shift is invalid however it is built."""
    cfg = preset_config("transformer", width=8)
    with pytest.raises(ConfigError, match="shift"):
        dataclasses.replace(cfg, mixer="shift")
    shift = ShiftConfig(alpha=0.25, direction="bidirectional", placement="residual")
    assert dataclasses.replace(cfg, mixer="shift", shift=shift) == preset_config("shiftformer", width=8)


@pytest.mark.parametrize("build", [
    lambda: ModelConfig(family="cnn", channels=(8, 16, 8), blocks=2.5),
    lambda: ModelConfig(family="transformer", channels=(8, 16, 8), heads=2.0),
    lambda: TrainConfig(epochs=2.0, warmup_epochs=1),
    lambda: TrainConfig(seed=True),
    lambda: ModelConfig("cnn", 8),
    lambda: TrainConfig(batch_size="8"),
    lambda: ShiftConfig(alpha="0.5"),
    lambda: GenConfig(frames=50.0),
], ids=["blocks-float", "heads-float", "epochs-float", "seed-bool", "channels-int",
        "batch-size-str", "alpha-str", "frames-float"])
def test_configs_reject_mistyped_fields_when_built(build):
    with pytest.raises(ConfigError, match="must be"):
        build()


def test_model_config_is_frozen():
    cfg = small_cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.blocks = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.shift = ShiftConfig()
    assert cfg == small_cfg()


# ---------------------------------------------------------------------------
# weighted layer sum
# ---------------------------------------------------------------------------

def test_weighted_layer_sum_single_layer_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 1, 5, 4)).astype(np.float32)
    w = Tensor(np.zeros(1, dtype=np.float32))
    out = weighted_layer_sum(list(x), w)
    assert np.array_equal(out.data, x[:, 0])


def test_weighted_layer_sum_matches_manual_softmax_mix():
    """Ragged records: each record's mix in its own frames, zero after them,
    and the layer weights' gradient through the softmax."""
    rng = np.random.default_rng(1)
    seqs = [rng.standard_normal((2, 4, 5)), rng.standard_normal((2, 2, 5))]
    w = Tensor(np.array([np.log(3.0), 0.0]), requires_grad=True)
    out = weighted_layer_sum(seqs, w)
    assert out.shape == (2, 4, 5)
    for row, x in zip(out.data, seqs):
        t = x.shape[1]
        np.testing.assert_allclose(row[:t], 0.75 * x[0] + 0.25 * x[1], rtol=1e-12)
        assert np.array_equal(row[t:], np.zeros_like(row[t:]))
    g = rng.standard_normal(out.shape)
    backward(sum_all(mul(out, Tensor(g))))
    s = np.array([sum(np.sum(gb[:x.shape[1]] * x[i]) for gb, x in zip(g, seqs)) for i in range(2)])
    p = np.array([0.75, 0.25])
    np.testing.assert_allclose(w.grad, p * (s - p @ s), rtol=1e-12)


def test_weighted_layer_sum_shape_errors():
    w = Tensor(np.zeros(3))
    with pytest.raises(DimensionError, match="got a record of shape"):
        weighted_layer_sum(np.zeros((2, 3, 4)), w)
    with pytest.raises(DimensionError, match="5 layers, model expects 3"):
        weighted_layer_sum(np.zeros((2, 5, 4, 5)), w)
    with pytest.raises(DimensionError, match="disagree on layers/channels"):
        weighted_layer_sum([np.zeros((3, 4, 5)), np.zeros((3, 4, 6))], w)
    with pytest.raises(DimensionError, match="mixed dtypes"):
        weighted_layer_sum([np.zeros((3, 4, 5), np.float32)], w)
    with pytest.raises(EmptyInputError):
        weighted_layer_sum([], w)


# ---------------------------------------------------------------------------
# parameter counts (formulas derived from the block structure)
# ---------------------------------------------------------------------------

def conv_block_params(c, mid, k):
    return (k * c + c) + 2 * c + (c * mid + mid) + (mid * c + c)


def transformer_block_params(c, mid, mixer, heads=8, clip=64):
    total = 2 * c + (c * mid + mid) + (mid * c + c)
    if mixer != "none":
        total += 2 * c
    if mixer == "attention":
        total += 4 * (c * c + c) + heads * (2 * clip + 1)
    return total


def bilstm_params(c_in, hidden):
    return 2 * (c_in * 4 * hidden + hidden * 4 * hidden + 4 * hidden)


def head_and_mix_params(out_w, n_cls, n_layers):
    return out_w * n_cls + n_cls + n_layers


def test_preset_parameter_totals():
    counts = {name: build_model(preset_config(name), seed=0).num_parameters()
              for name in ("shiftcnn", "cnn", "shiftformer", "transformer", "shiftlstm", "lstm")}
    assert counts["shiftcnn"] == 2 * conv_block_params(768, 3072, 7) + head_and_mix_params(768, 4, 13)
    assert counts["shiftcnn"] == 9_463_313
    assert counts["shiftformer"] == 2 * transformer_block_params(768, 3072, "shift") \
        + head_and_mix_params(768, 4, 13)
    assert counts["shiftformer"] == 9_454_097
    assert counts["shiftlstm"] == bilstm_params(768, 768) + head_and_mix_params(1536, 4, 13)
    assert counts["shiftlstm"] == 9_449_489
    assert counts["transformer"] == 2 * transformer_block_params(768, 3072, "attention") \
        + head_and_mix_params(768, 4, 13)
    # the shift itself is parameter-free: shifted hosts match their baselines
    assert counts["shiftcnn"] == counts["cnn"]
    assert counts["shiftlstm"] == counts["lstm"]
    # ... and the shiftformer replaces attention, never adds to it
    assert counts["transformer"] - counts["shiftformer"] == 2 * (4 * (768 * 768 + 768) + 8 * 129)


def test_shift_presets_within_budget():
    for name in ("shiftcnn", "shiftformer", "shiftlstm"):
        n = build_model(preset_config(name), seed=0).num_parameters()
        assert 9_000_000 <= n <= 10_000_000, (name, n)


def test_lstm_residual_variant_adds_projection_params():
    base = small_cfg("lstm")
    res = small_cfg("lstm", shift=ShiftConfig(alpha=0.25, placement="residual"))
    n_base = build_model(base, seed=0).num_parameters()
    n_res = build_model(res, seed=0).num_parameters()
    assert n_res - n_base == 8 * 12 + 12  # projection shortcut weight and bias


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_build_model_is_deterministic_per_seed():
    cfg = small_cfg("transformer")
    a = build_model(cfg, seed=7).named_parameters()
    b = build_model(cfg, seed=7).named_parameters()
    c = build_model(cfg, seed=8).named_parameters()
    assert list(a) == list(b) == list(c)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_initial_values_follow_scheme():
    cfg = small_cfg("transformer")
    params = build_model(cfg, seed=0).named_parameters()
    assert np.array_equal(params["layer_mix.weights"].data, np.zeros(2, dtype=np.float32))
    assert np.array_equal(params["blocks.0.norm1.gamma"].data, np.ones(8, dtype=np.float32))
    assert np.array_equal(params["blocks.0.norm1.beta"].data, np.zeros(8, dtype=np.float32))
    assert np.array_equal(params["blocks.0.pw1.bias"].data, np.zeros(16, dtype=np.float32))
    assert np.array_equal(params["blocks.0.attn.rel_table"].data, np.zeros((2, 9), dtype=np.float32))
    assert np.array_equal(params["head.bias"].data, np.zeros(3, dtype=np.float32))


def test_lstm_forget_gate_bias_starts_open():
    model = build_model(small_cfg("lstm"), seed=0)
    b = model.blocks[0].rnn.fw.b.data
    hidden = 6
    assert np.array_equal(b[hidden:2 * hidden], np.ones(hidden, dtype=np.float32))
    assert np.array_equal(b[:hidden], np.zeros(hidden, dtype=np.float32))
    assert np.array_equal(b[2 * hidden:], np.zeros(2 * hidden, dtype=np.float32))


def test_parameter_names_are_unique_and_sized():
    model = build_model(small_cfg("cnn", shift=ShiftConfig(alpha=0.25)), seed=0)
    params = model.named_parameters()
    assert len(params) == len(set(params))
    assert model.num_parameters() == sum(p.size for p in params.values())


# ---------------------------------------------------------------------------
# forward wiring
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,kw", [
    ("cnn", {}),
    ("cnn", dict(shift=ShiftConfig(alpha=0.25, placement="in_place"))),
    ("cnn", dict(shift=ShiftConfig(alpha=0.25, placement="residual"))),
    ("transformer", {}),
    ("transformer", dict(mixer="pooling")),
    ("transformer", dict(mixer="none")),
    ("transformer", dict(heads=1)),
    ("transformer", dict(clip_dist=1)),  # every distance past one frame shares a bias
    pytest.param("transformer", SHIFT_MIXER, id="shiftformer-kw8"),
    ("lstm", {}),
    ("lstm", dict(shift=ShiftConfig(alpha=0.25, placement="in_place"))),
    ("lstm", dict(shift=ShiftConfig(alpha=0.25, placement="residual"))),
])
def test_forward_shapes(family, kw):
    cfg = small_cfg(family, **kw)
    model = build_model(cfg, seed=0)
    x = features(np.random.default_rng(0))
    out = model.forward(Tensor(x), lengths=np.array([9, 5]))
    assert out.shape == (2, 3)
    feats = model.forward_features(Tensor(x))
    assert feats.shape == (2, 9, cfg.out_width)


def test_forward_is_deterministic_in_eval():
    model = build_model(small_cfg("transformer"), seed=0)
    x = Tensor(features(np.random.default_rng(3)))
    a = model.forward(x)
    b = model.forward(x)
    assert np.array_equal(a.data, b.data)


def test_forward_rejects_wrong_feature_shapes():
    model = build_model(small_cfg(), seed=0)
    with pytest.raises(DimensionError):
        model.forward(Tensor(np.zeros((2, 9, 8))))       # missing layer axis
    with pytest.raises(DimensionError):
        model.forward(Tensor(np.zeros((2, 5, 9, 8))))    # wrong layer count
    with pytest.raises(DimensionError):
        model.forward(Tensor(np.zeros((2, 2, 9, 4))))    # wrong channel count


def test_record_lists_take_lengths_within_each_record():
    rng = np.random.default_rng(4)
    model = build_model(small_cfg(), seed=0)
    records = [features(rng, b=1, t=t)[0] for t in (9, 4)]
    with no_grad():
        want = model.forward([records[0][:, :6], records[1][:, :4]]).data
        assert np.array_equal(model.forward(records, np.array([6, 4])).data, want)
        with pytest.raises(DimensionError, match="run past a record's frames"):
            model.forward(records, np.array([6, 5]))


def test_features_that_require_grad_are_rejected():
    """The layer mix gives features no gradient, so asking for one is an error."""
    model = build_model(small_cfg(), seed=0)
    with pytest.raises(UsageError, match="features get no gradient"):
        model.loss(Tensor(features(np.random.default_rng(3)), requires_grad=True), np.array([0, 1]))


def test_residual_cnn_shifts_last_block_only():
    cfg = small_cfg("cnn", shift=ShiftConfig(alpha=0.25, placement="residual"))
    model = build_model(cfg, seed=0)
    assert model.trunk_shift is None
    assert [b.shift for b in model.blocks] == [None, cfg.shift]
    cfg_ip = small_cfg("cnn", shift=ShiftConfig(alpha=0.25, placement="in_place"))
    model_ip = build_model(cfg_ip, seed=0)
    assert model_ip.trunk_shift == cfg_ip.shift
    assert [b.shift for b in model_ip.blocks] == [None, None]


def test_residual_transformer_shifts_every_block():
    cfg = small_cfg("transformer", shift=ShiftConfig(alpha=0.25, placement="residual"))
    model = build_model(cfg, seed=0)
    assert model.trunk_shift is None
    assert [b.shift for b in model.blocks] == [cfg.shift, cfg.shift]


def zero_block_params(model):
    for name, p in model.named_parameters().items():
        if name.startswith("blocks."):
            p.data = np.zeros_like(p.data)


@pytest.mark.parametrize("family,kw", [
    ("cnn", {}),
    ("cnn", dict(shift=ShiftConfig(alpha=0.25, placement="residual"))),
    ("transformer", {}),
    ("transformer", dict(mixer="pooling")),
    ("transformer", dict(mixer="none")),
    pytest.param("transformer", SHIFT_MIXER, id="shiftformer-kw5"),
])
def test_zeroed_blocks_pass_input_through_unchanged(family, kw):
    """Every parametric path sits on a branch, so zero weights give identity."""
    model = build_model(small_cfg(family, **kw), seed=0)
    zero_block_params(model)
    x = features(np.random.default_rng(5))
    mixed = weighted_layer_sum(list(x), model.layer_weights)
    out = model.forward_features(Tensor(x))
    assert np.max(np.abs(out.data - mixed.data)) == 0.0


def test_zeroed_in_place_model_is_pure_shift():
    cfg = small_cfg("cnn", shift=ShiftConfig(alpha=0.25, placement="in_place"))
    model = build_model(cfg, seed=0)
    zero_block_params(model)
    x = features(np.random.default_rng(6))
    mixed = weighted_layer_sum(list(x), model.layer_weights)
    expected = temporal_shift(temporal_shift(mixed, cfg.shift), cfg.shift)
    out = model.forward_features(Tensor(x))
    assert np.max(np.abs(out.data - expected.data)) == 0.0


@pytest.mark.parametrize("direction", ["unidirectional", "bidirectional"])
@pytest.mark.parametrize("family,mixer", [("cnn", "attention"), ("transformer", "attention"),
                                          ("transformer", "pooling"), ("transformer", "none"),
                                          ("lstm", "attention")])
def test_in_place_shift_is_a_shift_of_each_block_input(family, mixer, direction):
    """In-place placement equals the unshifted model, same seed, run block by
    block with each block's input shifted, both honouring the padding and
    both running per-frame work on the real frames, as unrecorded padded
    batches do."""
    shift = ShiftConfig(alpha=0.25, direction=direction, placement="in_place")
    shifted = build_model(small_cfg(family, mixer=mixer, blocks=2, shift=shift), seed=4)
    plain = build_model(small_cfg(family, mixer=mixer, blocks=2), seed=4)
    x = Tensor(features(np.random.default_rng(8), b=3))
    lengths = np.array([9, 6, 4])
    with no_grad():
        expected = weighted_layer_sum([r[:, :t] for r, t in zip(x.data, lengths)], plain.layer_weights)
        rows = frame_rows(lengths, 9)
        for block in plain.blocks:
            expected = block.forward(temporal_shift(expected, shift, lengths), lengths, rows)
        out = shifted.forward_features(x, lengths=lengths)
    assert np.array_equal(out.data, expected.data)


def test_shiftformer_block_matches_manual_composition():
    shift = ShiftConfig(alpha=0.25, direction="bidirectional", placement="residual")
    cfg = small_cfg("transformer", mixer="shift", shift=shift, blocks=1)
    model = build_model(cfg, seed=3)
    # give the norms non-trivial scales so the composition order matters
    p = model.named_parameters()
    rng = np.random.default_rng(9)
    for name in ("blocks.0.norm1.gamma", "blocks.0.norm1.beta",
                 "blocks.0.norm2.gamma", "blocks.0.norm2.beta"):
        p[name].data = rng.standard_normal(p[name].shape).astype(np.float32)
    x = Tensor(features(np.random.default_rng(7)))
    mixed = weighted_layer_sum(list(x.data), model.layer_weights)
    y = add(mixed, temporal_shift(
        layer_norm(mixed, p["blocks.0.norm1.gamma"], p["blocks.0.norm1.beta"]), shift))
    h = layer_norm(y, p["blocks.0.norm2.gamma"], p["blocks.0.norm2.beta"])
    h = linear(gelu(linear(h, p["blocks.0.pw1.weight"], p["blocks.0.pw1.bias"])),
               p["blocks.0.pw2.weight"], p["blocks.0.pw2.bias"])
    expected = add(y, h)
    out = model.forward_features(x)
    np.testing.assert_allclose(out.data, expected.data, rtol=0, atol=0)


def test_lstm_residual_wiring():
    shift = ShiftConfig(alpha=0.25, placement="residual")
    cfg = small_cfg("lstm", shift=shift)
    model = build_model(cfg, seed=1)
    block = model.blocks[0]
    x = Tensor(features(np.random.default_rng(8)))
    mixed = weighted_layer_sum(list(x.data), model.layer_weights)
    expected = add(linear(mixed, block.proj.weight, block.proj.bias),
                   bilstm(temporal_shift(mixed, shift), block.rnn.fw, block.rnn.bw))
    out = model.forward_features(x)
    np.testing.assert_allclose(out.data, expected.data, rtol=0, atol=0)


# the presets, then each other way a model reads across time: (preset, overrides)
PADDING_VARIANTS = {
    **{name: (name, {}) for name in PRESETS},
    "cnn-in-place": ("cnn", dict(shift=ShiftConfig(alpha=0.25, placement="in_place"))),
    "transformer-pooling": ("transformer", dict(mixer="pooling")),
    "transformer-no-mixer": ("transformer", dict(mixer="none")),
    "attention-residual-shift": ("transformer", dict(shift=ShiftConfig(
        alpha=0.25, direction="bidirectional", placement="residual"))),
    "clip-dist-1": ("transformer", dict(clip_dist=1)),
    "lstm-residual": ("lstm", dict(shift=ShiftConfig(alpha=0.25, placement="residual"))),
}


def randomised_model(variant, dtype=np.float32):
    """A small `PADDING_VARIANTS` model whose biases, norm scales, layer mix
    and position biases are off their constant init: a zero input frame then
    no longer stays zero through a block."""
    preset, overrides = PADDING_VARIANTS[variant]
    cfg = dataclasses.replace(preset_config(preset, width=16, num_input_layers=2), **overrides)
    model = build_model(cfg, seed=0, dtype=dtype)
    rng = np.random.default_rng(14)
    for name, p in model.named_parameters().items():
        if p.ndim == 1 or name.endswith("rel_table"):
            p.data = p.data + rng.normal(0.0, 0.5, p.shape).astype(dtype)
    return model


def padded_batch(rng, lengths, dtype=np.float32):
    """Records of the given lengths, alone, and collated into one zero-padded batch."""
    alone = [features(rng, b=1, t=t, c=16).astype(dtype) for t in lengths]
    batch = np.zeros((len(lengths), 2, max(lengths), 16), dtype=dtype)
    for i, rec in enumerate(alone):
        batch[i, :, :rec.shape[2]] = rec[0]
    return alone, batch


def run_mode(training):
    # augmentation always shifts in training mode, so the trunk passes through it too
    return (dict(training=True, augment_prob=1.0, rng=np.random.default_rng(0)) if training
            else dict(training=False))


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("variant", PADDING_VARIANTS)
def test_logits_do_not_depend_on_batch_padding(variant, training):
    model = randomised_model(variant)
    lengths = np.array([10, 30, 17])
    alone, batch = padded_batch(np.random.default_rng(15), lengths)
    with no_grad():
        padded = model.forward(Tensor(batch), lengths, **run_mode(training))
        for i, rec in enumerate(alone):
            own = model.forward(Tensor(rec), lengths[i:i + 1], **run_mode(training))
            np.testing.assert_allclose(padded.data[i], own.data[0], rtol=0, atol=1e-6)


@pytest.mark.parametrize("variant", PADDING_VARIANTS)
def test_blocks_on_real_rows_never_read_padded_frames(variant):
    """Unrecorded, a block given its batch's real rows reads no padded frame:
    with NaN there, its real output frames are the bits of zero padding run
    through the padded layout, and its padded output frames are +0.0."""
    model = randomised_model(variant)
    lengths = np.array([10, 30, 17])
    rows = frame_rows(lengths, 30)
    zero = np.random.default_rng(33).standard_normal((3, 30, 16)).astype(np.float32)
    nan = zero.copy()
    for i, t in enumerate(lengths):
        zero[i, t:], nan[i, t:] = 0.0, np.nan
    with no_grad():
        for block in model.blocks:
            want = block.forward(Tensor(zero), lengths).data
            got = block.forward(Tensor(nan), lengths, rows).data
            for i, t in enumerate(lengths):
                np.testing.assert_array_equal(got[i, :t], want[i, :t])
                assert not got[i, t:].any() and not np.signbit(got[i, t:]).any()


@pytest.mark.parametrize("variant", ["lstm", "shiftlstm", "lstm-residual"])
def test_a_recorded_lstm_without_rows_reads_no_padded_frame(variant):
    """Recorded and given no rows, `bilstm` and `LstmBlock.forward` still read
    no padded frame: with NaN there, their real output frames are the bits of
    zero padding, and `bilstm`'s padded output frames are +0.0."""
    block = randomised_model(variant).blocks[0]
    lengths = np.array([10, 30, 17])
    zero = np.random.default_rng(35).standard_normal((3, 30, 16)).astype(np.float32)
    nan = zero.copy()
    for i, t in enumerate(lengths):
        zero[i, t:], nan[i, t:] = 0.0, np.nan
    rnn = bilstm(Tensor(nan), block.rnn.fw, block.rnn.bw, lengths)
    outs = {"bilstm": (rnn, bilstm(Tensor(zero), block.rnn.fw, block.rnn.bw, lengths)),
            "block": (block.forward(Tensor(nan), lengths), block.forward(Tensor(zero), lengths))}
    for name, (got, want) in outs.items():
        assert got.requires_grad, name
        for i, t in enumerate(lengths):
            assert np.isfinite(got.data[i, :t]).all(), name
            np.testing.assert_array_equal(got.data[i, :t], want.data[i, :t], err_msg=name)
    for i, t in enumerate(lengths):
        assert not rnn.data[i, t:].any() and not np.signbit(rnn.data[i, t:]).any()


def test_a_full_batch_copies_nothing_and_a_padded_batch_packs_recorded_or_not(monkeypatch):
    model = randomised_model("transformer")
    _, batch = padded_batch(np.random.default_rng(34), [10, 30, 17])
    packed = []
    monkeypatch.setattr(model_module, "frame_rows", lambda *a: packed.append(a) or frame_rows(*a))
    with no_grad():
        model.forward(Tensor(batch), np.array([30, 30, 30]))
    model.forward(Tensor(batch), np.array([30, 30, 30]))
    assert packed == []
    with no_grad():
        model.forward(Tensor(batch), np.array([10, 30, 17]))
    assert len(packed) == 1
    model.forward(Tensor(batch), np.array([10, 30, 17]))
    assert len(packed) == 2


@pytest.mark.parametrize("preset", ["shiftcnn", "transformer"])
def test_a_padded_train_step_peaks_below_the_step_at_full_length(monkeypatch, preset):
    """A recorded step saves its per-frame buffers at the real frames: on
    records of 5-60 frames (60% padding) its traced peak stays well below
    the same step with every record at 60 frames."""
    monkeypatch.setattr(engine, "_POOL_MIN_BYTES", float("inf"))  # every buffer a traced allocation
    model = build_model(preset_config(preset, width=64, num_input_layers=2), seed=0)
    rng = np.random.default_rng(35)
    lengths = (5, 10, 20, 60)
    full = [rng.standard_normal((2, 60, 64)).astype(np.float32) for _ in lengths]

    def peak(records):
        for p in model.named_parameters().values():
            p.grad = None
        tracemalloc.start()
        try:
            loss, _ = model.loss(records, np.arange(4))
            backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak([a[:, :t] for a, t in zip(full, lengths)]) < 0.85 * peak(full)


# prints, per width, variant (named in argv) and forward (eval, recorded), how
# many batches give a 37-frame record logits other than its batch with an
# equal-length twin; the LSTMs take only batches of up to _TILED_ROWS records
BATCH_INVARIANCE_PROBE = """
import contextlib, dataclasses, sys
import numpy as np
from shiftseq.blocks import build_model, preset_config
from shiftseq.tensor_autograd import no_grad
from shiftseq.tensor_autograd.ops import _TILED_ROWS

VARIANTS = {"cnn": ("cnn", {}), "shiftcnn": ("shiftcnn", {}), "shiftformer": ("shiftformer", {}),
            "transformer-pooling": ("transformer", {"mixer": "pooling"}),
            "transformer-no-mixer": ("transformer", {"mixer": "none"}),
            "lstm": ("lstm", {}), "shiftlstm": ("shiftlstm", {})}
for width in (32, 64, 768):
    rng = np.random.default_rng(width)
    def rec(t):
        return rng.standard_normal((2, t, width), dtype=np.float32)
    record = rec(37)
    batches = [([record, rec(37)], 0)]
    for n in (2, 3, 5, 8, 12):
        at = int(rng.integers(n))
        others = [rec(int(t)) for t in rng.integers(1, 121, n - 1)]
        batches.append((others[:at] + [record] + others[at:], at))
    for name in sys.argv[1:]:
        preset, overrides = VARIANTS[name]
        cfg = dataclasses.replace(preset_config(preset, width=width, num_input_layers=2), **overrides)
        model = build_model(cfg, seed=0)
        most = _TILED_ROWS if preset in ("lstm", "shiftlstm") else None
        kept = [(batch, at) for batch, at in batches if most is None or len(batch) <= most]
        for recorded in (False, True):
            with contextlib.nullcontext() if recorded else no_grad():
                logits = [model.forward(batch).data[at] for batch, at in kept]
            print(width, name, recorded, sum(not np.array_equal(z, logits[0]) for z in logits[1:]))
"""


def batch_invariance_lines(threads, variants):
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftseq.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)  # read when numpy loads
    proc = subprocess.run([sys.executable, "-c", BATCH_INVARIANCE_PROBE, *variants], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 * len(variants) * 2
    return [line for line in lines if not line.endswith(" 0")]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_record_gets_the_same_logit_bits_in_any_batch(threads):
    """cnn, shiftcnn, shiftformer and the pooling and no-mixer transformers
    (the attention transformer's q kᵀ takes its batch's longest length)."""
    variants = ["cnn", "shiftcnn", "shiftformer", "transformer-pooling", "transformer-no-mixer"]
    assert batch_invariance_lines(threads, variants) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_an_lstm_record_gets_the_same_logit_bits_in_any_tiled_batch(threads, measured_blas):
    """lstm and shiftlstm in batches of 2 to `ops._TILED_ROWS` records, whose
    recurrence runs on no-pack column tiles (larger batches take the packed
    GEMM's bits, which can depend on the batch)."""
    assert batch_invariance_lines(threads, ["lstm", "shiftlstm"]) == []


@pytest.mark.parametrize("preset", PRESETS)
def test_forward_takes_only_integer_lengths(preset):
    model = randomised_model(preset)
    _, batch = padded_batch(np.random.default_rng(17), [10, 30, 17])
    with no_grad():
        want = model.forward(Tensor(batch), np.array([10, 30, 17])).data
        assert np.array_equal(model.forward(Tensor(batch), np.array([10, 30, 17], np.int32)).data, want)
        for lengths in ([10.0, 30.0, 17.0], [10.7, 30.0, 17.2], [True, True, True]):
            with pytest.raises(DimensionError, match="integers"):
                model.forward(Tensor(batch), np.array(lengths))


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("variant", PADDING_VARIANTS)
def test_padded_batch_gradient_is_the_mean_of_per_record_gradients(variant, training):
    """Run at 64-bit, so that only a masking fault, not float32 rounding, can
    move a gradient by 1e-6."""
    model = randomised_model(variant, np.float64)
    params = model.named_parameters()
    lengths, labels = np.array([10, 30, 17]), np.array([1, 0, 3])
    alone, batch = padded_batch(np.random.default_rng(16), lengths, np.float64)
    expected = {name: np.zeros_like(p.data) for name, p in params.items()}
    for i, rec in enumerate(alone):
        loss, _ = model.loss(Tensor(rec), labels[i:i + 1], lengths[i:i + 1], **run_mode(training))
        backward(loss)
        for name, p in params.items():
            expected[name] += p.grad / len(alone)
            p.grad = None
    loss, _ = model.loss(Tensor(batch), labels, lengths, **run_mode(training))
    backward(loss)
    for name, p in params.items():
        np.testing.assert_allclose(p.grad, expected[name], rtol=0, atol=1e-6, err_msg=name)


def test_augmentation_changes_training_forward_only():
    model = build_model(small_cfg("cnn"), seed=0)
    x = Tensor(features(np.random.default_rng(11)))
    plain = model.forward(x, training=True)
    shifted = model.forward(x, training=True, augment_prob=1.0,
                            rng=substream(0, "augment", 0))
    assert not np.array_equal(plain.data, shifted.data)
    eval_out = model.forward(x, training=False, augment_prob=1.0)
    assert np.array_equal(eval_out.data, model.forward(x).data)
    with pytest.raises(UsageError):
        model.forward(x, training=True, augment_prob=1.0, rng=None)


@pytest.mark.parametrize("preset", PRESETS)
def test_training_forward_without_augmentation_equals_eval(preset):
    """A model is only its parameters: `training` changes nothing but augmentation."""
    model = small_preset(preset, seed=2)
    for start in (0, 2, 4):
        feats, lengths, _ = collate(mixed_records(26)[start:start + 2])
        train = model.forward(Tensor(feats), lengths, training=True, augment_prob=0.0)
        evald = model.forward(Tensor(feats), lengths, training=False)
        np.testing.assert_array_equal(train.data, evald.data)


@pytest.mark.parametrize("family,kw", [
    ("cnn", dict(shift=ShiftConfig(alpha=0.25, placement="residual"))),
    ("transformer", {}),
    pytest.param("transformer", SHIFT_MIXER, id="shiftformer-kw2"),
    ("lstm", dict(shift=ShiftConfig(alpha=0.25, placement="in_place"))),
])
def test_loss_backward_reaches_every_parameter(family, kw):
    model = build_model(small_cfg(family, **kw), seed=0)
    x = Tensor(features(np.random.default_rng(13)))
    loss, _ = model.loss(x, np.array([0, 2]), training=True)
    backward(loss)
    for name, p in model.named_parameters().items():
        assert p.grad is not None, name
        assert p.grad.shape == p.shape, name
        assert np.all(np.isfinite(p.grad)), name


@pytest.mark.parametrize("preset", PRESETS)
def test_train_step_gradients_own_their_buffers(preset):
    model = build_model(preset_config(preset, width=16, num_classes=3, num_input_layers=2), seed=0)
    opt = Optimizer(model, TrainConfig())
    x = Tensor(features(np.random.default_rng(5), b=3, t=9, c=16))
    loss, _ = model.loss(x, np.array([0, 2, 1]), lengths=np.array([9, 6, 9]), training=True,
                         augment_prob=1.0, rng=np.random.default_rng(0))
    backward(loss)
    params = model.named_parameters()
    grads = list(params.items())
    for i, (name, p) in enumerate(grads):
        g = p.grad
        assert g is not None, name
        assert g.flags.writeable and g.flags.c_contiguous, name
        assert g.dtype == p.dtype and g.shape == p.shape, name
        for other, q in grads[i + 1:]:
            assert not np.shares_memory(g, q.grad), (name, other)
        for other, q in grads:
            assert not np.shares_memory(g, q.data), (name, other)
    opt.step(1e-3)  # which consumes every gradient
    assert all(p.grad is None for p in params.values())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    cfg = small_cfg("cnn", shift=ShiftConfig(alpha=0.25, placement="residual"))
    model = build_model(cfg, seed=4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, extra={"epoch": 3, "ua": 0.5})
    loaded, extra = build_from_checkpoint(path)
    assert extra == {"epoch": 3, "ua": 0.5}
    assert loaded.cfg == cfg
    ours, theirs = model.named_parameters(), loaded.named_parameters()
    assert list(ours) == list(theirs)
    for name in ours:
        np.testing.assert_array_equal(ours[name].data, theirs[name].data)
    x = Tensor(features(np.random.default_rng(2)))
    np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)


def test_load_checkpoint_exposes_raw_records(tmp_path):
    model = build_model(small_cfg("transformer"), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    cfg, params, extra = load_checkpoint(path)
    assert cfg == model.cfg
    assert set(params) == set(model.named_parameters())
    assert extra == {}


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(small_cfg(), seed=0))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(small_cfg(), seed=0))
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(small_cfg(), seed=0))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_utf8_record_name(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(small_cfg(), seed=0))
    raw = bytearray(path.read_bytes())
    first_name = 12 + struct.unpack("<I", raw[8:12])[0] + 8  # after config, count, name length
    raw[first_name] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_a_nonfinite_parameter(tmp_path, value):
    model = build_model(small_cfg(), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    raw = bytearray(path.read_bytes())
    # head.bias is the last record, before the empty buffer section's count
    struct.pack_into("<f", raw, len(raw) - 4 - 4 * model.head.bias.size + 4, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="'head.bias' holds a nonfinite value"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_a_nonfinite_parameter(tmp_path, value):
    model = build_model(small_cfg(), seed=0)
    model.head.bias.data[1] = value
    with pytest.raises(CheckpointError, match="'head.bias' holds a nonfinite value"):
        save_checkpoint(tmp_path / "m.ckpt", model)
    assert list(tmp_path.iterdir()) == []


def record_fields(raw: bytes) -> list:
    """(name span, ndim offset, dim offsets) of each parameter record."""
    pos = 12 + struct.unpack_from("<I", raw, 8)[0] + 4  # past the config and the record count
    fields = []
    for _ in range(struct.unpack_from("<I", raw, pos - 4)[0]):
        nlen = struct.unpack_from("<I", raw, pos)[0]
        name = (pos + 4, pos + 4 + nlen)
        ndim_at = name[1]
        ndim = struct.unpack_from("<I", raw, ndim_at)[0]
        dims_at = [ndim_at + 4 + 4 * i for i in range(ndim)]
        size = int(np.prod(struct.unpack_from(f"<{ndim}I", raw, ndim_at + 4)))
        fields.append((name, ndim_at, dims_at))
        pos = ndim_at + 4 + 4 * ndim + 4 * size
    return fields


def reference_checkpoint(model, extra=None) -> bytes:
    """The checkpoint layout serialized with `.tobytes()`, one parameter at a time."""
    payload = {"model": config_to_dict(model.cfg)}
    if extra:
        payload["extra"] = extra
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    params = model.named_parameters()
    parts = [b"SSCK", struct.pack("<II", 1, len(blob)), blob, struct.pack("<I", len(params))]
    for name, p in params.items():
        parts += [struct.pack("<I", len(name)), name.encode("utf-8"), struct.pack("<I", p.ndim),
                  struct.pack(f"<{p.ndim}I", *p.shape), p.data.astype("<f4").tobytes()]
    return b"".join(parts + [struct.pack("<I", 0)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset", PRESETS)
def test_save_checkpoint_writes_the_parameters_own_bytes(tmp_path, preset, dtype):
    model = build_model(preset_config(preset, width=16, num_input_layers=2), seed=1, dtype=dtype)
    save_checkpoint(tmp_path / "m.ckpt", model, extra={"fold": 2})
    assert (tmp_path / "m.ckpt").read_bytes() == reference_checkpoint(model, {"fold": 2})


def test_save_checkpoint_keeps_no_serialized_copy(tmp_path):
    model = build_model(preset_config("shiftcnn", width=128, num_input_layers=2), seed=0)
    payload = sum(p.data.nbytes for p in model.named_parameters().values())
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "m.ckpt", model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < payload / 10


def test_checkpoint_with_an_empty_dimension_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(preset_config("shiftcnn", width=16, num_input_layers=1), seed=0))
    raw = bytearray(path.read_bytes())
    # record 0's ndim, 1 -> 5: its dims read (1, 0, 18, 1668246626, 808350571),
    # which hold no values yet overflow numpy's array size
    assert record_fields(raw)[0][1] == 293
    raw[293] = 5
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="empty dimension"):
        load_checkpoint(path)


def test_checkpoint_corruptions_raise_checkpoint_errors(tmp_path):
    """Checkpoints as strict as FSEQ headers (acceptance criterion 8): every
    truncation, and seeded corruptions of the header, config length, record
    names, ndims and dims, raise CheckpointError on the way to a model."""
    path = tmp_path / "m.ckpt"
    cfg = small_cfg(channels=(4, 8, 4), num_input_layers=1,
                    shift=ShiftConfig(alpha=0.25, placement="residual"))
    save_checkpoint(path, build_model(cfg, seed=0))
    good = path.read_bytes()
    clen = struct.unpack_from("<I", good, 8)[0]
    fields = record_fields(good)

    def rejects(blob):
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            build_from_checkpoint(path)

    for n in range(len(good)):
        rejects(good[:n])

    rng = np.random.default_rng(7)

    def other_u32(now, hi=2**32):
        """A uniform draw from [0, hi) other than `now`."""
        value = int(rng.integers(hi - 1))
        return value + (value >= now)

    for _ in range(2000):
        blob = bytearray(good)
        mode = int(rng.integers(5))
        name, ndim_at, dims_at = fields[int(rng.integers(len(fields)))]
        if mode == 0:  # magic or version
            pos = int(rng.integers(8))
            blob[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
        elif mode == 1:  # a config length that cuts the JSON short or overruns the file
            wrong = int(rng.integers(clen)) if rng.random() < 0.5 else int(rng.integers(len(good), 2**32))
            struct.pack_into("<I", blob, 8, wrong)
        elif mode == 2:  # a record name byte
            pos = int(rng.integers(*name))
            blob[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
        elif mode == 3:  # a record's ndim
            ndim = other_u32(len(dims_at), 12 if rng.random() < 0.8 else 2**32)
            struct.pack_into("<I", blob, ndim_at, ndim)
        else:  # one of a record's dims
            pos = dims_at[int(rng.integers(len(dims_at)))]
            now = struct.unpack_from("<I", blob, pos)[0]
            struct.pack_into("<I", blob, pos, other_u32(now, 64 if rng.random() < 0.8 else 2**32))
        rejects(blob)


def test_checkpoint_rejects_missing_parameters(tmp_path):
    model = build_model(small_cfg(), seed=0)

    class Stripped:
        cfg = model.cfg

        def named_parameters(self):
            params = model.named_parameters()
            params.popitem()
            return params

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Stripped())
    with pytest.raises(CheckpointError, match="missing"):
        build_from_checkpoint(path)


def test_checkpoint_rejects_any_buffer_record(tmp_path):
    """The buffer section is written empty; a nonzero count is rejected by
    its value, as a record there would have no model to go to."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(small_cfg(), seed=0))
    raw = path.read_bytes()
    assert raw[-4:] == struct.pack("<I", 0)
    name = b"blocks.0.norm.running_mean"
    record = struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 8) + np.zeros(8, "<f4").tobytes()
    path.write_bytes(raw[:-4] + struct.pack("<I", 1) + record)
    with pytest.raises(CheckpointError, match="claims 1 buffer record"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="claims 1 buffer record"):
        build_from_checkpoint(path)
    # the count is the error, read before the records it claims (here none)
    path.write_bytes(raw[:-4] + struct.pack("<I", 7))
    with pytest.raises(CheckpointError, match="claims 7 buffer records"):
        load_checkpoint(path)


def rewrite_model_config(path, boundary=None, **fields):
    """Edit the model config in a checkpoint's JSON header, fixing its length field."""
    raw = path.read_bytes()
    end = 12 + struct.unpack("<I", raw[8:12])[0]
    payload = json.loads(raw[12:end])
    payload["model"].update(fields)
    if boundary is not None:
        payload["model"]["shift"]["boundary"] = boundary
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[end:])


@pytest.mark.parametrize("edits,named", RETIRED)
def test_checkpoint_with_a_retired_key_is_rejected(tmp_path, edits, named):
    model = build_model(preset_config("shiftformer", width=16, num_input_layers=2), seed=5)
    path = tmp_path / "retired.ckpt"
    save_checkpoint(path, model)
    rewrite_model_config(path, **edits)
    for load in (load_checkpoint, build_from_checkpoint):
        with pytest.raises(CheckpointError, match=f"invalid model config.*{named}"):
            load(path)


def test_checkpoint_with_an_unread_field_off_its_default_is_rejected(tmp_path):
    """A cnn reads no attention heads, so a cnn checkpoint's config may not set them."""
    path = tmp_path / "cnn.ckpt"
    save_checkpoint(path, build_model(preset_config("cnn", width=16, num_input_layers=2), seed=5))
    rewrite_model_config(path, heads=2)
    for load in (load_checkpoint, build_from_checkpoint):
        with pytest.raises(CheckpointError, match="invalid model config: heads=2 is not read"):
            load(path)


@pytest.mark.parametrize("edits", [
    dict(family="shiftformer", mixer="attention", boundary="zero_fill"),
    dict(family="shiftformer", boundary="replicate"),
    dict(family="transformer", boundary="replicate"),
    dict(blocks="2"),
    dict(mixer="none"),                   # a residual shift with no branch to run on
    dict(family="cnn", mixer="pooling"),  # cnn blocks have no token mixer
    dict(norm="batch"),                   # batch norm is no longer a model option
    dict(pos="absolute", max_len=512),    # relative bias is the one position scheme
    dict(pos="none", max_len=512),
    dict(pool_window=5),                  # the pooling window is fixed at 3
])
def test_checkpoint_with_invalid_config_is_rejected(tmp_path, edits):
    model = build_model(preset_config("shiftformer", width=16, num_input_layers=2), seed=5)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, model)
    rewrite_model_config(path, **edits)
    with pytest.raises(CheckpointError, match="invalid model config"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# graph-free inference and draw-free checkpoint loads
# ---------------------------------------------------------------------------

def small_preset(name, seed=0, **kw):
    cfg = preset_config(name, width=16, num_classes=3, num_input_layers=2)
    return build_model(dataclasses.replace(cfg, **kw), seed=seed)


def mixed_records(seed, lengths=(9, 5, 12, 7, 3)):
    """Records of unequal length, so batches of two carry padding."""
    rng = np.random.default_rng(seed)
    return [FeatureSequence(i % 3, 0, features(rng, b=1, t=t, c=16)[0])
            for i, t in enumerate(lengths)]


VARIANTS = [(p, {}) for p in PRESETS] + [("transformer", {"mixer": "pooling"})]
VARIANT_IDS = list(PRESETS) + ["transformer-pooling"]


def assert_eval_logits_are_graph_logits(model, records, batch_size=2):
    """`predict_logits` gives the bits of `collate` and a graph-building `forward`."""
    logits, _ = predict_logits(model, records, batch_size=batch_size)
    graph = []
    order = np.argsort([rec.data.shape[1] for rec in records], kind="stable")
    for start in range(0, len(records), batch_size):  # the batches predict_logits runs
        feats, lengths, _ = collate([records[i] for i in order[start:start + batch_size]])
        out = model.forward(Tensor(feats), lengths=lengths, training=False)
        assert out.requires_grad and out._parents
        with no_grad():
            bare = model.forward(Tensor(feats), lengths=lengths, training=False)
        assert not bare.requires_grad and bare._parents == ()
        graph.append(out.data)
    assert logits.dtype == np.float32
    np.testing.assert_array_equal(logits[order], np.concatenate(graph))


@pytest.mark.parametrize("preset,kw", VARIANTS, ids=VARIANT_IDS)
def test_eval_logits_under_no_grad_match_graph_building_forward(preset, kw):
    """`predict_logits` mixes each record's layers into the trunk itself,
    and runs a padded batch's per-frame work on its real frames alone; its
    logits are the bits of `collate` and a graph-building `forward`,
    single-frame records included."""
    assert_eval_logits_are_graph_logits(small_preset(preset, **kw), mixed_records(20, (9, 1, 5, 12, 7, 1, 3)))


WIDE_VARIANTS = VARIANTS + [("transformer", {"mixer": "none"})]
WIDE_VARIANT_IDS = VARIANT_IDS + ["transformer-none"]
# sorted and cut in twos: (1, 1) is full, 2 rows; (1, 2) is the least padded
# batch, 3 packed rows and a 1-frame record; then (2, 4) and (9, 30)
WIDE_LENGTHS = (9, 1, 2, 1, 30, 4, 2, 1)


@pytest.mark.parametrize("preset,kw", WIDE_VARIANTS, ids=WIDE_VARIANT_IDS)
def test_eval_logits_match_graph_building_forward_at_paper_width(preset, kw):
    """At width 768 BLAS runs the kernels of the paper shape, not those of
    width 16, and the packed GEMMs keep their bits there too."""
    cfg = preset_config(preset, width=768, num_classes=4, num_input_layers=2)
    model = build_model(dataclasses.replace(cfg, **kw), seed=0)
    rng = np.random.default_rng(31)
    records = [FeatureSequence(i % 4, 0, rng.standard_normal((2, t, 768), dtype=np.float32))
               for i, t in enumerate(WIDE_LENGTHS)]
    assert_eval_logits_are_graph_logits(model, records)


@pytest.mark.parametrize("preset,kw", WIDE_VARIANTS, ids=WIDE_VARIANT_IDS)
def test_unrecorded_float64_logits_match_graph_building_forward(preset, kw):
    """Records hold float32, so a float64 model's evaluation is its
    unrecorded `forward` on float64 record arrays, batched as
    `predict_logits` batches."""
    cfg = preset_config(preset, width=32, num_classes=4, num_input_layers=2)
    model = build_model(dataclasses.replace(cfg, **kw), seed=0, dtype=np.float64)
    rng = np.random.default_rng(32)
    seqs = sorted((rng.standard_normal((2, t, 32)) for t in WIDE_LENGTHS), key=lambda a: a.shape[1])
    for start in range(0, len(seqs), 2):
        with no_grad():
            bare = model.forward(seqs[start:start + 2])
        graph = model.forward(seqs[start:start + 2])
        assert graph.requires_grad and bare.dtype == np.float64
        np.testing.assert_array_equal(bare.data, graph.data)


def test_predict_raises_typed_errors():
    model = small_preset("shiftcnn")
    rng = np.random.default_rng(26)

    def rec(layers=2, t=4, c=16):
        return FeatureSequence(0, 0, rng.standard_normal((layers, t, c)).astype(np.float32))

    with pytest.raises(DimensionError, match="disagree on layers/channels"):
        model.predict([rec(), rec(layers=3)])
    with pytest.raises(DimensionError, match="disagree on layers/channels"):
        model.predict([rec(), rec(c=8)])
    with pytest.raises(DimensionError, match="3 layers, model expects 2"):
        model.predict([rec(layers=3)])
    with pytest.raises(DimensionError, match="8 channels, model expects 16"):
        model.predict([rec(c=8), rec(c=8, t=2)])
    wide = build_model(preset_config("shiftcnn", width=16, num_classes=3, num_input_layers=2),
                       seed=0, dtype=np.float64)
    with pytest.raises(DimensionError, match="mixed dtypes"):
        wide.predict([rec()])
    with pytest.raises(EmptyInputError):
        model.predict([])
    assert all(p.grad is None for p in model.named_parameters().values())


def test_predict_logits_peaks_below_the_padded_stack():
    """No (batch, layers, time, channels) stack: evaluating four long
    records peaks under the size of the padded stack `collate` builds."""
    model = build_model(preset_config("shiftcnn", width=32, num_classes=4, num_input_layers=13),
                        seed=0)
    rng = np.random.default_rng(27)
    lengths = (250, 1000, 500, 750)
    records = [FeatureSequence(i, 0, rng.standard_normal((13, t, 32), dtype=np.float32))
               for i, t in enumerate(lengths)]
    tracemalloc.start()
    try:
        predict_logits(model, records, batch_size=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = len(records) * 13 * max(lengths) * 32 * 4
    assert peak < stack


def stack_mix(stack, layer_weights):
    """The layer mix composed over a (B, L, T, C) stack: softmax, a
    (L, 1, 1) reshape, a broadcast product and a sum over the layer axis."""
    w = reshape(softmax(layer_weights, axis=0), (layer_weights.shape[0], 1, 1))
    return reduce_sum(mul(Tensor(stack), w), axis=1)


def step_bits(model, step):
    """The loss, logits and every parameter gradient of one `step(model)`;
    the gradients are taken off the model."""
    loss, logits = step(model)
    backward(loss)
    grads = {}
    for name, p in model.named_parameters().items():
        grads[name], p.grad = p.grad, None
    return [("loss", loss.data), ("logits", logits.data), *grads.items()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset,kw", VARIANTS, ids=VARIANT_IDS)
def test_train_step_on_records_is_the_step_on_their_collated_stack(preset, kw, dtype):
    """One augmented training step on records, on their `collate`d batch,
    and with the layer mix composed over that stack give the same loss,
    logits and gradients, zero sign bits included."""
    model = build_model(dataclasses.replace(
        preset_config(preset, width=16, num_classes=3, num_input_layers=2), **kw), seed=0, dtype=dtype)
    records = mixed_records(29, (9, 1, 12, 5, 1, 7))
    feats, lengths, labels = collate(records)
    feats = feats.astype(dtype)
    seqs = [rec.data.astype(dtype) for rec in records]

    def on_records(m):  # rng 3 draws 0.086 first, so the batch is shifted
        return m.loss(seqs, labels, training=True, augment_prob=0.5, rng=np.random.default_rng(3))

    def on_stack(m):
        return m.loss(Tensor(feats), labels, lengths, training=True, augment_prob=0.5,
                      rng=np.random.default_rng(3))

    def composed(m):
        x = shift_augment(stack_mix(feats, m.layer_weights), m.augment_config(), 0.5,
                          np.random.default_rng(3), lengths)
        for block in m.blocks:
            if m.trunk_shift is not None:
                x = temporal_shift(x, m.trunk_shift, lengths)
            x = block.forward(x, lengths)
        logits = linear(mean_pool_time(x, lengths), m.head.weight, m.head.bias)
        return cross_entropy(logits, labels), logits

    want = step_bits(model, composed)
    for step in (on_records, on_stack):
        for (name, got), (_, ref) in zip(step_bits(model, step), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (step.__name__, name)
            assert np.array_equal(np.signbit(got), np.signbit(ref)), (step.__name__, name)


def test_train_step_on_records_peaks_below_the_step_on_their_stack():
    """One loss and backward on padded records peaks below the same step on
    their collated stack by at least the stack's size."""
    model = build_model(preset_config("shiftcnn", width=32, num_classes=4, num_input_layers=13),
                        seed=0)
    rng = np.random.default_rng(30)
    records = [FeatureSequence(i % 4, 0, rng.standard_normal((13, t, 32), dtype=np.float32))
               for i, t in enumerate((20, 400, 75, 310, 150, 260, 35, 190))]
    stack_bytes = []

    def on_records():
        return model.loss([rec.data for rec in records], [rec.label for rec in records])[0]

    def on_stack():
        feats, lengths, labels = collate(records)
        stack_bytes.append(feats.nbytes)
        return model.loss(Tensor(feats), labels, lengths)[0]

    def peak(step):
        tracemalloc.start()
        try:
            backward(step())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            for p in model.named_parameters().values():
                p.grad = None

    peak(on_records)  # fills the step buffer pool for both
    records_peak, stack_peak = peak(on_records), peak(on_stack)
    assert stack_bytes[-1] == 8 * 13 * 400 * 32 * 4
    assert records_peak + stack_bytes[-1] <= stack_peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset", PRESETS)
def test_init_draws_in_blocks_match_one_draw_per_weight(monkeypatch, preset, dtype):
    """Weights larger than one draw block (width 144: 82,944-element
    projections) take the values, and leave the generator in the state,
    of one float64 draw per weight cast to the model's dtype."""
    cfg = preset_config(preset, width=144, num_classes=4, num_input_layers=2)
    rng = np.random.default_rng(28)
    model = SequenceClassifier(cfg, rng, dtype=dtype)

    def one_draw(rng, std, shape, dtype):
        return Tensor(rng.normal(0.0, std, shape), requires_grad=True, dtype=dtype)

    monkeypatch.setattr("shiftseq.blocks.model._normal", one_draw)
    ref_rng = np.random.default_rng(28)
    reference = SequenceClassifier(cfg, ref_rng, dtype=dtype)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert max(p.size for p in model.named_parameters().values()) > _DRAW_BLOCK
    for (name, p), q in zip(model.named_parameters().items(), reference.named_parameters().values()):
        assert p.dtype == q.dtype == dtype, name
        assert np.array_equal(p.data, q.data), name


@pytest.mark.parametrize("preset", PRESETS)
def test_training_after_evaluate_reaches_every_parameter(preset):
    model = small_preset(preset)
    evaluate(model, mixed_records(21), batch_size=2)
    loss, _ = model.loss(Tensor(features(np.random.default_rng(22), c=16)), np.array([0, 2]))
    backward(loss)
    for name, p in model.named_parameters().items():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name


# the ids keep the "-layer" suffix from when the norm was a per-model choice
@pytest.mark.parametrize("preset", PRESETS, ids=[f"{p}-layer" for p in PRESETS])
def test_checkpoint_load_draws_no_init(tmp_path, monkeypatch, preset):
    model = small_preset(preset, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)

    def no_draw(*args):
        raise AssertionError("checkpoint load drew from the init stream")

    monkeypatch.setattr("shiftseq.blocks.model.substream", no_draw)
    loaded, _ = build_from_checkpoint(path)
    records = mixed_records(24)
    np.testing.assert_array_equal(predict_logits(loaded, records, 2)[0],
                                  predict_logits(model, records, 2)[0])


@pytest.mark.parametrize("preset", ["shiftcnn", "transformer", "shiftlstm"])
def test_loaded_parameters_are_private_and_step_like_the_saved_model(tmp_path, preset):
    model = small_preset(preset, seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded, _ = build_from_checkpoint(path)
    for name, p in loaded.named_parameters().items():
        flags = p.data.flags
        assert p.dtype == np.float32, name
        assert flags.writeable and flags.c_contiguous, name
        assert flags.owndata, f"{name} is a view, possibly of the file buffer"
    x = Tensor(features(np.random.default_rng(25), c=16))
    for m in (model, loaded):
        optimizer = Optimizer(m, TrainConfig())
        loss, _ = m.loss(x, np.array([1, 2]))
        backward(loss)
        optimizer.step(1e-3)
    stepped = loaded.named_parameters()
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(stepped[name].data, p.data, err_msg=name)
