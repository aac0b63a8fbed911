"""Host architectures: CNN, Transformer, and LSTM classifiers with optional shift.

All three families share the same spine: a trainable softmax-weighted sum
over the input feature layers, a stack of blocks, masked mean pooling over
time, and a linear head. The shift enters a block either in-place (on the
trunk, so skip connections also carry shifted features), on a residual
branch (skip path keeps the unshifted features), or as the token mixer
itself (the transformer family with mixer="shift", as in the shiftformer
preset). Every normalization is a LayerNorm over channels, so a model holds
nothing but its parameters and runs the same forward in training and eval;
the `training` flag only gates shift augmentation.

Parameter initialization is deterministic given the init RNG: weights are
normal with std 1/sqrt(fan_in), biases and norm shifts zero, norm scales
one, position-bias tables zero, and the LSTM forget-gate bias one so early
training keeps its memory open. Built with no init RNG (``seed=None``),
every weight is zero instead and nothing is drawn: the form for a model
whose values are all overwritten (checkpoint load) or never read (cost
counting).
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionError, check_config_dict, check_field_types
from ..seeding import substream
from ..shift import ShiftConfig, shift_augment, shifted_channels, temporal_shift
from ..tensor_autograd import (
    AttentionParams,
    LstmDirection,
    Tensor,
    accumulate_grad,
    add,
    avg_pool_mixer,
    bilstm,
    cross_entropy,
    depthwise_conv1d,
    gelu,
    layer_norm,
    linear,
    mean_pool_time,
    mhsa,
    named_tensors,
    softmax,
    track,
)
from ..tensor_autograd.engine import _check_same_dtype, _empty, _zeros
from ..tensor_autograd.ops import POOL_WINDOW

FAMILIES = ("cnn", "transformer", "lstm")
MIXERS = ("attention", "pooling", "shift", "none")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description for :func:`build_model`.

    channels is (in, mid, out) for the cnn/transformer families with
    out == in, and (in, 2*hidden) for the lstm family. `mixer` selects the
    transformer token mixer; "none" drops the mixing sub-layer entirely,
    leaving a per-frame pointwise MLP; the cnn and lstm families take only
    the default. `kernel` applies to the cnn family and `heads`/`clip_dist`
    to the attention mixer, whose only position signal is a learned bias
    per head and query-key distance clipped to `clip_dist`. Every block
    normalizes with LayerNorm.

    A config is checked when it is built, so every instance is valid: a bad
    or inconsistent field raises ConfigError from the constructor (and from
    ``dataclasses.replace``). It is frozen and cannot be changed afterwards.
    """

    family: str
    channels: tuple[int, ...]
    blocks: int = 2
    kernel: int = 7
    heads: int = 8
    mixer: str = "attention"
    shift: ShiftConfig | None = None
    num_classes: int = 4
    num_input_layers: int = 13
    clip_dist: int = 64

    def __post_init__(self):
        if isinstance(self.channels, list):
            object.__setattr__(self, "channels", tuple(self.channels))
        check_field_types(self)
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 1 for c in self.channels):
            raise ConfigError(f"channels must be positive integers, got {self.channels}")
        if self.family == "lstm":
            if len(self.channels) != 2:
                raise ConfigError(f"channels for the lstm family must be (in, 2*hidden), got {self.channels}")
            if self.channels[1] % 2 != 0:
                raise ConfigError(f"channels[1] must be even (two directions), got {self.channels[1]}")
        else:
            if len(self.channels) != 3:
                raise ConfigError(f"channels must be (in, mid, out), got {self.channels}")
            if self.channels[0] != self.channels[2]:
                raise ConfigError(f"channels must enter and leave blocks at the same width, got {self.channels}")
        if self.blocks < 1:
            raise ConfigError(f"blocks must be at least 1, got {self.blocks}")
        if self.family == "cnn" and (self.kernel < 1 or self.kernel % 2 == 0):
            raise ConfigError(f"kernel must be odd and positive, got {self.kernel}")
        if self.mixer not in MIXERS:
            raise ConfigError(f"mixer must be one of {MIXERS}, got {self.mixer!r}")
        # every saved config carries the default mixer, whatever its family
        if self.family != "transformer" and self.mixer != "attention":
            raise ConfigError(f"mixer {self.mixer!r} needs the transformer family, got {self.family!r}")
        if self.mixer == "none" and self.shift is not None and self.shift.placement == "residual":
            raise ConfigError("a residual shift needs a token mixer branch to run on; mixer is 'none'")
        if self.mixer == "shift":
            if self.shift is None:
                raise ConfigError("mixer 'shift' needs a shift config")
            if self.shift.placement != "residual":
                raise ConfigError(
                    f"shift.placement must be 'residual' when the shift is the token mixer, got {self.shift.placement!r}")
        if self.mixer == "attention" and self.family == "transformer":
            if self.heads < 1 or self.channels[0] % self.heads != 0:
                raise ConfigError(f"heads must divide channels[0]={self.channels[0]}, got heads={self.heads}")
            if self.clip_dist < 1:
                raise ConfigError(f"clip_dist must be at least 1, got {self.clip_dist}")
        if self.shift is not None:
            shifted_channels(self.shift, self.channels[0])
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.num_input_layers < 1:
            raise ConfigError(f"num_input_layers must be at least 1, got {self.num_input_layers}")

    @property
    def out_width(self) -> int:
        return self.channels[1] if self.family == "lstm" else self.channels[0]


def config_to_dict(cfg: ModelConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["channels"] = list(cfg.channels)
    return out


def config_from_dict(raw: dict) -> ModelConfig:
    """Strict inverse of :func:`config_to_dict`; unknown keys and mistyped
    values are errors. Older configs' `"family": "shiftformer"` (with mixer
    "shift") loads as the transformer family. Their `"norm": "layer"`,
    `"pos": "relative"`, `"pool_window": 3` and shift `"boundary":
    "zero_fill"` keys, each once the only value in use, are dropped, as is
    their `max_len`, which sized only a position table no model has any
    more; any other value of `norm`, `pos`, `pool_window` or `boundary` is
    an unknown key.
    """
    if isinstance(raw, dict):
        raw = {k: v for k, v in raw.items() if k != "max_len" and (k, v) not in (
            ("norm", "layer"), ("pos", "relative"), ("pool_window", POOL_WINDOW))}
    check_config_dict(raw, ModelConfig, "model")
    if "family" not in raw or "channels" not in raw:
        raise ConfigError("model config needs at least 'family' and 'channels'")
    kwargs = dict(raw)
    if kwargs["family"] == "shiftformer" and kwargs.get("mixer") == "shift":
        kwargs["family"] = "transformer"
    shift_raw = kwargs.pop("shift", None)
    if shift_raw is not None:
        shift_raw = {k: v for k, v in shift_raw.items() if (k, v) != ("boundary", "zero_fill")}
        check_config_dict(shift_raw, ShiftConfig, "shift")
        shift_raw = ShiftConfig(**shift_raw)
    return ModelConfig(shift=shift_raw, **kwargs)


# ---------------------------------------------------------------------------
# parameterized layers
# ---------------------------------------------------------------------------

def _normal(rng, std: float, shape: tuple[int, ...], dtype) -> Tensor:
    """A weight drawn from N(0, std^2), or zeros drawing nothing when `rng` is None."""
    data = np.zeros(shape, dtype) if rng is None else rng.normal(0.0, std, shape)
    return Tensor(data, requires_grad=True, dtype=dtype)


class LinearLayer:
    def __init__(self, rng, c_in: int, c_out: int, dtype):
        self.weight = _normal(rng, 1.0 / math.sqrt(c_in), (c_in, c_out), dtype)
        self.bias = Tensor(np.zeros(c_out, dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def named_parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class LayerNormLayer:
    def __init__(self, width: int, dtype):
        self.gamma = Tensor(np.ones(width, dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(width, dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)

    def named_parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class DepthwiseConvLayer:
    def __init__(self, rng, kernel: int, width: int, dtype):
        self.kernel = _normal(rng, 1.0 / math.sqrt(kernel), (kernel, width), dtype)
        self.bias = Tensor(np.zeros(width, dtype), requires_grad=True)

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        return depthwise_conv1d(x, self.kernel, self.bias, lengths)

    def named_parameters(self):
        return [("kernel", self.kernel), ("bias", self.bias)]


class AttentionLayer:
    def __init__(self, rng, width: int, heads: int, clip_dist: int, dtype):
        std = 1.0 / math.sqrt(width)

        def w():
            return _normal(rng, std, (width, width), dtype)

        def b():
            return Tensor(np.zeros(width, dtype), requires_grad=True)

        rel = Tensor(np.zeros((heads, 2 * clip_dist + 1), dtype), requires_grad=True)
        self.params = AttentionParams(wq=w(), bq=b(), wk=w(), bk=b(), wv=w(), bv=b(),
                                      wo=w(), bo=b(), rel_table=rel)

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        return mhsa(x, self.params, lengths)

    def named_parameters(self):
        return named_tensors(self.params)


class BiLstmLayer:
    def __init__(self, rng, c_in: int, hidden: int, dtype):
        self.fw = self._direction(rng, c_in, hidden, dtype)
        self.bw = self._direction(rng, c_in, hidden, dtype)

    @staticmethod
    def _direction(rng, c_in, hidden, dtype):
        b = np.zeros(4 * hidden, dtype)
        b[hidden:2 * hidden] = 1.0
        return LstmDirection(
            w_ih=_normal(rng, 1.0 / math.sqrt(c_in), (c_in, 4 * hidden), dtype),
            w_hh=_normal(rng, 1.0 / math.sqrt(hidden), (hidden, 4 * hidden), dtype),
            b=Tensor(b, requires_grad=True),
        )

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        return bilstm(x, self.fw, self.bw, lengths)

    def named_parameters(self):
        return [(f"{prefix}.{name}", p) for prefix, direction in (("fw", self.fw), ("bw", self.bw))
                for name, p in named_tensors(direction)]


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

class ConvBlock:
    """Residual block: x + PW2(GELU(PW1(Norm(DWConv(b))))), b = x shifted by `shift` if set."""

    def __init__(self, rng, cfg: ModelConfig, dtype, shift: ShiftConfig | None):
        width, mid = cfg.channels[0], cfg.channels[1]
        self.shift = shift
        self.dw = DepthwiseConvLayer(rng, cfg.kernel, width, dtype)
        self.norm = LayerNormLayer(width, dtype)
        self.pw1 = LinearLayer(rng, width, mid, dtype)
        self.pw2 = LinearLayer(rng, mid, width, dtype)

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        branch = x if self.shift is None else temporal_shift(x, self.shift, lengths)
        h = self.dw.forward(branch, lengths)
        h = self.norm.forward(h)
        h = self.pw2.forward(gelu(self.pw1.forward(h)))
        return add(x, h)

    def sublayers(self):
        return [("dw", self.dw), ("norm", self.norm), ("pw1", self.pw1), ("pw2", self.pw2)]


class TransformerBlock:
    """Pre-norm block: x + Mixer(Norm(x)), then + MLP(Norm(.)).

    The mixer is attention, average pooling minus identity, the parameter-free
    temporal shift `cfg.shift`, or absent ("none", leaving a pointwise MLP
    block). A residual-placement `shift` enters the mixer branch before its norm.
    """

    def __init__(self, rng, cfg: ModelConfig, dtype, shift: ShiftConfig | None):
        width, mid = cfg.channels[0], cfg.channels[1]
        self.mixer_kind = cfg.mixer
        self.mixer_shift = cfg.shift
        self.shift = shift
        self.norm1 = LayerNormLayer(width, dtype) if cfg.mixer != "none" else None
        self.attn = (AttentionLayer(rng, width, cfg.heads, cfg.clip_dist, dtype)
                     if cfg.mixer == "attention" else None)
        self.norm2 = LayerNormLayer(width, dtype)
        self.pw1 = LinearLayer(rng, width, mid, dtype)
        self.pw2 = LinearLayer(rng, mid, width, dtype)

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        if self.mixer_kind != "none":
            u = x if self.shift is None else temporal_shift(x, self.shift, lengths)
            u = self.norm1.forward(u)
            if self.mixer_kind == "attention":
                m = self.attn.forward(u, lengths)
            elif self.mixer_kind == "pooling":
                m = avg_pool_mixer(u, lengths)
            else:  # the shift is the token mixer
                m = temporal_shift(u, self.mixer_shift, lengths)
            x = add(x, m)
        v = self.norm2.forward(x)
        v = self.pw2.forward(gelu(self.pw1.forward(v)))
        return add(x, v)

    def sublayers(self):
        out = []
        if self.norm1 is not None:
            out.append(("norm1", self.norm1))
        if self.attn is not None:
            out.append(("attn", self.attn))
        out.extend([("norm2", self.norm2), ("pw1", self.pw1), ("pw2", self.pw2)])
        return out


class LstmBlock:
    """A bidirectional LSTM, optionally shift-fed.

    A residual-placement `shift` feeds the recurrent branch and adds a learned
    projection shortcut of the unshifted input (the one shift variant that
    costs extra parameters). Frames at or past `lengths` are padding to the
    LSTM (see :func:`bilstm`) and to the shift, so outputs on real frames do
    not depend on padding.
    """

    def __init__(self, rng, cfg: ModelConfig, c_in: int, dtype, shift: ShiftConfig | None):
        hidden = cfg.channels[1] // 2
        self.shift = shift
        self.rnn = BiLstmLayer(rng, c_in, hidden, dtype)
        self.proj = LinearLayer(rng, c_in, cfg.channels[1], dtype) if shift is not None else None

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        if self.shift is None:
            return self.rnn.forward(x, lengths)
        return add(self.proj.forward(x),
                   self.rnn.forward(temporal_shift(x, self.shift, lengths), lengths))

    def sublayers(self):
        out = [("rnn", self.rnn)]
        if self.proj is not None:
            out.append(("proj", self.proj))
        return out


def _branch_shift(cfg: ModelConfig, index: int) -> ShiftConfig | None:
    """The residual-placement shift block `index` applies to its branch, or None.

    It shifts every transformer mixer branch and the LSTM recurrent branch,
    but only the last cnn block's branch (the lighter touch pairs with the
    small alpha there). None also when the shift is in-place (the trunk's)
    or is itself the token mixer.
    """
    residual = cfg.shift is not None and cfg.shift.placement == "residual" and cfg.mixer != "shift"
    return cfg.shift if residual and (cfg.family != "cnn" or index == cfg.blocks - 1) else None


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def weighted_layer_sum(x: Tensor, layer_weights: Tensor) -> Tensor:
    """Softmax-weighted sum over the layer axis of a (B, L, T, C) tensor.

    The mix after the softmax is one graph node. With w = softmax(layer_weights),
    the forward adds x[:, i] * w[i] into the output in layer order, and the
    backward sums each weight's gradient as (g * x[:, i]) over batch, then
    time, then channels: the float order of a (L, 1, 1) broadcast product
    and a sum over the layer axis, so the bits are theirs, without a
    (B, L, T, C) temporary.
    """
    if x.ndim != 4:
        raise DimensionError(f"weighted_layer_sum expects rank-4 input, got {x.shape}")
    n_layers = x.shape[1]
    if layer_weights.shape != (n_layers,):
        raise DimensionError(
            f"layer weights shape {layer_weights.shape} does not match {n_layers} input layers")
    _check_same_dtype(x, layer_weights)
    w = softmax(layer_weights, axis=0)
    b, _, t, c = x.shape
    out = _zeros((b, t, c), x.dtype)  # as numpy's sum: a column of -0.0 sums to +0.0
    tmp = _empty((b, t, c), x.dtype)
    for i in range(n_layers):
        out += np.multiply(x.data[:, i], w.data[i], out=tmp)

    def bwd(g):
        if x.requires_grad:
            gx = _empty(x.shape, x.dtype)
            for i in range(n_layers):
                np.multiply(g, w.data[i], out=gx[:, i])
            accumulate_grad(x, gx, owned=True)
        if w.requires_grad:
            tmp = _empty(g.shape, g.dtype)
            gw = np.empty_like(w.data)
            for i in range(n_layers):
                gw[i] = np.multiply(g, x.data[:, i], out=tmp).sum(0).sum(0, keepdims=True).sum(1)[0]
            accumulate_grad(w, gw, owned=True)

    return track(out, (x, w), bwd)


class SequenceClassifier:
    """Weighted layer sum -> block stack -> masked mean pool -> linear head."""

    def __init__(self, cfg: ModelConfig, rng, dtype=np.float32):
        self.cfg = cfg
        self.layer_weights = Tensor(np.zeros(cfg.num_input_layers, dtype), requires_grad=True)
        self.trunk_shift = cfg.shift if cfg.shift is not None and cfg.shift.placement == "in_place" else None
        self.blocks = []
        for i in range(cfg.blocks):
            shift = _branch_shift(cfg, i)
            if cfg.family == "cnn":
                self.blocks.append(ConvBlock(rng, cfg, dtype, shift))
            elif cfg.family == "transformer":
                self.blocks.append(TransformerBlock(rng, cfg, dtype, shift))
            else:
                c_in = cfg.channels[0] if i == 0 else cfg.channels[1]
                self.blocks.append(LstmBlock(rng, cfg, c_in, dtype, shift))
        self.head = LinearLayer(rng, cfg.out_width, cfg.num_classes, dtype)

    def _check_features(self, features: Tensor) -> None:
        if features.ndim != 4:
            raise DimensionError(f"features must be (batch, layers, time, channels), got {features.shape}")
        if features.shape[1] != self.cfg.num_input_layers:
            raise DimensionError(
                f"features have {features.shape[1]} layers, model expects {self.cfg.num_input_layers}")
        if features.shape[3] != self.cfg.channels[0]:
            raise DimensionError(
                f"features have {features.shape[3]} channels, model expects {self.cfg.channels[0]}")

    def forward_features(self, features: Tensor, training: bool = False,
                         augment_prob: float = 0.0, rng=None, lengths=None) -> Tensor:
        """Run everything up to (not including) pooling; returns (B, T, C_out).

        `training` only turns on shift augmentation (at `augment_prob`);
        the blocks run the same either way. An in-place shift, `trunk_shift`,
        rewrites the trunk before every block, so skip paths see it too.
        `lengths` (per-record real frame counts, default all frames) reaches
        the augmentation, the trunk shift and every block. Every op that
        reads across time honours it, so a record's real output frames do
        not depend on the padding its batch adds; padded output frames hold
        values that nothing downstream reads, and get zero gradient.
        """
        self._check_features(features)
        x = weighted_layer_sum(features, self.layer_weights)
        if training and augment_prob > 0.0:
            x = shift_augment(x, self.augment_config(), augment_prob, rng, lengths)
        for block in self.blocks:
            if self.trunk_shift is not None:
                x = temporal_shift(x, self.trunk_shift, lengths)
            x = block.forward(x, lengths)
        return x

    def forward(self, features: Tensor, lengths=None, training: bool = False,
                augment_prob: float = 0.0, rng=None) -> Tensor:
        x = self.forward_features(features, training, augment_prob, rng, lengths)
        if lengths is None:
            lengths = np.full(x.shape[0], x.shape[1], dtype=np.int64)
        pooled = mean_pool_time(x, lengths)
        return self.head.forward(pooled)

    def augment_config(self) -> ShiftConfig:
        """The model's own shift config, or a moderate default for shift-less hosts."""
        if self.cfg.shift is not None:
            return self.cfg.shift
        return ShiftConfig(alpha=0.25, direction="unidirectional", placement="residual")

    def named_parameters(self) -> "OrderedDict[str, Tensor]":
        out: OrderedDict[str, Tensor] = OrderedDict()
        out["layer_mix.weights"] = self.layer_weights
        for i, block in enumerate(self.blocks):
            for sub_name, layer in block.sublayers():
                for p_name, p in layer.named_parameters():
                    out[f"blocks.{i}.{sub_name}.{p_name}"] = p
        for p_name, p in self.head.named_parameters():
            out[f"head.{p_name}"] = p
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.named_parameters().values())

    def loss(self, features: Tensor, labels, lengths=None, training: bool = True,
             augment_prob: float = 0.0, rng=None) -> tuple[Tensor, Tensor]:
        logits = self.forward(features, lengths, training, augment_prob, rng)
        return cross_entropy(logits, labels), logits


PRESETS = ("shiftcnn", "cnn", "shiftformer", "transformer", "shiftlstm", "lstm")


def preset_config(name: str, width: int = 768, num_classes: int = 4,
                  num_input_layers: int = 13) -> ModelConfig:
    """Named architecture presets; `width` rescales every channel count."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    if name in ("shiftcnn", "cnn"):
        return ModelConfig(
            family="cnn", channels=(width, 4 * width, width), blocks=2, kernel=7,
            shift=ShiftConfig(alpha=1.0 / 16.0, direction="unidirectional", placement="residual")
            if name == "shiftcnn" else None,
            num_classes=num_classes, num_input_layers=num_input_layers)
    if name in ("shiftformer", "transformer"):
        return ModelConfig(
            family="transformer", channels=(width, 4 * width, width), blocks=2,
            mixer="shift" if name == "shiftformer" else "attention",
            shift=ShiftConfig(alpha=0.25, direction="bidirectional", placement="residual")
            if name == "shiftformer" else None,
            num_classes=num_classes, num_input_layers=num_input_layers)
    return ModelConfig(
        family="lstm", channels=(width, 2 * width), blocks=1,
        shift=ShiftConfig(alpha=0.25, direction="unidirectional", placement="in_place")
        if name == "shiftlstm" else None,
        num_classes=num_classes, num_input_layers=num_input_layers)


def build_model(cfg: ModelConfig, seed: int | None, dtype=np.float32) -> SequenceClassifier:
    """Deterministically initialize a classifier from the named init stream.

    `seed=None` draws nothing and leaves every weight zero, for callers that
    overwrite all values or read only shapes.
    """
    return SequenceClassifier(cfg, None if seed is None else substream(seed, "init"), dtype=dtype)
