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

from ..data import batch_layout
from ..errors import ConfigError, DimensionError, UsageError, check_config_dict, check_field_types
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
    no_grad,
    softmax,
    track,
)
from ..tensor_autograd.engine import _zeros
from ..tensor_autograd.ops import _check_lengths

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
    values are errors."""
    check_config_dict(raw, ModelConfig, "model")
    if "family" not in raw or "channels" not in raw:
        raise ConfigError("model config needs at least 'family' and 'channels'")
    kwargs = dict(raw)
    shift_raw = kwargs.pop("shift", None)
    if shift_raw is not None:
        shift_raw = ShiftConfig(**check_config_dict(shift_raw, ShiftConfig, "shift"))
    return ModelConfig(shift=shift_raw, **kwargs)


# ---------------------------------------------------------------------------
# parameterized layers
# ---------------------------------------------------------------------------

# elements per init draw: the float64 draw of a block, not of a whole weight,
# is all a weight of another dtype costs beyond itself
_DRAW_BLOCK = 65536


def _normal(rng, std: float, shape: tuple[int, ...], dtype) -> Tensor:
    """A weight drawn from N(0, std^2), or zeros drawing nothing when `rng` is None.

    The weight is filled in C order from consecutive draws of at most
    `_DRAW_BLOCK` values, each cast to `dtype` as it lands. Those draws
    take the same values from the generator, and leave it in the same
    state, as one draw of the whole shape would.
    """
    data = np.zeros(shape, dtype)
    if rng is not None:
        flat = data.reshape(-1)
        for i in range(0, flat.size, _DRAW_BLOCK):
            j = min(i + _DRAW_BLOCK, flat.size)
            flat[i:j] = rng.normal(0.0, std, j - i)
    return Tensor(data, requires_grad=True, dtype=dtype)


def _zero(shape, dtype) -> Tensor:
    """A trainable parameter of zeros: a bias, a norm shift or a position table."""
    return Tensor(np.zeros(shape, dtype), requires_grad=True)


@dataclass
class Linear:
    """A dense layer, x @ weight + bias: weight (in, out), bias (out,)."""

    weight: Tensor
    bias: Tensor


@dataclass
class LayerNorm:
    """A LayerNorm over channels: scale `gamma` and shift `beta`, each (width,)."""

    gamma: Tensor
    beta: Tensor


@dataclass
class DepthwiseConv:
    """A per-channel convolution over time: kernel (k, width), bias (width,)."""

    kernel: Tensor
    bias: Tensor


@dataclass
class BiLstm:
    """A bidirectional LSTM: the forward and the backward direction."""

    fw: LstmDirection
    bw: LstmDirection


def _linear(rng, c_in: int, c_out: int, dtype) -> Linear:
    return Linear(_normal(rng, 1.0 / math.sqrt(c_in), (c_in, c_out), dtype), _zero(c_out, dtype))


def _layer_norm(width: int, dtype) -> LayerNorm:
    return LayerNorm(Tensor(np.ones(width, dtype), requires_grad=True), _zero(width, dtype))


def _depthwise(rng, kernel: int, width: int, dtype) -> DepthwiseConv:
    return DepthwiseConv(_normal(rng, 1.0 / math.sqrt(kernel), (kernel, width), dtype), _zero(width, dtype))


def _attention(rng, width: int, heads: int, clip_dist: int, dtype) -> AttentionParams:
    def w():
        return _normal(rng, 1.0 / math.sqrt(width), (width, width), dtype)

    return AttentionParams(wq=w(), bq=_zero(width, dtype), wk=w(), bk=_zero(width, dtype),
                           wv=w(), bv=_zero(width, dtype), wo=w(), bo=_zero(width, dtype),
                           rel_table=_zero((heads, 2 * clip_dist + 1), dtype))


def _bilstm(rng, c_in: int, hidden: int, dtype) -> BiLstm:
    def direction():
        b = np.zeros(4 * hidden, dtype)
        b[hidden:2 * hidden] = 1.0
        return LstmDirection(w_ih=_normal(rng, 1.0 / math.sqrt(c_in), (c_in, 4 * hidden), dtype),
                             w_hh=_normal(rng, 1.0 / math.sqrt(hidden), (hidden, 4 * hidden), dtype),
                             b=Tensor(b, requires_grad=True))

    return BiLstm(fw=direction(), bw=direction())


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

@dataclass
class ConvBlock:
    """Residual block: x + PW2(GELU(PW1(Norm(DWConv(b))))), b = x shifted by `shift` if set."""

    dw: DepthwiseConv
    norm: LayerNorm
    pw1: Linear
    pw2: Linear
    shift: ShiftConfig | None

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        # nested, so that unrecorded each activation is freed once the next is made
        h = gelu(linear(layer_norm(depthwise_conv1d(
            x if self.shift is None else temporal_shift(x, self.shift, lengths),
            self.dw.kernel, self.dw.bias, lengths), self.norm.gamma, self.norm.beta),
            self.pw1.weight, self.pw1.bias))
        return add(x, linear(h, self.pw2.weight, self.pw2.bias))


@dataclass
class TransformerBlock:
    """Pre-norm block: x + Mixer(Norm(x)), then + MLP(Norm(.)).

    `mixer` is attention (`attn`), average pooling minus identity, the
    parameter-free temporal shift `mixer_shift`, or "none", which drops the
    mixer branch and its `norm1`, leaving a pointwise MLP block. A
    residual-placement `shift` enters the mixer branch before its norm.
    `norm1` and `attn` are None when the block has no use for them.
    """

    norm1: LayerNorm | None
    attn: AttentionParams | None
    norm2: LayerNorm
    pw1: Linear
    pw2: Linear
    mixer: str
    mixer_shift: ShiftConfig | None
    shift: ShiftConfig | None

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        if self.mixer != "none":
            u = x if self.shift is None else temporal_shift(x, self.shift, lengths)
            u = layer_norm(u, self.norm1.gamma, self.norm1.beta)
            if self.mixer == "attention":
                m = mhsa(u, self.attn, lengths)
            elif self.mixer == "pooling":
                m = avg_pool_mixer(u, lengths)
            else:  # the shift is the token mixer
                m = temporal_shift(u, self.mixer_shift, lengths)
            x = add(x, m)
        # nested, as in ConvBlock
        v = gelu(linear(layer_norm(x, self.norm2.gamma, self.norm2.beta), self.pw1.weight, self.pw1.bias))
        return add(x, linear(v, self.pw2.weight, self.pw2.bias))


@dataclass
class LstmBlock:
    """A bidirectional LSTM, optionally shift-fed.

    A residual-placement `shift` feeds the recurrent branch and adds `proj`,
    a learned projection shortcut of the unshifted input (the one shift
    variant that costs extra parameters); without it `proj` is None. Frames
    at or past `lengths` are padding to the LSTM (see :func:`bilstm`) and to
    the shift, so outputs on real frames do not depend on padding.
    """

    rnn: BiLstm
    proj: Linear | None
    shift: ShiftConfig | None

    def forward(self, x: Tensor, lengths=None) -> Tensor:
        if self.shift is None:
            return bilstm(x, self.rnn.fw, self.rnn.bw, lengths)
        return add(linear(x, self.proj.weight, self.proj.bias),
                   bilstm(temporal_shift(x, self.shift, lengths), self.rnn.fw, self.rnn.bw, lengths))


def _block(rng, cfg: ModelConfig, index: int, dtype):
    """Block `index` of the stack, its layers drawn in field order."""
    width, mid = cfg.channels[0], cfg.channels[1]
    shift = _branch_shift(cfg, index)
    if cfg.family == "cnn":
        return ConvBlock(dw=_depthwise(rng, cfg.kernel, width, dtype), norm=_layer_norm(width, dtype),
                         pw1=_linear(rng, width, mid, dtype), pw2=_linear(rng, mid, width, dtype),
                         shift=shift)
    if cfg.family == "transformer":
        return TransformerBlock(
            norm1=_layer_norm(width, dtype) if cfg.mixer != "none" else None,
            attn=(_attention(rng, width, cfg.heads, cfg.clip_dist, dtype)
                  if cfg.mixer == "attention" else None),
            norm2=_layer_norm(width, dtype), pw1=_linear(rng, width, mid, dtype),
            pw2=_linear(rng, mid, width, dtype), mixer=cfg.mixer,
            mixer_shift=cfg.shift if cfg.mixer == "shift" else None, shift=shift)
    c_in = cfg.channels[0] if index == 0 else cfg.channels[1]
    return LstmBlock(rnn=_bilstm(rng, c_in, cfg.channels[1] // 2, dtype),
                     proj=_linear(rng, c_in, cfg.channels[1], dtype) if shift is not None else None,
                     shift=shift)


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

def weighted_layer_sum(seqs, layer_weights: Tensor) -> Tensor:
    """The softmax-weighted sum over layers of a batch of (layers, frames,
    channels) record arrays: the (batch, longest, channels) trunk, one node.

    With w = softmax(layer_weights), the forward adds each record's x[i] * w[i],
    in layer order, into its own frames of a zeroed trunk. The records get
    no gradient. The backward sums each weight's as g * x[i] over records,
    in batch order, into a +0.0-filled (longest, channels) scratch, then
    over time, then channels: the float order of the layer-axis sum of a
    (L, 1, 1) broadcast product over the zero-padded (B, L, T, C) stack, so
    the bits are the stack's. (numpy's batch sum starts from +0.0, so it
    never holds -0.0, and a padded frame's +0.0 changes no bit.)
    """
    n_layers, width = batch_layout(seqs)
    if layer_weights.shape != (n_layers,):
        raise DimensionError(f"features have {n_layers} layers, model expects {layer_weights.size}")
    dtype = layer_weights.dtype
    if any(a.dtype != dtype for a in seqs):
        raise DimensionError(f"mixed dtypes: records do not match the model's {dtype}")
    w = softmax(layer_weights, axis=0)
    out = _zeros((len(seqs), max(a.shape[1] for a in seqs), width), dtype)
    # scratch from np.empty, not the step pool: a (frames, channels) shape new
    # to the pool would release its idle buffers in the middle of the step
    tmp = np.empty(out.shape[1:], dtype)
    for a, row in zip(seqs, out):
        for i in range(n_layers):
            row[:a.shape[1]] += np.multiply(a[i], w.data[i], out=tmp[:a.shape[1]])

    def bwd(g):
        acc, tmp = np.empty(g.shape[1:], dtype), np.empty(g.shape[1:], dtype)
        gw = np.empty_like(w.data)
        for i in range(n_layers):
            acc.fill(0.0)
            for a, g_b in zip(seqs, g):
                acc[:a.shape[1]] += np.multiply(g_b[:a.shape[1]], a[i], out=tmp[:a.shape[1]])
            gw[i] = acc.sum(0, keepdims=True).sum(1)[0]
        accumulate_grad(w, gw, owned=True)

    return track(out, (w,), bwd)


def _record_views(features, lengths) -> tuple[list, np.ndarray]:
    """Record b of a batch, features[b][:, :lengths[b]], for record arrays
    or a (batch, layers, time, channels) array or Tensor, and the views'
    frame counts; each record's own frames by default. A Tensor that
    requires grad raises UsageError: the layer mix gives features no
    gradient."""
    if isinstance(features, Tensor):
        if features.requires_grad:
            raise UsageError("features get no gradient: pass arrays, or a Tensor that does not require grad")
        features = features.data
    if lengths is None:
        seqs = list(features)
    else:
        batch_layout(features)
        lengths = _check_lengths(lengths, len(features), max(a.shape[1] for a in features))
        if any(t > a.shape[1] for a, t in zip(features, lengths)):
            raise DimensionError(f"lengths {lengths.tolist()} run past a record's frames")
        seqs = [a[:, :t] for a, t in zip(features, lengths)]
    return seqs, np.array([a.shape[1] for a in seqs], dtype=np.int64)


class SequenceClassifier:
    """Weighted layer sum -> block stack -> masked mean pool -> linear head.

    Every entry point takes a batch as :func:`_record_views` reads it.
    """

    def __init__(self, cfg: ModelConfig, rng, dtype=np.float32):
        self.cfg = cfg
        self.layer_weights = Tensor(np.zeros(cfg.num_input_layers, dtype), requires_grad=True)
        self.trunk_shift = cfg.shift if cfg.shift is not None and cfg.shift.placement == "in_place" else None
        self.blocks = [_block(rng, cfg, i, dtype) for i in range(cfg.blocks)]
        self.head = _linear(rng, cfg.out_width, cfg.num_classes, dtype)

    def forward_features(self, features, training: bool = False,
                         augment_prob: float = 0.0, rng=None, lengths=None) -> Tensor:
        """Run everything up to (not including) pooling; returns (B, T, C_out).

        `training` only turns on shift augmentation (at `augment_prob`);
        the blocks run the same either way. An in-place shift, `trunk_shift`,
        rewrites the trunk before every block, so skip paths see it too. The
        records' lengths reach the augmentation, the trunk shift and every
        block. Every op that reads across time honours them, so a record's
        real output frames do not depend on the padding its batch adds;
        padded output frames hold values that nothing downstream reads.
        """
        seqs, lengths = _record_views(features, lengths)
        return self._run(seqs, lengths, augment_prob if training else 0.0, rng)

    def _run(self, seqs, lengths, augment_prob: float, rng) -> Tensor:
        x = weighted_layer_sum(seqs, self.layer_weights)
        if x.shape[2] != self.cfg.channels[0]:
            raise DimensionError(f"features have {x.shape[2]} channels, model expects {self.cfg.channels[0]}")
        if augment_prob > 0.0:
            x = shift_augment(x, self.augment_config(), augment_prob, rng, lengths)
        # rebinding x frees each trunk, when unrecorded, once the next is made
        for block in self.blocks:
            if self.trunk_shift is not None:
                x = temporal_shift(x, self.trunk_shift, lengths)
            x = block.forward(x, lengths)
        return x

    def forward(self, features, lengths=None, training: bool = False,
                augment_prob: float = 0.0, rng=None) -> Tensor:
        seqs, lengths = _record_views(features, lengths)
        x = self._run(seqs, lengths, augment_prob if training else 0.0, rng)
        return linear(mean_pool_time(x, lengths), self.head.weight, self.head.bias)

    def predict(self, records) -> np.ndarray:
        """Eval-mode logits, (batch, classes), of :meth:`forward` on the
        records' `data` arrays under :func:`no_grad`."""
        with no_grad():
            return self.forward([rec.data for rec in records]).data

    def augment_config(self) -> ShiftConfig:
        """The model's own shift config, or a moderate default for shift-less hosts."""
        if self.cfg.shift is not None:
            return self.cfg.shift
        return ShiftConfig(alpha=0.25, direction="unidirectional", placement="residual")

    def named_parameters(self) -> "OrderedDict[str, Tensor]":
        """Every parameter by its field path (`blocks.0.attn.wq`), in save order."""
        out: OrderedDict[str, Tensor] = OrderedDict()
        out["layer_mix.weights"] = self.layer_weights
        for i, block in enumerate(self.blocks):
            out.update((f"blocks.{i}.{name}", p) for name, p in named_tensors(block))
        out.update((f"head.{name}", p) for name, p in named_tensors(self.head))
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.named_parameters().values())

    def loss(self, features, labels, lengths=None, training: bool = True,
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
