"""The temporal shift operation and its training-time augmentation variant.

A shift moves the lowest floor(alpha * C) channels of a (batch, time,
channel) tensor by exactly one frame along the time axis, zero-filling the
vacated boundary frame. Forward direction brings past features to the
present; bidirectional mode splits the shifted channels into a forward
group and a backward (future-to-present) group. The op is linear, carries
no trainable parameters, and costs no FLOPs; its backward pass is the
transpose shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EmptyInputError, UsageError, check_field_types
from .tensor_autograd import Tensor, accumulate_grad, track
from .tensor_autograd.engine import _copy
from .tensor_autograd.ops import _check_lengths, _zero_padding

DIRECTIONS = ("unidirectional", "bidirectional")
PLACEMENTS = ("in_place", "residual")


@dataclass(frozen=True)
class ShiftConfig:
    """How a host model applies the shift.

    alpha: fraction of channels shifted, 0 < alpha <= 1. The shifted count
        floor(alpha * C) must be at least 1 for the host's channel width.
    direction: "unidirectional" (past to present) or "bidirectional"
        (shifted channels split between past-to-present and future-to-present;
        an odd count favors the forward group).
    placement: "in_place" shifts the trunk so skip paths also see shifted
        features; "residual" shifts only inside a residual branch.
    """

    alpha: float = 0.25
    direction: str = "unidirectional"
    placement: str = "in_place"

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"shift alpha must lie in (0, 1], got {self.alpha}")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"shift direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"shift placement must be one of {PLACEMENTS}, got {self.placement!r}")


def shifted_channels(cfg: ShiftConfig, channels: int) -> int:
    """floor(alpha * C), validated to be at least one channel."""
    count = int(math.floor(cfg.alpha * channels))
    if count < 1:
        raise ConfigError(
            f"alpha={cfg.alpha} shifts floor({cfg.alpha}*{channels}) = 0 channels; increase alpha or width")
    return count


def _split_counts(cfg: ShiftConfig, channels: int) -> tuple[int, int]:
    total = shifted_channels(cfg, channels)
    if cfg.direction == "unidirectional":
        return total, 0
    fwd = (total + 1) // 2
    return fwd, total - fwd


def temporal_shift(x: Tensor, cfg: ShiftConfig, lengths=None) -> Tensor:
    """Shift the lowest floor(alpha*C) channels of x by one frame.

    Forward-group channels take their value from the previous frame (frame 0
    becomes zero); backward-group channels, present only in bidirectional
    mode, take theirs from the next frame (the last frame becomes zero).
    Remaining channels pass through bit-identically.

    Frames at or past lengths[b] are padding. The backward group zero-fills
    each record's own last real frame, and every frame after it, so no real
    frame reads padding and padding gets no gradient through that group.
    `lengths=None` (every frame real) runs the same path.
    """
    if x.ndim != 3:
        raise DimensionError(f"temporal_shift expects a (batch, time, channel) tensor, got {x.shape}")
    if x.shape[1] == 0:
        raise EmptyInputError("temporal_shift on a sequence with zero frames")
    fwd, bwd_count = _split_counts(cfg, x.shape[2])
    split = fwd + bwd_count
    lengths = _check_lengths(lengths, x.shape[0], x.shape[1])
    out = _copy(x.data)  # a step buffer
    out[:, 1:, :fwd] = x.data[:, :-1, :fwd]
    out[:, 0, :fwd] = 0.0
    if bwd_count:
        out[:, :-1, fwd:split] = x.data[:, 1:, fwd:split]
        _zero_padding(out[:, :, fwd:split], lengths - 1)

    def bwd(g):
        gx = _copy(g)
        gx[:, :-1, :fwd] = g[:, 1:, :fwd]
        gx[:, -1, :fwd] = 0.0
        if bwd_count:
            gx[:, 1:, fwd:split] = g[:, :-1, fwd:split]
            gx[:, 0, fwd:split] = 0.0
            _zero_padding(gx[:, :, fwd:split], lengths)
        accumulate_grad(x, gx, owned=True)

    return track(out, (x,), bwd)


def shift_augment(x: Tensor, cfg: ShiftConfig, prob: float = 0.5,
                  rng: np.random.Generator | None = None, lengths=None) -> Tensor:
    """Apply temporal_shift to the whole batch with probability `prob`.

    A training-time augmentation: callers skip it outside training. Each
    call draws exactly one uniform sample (even for prob 0 or 1) so
    downstream random streams stay aligned across configurations.
    `lengths` is passed on to :func:`temporal_shift`.
    """
    if not 0.0 <= prob <= 1.0:
        raise ConfigError(f"augmentation probability must lie in [0, 1], got {prob}")
    if rng is None:
        raise UsageError("shift_augment needs an explicit rng")
    if rng.random() < prob:
        return temporal_shift(x, cfg, lengths)
    return x
