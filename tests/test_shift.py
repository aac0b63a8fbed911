"""Temporal shift semantics, linearity properties, and the augmentation op."""

import numpy as np
import pytest

from shiftseq.errors import ConfigError, DimensionError, EmptyInputError, UsageError
from shiftseq.shift import ShiftConfig, shift_augment, shifted_channels, temporal_shift
from shiftseq.tensor_autograd import Tensor, grad_check


def shift_oracle(x, alpha, direction):
    """Element-by-element reference: out[b,t,c] pulled from t-1 or t+1."""
    b, t, c = x.shape
    total = int(np.floor(alpha * c))
    fwd = total if direction == "unidirectional" else (total + 1) // 2
    out = np.zeros_like(x)
    for bi in range(b):
        for ti in range(t):
            for ci in range(c):
                if ci < fwd:
                    out[bi, ti, ci] = x[bi, ti - 1, ci] if ti - 1 >= 0 else 0.0
                elif ci < total:
                    out[bi, ti, ci] = x[bi, ti + 1, ci] if ti + 1 < t else 0.0
                else:
                    out[bi, ti, ci] = x[bi, ti, ci]
    return out


ROWS = np.array([[[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]], dtype=np.float32)


class TestTemporalShift:
    def test_unidirectional_worked_example(self):
        cfg = ShiftConfig(alpha=0.5, direction="unidirectional")
        out = temporal_shift(Tensor(ROWS), cfg).data[0]
        assert np.array_equal(out, [[0, 0, 3, 4], [1, 2, 7, 8], [5, 6, 11, 12]])

    def test_bidirectional_worked_example(self):
        cfg = ShiftConfig(alpha=0.5, direction="bidirectional")
        out = temporal_shift(Tensor(ROWS), cfg).data[0]
        assert np.array_equal(out, [[0, 6, 3, 4], [1, 10, 7, 8], [5, 0, 11, 12]])

    def test_alpha_one_sixteenth_on_wide_tensor(self):
        cfg = ShiftConfig(alpha=1.0 / 16.0)
        assert shifted_channels(cfg, 768) == 48
        x = np.random.default_rng(0).standard_normal((1, 4, 768)).astype(np.float32)
        out = temporal_shift(Tensor(x), cfg).data
        assert np.array_equal(out, shift_oracle(x, 1.0 / 16.0, "unidirectional"))
        # untouched channels are bit-identical
        assert np.array_equal(out[:, :, 48:], x[:, :, 48:])

    @pytest.mark.parametrize("direction", ["unidirectional", "bidirectional"])
    def test_matches_loop_oracle(self, direction):
        rng = np.random.default_rng(1)
        for alpha in (0.5, 0.25, 0.125):
            for t in (1, 2, 5):
                for c in (2, 5, 8):
                    if int(np.floor(alpha * c)) < 1:
                        continue
                    x = rng.standard_normal((2, t, c)).astype(np.float32)
                    cfg = ShiftConfig(alpha=alpha, direction=direction)
                    out = temporal_shift(Tensor(x), cfg).data
                    assert np.array_equal(out, shift_oracle(x, alpha, direction))

    def test_odd_split_favors_forward_group(self):
        # S = 3 of C = 6: channels 0-1 forward, channel 2 backward.
        cfg = ShiftConfig(alpha=0.5, direction="bidirectional")
        x = np.arange(12.0, dtype=np.float32).reshape(1, 2, 6)
        out = temporal_shift(Tensor(x), cfg).data[0]
        assert np.array_equal(out[:, 0], [0.0, x[0, 0, 0]])
        assert np.array_equal(out[:, 1], [0.0, x[0, 0, 1]])
        assert np.array_equal(out[:, 2], [x[0, 1, 2], 0.0])
        assert np.array_equal(out[:, 3:], x[0][:, 3:])

    def test_linearity_is_exact(self):
        cfg = ShiftConfig(alpha=0.25, direction="bidirectional")
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 8)).astype(np.float32)
        y = rng.standard_normal((2, 5, 8)).astype(np.float32)
        a, b = np.float32(1.5), np.float32(-0.75)
        lhs = temporal_shift(Tensor(a * x + b * y), cfg).data
        rhs = a * temporal_shift(Tensor(x), cfg).data + b * temporal_shift(Tensor(y), cfg).data
        assert np.array_equal(lhs, rhs)

    def test_mass_balance(self):
        cfg = ShiftConfig(alpha=0.5, direction="bidirectional")
        x = np.random.default_rng(3).standard_normal((1, 6, 4)).astype(np.float64)
        out = temporal_shift(Tensor(x), cfg).data
        fwd, total = 1, 2  # S = 2, ceil/floor split
        dropped = x[0, -1, :fwd].sum() + x[0, 0, fwd:total].sum()
        assert np.isclose(out.sum(), x.sum() - dropped, atol=1e-12)

    def test_zero_input_zero_output(self):
        cfg = ShiftConfig(alpha=0.5)
        out = temporal_shift(Tensor(np.zeros((1, 3, 4))), cfg).data
        assert np.array_equal(out, np.zeros((1, 3, 4)))

    @pytest.mark.parametrize("direction", ["unidirectional", "bidirectional"])
    def test_gradients_linear_tolerance(self, direction):
        cfg = ShiftConfig(alpha=0.5, direction=direction)
        x = Tensor(np.random.default_rng(4).standard_normal((2, 4, 6)))
        report = grad_check(lambda t: temporal_shift(t, cfg), [x], tol=1e-6)
        assert report.passed, str(report)

    def test_zero_shifted_channels_rejected(self):
        cfg = ShiftConfig(alpha=1.0 / 16.0)
        with pytest.raises(ConfigError):
            temporal_shift(Tensor(np.zeros((1, 3, 4))), cfg)

    def test_empty_time_axis_rejected(self):
        with pytest.raises(EmptyInputError):
            temporal_shift(Tensor(np.zeros((1, 0, 4))), ShiftConfig(alpha=0.5))

    def test_rank_checked(self):
        with pytest.raises(DimensionError):
            temporal_shift(Tensor(np.zeros((3, 4))), ShiftConfig(alpha=0.5))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ShiftConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            ShiftConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            ShiftConfig(direction="sideways")
        with pytest.raises(ConfigError):
            ShiftConfig(placement="nowhere")


class TestShiftAugment:
    CFG = ShiftConfig(alpha=0.5)

    def test_prob_zero_is_identity(self):
        x = Tensor(np.random.default_rng(5).standard_normal((1, 4, 4)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = shift_augment(x, self.CFG, prob=0.0, rng=rng)
            assert np.array_equal(out.data, x.data)

    def test_prob_one_always_shifts(self):
        x = Tensor(np.random.default_rng(6).standard_normal((1, 4, 4)))
        expect = temporal_shift(x, self.CFG).data
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = shift_augment(x, self.CFG, prob=1.0, rng=rng)
            assert np.array_equal(out.data, expect)

    def test_monte_carlo_rate(self):
        x = Tensor(np.ones((1, 2, 2)))
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(10_000):
            out = shift_augment(x, self.CFG, prob=0.5, rng=rng)
            hits += out.data[0, 0, 0] == 0.0  # frame 0 of a shifted channel is zeroed
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_bad_prob_rejected(self):
        x = Tensor(np.ones((1, 2, 2)))
        for p in (-0.1, 1.1):
            with pytest.raises(ConfigError):
                shift_augment(x, self.CFG, prob=p, rng=np.random.default_rng(0))

    def test_training_requires_rng(self):
        with pytest.raises(UsageError):
            shift_augment(Tensor(np.ones((1, 2, 2))), self.CFG, prob=0.5, rng=None)

    def test_one_draw_per_call_keeps_streams_aligned(self):
        x = Tensor(np.ones((1, 2, 2)))
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        shift_augment(x, self.CFG, prob=0.0, rng=rng_a)
        shift_augment(x, self.CFG, prob=1.0, rng=rng_b)
        assert rng_a.random() == rng_b.random()
