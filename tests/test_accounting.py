"""Cost reports: parameter totals, FLOP formulas, and zero-cost shift rows."""

import hashlib
import itertools

import numpy as np
import pytest

from shiftseq.accounting import CostEntry, CostReport, count_flops, count_params
from shiftseq.blocks import ModelConfig, build_model, preset_config
from shiftseq.blocks.model import FAMILIES, MIXERS
from shiftseq.errors import ConfigError, UsageError
from shiftseq.shift import DIRECTIONS, PLACEMENTS, ShiftConfig, temporal_shift
from shiftseq.tensor_autograd import Tensor


def small(family="cnn", **kw):
    base = dict(channels=(8, 16, 8), blocks=2, kernel=3, heads=2,
                num_classes=3, num_input_layers=2, clip_dist=4)
    if family == "lstm":
        base = dict(channels=(8, 12), blocks=1, num_classes=3, num_input_layers=2)
    base.update(kw)
    return build_model(ModelConfig(family=family, **base), seed=0)


# ---------------------------------------------------------------------------
# parameter columns agree with the actual tensors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["shiftcnn", "cnn", "shiftformer",
                                    "transformer", "shiftlstm", "lstm"])
def test_count_params_matches_tensor_sizes(preset):
    model = build_model(preset_config(preset), seed=0)
    report = count_params(model)
    assert report.total_params == model.num_parameters()
    assert report.total_flops == 0
    assert report.total_ew_flops == 0


# SHA-256 of each preset's count report at 100 frames, and its TOTAL line. The
# reports hold only integers, so these do not depend on platform or BLAS.
PRESET_REPORTS = {
    "shiftcnn": ("ad5ded636156f6a00b4b0304e85ee6118c38d482caadb78ab69c23748fad9789",
                 "name=TOTAL params=9463313 flops=1889593344 ew_flops=8986437"),
    "cnn": ("9ffa45add65f863c37b8682271a7d78278aaee1f12bd4397364c47839fd79c8a",
            "name=TOTAL params=9463313 flops=1889593344 ew_flops=8986437"),
    "shiftformer": ("6eec50e120e6af6990a538ae9da9554f62f1a49d3183a536d22084f3d1e26b0c",
                    "name=TOTAL params=9454097 flops=1887442944 ew_flops=9908037"),
    "transformer": ("2c86639c82b16f7044c191e62541b4c40ad8f7a6ca9fa2a2d7be196f68642b2c",
                    "name=TOTAL params=14180897 flops=2892601344 ew_flops=11642437"),
    "shiftlstm": ("fcc1744d1208d35fb632c7f952c7f436183bf4aadcf06797f1aa8362d4a37155",
                  "name=TOTAL params=9449489 flops=1887449088 ew_flops=7067205"),
    "lstm": ("467714f4712dc268b99979da9c55d00a3384ec2b553502a6fe1f712e5c3a24db",
             "name=TOTAL params=9449489 flops=1887449088 ew_flops=7067205"),
}


@pytest.mark.parametrize("preset", sorted(PRESET_REPORTS))
def test_preset_count_reports_are_pinned(preset):
    """Every row of every preset's report, byte for byte: a refactor that moves
    a cost row, renames it or changes a count fails here."""
    report = count_flops(build_model(preset_config(preset), seed=None), 100).format_machine()
    digest, total = PRESET_REPORTS[preset]
    assert report.splitlines()[-1] == total
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_count_params_matches_tensor_sizes_for_variants():
    for model in (small("cnn", shift=ShiftConfig(alpha=0.25, placement="in_place")),
                  small("transformer", mixer="pooling"),
                  small("transformer", mixer="none"),
                  small("transformer", heads=1, clip_dist=1),
                  small("lstm", shift=ShiftConfig(alpha=0.25, placement="residual")),
                  small("lstm", blocks=2)):
        assert count_params(model).total_params == model.num_parameters()


# ---------------------------------------------------------------------------
# FLOP formulas
# ---------------------------------------------------------------------------

def test_wide_linear_layer_example():
    model = build_model(preset_config("transformer"), seed=0)
    e = count_flops(model, 100).entry("blocks.0.pw1")
    assert e.params == 768 * 3072 + 3072 == 2_362_368
    assert e.flops == 2 * 768 * 3072 * 100 == 471_859_200
    assert e.ew_flops == 3072 * 100


def test_depthwise_conv_flops():
    e = count_flops(small("cnn"), 10).entry("blocks.0.dw")
    assert e.params == 3 * 8 + 8
    assert e.flops == 2 * 3 * 8 * 10
    assert e.ew_flops == 8 * 10


def test_attention_flops_have_quadratic_term():
    model = small("transformer")
    t1, t2 = 4, 8
    f = {t: count_flops(model, t).entry("blocks.0.attn").flops for t in (t1, t2)}
    c = 8
    for t in (t1, t2):
        assert f[t] == 8 * c * c * t + 4 * t * t * c
    assert f[t2] > 2 * f[t1]  # superlinear growth


def test_attention_elementwise_costs():
    e = count_flops(small("transformer"), 4).entry("blocks.0.attn")
    heads, c, t = 2, 8, 4
    # biases + softmax + scaling + relative-position add
    assert e.ew_flops == 4 * c * t + 5 * heads * t * t + heads * t * t + heads * t * t


def test_lstm_flops():
    e = count_flops(small("lstm"), 5).entry("blocks.0.rnn")
    c, h, t = 8, 6, 5
    assert e.params == 2 * (c * 4 * h + h * 4 * h + 4 * h)
    assert e.flops == 2 * 2 * (c + h) * 4 * h * t
    assert e.ew_flops == 2 * 32 * h * t


def test_norm_and_gelu_and_residual_buckets():
    report = count_flops(small("cnn"), 10)
    assert report.entry("blocks.0.norm").ew_flops == 6 * 8 * 10
    assert report.entry("blocks.0.gelu").ew_flops == 8 * 16 * 10
    assert report.entry("blocks.0.residual").ew_flops == 8 * 10
    assert report.entry("blocks.0.norm").flops == 0


def test_pooling_mixer_costs():
    report = count_flops(small("transformer", mixer="pooling"), 10)
    assert report.entry("blocks.0.pool").ew_flops == (3 + 1) * 8 * 10
    assert report.entry("blocks.0.pool").params == 0


def test_head_and_pool_entries():
    report = count_flops(small("cnn"), 10)
    assert report.entry("mean_pool") == CostEntry("mean_pool", 0, 0, 8 * 11)
    assert report.entry("head") == CostEntry("head", 8 * 3 + 3, 2 * 8 * 3, 3)


# ---------------------------------------------------------------------------
# the shift is free
# ---------------------------------------------------------------------------

def test_shift_rows_are_all_zero():
    shift = ShiftConfig(alpha=0.25, direction="bidirectional", placement="residual")
    report = count_flops(small("transformer", mixer="shift", shift=shift), 20)
    row = report.entry("blocks.0.mixer_shift")
    assert (row.params, row.flops, row.ew_flops) == (0, 0, 0)
    report = count_flops(small("cnn", shift=ShiftConfig(alpha=0.25, placement="residual")), 20)
    row = report.entry("blocks.1.shift")
    assert (row.params, row.flops, row.ew_flops) == (0, 0, 0)


@pytest.mark.parametrize("pair", [("shiftcnn", "cnn"), ("shiftlstm", "lstm")])
def test_shift_hosts_cost_exactly_what_baselines_cost(pair):
    shifted = build_model(preset_config(pair[0]), seed=0)
    plain = build_model(preset_config(pair[1]), seed=0)
    a, b = count_flops(shifted, 100), count_flops(plain, 100)
    assert a.total_params == b.total_params
    assert a.total_flops == b.total_flops
    assert a.total_ew_flops == b.total_ew_flops
    # the reports differ only by the zero-valued shift rows
    for name in a.diff(b):
        assert name.endswith(".shift")
        assert a.entry(name) == CostEntry(name, 0, 0, 0)


def test_diff_spots_real_changes():
    a = count_flops(small("cnn"), 10)
    b = count_flops(small("cnn", kernel=5), 10)
    assert any(n.endswith(".dw") for n in a.diff(b))


# ---------------------------------------------------------------------------
# report hygiene
# ---------------------------------------------------------------------------

def test_reports_are_pure_integer():
    report = count_flops(build_model(preset_config("shiftformer"), seed=0), 100)
    for e in report.entries:
        assert type(e.params) is int and type(e.flops) is int and type(e.ew_flops) is int
    assert type(report.total_flops) is int


def test_format_machine_lines_are_parseable():
    report = count_flops(small("cnn"), 10)
    lines = report.format_machine().splitlines()
    assert len(lines) == len(report.entries) + 1
    for line in lines:
        fields = dict(kv.split("=") for kv in line.split())
        assert set(fields) == {"name", "params", "flops", "ew_flops"}
        int(fields["params"]), int(fields["flops"]), int(fields["ew_flops"])
    assert lines[-1].startswith("name=TOTAL ")
    assert f"params={report.total_params}" in lines[-1]


def test_format_table_has_all_rows():
    report = count_params(small("lstm"))
    table = report.format_table()
    assert "component" in table and "TOTAL" in table
    for e in report.entries:
        assert e.name in table


def test_count_flops_rejects_bad_frames():
    model = small("cnn")
    with pytest.raises(UsageError):
        count_flops(model, 0)
    with pytest.raises(UsageError):
        count_flops(model, -3)
    with pytest.raises(UsageError):
        count_flops(model, 2.5)
    with pytest.raises(UsageError, match="True"):
        count_flops(model, True)  # not a 1-frame report


@pytest.mark.parametrize("frames", [np.int64(10), np.int32(10), np.uint16(10)])
def test_count_flops_takes_numpy_integer_frames(frames):
    model = small("cnn")
    assert count_flops(model, frames) == count_flops(model, 10)


def test_entry_lookup_raises_on_missing_name():
    with pytest.raises(KeyError):
        count_params(small("cnn")).entry("blocks.9.dw")


# ---------------------------------------------------------------------------
# every counted shift row is a shift that runs
# ---------------------------------------------------------------------------

def test_shift_rows_match_shifts_run(monkeypatch):
    """One eval forward calls temporal_shift once per *.shift / *.mixer_shift row."""
    calls = []

    def counting_shift(x, cfg, lengths=None):
        calls.append(cfg)
        return temporal_shift(x, cfg, lengths)

    monkeypatch.setattr("shiftseq.blocks.model.temporal_shift", counting_shift)
    checked = 0
    for family, mixer, placement, direction in itertools.product(FAMILIES, MIXERS, PLACEMENTS, DIRECTIONS):
        try:
            model = small(family, mixer=mixer,
                          shift=ShiftConfig(alpha=0.25, direction=direction, placement=placement))
        except ConfigError:
            continue
        rows = [e.name for e in count_flops(model, 6).entries
                if e.name.endswith((".shift", ".mixer_shift"))]
        calls.clear()
        x = np.random.default_rng(0).standard_normal((2, 2, 6, model.cfg.channels[0]))
        model.forward(Tensor(x.astype(np.float32)))
        assert len(calls) == len(rows), (family, mixer, placement, direction, rows)
        checked += 1
    # 4 placement x direction pairs: cnn and lstm take the default mixer only;
    # the transformer takes all 4 mixers but neither shift + in_place nor none + residual
    assert checked == 4 + 4 + (4 * 4 - 2 - 2)
