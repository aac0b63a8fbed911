"""End-to-end tests for the command-line interface.

Each subcommand runs through `main(argv)` against tiny datasets in
temporary directories. The focus is plumbing: flags reach the right
configs, outputs land where promised, reruns are byte-identical, and
bad input exits nonzero with a message instead of a traceback.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import shiftseq
from shiftseq.blocks import CheckpointError, build_model, load_checkpoint, preset_config, save_checkpoint
from shiftseq.cli import _load_config, main
from shiftseq.data import read_fseq
from shiftseq.errors import ConfigError
from shiftseq.shift import ShiftConfig, temporal_shift
from shiftseq.tensor_autograd import Tensor

DATA_CFG = {
    "channels": 16, "frames": 24, "groups": 3, "per_class_per_group": 2,
    "group_a_start": 0, "group_b_start": 8, "group_width": 8,
    "min_gap": 6, "margin": 4,
}
TRAIN_CFG = {"epochs": 1, "batch_size": 8, "warmup_epochs": 0, "peak_lr": 5e-4}


def write_config(path, **sections):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(sections, f)
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "cfg.json", data=DATA_CFG, train=TRAIN_CFG)
    assert main(["gen-data", "--config", cfg, "--out", str(root / "data"),
                 "--seed", "3"]) == 0
    return root


@pytest.fixture(scope="module")
def data_path(workdir):
    return str(workdir / "data" / "data.fseq")


@pytest.fixture(scope="module")
def config_path(workdir):
    return str(workdir / "cfg.json")


def test_gen_data_outputs(workdir, data_path):
    assert os.path.exists(data_path)
    assert os.path.exists(data_path + ".manifest.json")
    fseq = read_fseq(data_path)
    assert len(fseq.records) == 3 * 4 * 2
    assert fseq.k_cls == 4
    assert fseq.records[0].data.shape == (1, 24, 16)


def test_gen_data_deterministic(workdir, config_path, data_path, capsys):
    for sub, seed in (("a", "3"), ("b", "4")):
        assert main(["gen-data", "--config", config_path,
                     "--out", str(workdir / sub), "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert "records=24 k_cls=4 groups=3" in out
    original = open(data_path, "rb").read()
    assert open(workdir / "a" / "data.fseq", "rb").read() == original
    assert open(workdir / "b" / "data.fseq", "rb").read() != original


def test_gen_data_rejects_a_negative_seed(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "data"), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "got -1" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "data")


def test_gen_data_empty(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       data=dict(DATA_CFG, per_class_per_group=0))
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    fseq = read_fseq(tmp_path / "d" / "data.fseq")
    assert fseq.records == [] and fseq.k_cls == 4


def test_train_outputs_and_determinism(workdir, config_path, data_path, capsys):
    for sub in ("run1", "run2"):
        assert main(["train", data_path, "--config", config_path,
                     "--preset", "shiftcnn", "--out", str(workdir / sub),
                     "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("fold=mean") == 2

    metrics = open(workdir / "run1" / "metrics.txt", "rb").read()
    assert metrics == open(workdir / "run2" / "metrics.txt", "rb").read()
    lines = metrics.decode().splitlines()
    assert len(lines) == 4 and lines[-1].startswith("fold=mean ")
    for line in lines[:-1]:
        fields = dict(part.split("=") for part in line.split())
        assert set(fields) == {"fold", "ua", "wa", "loss"}
        assert 0.0 <= float(fields["ua"]) <= 1.0

    for fold in range(3):
        cfg, params, extra = load_checkpoint(
            workdir / "run1" / f"fold{fold}.ckpt")
        assert extra["fold"] == fold
        assert 0.0 <= extra["ua"] <= 1.0
        assert extra["train"]["epochs"] == 1
        assert cfg.family == "cnn" and cfg.shift is not None


def test_train_preset_sized_from_data(workdir):
    cfg, _, _ = load_checkpoint(workdir / "run1" / "fold0.ckpt")
    assert cfg.channels == (16, 64, 16)
    assert cfg.num_classes == 4
    assert cfg.num_input_layers == 1


def test_train_shift_flag_overlay(workdir, config_path, data_path):
    assert main(["train", data_path, "--config", config_path,
                 "--preset", "shiftcnn", "--out", str(workdir / "overlay"),
                 "--alpha", "0.5", "--placement", "inplace",
                 "--direction", "bi"]) == 0
    cfg, _, _ = load_checkpoint(workdir / "overlay" / "fold0.ckpt")
    assert cfg.shift == ShiftConfig(alpha=0.5, direction="bidirectional",
                                    placement="in_place")


def test_train_augment_and_curves(workdir, config_path, data_path):
    assert main(["train", data_path, "--config", config_path,
                 "--preset", "lstm", "--out", str(workdir / "curves"),
                 "--augment-prob", "0.5", "--curves"]) == 0
    _, _, extra = load_checkpoint(workdir / "curves" / "fold0.ckpt")
    assert extra["train"]["augment_prob"] == 0.5
    lines = open(workdir / "curves" / "curves.txt").read().splitlines()
    assert lines, "curves file is empty"
    for line in lines:
        fields = dict(part.split("=") for part in line.split())
        assert set(fields) == {"fold", "step", "lr", "loss"}
        assert float(fields["lr"]) >= 0.0


def test_train_model_section_with_preset(workdir, data_path, tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json",
        model={"preset": "transformer", "width": 16},
        train=TRAIN_CFG)
    assert main(["train", data_path, "--config", cfg_path,
                 "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    cfg, _, _ = load_checkpoint(tmp_path / "run" / "fold0.ckpt")
    assert cfg.family == "transformer" and cfg.channels[0] == 16


def test_train_requires_model(workdir, config_path, data_path, capsys):
    assert main(["train", data_path, "--config", config_path,
                 "--out", str(workdir / "nomodel")]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_on_one_group_names_the_group_count(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", data=dict(DATA_CFG, groups=1), train=TRAIN_CFG)
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    assert main(["train", str(tmp_path / "data" / "data.fseq"), "--config", cfg, "--preset", "cnn",
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least 2 groups, got 1" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "run")


def test_train_channel_mismatch(workdir, data_path, tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "cfg.json",
        model={"preset": "cnn", "width": 32},
        train=TRAIN_CFG)
    assert main(["train", data_path, "--config", cfg_path,
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "channels" in err


def test_eval_prints_metrics(workdir, data_path, capsys):
    ckpt = str(workdir / "run1" / "fold0.ckpt")
    assert main(["eval", ckpt, data_path]) == 0
    out = capsys.readouterr().out
    first = out.splitlines()[0]
    fields = dict(part.split("=") for part in first.split())
    assert 0.0 <= float(fields["ua"]) <= 1.0
    assert 0.0 <= float(fields["wa"]) <= 1.0
    assert "confusion" in out


def test_eval_rejects_labels_beyond_the_model_classes(data_path, tmp_path, capsys):
    """The data holds labels 0..3; a 3-class model cannot score label 3."""
    ckpt = tmp_path / "three.ckpt"
    save_checkpoint(ckpt, build_model(preset_config("cnn", width=16, num_classes=3,
                                                    num_input_layers=1), seed=0))
    assert main(["eval", str(ckpt), data_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[3]" in err and "Traceback" not in err


def test_eval_missing_checkpoint(workdir, data_path, capsys):
    assert main(["eval", str(workdir / "nope.ckpt"), data_path]) == 1
    assert "error:" in capsys.readouterr().err


def test_count_shift_preset_matches_baseline(capsys):
    assert main(["count", "--preset", "shiftcnn", "--frames", "10"]) == 0
    out = capsys.readouterr().out
    total = next(line for line in out.splitlines() if line.startswith("TOTAL"))
    assert int(total.split()[1]) == 9_463_313
    assert "params 9463313 vs 9463313 (delta 0)" in out
    delta_lines = [line for line in out.splitlines() if "delta" in line]
    assert all("(delta 0)" in line for line in delta_lines)
    differing = next(line for line in out.splitlines() if "differing rows" in line)
    rows = differing.split(":", 1)[1].strip()
    assert rows and all(name.endswith(".shift") for name in rows.split(", "))


def test_count_attention_deficit(capsys):
    assert main(["count", "--preset", "shiftformer", "--frames", "10"]) == 0
    out = capsys.readouterr().out
    params_line = next(line for line in out.splitlines() if "params" in line
                       and "delta" in line)
    assert "(delta -4726800)" in params_line


def test_count_shift_preset_with_attention_mixer(capsys):
    """--mixer attention on the shiftformer keeps its shift, now on the attention branch."""
    assert main(["count", "--preset", "shiftformer", "--mixer", "attention",
                 "--frames", "10"]) == 0
    out = capsys.readouterr().out
    assert "vs no-shift baseline (transformer)" in out
    assert "differing rows: blocks.0.shift, blocks.1.shift" in out


def test_count_flags_turn_the_transformer_into_the_shiftformer(capsys):
    """--mixer shift and the shift flags change the config together: the
    shift mixer alone, with no shift yet, is not a valid config."""
    assert main(["count", "--preset", "transformer", "--mixer", "shift", "--placement",
                 "residual", "--direction", "bi", "--alpha", "0.25"]) == 0
    flagged = capsys.readouterr().out
    assert main(["count", "--preset", "shiftformer"]) == 0
    assert flagged == capsys.readouterr().out


@pytest.mark.parametrize("preset,mixer", [("shiftformer", "none"), ("shiftcnn", "pooling")])
def test_count_rejects_a_mixer_the_model_would_ignore(capsys, preset, mixer):
    """A residual shift with no mixer branch never runs; cnn and lstm blocks have no mixer."""
    assert main(["count", "--preset", preset, "--mixer", mixer]) == 1
    assert "error:" in capsys.readouterr().err


def test_mixer_flag_off_attention_needs_default_heads(tmp_path, capsys):
    """heads and clip_dist are read only by attention, so a config that sets
    them cannot switch to another mixer and keep them."""
    model = {"family": "transformer", "channels": [16, 64, 16], "heads": 4}
    cfg = write_config(tmp_path / "cfg.json", model=model)
    assert main(["count", "--config", cfg]) == 0
    assert main(["count", "--config", cfg, "--mixer", "pooling"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: heads=4 is not read by family 'transformer' with mixer 'pooling'")


def test_count_draws_no_init(monkeypatch, capsys):
    """count reads shapes only, so neither model draws its weights."""
    def no_draw(*args):
        raise AssertionError("count drew from the init stream")

    monkeypatch.setattr("shiftseq.blocks.model.substream", no_draw)
    assert main(["count", "--preset", "shiftlstm", "--frames", "10"]) == 0
    assert "vs no-shift baseline (lstm)" in capsys.readouterr().out


def test_count_plain_preset_has_no_baseline(capsys):
    assert main(["count", "--preset", "cnn"]) == 0
    assert "no baseline" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m shiftseq` is the `shiftseq` command: same stdout, same exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftseq.__file__)))
    argv = ["count", "--preset", "cnn", "--frames", "10"]
    proc = subprocess.run([sys.executable, "-m", "shiftseq", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert main(argv) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


def test_count_requires_model(capsys):
    assert main(["count"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "train"])
def test_preset_flag_and_model_section_cannot_both_name_the_model(data_path, tmp_path, capsys, command):
    """Neither source of the model is ignored: naming it twice is an error."""
    cfg = write_config(tmp_path / "cfg.json", model={"preset": "transformer", "width": 16}, train=TRAIN_CFG)
    argv = ["count"] if command == "count" else ["train", data_path, "--out", str(tmp_path / "run")]
    assert main(argv + ["--config", cfg, "--preset", "cnn"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--preset" in err and "model section" in err
    assert not os.path.exists(tmp_path / "run")


def test_count_rejects_bad_frames(capsys):
    assert main(["count", "--preset", "cnn", "--frames", "0"]) == 1
    assert "frames" in capsys.readouterr().err


def test_unknown_config_section(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", modle={"preset": "cnn"})
    assert main(["count", "--config", cfg]) == 1
    assert "modle" in capsys.readouterr().err


def test_unknown_model_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       model={"preset": "cnn", "widht": 64})
    assert main(["count", "--config", cfg]) == 1
    assert "widht" in capsys.readouterr().err


def test_unknown_train_key(workdir, data_path, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       train=dict(TRAIN_CFG, momentum=0.9))
    assert main(["train", data_path, "--config", cfg, "--preset", "cnn",
                 "--out", str(tmp_path / "run")]) == 1
    assert "momentum" in capsys.readouterr().err


@pytest.mark.parametrize("sections", [
    dict(train=dict(TRAIN_CFG, epochs="3")),
    dict(model={"family": "cnn", "channels": 16}),
    dict(model={"family": "cnn", "channels": [16, 32, 16], "blocks": "2"}),
    dict(train=dict(TRAIN_CFG, peak_lr=math.inf)),    # written as JSON Infinity
    dict(train=dict(TRAIN_CFG, weight_decay=math.nan)),
])
def test_mistyped_config_value_exits_one(workdir, data_path, tmp_path, capsys, sections):
    cfg = write_config(tmp_path / "cfg.json", **sections)
    preset = [] if "model" in sections else ["--preset", "cnn"]  # the model is named once
    assert main(["train", data_path, "--config", cfg, *preset,
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("value", [[], 0, "", False, None])
@pytest.mark.parametrize("section", ["train", "data"])
def test_non_mapping_section_exits_one(data_path, tmp_path, capsys, section, value):
    """Only a mapping configures a section; `{}` (or no section) means defaults."""
    cfg = write_config(tmp_path / "cfg.json", **{section: value})
    argv = ["train", data_path, "--preset", "cnn"] if section == "train" else ["gen-data"]
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section} config must be a mapping")
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("model", [
    {"preset": "shiftcnn", "num_classes": "4"},
    {"preset": "shiftcnn", "num_input_layers": True},
    {"preset": "shiftcnn", "width": 16.0},
    {"preset": "shiftcnn", "width": None},
    {"preset": ["shiftcnn"]},
    5,
])
@pytest.mark.parametrize("command", ["count", "train"])
def test_mistyped_preset_section_exits_one(workdir, data_path, tmp_path, capsys, model, command):
    cfg = write_config(tmp_path / "cfg.json", model=model, train=TRAIN_CFG)
    argv = ["count", "--config", cfg] if command == "count" else \
        ["train", data_path, "--config", cfg, "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not os.path.exists(tmp_path / "run")


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["count", "--config", str(path)]) == 1
    assert "JSON" in capsys.readouterr().err


# JSON that the decoder fails on in ways other than a JSONDecodeError
BAD_UTF8 = b'{"model": {"preset": "cnn\xff"}}'
DEEP = b"[" * 200_000
LONG_INT = b'{"train": {"seed": ' + b"9" * 5000 + b"}}"


@pytest.mark.parametrize("blob", [BAD_UTF8, DEEP, LONG_INT], ids=["non-utf8", "deep", "long-int"])
def test_undecodable_config_file_exits_one(tmp_path, capsys, blob):
    path = tmp_path / "cfg.json"
    path.write_bytes(blob)
    with pytest.raises(ConfigError, match="not valid JSON"):
        _load_config(str(path))
    assert main(["count", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not valid JSON") and "Traceback" not in err


@pytest.mark.parametrize("blob", [DEEP, LONG_INT], ids=["deep", "long-int"])
def test_undecodable_checkpoint_config_exits_one(data_path, tmp_path, capsys, blob):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(preset_config("cnn", width=16, num_input_layers=1), seed=0))
    raw = path.read_bytes()
    end = 12 + int.from_bytes(raw[8:12], "little")
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[end:])
    with pytest.raises(CheckpointError, match="checkpoint config is not valid JSON"):
        load_checkpoint(path)
    assert main(["eval", str(path), data_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint config is not valid JSON") and "Traceback" not in err


def test_config_file_repeating_a_key_exits_one(tmp_path, capsys):
    """json.loads would keep the second "model" section and drop the first."""
    path = tmp_path / "cfg.json"
    path.write_text('{"model": {"family": "cnn", "channels": [16, 64, 16]}, '
                    '"model": {"family": "lstm", "channels": [16, 32]}}')
    with pytest.raises(ConfigError, match="repeats the key 'model'"):
        _load_config(str(path))
    assert main(["count", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: config file {path} repeats the key 'model'\n" and captured.out == ""


def test_checkpoint_config_repeating_a_key_raises(data_path, tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(preset_config("cnn", width=16, num_input_layers=1), seed=0))
    raw = path.read_bytes()
    end = 12 + int.from_bytes(raw[8:12], "little")
    model = json.dumps(json.loads(raw[12:end])["model"]).encode()
    blob = b'{"model": ' + model + b', "extra": {"fold": 0, "fold": 1}}'
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[end:])
    with pytest.raises(CheckpointError, match="checkpoint config repeats the key 'fold'"):
        load_checkpoint(path)
    assert main(["eval", str(path), data_path]) == 1
    assert capsys.readouterr().err.startswith("error: checkpoint config repeats the key 'fold'")


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--preset", "cnn", "--bogus"])
    assert exc.value.code == 2


def test_shift_inspect_round_trip(workdir, data_path):
    out_path = str(workdir / "shifted.fseq")
    assert main(["shift-inspect", data_path, out_path,
                 "--alpha", "0.25", "--direction", "bi"]) == 0
    src = read_fseq(data_path)
    dst = read_fseq(out_path)
    cfg = ShiftConfig(alpha=0.25, direction="bidirectional")
    assert len(dst.records) == len(src.records)
    for a, b in zip(src.records, dst.records):
        assert (b.label, b.group) == (a.label, a.group)
        expected = temporal_shift(Tensor(a.data), cfg).data
        np.testing.assert_array_equal(b.data, expected)


def test_gradcheck_single_seed(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    assert "all passed" in capsys.readouterr().out
