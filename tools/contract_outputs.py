"""Write the behavioural contract's output files for the checkout this script is in.

Usage: python3 tools/contract_outputs.py OUTDIR

Everything goes through the ``shiftseq`` command (run as ``python -m
shiftseq`` on this checkout's ``src/``) and the public API:

* ``gen-data/``: a small synthetic dataset (2 groups, 48 records, 2 input
  layers, 32 channels, 50 frames) and the command's output;
* ``mixed-data/``: the same records cropped to 20-50 frames;
* ``long-data/``: 24 records (2 groups, 2 input layers, 32 channels)
  generated at 300 frames and cropped to 100-300, so that attention's
  softmax rows cross numpy's 128-element pairwise-sum block;
* ``train-{equal,mixed}-<model>/``: ``train --curves --augment-prob 0.5
  --seed 1`` (2 epochs, batch 8, 2 folds) for the six presets and
  ``transformer --mixer pooling``, with ``eval`` of fold 0 in ``eval.txt``;
* ``train-long-<model>/``: the same, on ``long-data/``, for ``transformer``
  and ``shiftformer``;
* ``count/<preset>.txt``: ``count --frames 100`` for the six presets;
* ``gradcheck.txt``: ``gradcheck --seeds 2``;
* ``checkpoints/<model>-<dtype>.ckpt``: freshly initialized float32 and
  float64 models of every preset and of five variants, at width 32.

Every file is deterministic, so ``diff -r`` of two OUTDIRs made from two
checkouts lists exactly the outputs a change moved. Commands run with
``OUTDIR`` as their working directory, so no printed path names it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from shiftseq import (  # noqa: E402
    PRESETS,
    FeatureSequence,
    ShiftConfig,
    build_model,
    preset_config,
    read_fseq,
    save_checkpoint,
    write_fseq,
)

DATA = {"num_layers": 2, "channels": 32, "frames": 50, "groups": 2, "per_class_per_group": 6}
LONG_DATA = {"num_layers": 2, "channels": 32, "frames": 300, "groups": 2, "per_class_per_group": 3}
TRAIN = {"epochs": 2, "batch_size": 8, "warmup_epochs": 1}
MODELS = {name: ["--preset", name] for name in PRESETS}
MODELS["transformer-pooling"] = ["--preset", "transformer", "--mixer", "pooling"]
LONG_MODELS = ("transformer", "shiftformer")


def _variants() -> dict:
    out = {name: preset_config(name, width=32) for name in PRESETS}
    for name, base, changes in (
            ("transformer-pooling", "transformer", dict(mixer="pooling")),
            ("transformer-none", "transformer", dict(mixer="none")),
            ("transformer-residual-shift", "transformer", dict(shift=ShiftConfig(
                alpha=0.25, direction="bidirectional", placement="residual"))),
            ("lstm-residual-shift", "lstm", dict(shift=ShiftConfig(
                alpha=0.25, direction="unidirectional", placement="residual"))),
            ("cnn-in-place-shift", "cnn", dict(shift=ShiftConfig(
                alpha=0.25, direction="unidirectional", placement="in_place")))):
        out[name] = dataclasses.replace(preset_config(base, width=32), **changes)
    return out


def _shiftseq(out_dir: str, stdout_name: str, *argv: str) -> None:
    """Run one ``shiftseq`` command in `out_dir`, saving its stdout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-m", "shiftseq", *argv], cwd=out_dir, env=env,
                         capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"shiftseq {' '.join(argv)} failed:\n{run.stderr}")
    with open(os.path.join(out_dir, stdout_name), "w", encoding="utf-8") as f:
        f.write(run.stdout)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True)


def _crop(out_dir: str, src: str, dst: str, frames) -> None:
    """Write the records of `src`/data.fseq, record i cut to its first frames(i) frames, to `dst`/data.fseq."""
    full = read_fseq(os.path.join(out_dir, src, "data.fseq"))
    cropped = [FeatureSequence(r.label, r.group, r.data[:, :frames(i)])
               for i, r in enumerate(full.records)]
    os.makedirs(os.path.join(out_dir, dst), exist_ok=True)
    write_fseq(os.path.join(out_dir, dst, "data.fseq"), cropped, full.k_cls)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "data.json"), {"data": DATA})
    _write_json(os.path.join(out, "long-data.json"), {"data": LONG_DATA})
    _write_json(os.path.join(out, "train.json"), {"train": TRAIN})

    _shiftseq(out, "gen-data.txt", "gen-data", "--config", "data.json", "--out", "gen-data")
    _crop(out, "gen-data", "mixed-data", lambda i: 20 + (7 * i) % 31)
    _shiftseq(out, "gen-long-data.txt", "gen-data", "--config", "long-data.json", "--out", "gen-long-data")
    _crop(out, "gen-long-data", "long-data", lambda i: 100 + (37 * i) % 201)

    runs = [(data, name, flags) for data in ("equal", "mixed") for name, flags in MODELS.items()]
    runs += [("long", name, MODELS[name]) for name in LONG_MODELS]
    data_dirs = {"equal": "gen-data", "mixed": "mixed-data", "long": "long-data"}
    for data, name, flags in runs:
        fseq = os.path.join(data_dirs[data], "data.fseq")
        run_dir = f"train-{data}-{name}"
        _shiftseq(out, f"{run_dir}.txt", "train", fseq, *flags, "--config", "train.json",
                  "--seed", "1", "--augment-prob", "0.5", "--curves", "--out", run_dir)
        _shiftseq(out, os.path.join(run_dir, "eval.txt"),
                  "eval", os.path.join(run_dir, "fold0.ckpt"), fseq)

    os.makedirs(os.path.join(out, "count"), exist_ok=True)
    for name in PRESETS:
        _shiftseq(out, os.path.join("count", f"{name}.txt"),
                  "count", "--preset", name, "--frames", "100")
    _shiftseq(out, "gradcheck.txt", "gradcheck", "--seeds", "2")

    os.makedirs(os.path.join(out, "checkpoints"), exist_ok=True)
    for name, cfg in _variants().items():
        for dtype in (np.float32, np.float64):
            save_checkpoint(os.path.join(out, "checkpoints", f"{name}-{np.dtype(dtype).name}.ckpt"),
                            build_model(cfg, seed=5, dtype=dtype))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
