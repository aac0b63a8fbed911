"""Self-describing binary checkpoints.

Layout (all integers little-endian u32 unless noted):

    magic   4 bytes, b"SSCK"
    version u32, currently 1
    clen    u32, byte length of the UTF-8 JSON model config that follows
    config  clen bytes
    nparams u32
    then per parameter, in model order:
        nlen  u32, name bytes (UTF-8)
        ndim  u32, then ndim u32 dims
        data  prod(dims) float32 little-endian values
    nbuffers u32, always 0: no model keeps state beyond its parameters,
             so a buffer record is rejected

Loading validates every length against the remaining byte count before
allocating, so a truncated or corrupted file raises CheckpointError rather
than producing a half-filled model, as does a NaN or infinite value. Each
payload is copied out of the file image once (the reader hands out views of
it), and the rebuilt model takes those arrays as its parameters.
The model is built without drawing an init, which is safe because the
name and shape checks require the file to supply every parameter.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import ModelConfig, SequenceClassifier, build_model, config_from_dict, config_to_dict
from ..data import ByteReader, write_atomic
from ..errors import ConfigError

MAGIC = b"SSCK"
VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed, truncated, or mismatched with its config."""


def save_checkpoint(path, model: SequenceClassifier, extra: dict | None = None) -> None:
    """Write the model config and all parameters to `path`.

    `extra` is merged into the config JSON under the key "extra" and round
    trips through :func:`load_checkpoint` untouched.
    """
    payload = {"model": config_to_dict(model.cfg)}
    if extra:
        payload["extra"] = extra
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")

    def records(items):
        chunks = [struct.pack("<I", len(items))]
        for name, arr in items:
            data = np.ascontiguousarray(arr, dtype="<f4")
            name_b = name.encode("utf-8")
            chunks.append(struct.pack("<I", len(name_b)))
            chunks.append(name_b)
            chunks.append(struct.pack("<I", data.ndim))
            chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
            chunks.append(data.tobytes())
        return chunks

    parts = [MAGIC, struct.pack("<II", VERSION, len(blob)), blob]
    parts.extend(records([(n, p.data) for n, p in model.named_parameters().items()]))
    parts.extend(records([]))  # the always-empty buffer section
    write_atomic(path, parts)


def _read_records(r: ByteReader) -> "dict[str, np.ndarray]":
    count = r.u32("record count")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        what = f"record {i}"
        try:
            name = bytes(r.take(r.u32(what), what)).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{what} name is not valid UTF-8: {e}") from e
        ndim = r.u32(what)
        if ndim > 8:
            raise CheckpointError(f"record {name!r} claims {ndim} dimensions")
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim, what))
        n_elems = 1
        for d in shape:
            n_elems *= d
        data = np.frombuffer(r.take(4 * n_elems, what), dtype="<f4").reshape(shape)
        if name in out:
            raise CheckpointError(f"duplicate record {name!r}")
        out[name] = data.astype(np.float32)
        if not np.isfinite(out[name]).all():
            raise CheckpointError(f"record {name!r} holds a nonfinite value")
    return out


def load_checkpoint(path) -> tuple[ModelConfig, "dict[str, np.ndarray]", dict]:
    """Parse a checkpoint; returns (config, params, extra).

    Raises CheckpointError on any buffer record: the section must be empty.
    """
    with open(path, "rb") as f:
        r = ByteReader(f.read(), CheckpointError, "checkpoint")
    if bytes(r.take(4, "magic")) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        payload = json.loads(bytes(r.take(r.u32("config"), "config")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"checkpoint config is not valid JSON: {e}") from e
    if not isinstance(payload, dict) or "model" not in payload:
        raise CheckpointError("checkpoint config lacks a 'model' entry")
    try:
        cfg = config_from_dict(payload["model"])
    except ConfigError as e:
        raise CheckpointError(f"checkpoint carries an invalid model config: {e}") from e
    params = _read_records(r)
    buffers = _read_records(r)
    if buffers:
        raise CheckpointError(f"models keep no buffers; the checkpoint holds {sorted(buffers)}")
    r.finish("checkpoint payload")
    return cfg, params, payload.get("extra", {})


def build_from_checkpoint(path) -> tuple[SequenceClassifier, dict]:
    """Rebuild a model from a checkpoint; returns (model, extra)."""
    cfg, params, extra = load_checkpoint(path)
    model = build_model(cfg, seed=None)
    own = model.named_parameters()
    missing = sorted(set(own) - set(params))
    surplus = sorted(set(params) - set(own))
    if missing or surplus:
        raise CheckpointError(
            f"parameter names do not match the config: missing {missing}, surplus {surplus}")
    for name, tensor in own.items():
        if params[name].shape != tensor.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {params[name].shape}, model expects {tensor.shape}")
        tensor.data = params[name].astype(tensor.dtype, copy=False)
    return model, extra
