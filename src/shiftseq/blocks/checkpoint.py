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
             so any other count is rejected

Loading validates every length against the remaining byte count before
allocating, so a truncated or corrupted file raises CheckpointError rather
than producing a half-filled model, as does an empty dimension or a NaN or
infinite value; saving refuses the latter before writing anything, and
writes each float32 parameter from its own buffer, not a serialized copy.
Loading maps the file rather than reading it, and copies each payload out
of the map once (payloads are not float32-aligned); the rebuilt model
takes those arrays as its parameters.
The model is built without drawing an init, which is safe because the
name and shape checks require the file to supply every parameter.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import ModelConfig, SequenceClassifier, build_model, config_from_dict, config_to_dict
from ..data import ByteReader, all_finite, write_atomic
from ..errors import ConfigError, decode_json

MAGIC = b"SSCK"
VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed, truncated, or mismatched with its config."""


def save_checkpoint(path, model: SequenceClassifier, extra: dict | None = None) -> None:
    """Write the model config and all parameters to `path`.

    `extra` is merged into the config JSON under the key "extra" and round
    trips through :func:`load_checkpoint` untouched. A non-finite parameter
    raises CheckpointError, and no file is written: every parameter is
    checked before the first byte. A float32 parameter is written from its
    own buffer; another dtype is cast to float32 first.
    """
    payload = {"model": config_to_dict(model.cfg)}
    if extra:
        payload["extra"] = extra
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")

    params = model.named_parameters()
    parts = [MAGIC, struct.pack("<II", VERSION, len(blob)), blob, struct.pack("<I", len(params))]
    for name, p in params.items():
        data = np.ascontiguousarray(p.data, dtype="<f4")  # a float32 parameter itself
        if not all_finite(data):
            raise CheckpointError(f"record {name!r} holds a nonfinite value")
        name_b = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<I", data.ndim))
        parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
        parts.append(memoryview(data).cast("B"))
    parts.append(struct.pack("<I", 0))  # the always-empty buffer section
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
        if 0 in shape:
            raise CheckpointError(f"record {name!r} claims an empty dimension in {shape}")
        n_elems = 1
        for d in shape:
            n_elems *= d
        data = np.frombuffer(r.take(4 * n_elems, what), dtype="<f4").reshape(shape)
        if name in out:
            raise CheckpointError(f"duplicate record {name!r}")
        out[name] = data.astype(np.float32)  # payloads are not aligned: one copy out of the map
        if not all_finite(out[name]):
            raise CheckpointError(f"record {name!r} holds a nonfinite value")
    return out


def load_checkpoint(path) -> tuple[ModelConfig, "dict[str, np.ndarray]", dict]:
    """Parse a checkpoint; returns (config, params, extra).

    A nonzero buffer count raises CheckpointError; no buffer record is read.
    """
    r = ByteReader.mapped(path, CheckpointError, "checkpoint")
    if bytes(r.take(4, "magic")) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    payload = decode_json(bytes(r.take(r.u32("config"), "config")), CheckpointError, "checkpoint config")
    if not isinstance(payload, dict) or "model" not in payload:
        raise CheckpointError("checkpoint config lacks a 'model' entry")
    try:
        cfg = config_from_dict(payload["model"])
    except ConfigError as e:
        raise CheckpointError(f"checkpoint carries an invalid model config: {e}") from e
    params = _read_records(r)
    n_buffers = r.u32("buffer count")
    if n_buffers:
        raise CheckpointError(f"models keep no buffers; the checkpoint claims {n_buffers} buffer records")
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
