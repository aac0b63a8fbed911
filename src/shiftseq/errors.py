"""Shared exception types, and the strict check every config loader runs.

Format-specific parse errors live next to their formats (see
:mod:`shiftseq.data` and :mod:`shiftseq.blocks.checkpoint`).
"""

import dataclasses
import json
import math

import numpy as np


class ConfigError(ValueError):
    """A configuration value is missing, invalid, or inconsistent."""


class DimensionError(ValueError):
    """Tensor shapes or dtypes do not line up for an operation."""


class UsageError(RuntimeError):
    """An API was called in an unsupported way."""


class EmptyInputError(ValueError):
    """An operation received an input with no frames to act on."""


class TrainingDiverged(RuntimeError):
    """Training produced a nonfinite loss; the message names the step."""


def as_integer(value, error: type[Exception], what: str, minimum=-math.inf) -> int:
    """`value` as an int if it is an int or NumPy integer of at least `minimum`;
    otherwise, and for a bool, raise `error("<what>, got <value>")`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{what}, got {value!r}")
    return int(value)


# the JSON values each config field annotation accepts; a bool is never a number
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string"), "tuple[int, ...]": ((list,), "a list"),
               "ShiftConfig | None": ((dict, type(None)), "a mapping or null")}


def decode_json(data: bytes, error: type[Exception], what: str):
    """The value of the UTF-8 JSON `data`. A byte that is not UTF-8, malformed
    JSON, nesting deeper than the parser's recursion limit and an integer past
    Python's digit limit all raise `error("<what> is not valid JSON: ...")`;
    an object that repeats a key raises `error("<what> repeats the key ...")`,
    where Python's parser would keep the last value."""
    def unique_keys(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise error(f"{what} repeats the key {key!r}")
            out[key] = value
        return out

    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=unique_keys)
    except error:
        raise
    except (ValueError, RecursionError) as e:  # ValueError covers the decode errors
        raise error(f"{what} is not valid JSON: {e}") from e


def check_config_dict(raw, cls, section: str) -> dict:
    """Reject a non-mapping, keys that are not fields of the dataclass `cls`,
    and values whose JSON type does not fit their field; return `raw`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} config must be a mapping, got {type(raw).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {', '.join(unknown)}")
    for name, value in raw.items():
        accepted, label = _JSON_TYPES[types[name]]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(
                f"{section} config {name!r} must be {label}, got {type(value).__name__}")
    return raw


def check_field_types(cfg) -> None:
    """Raise ConfigError for a field of the config dataclass `cfg` whose type does
    not fit its annotation in the table above; a built config holds a tuple for a
    JSON list and a ShiftConfig for a JSON mapping."""
    from .shift import ShiftConfig  # a late import: shift.py imports this module
    for f in dataclasses.fields(cfg):
        accepted = tuple({list: tuple, dict: ShiftConfig}.get(t, t) for t in _JSON_TYPES[f.type][0])
        value = getattr(cfg, f.name)
        if isinstance(value, bool) or not isinstance(value, accepted):
            names = " or ".join(t.__name__ for t in accepted)
            raise ConfigError(f"{type(cfg).__name__}.{f.name} must be {names}, got {type(value).__name__}")
