"""Deterministic RNG substreams derived from a single root seed.

Every source of randomness in the toolkit (parameter init, epoch shuffling,
shift augmentation, synthetic data generation) draws from its own named
substream so that, e.g., changing the model architecture cannot perturb the
data order of an otherwise identical run.
"""

import numpy as np

from .errors import ConfigError, as_integer

_STREAM_IDS = {
    "init": 1,
    "shuffle": 2,
    "augment": 3,
    "datagen": 4,
}


def check_seed(value) -> int:
    """`value` as an int; ConfigError unless it is a non-negative integer
    (a bool or float is not one)."""
    return as_integer(value, ConfigError, "seeds and substream indices must be non-negative integers", 0)


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Return the generator for substream `name` (optionally sub-indexed,
    e.g. by fold or record number) of the given root seed. A seed or index
    that is not a non-negative integer raises ConfigError; a bool or float is not one."""
    if name not in _STREAM_IDS:
        raise KeyError(f"unknown rng substream {name!r}; expected one of {sorted(_STREAM_IDS)}")
    entropy = [check_seed(seed), _STREAM_IDS[name], *map(check_seed, indices)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
