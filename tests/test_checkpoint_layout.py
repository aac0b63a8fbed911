"""The checkpoint layout every preset and variant writes, pinned by digest.

Each case builds a model at width 32 from one seed, saves it, and splits
the file into its layout (magic, version, config JSON, record names,
dimensions, the empty buffer section) and its parameter payload bytes. A
refactor that renames, reorders, reshapes or adds a parameter changes the
first digest; one that changes the init draw order or values changes the
second. float64 models save float32 payloads cast from the same draws, so
both dtypes must give the same two digests.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from shiftseq.blocks import build_model, preset_config, save_checkpoint
from shiftseq.shift import ShiftConfig


def _variant(preset, **changes):
    return dataclasses.replace(preset_config(preset, width=32), **changes)


CASES = {name: preset_config(name, width=32) for name in
         ("shiftcnn", "cnn", "shiftformer", "transformer", "shiftlstm", "lstm")}
CASES.update({
    "transformer-pooling": _variant("transformer", mixer="pooling"),
    "transformer-none": _variant("transformer", mixer="none"),
    "transformer-residual-shift": _variant(
        "transformer", shift=ShiftConfig(alpha=0.25, direction="bidirectional", placement="residual")),
    "lstm-residual-shift": _variant(
        "lstm", shift=ShiftConfig(alpha=0.25, direction="unidirectional", placement="residual")),
    "cnn-in-place-shift": _variant(
        "cnn", shift=ShiftConfig(alpha=0.25, direction="unidirectional", placement="in_place")),
})

# (layout digest, parameter payload digest) per case. The layout part holds
# only the config JSON and integers, so it is portable. The payload digest
# depends on numpy's `Generator.normal` stream for the init draws: a numpy
# release that changed that stream would move it and nothing else.
PINNED = {
    "cnn": ("3be99bdb53d73c5c2c7c9c511e9c94d8c20d44459542e50063f4de84f51cc413",
            "d3778a94af2616937d49f358d4d4d85634c7e2538a834b3b43ca6757a0b22ed1"),
    "cnn-in-place-shift": ("2a0dd5203ec339fd51036b324d12716074ec2ab78582b2bedd0916997bf89e32",
                           "d3778a94af2616937d49f358d4d4d85634c7e2538a834b3b43ca6757a0b22ed1"),
    "lstm": ("b756173bd3701e02ee640d0d5a15af854b1ab229065e2d001a775ff0da4d9d86",
             "c7f53cf94242960cd52110bf28499ab21beccceb82ac8a7a969252c07fb7272e"),
    "lstm-residual-shift": ("a9eb62aa969adf0d59dbcbc9488a31b79387f97182a7b11e3238b6e40fc3c9ff",
                            "daacfd6e1ac0a90bcd2ad659b3f1031b5934cb922b8e923e0f70a7de81ff6d86"),
    "shiftcnn": ("5048035fe733fab06c2a37dbbbe998076879e736e40a22ef899ddc4c0bceab9d",
                 "d3778a94af2616937d49f358d4d4d85634c7e2538a834b3b43ca6757a0b22ed1"),
    "shiftformer": ("8018d4c29dc4ffcf59834ba2a908eab50443ed1ffc4f7b296c2f7494771f601f",
                    "80fb374f915b900000c9df1ce82bab871428ea0a3bce005a780b7ef454f24dd5"),
    "shiftlstm": ("58e99d0bea1f6742d2f0e4ff86a785869eece2b90b701d88f886f5910b3df3e8",
                  "c7f53cf94242960cd52110bf28499ab21beccceb82ac8a7a969252c07fb7272e"),
    "transformer": ("1dc29d009abd3ba9c6e45cf972f330fcef884f7506c949526a98405a291e662b",
                    "afdff679726ddc240f64e6761d7fdb2747827ea6ddb217093393e318929890d7"),
    "transformer-none": ("189a77566dc87458476ebe244db2120ba0a8bd33803aed3e6fb3264e804fd6ef",
                         "ca19bfd1bf3228c399f6eacdf13c5988a41deab587bf2b3baecd7b023a158a21"),
    "transformer-pooling": ("f77ab86ff702ea6e0e231b3650f093644b447f00dfbaddaff4cbf945492679d7",
                            "80fb374f915b900000c9df1ce82bab871428ea0a3bce005a780b7ef454f24dd5"),
    "transformer-residual-shift": ("49c8b303d41e73e03f442c903dc23f21f1bb158f0af36204f666cee9ad0317f3",
                                   "afdff679726ddc240f64e6761d7fdb2747827ea6ddb217093393e318929890d7"),
}


def _split(blob: bytes) -> tuple[bytes, bytes]:
    """(layout bytes, payload bytes) of one checkpoint file."""
    layout, payload = bytearray(), bytearray()
    pos = 0

    def take(n, into):
        nonlocal pos
        into += blob[pos:pos + n]
        pos += n
        return blob[pos - n:pos]

    take(8, layout)  # magic, version
    (clen,) = struct.unpack("<I", take(4, layout))
    take(clen, layout)
    for _section in ("parameters", "buffers"):
        (count,) = struct.unpack("<I", take(4, layout))
        for _ in range(count):
            (nlen,) = struct.unpack("<I", take(4, layout))
            take(nlen, layout)
            (ndim,) = struct.unpack("<I", take(4, layout))
            dims = struct.unpack(f"<{ndim}I", take(4 * ndim, layout))
            take(4 * int(np.prod(dims)), payload)
    assert pos == len(blob)
    return bytes(layout), bytes(payload)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_checkpoint_layout_and_init_draws_are_pinned(case, dtype, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_model(CASES[case], seed=5, dtype=dtype))
    layout, payload = _split(path.read_bytes())
    got = (hashlib.sha256(layout).hexdigest(), hashlib.sha256(payload).hexdigest())
    assert got[0] == PINNED[case][0], "parameter names, order, shapes or config changed"
    assert got[1] == PINNED[case][1], "init draw order or values changed"
