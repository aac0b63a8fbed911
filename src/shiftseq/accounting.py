"""Exact parameter and FLOP accounting for the model families.

Counts are derived from the configuration, not measured, so they are exact
integers. Two buckets keep the headline number honest:

* ``flops``: multiply-accumulate work in matmuls and convolutions only,
  counted as 2 ops per MAC. This is the conventional headline figure.
* ``ew_flops``: everything elementwise, with fixed per-element constants:
  bias add 1, residual add 1, normalization 6 (mean, variance, subtract,
  divide, scale, shift), GELU 8, softmax 5 (max, subtract, exp, sum,
  divide), sigmoid 4, tanh 4, average pooling window+1 (window-1 adds, one
  divide, one identity subtract), LSTM cell bookkeeping 32 per hidden unit
  per step per direction (8 combine/bias adds, 12 for three sigmoid gates,
  8 for two tanh, 3 for the cell update, 1 for the output gate product).

Counts are per sample at a given sequence length; batching multiplies
both buckets uniformly. The temporal shift is pure memory movement, so its
rows are zero in every column, which is the entire point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks.model import (
    BiLstm,
    ConvBlock,
    DepthwiseConv,
    LayerNorm,
    Linear,
    LstmBlock,
    SequenceClassifier,
    TransformerBlock,
)
from .errors import UsageError, as_integer
from .tensor_autograd.ops import POOL_WINDOW, AttentionParams, named_tensors

NORM_EW = 6
GELU_EW = 8
SOFTMAX_EW = 5
LSTM_CELL_EW = 32


@dataclass(frozen=True)
class CostEntry:
    name: str
    params: int
    flops: int
    ew_flops: int


@dataclass(frozen=True)
class CostReport:
    entries: tuple

    @property
    def total_params(self) -> int:
        return sum(e.params for e in self.entries)

    @property
    def total_flops(self) -> int:
        return sum(e.flops for e in self.entries)

    @property
    def total_ew_flops(self) -> int:
        return sum(e.ew_flops for e in self.entries)

    def entry(self, name: str) -> CostEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def format_machine(self) -> str:
        lines = [f"name={e.name} params={e.params} flops={e.flops} ew_flops={e.ew_flops}"
                 for e in self.entries]
        lines.append(f"name=TOTAL params={self.total_params} "
                     f"flops={self.total_flops} ew_flops={self.total_ew_flops}")
        return "\n".join(lines)

    def format_table(self) -> str:
        rows = [(e.name, str(e.params), str(e.flops), str(e.ew_flops)) for e in self.entries]
        rows.append(("TOTAL", str(self.total_params), str(self.total_flops),
                     str(self.total_ew_flops)))
        header = ("component", "params", "flops", "ew_flops")
        widths = [max(len(header[i]), max(len(r[i]) for r in rows)) for i in range(4)]
        def fmt(row):
            return "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                             for i, (c, w) in enumerate(zip(row, widths)))
        sep = "  ".join("-" * w for w in widths)
        return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])

    def diff(self, other: "CostReport") -> list:
        """Entry names whose columns differ between the two reports."""
        mine = {e.name: e for e in self.entries}
        theirs = {e.name: e for e in other.entries}
        out = []
        for name in sorted(set(mine) | set(theirs)):
            a, b = mine.get(name), theirs.get(name)
            if a != b:
                out.append(name)
        return out


def sublayers(block) -> list:
    """(field name, layer) for each field of a block that holds tensors, in field order."""
    names = dict.fromkeys(name.split(".")[0] for name, _ in named_tensors(block))
    return [(name, getattr(block, name)) for name in names]


def _layer_costs(layer, t: int) -> tuple:
    """(params, flops, ew_flops) for one parametric layer at length t.

    Parameters are the layer's own tensor sizes, so the report cannot
    disagree with the model; the work columns follow the rules above.
    """
    params = sum(p.size for _, p in named_tensors(layer))
    if isinstance(layer, Linear):
        c_in, c_out = layer.weight.shape
        return (params, 2 * c_in * c_out * t, c_out * t)
    if isinstance(layer, LayerNorm):
        return (params, 0, NORM_EW * layer.gamma.size * t)
    if isinstance(layer, DepthwiseConv):
        k, width = layer.kernel.shape
        return (params, 2 * k * width * t, width * t)
    if isinstance(layer, AttentionParams):
        width = layer.wq.shape[0]
        heads = layer.rel_table.shape[0]
        flops = 8 * width * width * t + 4 * t * t * width
        ew = 4 * width * t                       # projection biases
        ew += SOFTMAX_EW * heads * t * t         # attention softmax
        ew += heads * t * t                      # logit scaling
        ew += heads * t * t                      # position bias add
        return (params, flops, ew)
    if isinstance(layer, BiLstm):
        c_in = layer.fw.w_ih.shape[0]
        hidden = layer.fw.w_hh.shape[0]
        flops = 2 * 2 * (c_in + hidden) * 4 * hidden * t
        return (params, flops, 2 * LSTM_CELL_EW * hidden * t)
    raise UsageError(f"no cost rule for layer type {type(layer).__name__}")


def _block_entries(prefix: str, block, t: int) -> list:
    """One row per sublayer, then the rows the block's own wiring adds:
    mixer, GELU and residual adds."""
    if not isinstance(block, (ConvBlock, TransformerBlock, LstmBlock)):
        raise UsageError(f"no cost rule for block type {type(block).__name__}")
    entries = [CostEntry(f"{prefix}.{sub_name}", *_layer_costs(layer, t))
               for sub_name, layer in sublayers(block)]
    if isinstance(block, LstmBlock):
        if block.shift is not None:
            entries.append(CostEntry(f"{prefix}.residual", 0, 0, 2 * block.rnn.fw.w_hh.shape[0] * t))
        return entries
    width, mid = block.pw1.weight.shape
    residuals = 1
    if isinstance(block, TransformerBlock):
        if block.mixer == "pooling":
            entries.append(CostEntry(f"{prefix}.pool", 0, 0, (POOL_WINDOW + 1) * width * t))
        elif block.mixer == "shift":
            entries.append(CostEntry(f"{prefix}.mixer_shift", 0, 0, 0))
        if block.mixer != "none":
            residuals = 2
    entries.append(CostEntry(f"{prefix}.gelu", 0, 0, GELU_EW * mid * t))
    entries.append(CostEntry(f"{prefix}.residual", 0, 0, residuals * width * t))
    return entries


def _build_report(model: SequenceClassifier, t: int) -> CostReport:
    cfg = model.cfg
    entries = []
    n_layers = cfg.num_input_layers
    width = cfg.channels[0]
    entries.append(CostEntry("layer_mix", n_layers,
                             0, 2 * n_layers * width * t + SOFTMAX_EW * n_layers))
    for i, block in enumerate(model.blocks):
        if model.trunk_shift is not None or block.shift is not None:
            entries.append(CostEntry(f"blocks.{i}.shift", 0, 0, 0))
        entries.extend(_block_entries(f"blocks.{i}", block, t))
    entries.append(CostEntry("mean_pool", 0, 0, cfg.out_width * (t + 1)))
    # the head runs once on the pooled vector: a linear layer at length 1
    entries.append(CostEntry("head", *_layer_costs(model.head, 1)))
    return CostReport(tuple(entries))


def count_flops(model: SequenceClassifier, frames: int) -> CostReport:
    """Per-sample cost report at sequence length `frames`."""
    return _build_report(model, as_integer(frames, UsageError, "frames must be a positive integer", 1))


def count_params(model: SequenceClassifier) -> CostReport:
    """Parameter-only report; the work columns are zeroed."""
    full = _build_report(model, 1)
    return CostReport(tuple(CostEntry(e.name, e.params, 0, 0) for e in full.entries))
