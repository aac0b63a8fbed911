"""The four benchmark workloads, driven through shiftseq's public API.

Each workload has a ``setup`` (data generation, file writes, model builds and
warm-up passes; its time is ``setup_s``) and a ``run_round`` that does one
round of timed units. A unit is the workload's closed-loop operation: a train
step, one ``shiftseq eval`` invocation, or one grad-suite pass. Every unit
runs its output checks; a unit that raises or fails a check is counted as
failed, never silently dropped. NOTES.md says why each workload exists.

Package names are looked up through module objects at call time (``ss.x``,
``ss_train.x``), so the traced run's wrappers are seen and the untraced run
calls the original objects.

Times are process CPU time (:data:`CLOCK`). The benchmark pins the BLAS to
one thread, so on an idle machine CPU time equals wall time; unlike wall
time it leaves out the time a shared host steals from the virtual CPUs.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import shiftseq as ss
import shiftseq.tensor_autograd as ta
import shiftseq.train as ss_train

NUM_CLASSES = 4
CLOCK = time.process_time


class Recorder:
    """Times units and counts attempted and failed ones during measurement."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: defaultdict[str, list] = defaultdict(list)  # config -> unit seconds
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.notes: defaultdict[str, list] = defaultdict(list)    # extra timings, by name
        self.cpu = self.wall = 0.0  # duration of the measured rounds
        self.lines: list = []       # workload-specific report lines, from finish()

    def run_unit(self, config: str, fn):
        """Run one unit; returns (ok, result). Failures are counted, not raised."""
        self.attempted += 1
        tr = self.tracer
        if tr is not None:
            tr.unit = self.attempted
            tr.begin("bench.unit")
        start = CLOCK()
        try:
            result = fn()
        except Exception:  # one failed operation must not end the measurement
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None
        finally:
            elapsed = CLOCK() - start
            if tr is not None:
                tr.end()
                tr.unit = None
        self.samples[config].append(elapsed)
        return True, result

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"CHECK FAILED: {message}", file=sys.stderr)


class CheckError(Exception):
    """An output check failed inside a unit."""


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _input_rng(seed: int, workload_tag: int) -> np.random.Generator:
    """The generator of one workload's inputs, apart from the package's own streams."""
    return np.random.default_rng([seed, workload_tag])


def _random_records(rng, lengths, layers: int, channels: int) -> list:
    return [ss.FeatureSequence(label=int(rng.integers(NUM_CLASSES)), group=0,
                               data=rng.standard_normal((layers, int(t), channels), dtype=np.float32))
            for t in lengths]


# ---------------------------------------------------------------------------
# synthetic-train: criterion 5's traffic at a shorter budget
# ---------------------------------------------------------------------------

def train_one_fold(model_cfg, tcfg, train_records, test_records, fold, rec, config):
    """The loop of ``train_fold``, with each step timed as one unit.

    Returns (held-out Metrics, final loss). The self-tests check that it
    reproduces ``train_fold`` bit for bit.
    """
    model = ss.build_model(model_cfg, seed=tcfg.seed)
    opt = ss_train.Optimizer(model, tcfg)
    n = len(train_records)
    steps_per_epoch = math.ceil(n / tcfg.batch_size)
    total_steps = tcfg.epochs * steps_per_epoch
    warmup_steps = tcfg.warmup_epochs * steps_per_epoch
    augment_rng = ss.substream(tcfg.seed, "augment", fold)
    final_loss = math.nan
    step = 0
    for epoch in range(tcfg.epochs):
        order = ss.substream(tcfg.seed, "shuffle", fold, epoch).permutation(n)
        for start in range(0, n, tcfg.batch_size):
            batch = [train_records[order[i]] for i in range(start, min(start + tcfg.batch_size, n))]
            lr = ss.cosine_warmup_lr(step, total_steps, warmup_steps, tcfg.peak_lr, tcfg.min_lr_ratio)

            def train_step():
                feats, lengths, labels = ss_train.collate(batch)
                loss, _ = model.loss(ss.Tensor(feats), labels, lengths=lengths, training=True,
                                     augment_prob=tcfg.augment_prob, rng=augment_rng)
                value = float(loss.item())
                if not math.isfinite(value):
                    raise ss.TrainingDiverged(f"nonfinite loss {value} at step {step} (fold {fold})")
                opt.zero_grad()
                ta.backward(loss)
                opt.step(lr)
                return value

            ok, value = rec.run_unit(config, train_step)
            if ok:
                final_loss = value
                rec.items += len(batch)
            step += 1
    start = CLOCK()
    metrics = ss.evaluate(model, test_records, tcfg.batch_size)
    rec.notes["heldout_eval_s"].append(CLOCK() - start)
    rec.notes["heldout_records"].append(len(test_records))
    return metrics, final_loss


class SyntheticTrain:
    name = "synthetic-train"
    unit = "train step"
    names = ("train_samples_per_s", "step_ms_p50")
    setup_repeats = 5  # set-up takes ~0.3 s, so a few more samples are cheap
    min_rounds = 2  # the held-out repeat check needs two rounds

    def __init__(self, smoke: bool):
        if smoke:
            self.gen = ss.GenConfig(channels=16, frames=40, groups=2, per_class_per_group=4)
            self.tcfg = ss.TrainConfig(optimizer="adamw", peak_lr=5e-4, batch_size=8,
                                       epochs=2, warmup_epochs=1, seed=0)
        else:
            # criterion 5: GenConfig() defaults, its TrainConfig with 2 of its 30 epochs
            self.gen = ss.GenConfig()
            self.tcfg = ss.TrainConfig(optimizer="adamw", peak_lr=5e-4, batch_size=32,
                                       epochs=2, warmup_epochs=1, seed=0)
        width = dict(width=self.gen.channels, num_classes=NUM_CLASSES, num_input_layers=1)
        self.configs = [
            ("shiftcnn", ss.preset_config("shiftcnn", **width)),
            ("shiftformer", ss.preset_config("shiftformer", **width)),
            ("transformer-nomixer", dataclasses.replace(ss.preset_config("transformer", **width),
                                                        mixer="none")),
        ]

    def setup(self, seed: int, workdir: str) -> dict:
        data = ss.gen_synthetic(self.gen, seed=seed)
        plan = ss.assign_folds(data.records)[0]
        train_records = [data.records[i] for i in plan.train_indices]
        test_records = [data.records[i] for i in plan.test_indices]
        for _, cfg in self.configs:  # warm-up: one throwaway step per model
            model = ss.build_model(cfg, seed=self.tcfg.seed)
            opt = ss_train.Optimizer(model, self.tcfg)
            feats, lengths, labels = ss_train.collate(train_records[:self.tcfg.batch_size])
            loss, _ = model.loss(ss.Tensor(feats), labels, lengths=lengths, training=True)
            ta.backward(loss)
            opt.step(self.tcfg.peak_lr)
        return {"train": train_records, "test": test_records, "fold": plan.fold,
                "results": defaultdict(list)}

    def run_round(self, state: dict, rec: Recorder) -> None:
        for config, cfg in self.configs:
            metrics, final_loss = train_one_fold(cfg, self.tcfg, state["train"], state["test"],
                                                 state["fold"], rec, config)
            state["results"][config].append((metrics.ua, metrics.wa, final_loss))

    def finish(self, state: dict, rec: Recorder) -> list:
        """Cross-round check: a fixed seed repeats its held-out result exactly."""
        steps = [v for values in rec.samples.values() for v in values]
        lines = []
        if len(steps) >= 100:  # p90 only with at least ten samples beyond it
            lines.append(("step_ms_p90", 1e3 * percentile(steps, 90), "ms", f"n={len(steps)} steps"))
        n, secs = sum(rec.notes["heldout_records"]), sum(rec.notes["heldout_eval_s"])
        if secs:
            lines.append(("heldout_eval_records_per_s", n / secs, "1/s", f"n={n} records"))
        for config, results in state["results"].items():
            if any(r != results[0] for r in results[1:]):
                rec.fail(f"{config}: held-out (ua, wa, loss) differ between rounds: {results}")
            if not all(math.isfinite(r[2]) for r in results):
                rec.fail(f"{config}: nonfinite final loss {results}")
            lines.append((f"heldout_ua.{config}", results[0][0], "UA", f"{len(results)} rounds agree"))
        return lines


# ---------------------------------------------------------------------------
# paper-train: the paper's shape, one preset per host
# ---------------------------------------------------------------------------

class PaperTrain:
    name = "paper-train"
    unit = "train step"
    names = ("train_samples_per_s", "step_ms_p50")
    setup_repeats = 2  # each set-up takes ~8 s
    min_rounds = 2
    presets = ("shiftcnn", "transformer", "shiftlstm")

    def __init__(self, smoke: bool):
        self.batch, self.frames, self.width, self.layers = (2, 6, 16, 2) if smoke else (8, 100, 768, 13)
        self.tcfg = ss.TrainConfig()
        self.num_batches = 2

    def setup(self, seed: int, workdir: str) -> dict:
        rng = _input_rng(seed, 1)
        records = _random_records(rng, [self.frames] * (self.batch * self.num_batches),
                                  self.layers, self.width)
        batches = [records[i * self.batch:(i + 1) * self.batch] for i in range(self.num_batches)]
        models = {}
        for name in self.presets:
            model = ss.build_model(ss.preset_config(name, width=self.width, num_classes=NUM_CLASSES,
                                                    num_input_layers=self.layers), seed=0)
            opt = ss_train.Optimizer(model, self.tcfg)
            models[name] = (model, opt)
            self._step(model, opt, batches[0])  # warm-up
        return {"batches": batches, "models": models, "round": 0}

    def _step(self, model, opt, batch) -> float:
        feats, lengths, labels = ss_train.collate(batch)
        loss, _ = model.loss(ss.Tensor(feats), labels, lengths=lengths, training=True)
        value = float(loss.item())
        if not math.isfinite(value):
            raise ss.TrainingDiverged(f"nonfinite loss {value}")
        opt.zero_grad()
        ta.backward(loss)
        opt.step(self.tcfg.peak_lr)
        return value

    def run_round(self, state: dict, rec: Recorder) -> None:
        batch = state["batches"][state["round"] % self.num_batches]
        state["round"] += 1
        for name in self.presets:
            model, opt = state["models"][name]
            ok, _ = rec.run_unit(name, lambda: self._step(model, opt, batch))
            if ok:
                rec.items += len(batch)

    def finish(self, state: dict, rec: Recorder) -> list:
        return []


# ---------------------------------------------------------------------------
# eval-mixed-length: the `shiftseq eval` path on variable-length records
# ---------------------------------------------------------------------------

def stratified_lengths(rng, count: int, batch: int, lo: int, hi: int) -> list:
    """Seeded lengths in [lo, hi], spread so every batch spans the whole range.

    The sorted grid is cut into strata of one length per batch; each stratum
    deals its lengths to the batches in a seeded order. Every batch then
    holds one short through one long record, so padding waste stays near the
    same share for every seed while record order and values change.
    """
    n_batches = count // batch
    grid = np.linspace(lo, hi, count)
    jitter = rng.uniform(-0.4, 0.4, count) * (hi - lo) / max(count - 1, 1)
    grid = np.clip(np.rint(grid + jitter), lo, hi).astype(int)
    batches = [[] for _ in range(n_batches)]
    for s in range(batch):
        stratum = grid[s * n_batches:(s + 1) * n_batches]
        for b, t in zip(rng.permutation(n_batches), stratum):
            batches[b].append(int(t))
    for b in batches:
        rng.shuffle(b)
    return [t for b in batches for t in b]


class EvalMixedLength:
    name = "eval-mixed-length"
    unit = "eval invocation"
    names = ("eval_records_per_s", "eval_invocation_ms_p50")
    setup_repeats = 2  # each set-up takes ~5 s
    min_rounds = 2
    presets = ("shiftcnn", "transformer", "shiftlstm")

    def __init__(self, smoke: bool):
        if smoke:
            self.count, self.batch, self.lo, self.hi, self.width, self.layers = 4, 2, 3, 12, 16, 2
        else:
            self.count, self.batch, self.lo, self.hi, self.width, self.layers = 8, 4, 20, 200, 768, 13

    def setup(self, seed: int, workdir: str) -> dict:
        rng = _input_rng(seed, 2)
        lengths = stratified_lengths(rng, self.count, self.batch, self.lo, self.hi)
        records = _random_records(rng, lengths, self.layers, self.width)
        fseq = os.path.join(workdir, "eval.fseq")
        ss.write_fseq(fseq, records, NUM_CLASSES)
        checkpoints, reference = {}, {}
        for name in self.presets:
            model = ss.build_model(ss.preset_config(name, width=self.width, num_classes=NUM_CLASSES,
                                                    num_input_layers=self.layers), seed=0)
            path = os.path.join(workdir, f"{name}.ckpt")
            ss.save_checkpoint(path, model)
            checkpoints[name] = path
            # warm-up pass, and the in-memory logits the loaded model must reproduce
            reference[name] = ss_train.predict_logits(model, records, self.batch)
        return {"fseq": fseq, "checkpoints": checkpoints, "reference": reference,
                "lengths": lengths}

    def _invoke(self, state: dict, name: str, rec: Recorder):
        start = CLOCK()
        model, _ = ss.build_from_checkpoint(state["checkpoints"][name])
        data = ss.read_fseq(state["fseq"])
        opened = CLOCK()
        logits, labels = ss_train.predict_logits(model, data.records, self.batch)
        rec.notes["eval_open_s"].append(opened - start)
        rec.notes["eval_predict_s"].append(CLOCK() - opened)
        ref_logits, ref_labels = state["reference"][name]
        if logits.shape != (len(state["lengths"]), NUM_CLASSES):
            raise CheckError(f"{name}: logits shape {logits.shape}, expected one row per record")
        if logits.dtype != ref_logits.dtype or not np.array_equal(logits, ref_logits):
            raise CheckError(f"{name}: checkpoint logits differ from the in-memory model's")
        if not np.array_equal(labels, ref_labels):
            raise CheckError(f"{name}: labels read back differ from those written")
        confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
        np.add.at(confusion, (labels, np.argmax(logits, axis=1)), 1)
        return ss.compute_metrics(confusion)

    def run_round(self, state: dict, rec: Recorder) -> None:
        for name in self.presets:
            ok, _ = rec.run_unit(name, lambda: self._invoke(state, name, rec))
            if ok:
                rec.items += len(state["lengths"])

    def finish(self, state: dict, rec: Recorder) -> list:
        lengths = state["lengths"]
        starts = range(0, len(lengths), self.batch)
        padded = sum(self.batch * max(lengths[i:i + self.batch]) for i in starts)
        opens, predicts = rec.notes["eval_open_s"], rec.notes["eval_predict_s"]
        batches = len(starts) * len(predicts)
        if not batches:
            return []
        return [
            ("eval_open_ms", 1e3 * statistics.median(opens), "ms", f"p50, n={len(opens)} invocations"),
            ("eval_batch_ms_mean", 1e3 * sum(predicts) / batches, "ms", f"n={batches} batches"),
            ("pad_fraction", 1.0 - sum(lengths) / padded, "fraction", "padded share of frames"),
        ]


# ---------------------------------------------------------------------------
# gradcheck: the finite-difference suite at a reduced seed count
# ---------------------------------------------------------------------------

class GradCheck:
    name = "gradcheck"
    unit = "grad-suite pass"
    names = ("gradcheck_cases_per_s", "gradcheck_ms_p50")
    setup_repeats = 2
    min_rounds = 5  # passes jitter by ~10% each; the median needs several
    num_seeds = 1

    def __init__(self, smoke: bool):
        pass

    def setup(self, seed: int, workdir: str) -> dict:
        # The suite's inputs are fixed by the package (seeds 0..n-1); the
        # workload seed cannot reach them through the public API.
        ss.run_grad_suite(num_seeds=self.num_seeds)  # warm-up pass
        return {}

    def _pass(self):
        report = ss.run_grad_suite(num_seeds=self.num_seeds)
        failed = [e.name for e in report.entries if not e.passed]
        if failed:
            raise CheckError(f"grad-suite cases failed: {failed}")
        return report

    def run_round(self, state: dict, rec: Recorder) -> None:
        ok, report = rec.run_unit("suite", self._pass)
        if ok:
            rec.items += len(report.entries)

    def finish(self, state: dict, rec: Recorder) -> list:
        passes = rec.samples["suite"]
        return [("gradcheck_s", statistics.median(passes), "s", "p50 suite pass")] if passes else []


WORKLOADS = {w.name: w for w in (SyntheticTrain, PaperTrain, EvalMixedLength, GradCheck)}
