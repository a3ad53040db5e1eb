"""The benchmark's workloads: set-up, timed units and output checks.

Every workload builds the `toy` preset at the widths acceptance criterion
7 trains (class_count=5, fuse_width=48, head_width=48). A workload's
`session()` runs one or more units and returns one `Unit` per unit; a
unit that raises or fails a check is returned with `ok=False`, never
dropped. The package is reached only through module attributes
(`data_io.load_dataset`, `training.evaluate`, ...) so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from lka_seg import data_io, engine, training
from lka_seg.model import build_model, preset_config

HERE = os.path.dirname(os.path.abspath(__file__))
# criterion 7's training, 8 epochs, on its 64x64 scenes and on the same
# scenes drawn at 256x256 (a model trained at 64x64 does not segment at
# 256x256: its pyramid levels all collapse to global pooling there)
ASSET_CKPT = {64: os.path.join(HERE, "assets", "toy-c7-e8.ckpt"),
              256: os.path.join(HERE, "assets", "toy-c7-256-e8.ckpt")}
REFERENCE = os.path.join(HERE, "reference.json")

CLASSES = 5
MODEL_KW = dict(class_count=CLASSES, fuse_width=48, head_width=48)
MODEL_SEED = 2
# criterion 7's data (seed 7: 64 train + 16 val scenes) and optimiser
# settings, cut to 8 epochs
C7_DATA_SEED = 7
C7_TRAIN_SCENES = 64
C7_TRAIN = training.TrainConfig(epochs=8, batch_size=4, base_lr=0.15, seed=2)
PROBE_SEED = 1234
LOGIT_TOL = 1e-12      # refactors must keep outputs within 1e-12
MIOU_TOL = 0.02        # train-64 val_miou against its reference


def scene_spec(seed, count, size):
    return data_io.SynthSpec(seed=seed, count=count, height=size, width=size,
                             class_count=CLASSES, density=0.5, min_shape=28)


def c7_scenes(size):
    """Criterion 7's scenes drawn at size x size: (train, val)."""
    data = data_io.synth_dataset(scene_spec(C7_DATA_SEED, C7_TRAIN_SCENES + 16, size))
    return data[:C7_TRAIN_SCENES], data[C7_TRAIN_SCENES:]


def build():
    return build_model(preset_config("toy", **MODEL_KW), seed=MODEL_SEED)


def logits_ok(logits, shape):
    return logits.shape == shape and bool(np.isfinite(logits).all())


def labels_ok(pred):
    return bool(((pred >= 0) & (pred < CLASSES)).all())


def load_reference():
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def probe_logits(model, size):
    """Eval logits of the fixed probe scene, b1 at size x size."""
    image = data_io.synth_dataset(scene_spec(PROBE_SEED, 1, size))[0].image[None]
    with engine.no_grad():
        return model(engine.Tensor(image), "eval").seg_logits.data


def probe_summary(logits, samples=64):
    """Sums and a fixed sample of entries, enough to pin logits to 1e-12."""
    flat = logits.ravel()
    index = np.linspace(0, flat.size - 1, samples).astype(int)
    return {"shape": list(logits.shape), "sum": float(flat.sum()),
            "abs_sum": float(np.abs(flat).sum()), "index": index.tolist(),
            "values": flat[index].tolist()}


def probe_matches(logits, ref):
    """True when `logits` agree with a stored `probe_summary` to LOGIT_TOL."""
    if list(logits.shape) != ref["shape"] or not np.isfinite(logits).all():
        return False
    flat = logits.ravel()
    vals = flat[ref["index"]]
    want = np.asarray(ref["values"])
    if np.any(np.abs(vals - want) > LOGIT_TOL * np.maximum(1.0, np.abs(want))):
        return False
    return abs(float(flat.sum()) - ref["sum"]) <= LOGIT_TOL * ref["abs_sum"]


def report_fault(where):
    """Print the traceback of a unit that raised; the unit counts as failed."""
    print(f"unit failed in {where}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Unit:
    seconds: float | None     # None when the unit raised before finishing
    images: int
    ok: bool
    end: float = field(default_factory=time.perf_counter)  # when it finished


class CheckedModel:
    """Model stand-in that checks the logits of every forward it runs."""

    def __init__(self, model):
        self.model = model
        self.faults = 0

    def __call__(self, x, mode="eval"):
        out = self.model(x, mode)
        n, _, h, w = x.data.shape
        if not logits_ok(out.seg_logits.data, (n, CLASSES, h, w)):
            self.faults += 1
        return out

    def __getattr__(self, name):
        return getattr(self.model, name)


class Workload:
    name = ""
    check_shape = ()     # eval forward whose traced FLOPs must equal count_flops
    model = None

    def __init__(self, ref, workdir):
        self.ref = ref[self.name]
        self.workdir = workdir    # scratch directory, removed after the run

    def setup(self, seed):
        """Build the model and inputs; may run more than once."""
        raise NotImplementedError

    def session(self, on_unit=lambda: None):
        """Run timed units; call `on_unit()` as each unit ends."""
        raise NotImplementedError

    def memory_session(self):
        """Smallest run that shows this workload's memory peak."""
        self.session()

    def probe_model(self):
        return self.model

    def probe_ok(self):
        logits = probe_logits(self.probe_model(), self.check_shape[2])
        return probe_matches(logits, self.ref["probe"])

    def val_miou(self):
        raise NotImplementedError

    def miou_ok(self):
        v = self.val_miou()
        return bool(np.isfinite(v)) and 0.0 < v <= 1.0


class Infer64(Workload):
    """Closed loop of b1 64x64 eval forwards plus argmax (`lka-seg infer`)."""

    name = "infer-64"
    check_shape = (1, 3, 64, 64)
    pool_size = 64
    warmup = 8

    def setup(self, seed):
        self.model = build()
        data_io.load_into_model(self.model, ASSET_CKPT[64])
        self.pool = data_io.synth_dataset(scene_spec(seed, self.pool_size, 64))
        self.inputs = [s.image[None] for s in self.pool]
        self.cm = training.ConfusionMatrix(CLASSES)
        self.first = [None] * self.pool_size
        self.served = 0
        with engine.no_grad():
            for image in self.inputs[:self.warmup]:
                self.model(engine.Tensor(image), "eval")

    def session(self, on_unit=lambda: None):
        i = self.served % self.pool_size
        self.served += 1
        try:
            t0 = time.perf_counter()
            with engine.no_grad():
                logits = self.model(engine.Tensor(self.inputs[i]), "eval").seg_logits.data
            pred = logits.argmax(axis=1)
            dt = time.perf_counter() - t0
        except Exception:
            report_fault(self.name)
            on_unit()
            return [Unit(None, 1, False)]
        on_unit()
        ok = logits_ok(logits, (1, CLASSES, 64, 64)) and labels_ok(pred)
        if ok and self.first[i] is None:
            self.first[i] = pred
            self.cm.update(pred, self.pool[i].labels)
        elif ok:
            ok = np.array_equal(pred, self.first[i])
        return [Unit(dt, 1, ok)]

    def val_miou(self):
        return training.miou(self.cm)[1]


class Eval256(Workload):
    """`training.evaluate` at b8 over 16 fixed 256x256 scenes (`lka-seg eval`)."""

    name = "eval-256"
    check_shape = (8, 3, 256, 256)
    count = 16
    batch = 8

    def setup(self, seed):
        data_dir = os.path.join(self.workdir, "eval-data")
        ckpt = os.path.join(self.workdir, "eval.ckpt")
        spec = scene_spec(seed, self.count, 256)
        data_io.write_dataset(data_io.synth_dataset(spec), data_dir, spec)
        self.samples, _ = data_io.load_dataset(data_dir)
        model = build()
        data_io.load_into_model(model, ASSET_CKPT[256])
        data_io.save_checkpoint(model, ckpt)
        self.model = data_io.load_into_model(model, ckpt)
        self.checked = CheckedModel(self.model)
        self.miou = None
        training.evaluate(self.model, self.samples[:self.batch], CLASSES, self.batch)

    def session(self, on_unit=lambda: None):
        faults = self.checked.faults
        try:
            t0 = time.perf_counter()
            _, mean = training.evaluate(self.checked, self.samples, CLASSES, self.batch)
            dt = time.perf_counter() - t0
        except Exception:
            report_fault(self.name)
            on_unit()
            return [Unit(None, self.count, False)]
        on_unit()
        ok = self.checked.faults == faults and bool(np.isfinite(mean))
        if ok and self.miou is None:
            self.miou = mean
        elif ok:
            ok = mean == self.miou
        return [Unit(dt, self.count, ok)]

    def val_miou(self):
        return self.miou if self.miou is not None else float("nan")


class Train64(Workload):
    """`training.train_model` on criterion 7's data and settings, 8 epochs.

    The training set is criterion 7's fixed scenes whatever the seed, so
    that val_miou is bit-identical from run to run and is checked against
    a stored reference. One unit is one epoch: its training steps, its
    validation and the checkpoints written after it.
    """

    name = "train-64"
    check_shape = (4, 3, 64, 64)

    def setup(self, seed):
        self.train, self.val = c7_scenes(64)
        self.out_dir = os.path.join(self.workdir, "train-out")
        self.history = []
        warm = data_io.synth_dataset(scene_spec(seed, C7_TRAIN.batch_size, 64))
        training.train_model(build(), warm, [], dataclasses.replace(C7_TRAIN, epochs=1))

    def _run(self, cfg, on_unit):
        model = CheckedModel(build())
        stamps = []

        def log(_line):
            stamps.append(time.perf_counter())
            on_unit()

        t0 = time.perf_counter()
        try:
            history = training.train_model(model, self.train, self.val, cfg,
                                           out_dir=self.out_dir, log=log)
        except Exception:
            report_fault(self.name)
            return [Unit(None, C7_TRAIN_SCENES, False) for _ in range(cfg.epochs)]
        end = time.perf_counter()
        self.history = history
        bounds = [t0] + stamps[:-1] + [end]
        units = [Unit(b - a, C7_TRAIN_SCENES,
                      model.faults == 0 and bool(np.isfinite(row["loss"]))
                      and 0.0 <= row["miou"] <= 1.0, end=b)
                 for a, b, row in zip(bounds, bounds[1:], history)]
        if cfg.epochs == C7_TRAIN.epochs and not self.miou_ok():
            units[-1].ok = False
        return units

    def session(self, on_unit=lambda: None):
        return self._run(C7_TRAIN, on_unit)

    def memory_session(self):
        self._run(dataclasses.replace(C7_TRAIN, epochs=1), lambda: None)

    def probe_model(self):
        return build()

    def val_miou(self):
        return self.history[-1]["miou"] if self.history else float("nan")

    def miou_ok(self):
        return abs(self.val_miou() - self.ref["val_miou"]) <= MIOU_TOL


def run_units(wl, seconds, on_unit=lambda: None):
    """Closed loop of sessions for about `seconds`, at least one session.

    A session starts only if one as long as the last still ends by the
    deadline, so a train-64 run does not overrun by most of a session.
    Returns the units and the loop's start time.
    """
    units = []
    t0 = now = time.perf_counter()
    last = 0.0
    while not units or now + last <= t0 + seconds:
        units.extend(wl.session(on_unit))
        end = time.perf_counter()
        last, now = end - now, end
    return units, t0


def throughput(units, start):
    """Images of units that passed their checks, per second since `start`."""
    return sum(u.images for u in units if u.ok) / (units[-1].end - start)


def percentile_ms(units, q):
    times = [u.seconds for u in units if u.seconds is not None]
    return float(np.percentile(times, q)) * 1e3 if times else float("nan")


def metric(value, unit):
    return {"value": value, "unit": unit}


WORKLOADS = {w.name: w for w in (Infer64, Eval256, Train64)}
