"""Span tracer that measures lka_seg's layers from outside the package.

`Tracer.install()` replaces public callables of the package (engine ops,
`Module.__call__`, `Tensor.__init__`/`backward`, the training steps and
the data_io entry points) with timing wrappers; `uninstall()` restores
the originals. The package itself is not edited: its modules look these
names up at call time, so the wrappers see every call.

Each span has a name, start, end, parent and unit id. Spans are folded
into per-name aggregates when they end; the spans of the set-up phase
and of the first KEEP_UNITS units are also kept in memory and written
out by `dump()` when the run ends. Self time is a span's duration minus
the durations of its direct children (spans nest strictly, one thread).
FLOPs come from the engine's own meter, read around every span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import weakref
from collections import defaultdict

import numpy as np

from lka_seg import analysis, data_io, engine, nn, training
from lka_seg.blocks import (
    ConvFeedForward,
    KernelSelector,
    LargeKernelAttention,
    ResidualConvBlock,
)
from lka_seg.context import PyramidPooling
from lka_seg.model import BilateralNet

# engine.__all__ entries that are not tensor operations
_NOT_OPS = {"Tensor", "Parameter", "ConvSpec", "no_grad", "flop_meter",
            "backward", "depthwise"}  # depthwise only forwards to conv2d
_OP_KIND = {
    **dict.fromkeys(("add", "sub", "mul", "div", "relu", "gelu", "sigmoid"),
                    "pointwise"),
    **dict.fromkeys(("concat", "channel_slice", "channel_mean", "channel_max"),
                    "shape"),
    "batch_norm": "batch_norm",
    "bilinear_resize": "resize",
    "avg_pool": "pool",
    "global_avg_pool": "pool",
    "softmax": "softmax",
    "group_softmax": "softmax",
}
_MODULE_LABEL = {
    LargeKernelAttention: "blocks.lka",
    KernelSelector: "blocks.selector",
    ConvFeedForward: "blocks.cffn",
    ResidualConvBlock: "blocks.resconv",
    PyramidPooling: "context.ppm",
    BilateralNet: "model.forward",
}
# attribute of BilateralNet -> model part
_MODEL_PART = {
    "stem": "model.stem",
    "exch1_h2l": "model.exchange",
    "exch1_l2h": "model.exchange",
    "exch2_h2l": "model.exchange",
    "exch2_l2h": "model.exchange",
    "fuse": "model.fuse",
    "boundary_feat": "model.heads",
    "boundary_logit": "model.heads",
    "aux_head": "model.heads",
    "seg_head": "model.heads",
}
_TRAINING_CALLS = {
    "ohem_cross_entropy": "training.loss",
    "boundary_bce": "training.loss",
    "boundary_target_at_scale": "training.loss",
    "evaluate": "training.evaluate",
}
_DATA_IO_CALLS = ("synth_dataset", "write_dataset", "load_dataset",
                  "save_checkpoint", "load_checkpoint", "load_into_model")

KEEP_UNITS = 2   # spans of units 0 and 1 (and of set-up) are kept for dump()
OP_KEYS = {f"engine.{k}" for k in set(_OP_KIND.values()) | {"other"}} | {
    "engine.conv2d_dw", "engine.conv2d_dense"}

# aggregate fields
COUNT, INCL, SELF, FLOPS_SELF, OPS_INCL, BYTES = range(6)


def _nbytes(values):
    """Bytes of the arrays among `values`; lists (concat inputs) are opened."""
    n = 0
    for v in values:
        if isinstance(v, engine.Tensor):
            n += v.data.nbytes
        elif isinstance(v, np.ndarray):
            n += v.nbytes
        elif isinstance(v, list):
            n += _nbytes(v)
    return n


def _shape(v):
    return v.data.shape if isinstance(v, engine.Tensor) else np.shape(v)


def _conv_kind(args, kwargs):
    """Depthwise when groups == c_in == c_out, dense otherwise."""
    x, w = args[0], args[1]
    groups = kwargs.get("groups", args[6] if len(args) > 6 else 1)
    if groups == _shape(x)[1] == _shape(w)[0]:
        return "engine.conv2d_dw"
    return "engine.conv2d_dense"


class _Span:
    __slots__ = ("keys", "start", "child_s", "flops0", "child_flops", "ops0",
                 "obj", "index")

    def __init__(self, keys, start, flops0, ops0, obj, index):
        self.keys = keys
        self.start = start
        self.child_s = 0.0
        self.flops0 = flops0
        self.child_flops = 0
        self.ops0 = ops0
        self.obj = obj
        self.index = index


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.unit = -1
        self.meter = None
        self.ops = 0
        self.tensors = defaultdict(int)
        self.ckpt_bytes = defaultdict(int)
        self.agg = defaultdict(dict)
        self.kept = []
        self._stack = []
        self._saved = []
        self._labels = weakref.WeakKeyDictionary()
        self._meter_ctx = None

    # -- span bookkeeping -------------------------------------------------

    def _begin(self, keys, obj=None):
        index = -1
        if self.unit < KEEP_UNITS:
            index = len(self.kept)
            parent = self._stack[-1].index if self._stack else -1
            self.kept.append([keys[0], 0.0, 0.0, parent, self.unit])
        self._stack.append(_Span(keys, time.perf_counter(), self.meter.total,
                                 self.ops, obj, index))

    def _end(self, nbytes=0):
        end = time.perf_counter()
        span = self._stack.pop()
        dur = end - span.start
        flops = self.meter.total - span.flops0
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dur
            parent.child_flops += flops
        if span.index >= 0:
            rec = self.kept[span.index]
            rec[1], rec[2] = span.start, end
        agg = self.agg[self.phase]
        for key in span.keys:
            a = agg.get(key)
            if a is None:
                a = agg[key] = [0, 0.0, 0.0, 0, 0, 0]
            a[COUNT] += 1
            a[INCL] += dur
            a[SELF] += dur - span.child_s
            a[FLOPS_SELF] += flops - span.child_flops
            a[OPS_INCL] += self.ops - span.ops0
            a[BYTES] += nbytes

    # -- wrappers ---------------------------------------------------------

    def _wrap_op(self, fn, name):
        tracer = self
        key = (f"engine.{_OP_KIND.get(name, 'other')}",)

        @functools.wraps(fn)
        def op(*args, **kwargs):
            tracer.ops += 1
            keys = (_conv_kind(args, kwargs),) if name == "conv2d" else key
            tracer._begin(keys)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer._end(_nbytes(args) + _nbytes(kwargs.values())
                            + (out.data.nbytes if out is not None else 0))

        return op

    def _wrap_call(self, fn, key, count_bytes=None):
        tracer = self
        keys = (key,)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            tracer._begin(keys)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end()
            if count_bytes is not None:
                tracer.ckpt_bytes[tracer.phase] += count_bytes(*args)
            return out

        return call

    def _module_keys(self, mod, args, kwargs):
        label = _MODULE_LABEL.get(type(mod))
        if label is None and self._stack and isinstance(self._stack[-1].obj,
                                                        BilateralNet):
            label = self._labels.get(mod)
            if label is None:
                parent = self._stack[-1].obj
                name = next(k for k, v in vars(parent).items() if v is mod)
                label = self._labels[mod] = _MODEL_PART.get(name, "")
        keys = ["nn.module"]
        if label:
            keys.append(label)
        if label == "model.forward":
            mode = kwargs.get("mode", args[1] if len(args) > 1 else "eval")
            if mode == "train":
                keys.append("training.forward")
        return tuple(keys)

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Arm the engine's FLOP meter and wrap the package's callables."""
        tracer = self
        self._meter_ctx = contextlib.ExitStack()
        self.meter = self._meter_ctx.enter_context(engine.flop_meter())
        for name in engine.__all__:
            fn = getattr(engine, name)
            if name not in _NOT_OPS and callable(fn):
                self._patch(engine, name, self._wrap_op(fn, name))
        self._patch(engine, "custom_op", self._wrap_op(engine.custom_op, "custom_op"))

        tensor_init = engine.Tensor.__init__

        def counted_init(t, *args, **kwargs):
            tracer.tensors[tracer.phase] += 1
            tensor_init(t, *args, **kwargs)

        self._patch(engine.Tensor, "__init__", counted_init)
        self._patch(engine.Tensor, "backward",
                    self._wrap_call(engine.Tensor.backward, "engine.backward"))

        module_call = nn.Module.__call__

        def traced_call(mod, *args, **kwargs):
            tracer._begin(tracer._module_keys(mod, args, kwargs), mod)
            try:
                return module_call(mod, *args, **kwargs)
            finally:
                tracer._end()

        self._patch(nn.Module, "__call__", traced_call)

        for name, key in _TRAINING_CALLS.items():
            self._patch(training, name, self._wrap_call(getattr(training, name), key))
        self._patch(training.SGD, "step",
                    self._wrap_call(training.SGD.step, "training.sgd"))
        for name in _DATA_IO_CALLS:
            size = (lambda model, path: os.path.getsize(path)) \
                if name == "save_checkpoint" else None
            self._patch(data_io, name,
                        self._wrap_call(getattr(data_io, name), f"data_io.{name}", size))
        self._patch(analysis, "count_flops",
                    self._wrap_call(analysis.count_flops, "analysis.count_flops"))
        return self

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
        self._meter_ctx.close()
        self.meter = None

    # -- results ----------------------------------------------------------

    def op_flops(self, phase):
        """FLOPs attributed to engine op spans (all op kinds) in `phase`."""
        return sum(a[FLOPS_SELF] for k, a in self.agg[phase].items()
                   if k in OP_KEYS)

    def get(self, phase, key, field):
        a = self.agg[phase].get(key)
        return a[field] if a is not None else 0

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "unit"],
                       "spans": self.kept}, fh, separators=(",", ":"))
