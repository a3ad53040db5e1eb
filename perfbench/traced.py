"""The traced run: per-layer metrics for one workload.

Order of a traced run:
  1. set-up once, traced (data_io and synth spans land in phase "setup");
  2. the FLOP self-check: one eval forward at the workload's shape, traced,
     whose op-attributed FLOPs must equal `analysis.count_flops` exactly;
  3. an untraced stretch of a third of `--seconds`, then a traced stretch
     for the rest; the gap in img/s between them is `trace.overhead_pct`;
  4. one memory session under tracemalloc, untraced.
Per-layer values are totals over the traced stretch divided by the units
it ran, except the data_io set-up spans (ms over the whole set-up) and
the self-check (counted once).
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np

from lka_seg import analysis, engine

from workloads import metric, run_units, throughput

from tracer import BYTES, COUNT, FLOPS_SELF, INCL, OP_KEYS, OPS_INCL, SELF, Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# metric name -> (aggregate key, field, scale); values are per traced unit
_PER_UNIT = {
    "nn.calls": ("nn.module", COUNT, 1),
    "nn.self_ms": ("nn.module", SELF, 1e3),
    "engine.pointwise.self_ms": ("engine.pointwise", SELF, 1e3),
    "engine.shape.self_ms": ("engine.shape", SELF, 1e3),
    "engine.batch_norm.self_ms": ("engine.batch_norm", SELF, 1e3),
    "engine.resize.self_ms": ("engine.resize", SELF, 1e3),
    "engine.pool.self_ms": ("engine.pool", SELF, 1e3),
    "engine.softmax.self_ms": ("engine.softmax", SELF, 1e3),
    "engine.other.self_ms": ("engine.other", SELF, 1e3),
    "engine.conv2d_dense.calls": ("engine.conv2d_dense", COUNT, 1),
    "engine.conv2d_dense.self_ms": ("engine.conv2d_dense", SELF, 1e3),
    "engine.conv2d_dw.calls": ("engine.conv2d_dw", COUNT, 1),
    "engine.conv2d_dw.self_ms": ("engine.conv2d_dw", SELF, 1e3),
    "blocks.lka.ms": ("blocks.lka", INCL, 1e3),
    "blocks.selector.ms": ("blocks.selector", INCL, 1e3),
    "blocks.selector.ops": ("blocks.selector", OPS_INCL, 1),
    "blocks.cffn.ms": ("blocks.cffn", INCL, 1e3),
    "blocks.resconv.ms": ("blocks.resconv", INCL, 1e3),
    "context.ppm.ms": ("context.ppm", INCL, 1e3),
    "model.forward.ms": ("model.forward", INCL, 1e3),
    "model.stem.ms": ("model.stem", INCL, 1e3),
    "model.exchange.ms": ("model.exchange", INCL, 1e3),
    "model.fuse.ms": ("model.fuse", INCL, 1e3),
    "model.heads.ms": ("model.heads", INCL, 1e3),
    "engine.backward.ms": ("engine.backward", INCL, 1e3),
    "training.forward_ms": ("training.forward", INCL, 1e3),
    "training.loss_ms": ("training.loss", INCL, 1e3),
    "training.backward_ms": ("engine.backward", INCL, 1e3),
    "training.sgd_ms": ("training.sgd", INCL, 1e3),
    "training.evaluate_ms": ("training.evaluate", INCL, 1e3),
    "training.steps": ("training.sgd", COUNT, 1),
    "data_io.save_checkpoint.ms": ("data_io.save_checkpoint", INCL, 1e3),
}
# metric name -> aggregate key; ms summed over the whole set-up
_SETUP_MS = {
    "data_io.load_checkpoint.ms": "data_io.load_checkpoint",
    "data_io.load_dataset.ms": "data_io.load_dataset",
    "data_io.synth_dataset.ms": "data_io.synth_dataset",
}
_GFLOPS = ("engine.conv2d_dense", "engine.conv2d_dw")


def flop_check(tracer, wl):
    """Trace one eval forward; op-attributed FLOPs must equal the static count."""
    model = wl.probe_model()
    shape = wl.check_shape
    x = engine.Tensor(np.random.default_rng(0).uniform(size=shape))
    tracer.phase = "check"
    meter0 = tracer.meter.total
    with engine.no_grad():
        model(x, "eval")
    metered = tracer.meter.total - meter0
    static = analysis.count_flops(model, shape).total_flops
    traced = tracer.op_flops("check")
    return {"shape": list(shape), "traced": traced, "metered": metered,
            "static": static, "equal": traced == metered == static}


def per_layer(wl, args):
    tracer = Tracer().install()
    try:
        wl.setup(args.seed)
        check = flop_check(tracer, wl)
    finally:
        tracer.uninstall()
    checks = {"probe": wl.probe_ok(), "flops_traced_equal_static": check["equal"]}

    units_u, start_u = run_units(wl, args.seconds / 3.0)

    tracer.phase, tracer.unit = "loop", 0

    def next_unit():
        tracer.unit += 1

    tracer.install()
    try:
        units_t, start_t = run_units(wl, args.seconds * 2.0 / 3.0, next_unit)
    finally:
        tracer.uninstall()
    checks["val_miou"] = wl.miou_ok()

    tracemalloc.start()
    try:
        wl.memory_session()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    n = len(units_t)
    agg = tracer.agg["loop"]
    metrics = {}
    for name, (key, field, scale) in _PER_UNIT.items():
        unit = "ms" if name.endswith("ms") else "count"
        metrics[name] = metric(tracer.get("loop", key, field) * scale / n, unit)
    for key in _GFLOPS:
        busy = tracer.get("loop", key, SELF)
        gflop_s = tracer.get("loop", key, FLOPS_SELF) / busy / 1e9 if busy else 0.0
        metrics[f"{key}.gflop_s"] = metric(gflop_s, "GFLOP/s")
    ops = {k: a for k, a in agg.items() if k in OP_KEYS}
    metrics["engine.ops"] = metric(sum(a[COUNT] for a in ops.values()) / n, "count")
    metrics["engine.tensors"] = metric(tracer.tensors["loop"] / n, "count")
    metrics["engine.flops"] = metric(tracer.op_flops("loop") / n, "FLOP")
    metrics["engine.bytes_computed"] = metric(
        sum(a[BYTES] for a in ops.values()) / n, "B")
    metrics["data_io.checkpoint_bytes"] = metric(tracer.ckpt_bytes["loop"] / n, "B")
    for name, key in _SETUP_MS.items():
        metrics[name] = metric(tracer.get("setup", key, INCL) * 1e3, "ms")
    metrics["analysis.count_flops.ms"] = metric(
        tracer.get("check", "analysis.count_flops", INCL) * 1e3, "ms")
    metrics["costs.static_flops"] = metric(check["static"], "FLOP")
    metrics["mem.peak_traced_mib"] = metric(peak / 2**20, "MiB")
    rate_u = throughput(units_u, start_u)
    rate_t = throughput(units_t, start_t)
    metrics["trace.overhead_pct"] = metric(
        (rate_u / rate_t - 1.0) * 100.0 if rate_t else float("nan"), "%")
    metrics["trace.units"] = metric(n, "count")

    spans = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(spans)
    samples = {
        "units_traced": n, "units_untraced": len(units_u),
        "img_per_s_untraced": rate_u, "img_per_s_traced": rate_t,
        "flop_check": check,
        "span_counts": {k: a[COUNT] for k, a in sorted(agg.items())},
        "spans_file": os.path.relpath(spans),
        "spans_kept": len(tracer.kept),
    }
    return units_u + units_t, checks, metrics, samples
