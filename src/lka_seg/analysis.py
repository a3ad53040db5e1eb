"""Static cost model and latency benchmarking.

`count_flops` walks the model's declared dataflow (the `cost` methods)
and never executes it; the runtime meter inside the engine is the
independent cross-check, and the acceptance suite holds the two to exact
integer equality. `count_params` counts trainable scalars only (conv
weights and biases, norm affine terms); norm running statistics are
excluded. Latency numbers are host-CPU wall clock and carry enough
metadata (shape, host) not to be mistaken for GPU figures.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np

from . import engine as E
from .costs import CostReport, receptive_field, receptive_field_2d

__all__ = [
    "CostReport",
    "count_flops",
    "count_params",
    "receptive_field",
    "receptive_field_2d",
    "bench_latency",
    "BenchReport",
    "report_table",
    "report_csv",
]


def count_flops(model_or_layer, input_shape):
    """Static per-layer cost of one eval-mode forward at `input_shape`."""
    records, _ = model_or_layer.cost(tuple(input_shape))
    report = CostReport(input_shape=tuple(input_shape), layers=records)
    rf_paths = getattr(model_or_layer, "rf_paths", None)
    if rf_paths is not None:
        report.rf_table = {name: receptive_field_2d(chain)
                           for name, chain in rf_paths().items()}
    return report


def count_params(model):
    """Exact number of trainable scalars in the parameter tree."""
    return sum(p.data.size for p in model.parameters())


@dataclass
class BenchReport:
    mean_ms: float
    p50_ms: float
    p95_ms: float
    fps: float
    input_shape: tuple
    iters: int
    host: str


def bench_latency(model, input_shape, warmup=3, iters=10, seed=0):
    """Wall-clock eval-mode forwards after warmup; FPS = 1000 / mean_ms."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)
    x = E.Tensor(rng.uniform(size=tuple(input_shape)))
    with E.no_grad():
        for _ in range(warmup):
            model(x, "eval")
        times = []
        for _ in range(iters):
            t0 = time.perf_counter()
            model(x, "eval")
            times.append((time.perf_counter() - t0) * 1000.0)
    times = np.asarray(times)
    mean = float(times.mean())
    return BenchReport(
        mean_ms=mean,
        p50_ms=float(np.percentile(times, 50)),
        p95_ms=float(np.percentile(times, 95)),
        fps=1000.0 / mean,
        input_shape=tuple(input_shape),
        iters=iters,
        host=f"{platform.machine()} cpython-{platform.python_version()} "
             f"numpy-{np.__version__}",
    )


def report_table(report: CostReport):
    """Aligned text table of a cost report."""
    rows = [(rec.name, rec.kind, str(rec.flops), str(rec.params),
             "x".join(map(str, rec.out_shape))) for rec in report.layers]
    rows.append(("total", "", str(report.total_flops), str(report.total_params), ""))
    head = ("layer", "kind", "flops", "params", "out_shape")
    widths = [max(len(head[i]), *(len(r[i]) for r in rows)) for i in range(5)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths))]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    if report.rf_table:
        lines.append("")
        lines.append("receptive fields (h x w):")
        for name, (rh, rw) in report.rf_table.items():
            lines.append(f"  {name}: {rh} x {rw}")
    return "\n".join(lines)


def report_csv(report: CostReport):
    lines = ["layer,kind,flops,params,out_shape"]
    for rec in report.layers:
        shape = "x".join(map(str, rec.out_shape))
        lines.append(f"{rec.name},{rec.kind},{rec.flops},{rec.params},{shape}")
    lines.append(f"total,,{report.total_flops},{report.total_params},")
    for name, (rh, rw) in report.rf_table.items():
        lines.append(f"rf:{name},rf,{rh},{rw},")
    return "\n".join(lines) + "\n"
