"""Static cost reports: FLOPs, parameters and receptive fields.

`count_flops` walks the model's declared dataflow (the `cost` methods)
and never executes it; the runtime meter inside the engine is the
independent cross-check, and the acceptance suite holds the two to exact
integer equality. `count_params` counts trainable scalars only (conv
weights and biases, norm affine terms); norm running statistics are
excluded. Latency is measured by the benchmark harness
(`perfbench/run.py`), not here.
"""

from __future__ import annotations

from .costs import CostReport, receptive_field, receptive_field_2d
from .model import rf_paths

__all__ = [
    "CostReport",
    "count_flops",
    "count_params",
    "receptive_field",
    "receptive_field_2d",
    "rf_table",
    "report_table",
    "report_csv",
]


def rf_table():
    """Per-axis receptive field (h, w) of each of the network's named paths."""
    return {name: receptive_field_2d(chain) for name, chain in rf_paths().items()}


def count_flops(model_or_layer, input_shape):
    """Static per-layer cost of one eval-mode forward at `input_shape`."""
    records, _ = model_or_layer.cost(tuple(input_shape))
    return CostReport(input_shape=tuple(input_shape), layers=records)


def count_params(model):
    """Exact number of trainable scalars in the parameter tree."""
    return sum(p.data.size for p in model.parameters())


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
    return "\n".join(lines)


def report_csv(report: CostReport):
    lines = ["layer,kind,flops,params,out_shape"]
    for rec in report.layers:
        shape = "x".join(map(str, rec.out_shape))
        lines.append(f"{rec.name},{rec.kind},{rec.flops},{rec.params},{shape}")
    lines.append(f"total,,{report.total_flops},{report.total_params},")
    return "\n".join(lines) + "\n"
