"""Hierarchical-residual pyramid pooling for the deepest semantic stage.

Two styles share one implementation:

  * "dappm"   - plain 3x3 processing convs, no attention gate.
  * "dlkppm"  - processing convs use dilation 2 and the identity scale is
                gated by a depthwise large-kernel chain (5x5 plus the two
                dilated strips), the same 35-pixel field as the blocks.

Scales run identity / pool 5 s2 / pool 9 s4 / pool 17 s8 / global, each
reduced to a hidden width; every pooled scale is upsampled back to the
input size and added onto the previous result before its processing conv
(hierarchical residual). A pooled scale whose window would not fit the
padded input degrades to global pooling with a logged notice instead of
failing.
"""

from __future__ import annotations

import logging
import threading

from . import engine as E
from . import costs
from .blocks import (
    SMALL_KERNEL,
    STRIP_DILATION,
    STRIP_LEN,
    _SMALL_PAD,
    _STRIP_PAD,
)
from .nn import Conv2d, Module, ModuleList, bn_act_conv

log = logging.getLogger(__name__)

# (kernel, stride, padding) of the pooled scales, coarse last
POOL_SCALES = ((5, 2, 2), (9, 4, 4), (17, 8, 8))

# (k, h, w) degradations already logged. Kept per process rather than on
# the PyramidPooling object, so a forward never writes to the model; locked
# because threaded evaluation runs forwards concurrently.
_notified = set()
_notified_lock = threading.Lock()


def _notice(k, h, w):
    """Log, once per process, that pool scale k degraded at an h x w input."""
    with _notified_lock:
        if (k, h, w) in _notified:
            return
        _notified.add((k, h, w))
    log.info("pyramid scale k=%d degraded to global pooling for %dx%d input",
             k, h, w)


class PyramidPooling(Module):
    def __init__(self, cin, cout, rng, hidden=None, style="dlkppm"):
        super().__init__()
        if style not in ("dappm", "dlkppm"):
            raise ValueError(f"pyramid style must be 'dappm' or 'dlkppm', got {style!r}")
        hidden = hidden or cin // 2
        if hidden < 1:
            raise ValueError(f"pyramid hidden width must be >= 1, got {hidden}")
        self.style = style
        self.cin, self.hidden, self.cout = cin, hidden, cout

        self.reduce0 = bn_act_conv(cin, hidden, 1, rng)
        if style == "dlkppm":
            c = hidden
            self.gate_small = Conv2d(c, c, SMALL_KERNEL, rng, padding=_SMALL_PAD,
                                     groups=c, bias=False)
            self.gate_h = Conv2d(c, c, (1, STRIP_LEN), rng, padding=(0, _STRIP_PAD),
                                 dilation=(1, STRIP_DILATION), groups=c, bias=False)
            self.gate_v = Conv2d(c, c, (STRIP_LEN, 1), rng, padding=(_STRIP_PAD, 0),
                                 dilation=(STRIP_DILATION, 1), groups=c, bias=False)
            self.gate_proj = Conv2d(c, c, 1, rng)

        self.reduces = ModuleList([bn_act_conv(cin, hidden, 1, rng)
                                   for _ in range(len(POOL_SCALES) + 1)])
        dil, pad = (2, 2) if style == "dlkppm" else (1, 1)
        self.processes = ModuleList([
            bn_act_conv(hidden, hidden, 3, rng, padding=pad, dilation=dil)
            for _ in range(len(POOL_SCALES) + 1)
        ])
        self.compression = bn_act_conv(hidden * (len(POOL_SCALES) + 2), cout, 1, rng)
        self.shortcut = bn_act_conv(cin, cout, 1, rng)

    def _degenerate(self, k, s, p, h, w):
        # the scale adds nothing once its pooled map collapses to 1x1
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        return oh <= 1 and ow <= 1

    def _apply_gate(self, r, mode):
        attn = self.gate_proj(self.gate_v(self.gate_h(self.gate_small(r, mode),
                                                      mode), mode), mode)
        return E.mul(attn, r)

    def forward(self, x, mode="eval"):
        if x.data.shape[1] != self.cin:
            raise ValueError(
                f"pyramid channel axis mismatch: built for {self.cin}, "
                f"got {x.data.shape[1]}"
            )
        n, _, h, w = x.data.shape
        r = self.reduce0(x, mode)
        if self.style == "dlkppm":
            r = self._apply_gate(r, mode)
        levels = [r]
        for i, (k, s, p) in enumerate(POOL_SCALES):
            if self._degenerate(k, s, p, h, w):
                _notice(k, h, w)
                pooled = E.global_avg_pool(x)
            else:
                pooled = E.avg_pool(x, k, s, p)
            y = self.reduces[i](pooled, mode)
            y = E.bilinear_resize(y, h, w)
            y = self.processes[i](E.add(y, levels[-1]), mode)
            levels.append(y)
        y = self.reduces[-1](E.global_avg_pool(x), mode)
        y = E.bilinear_resize(y, h, w)
        y = self.processes[-1](E.add(y, levels[-1]), mode)
        levels.append(y)
        out = self.compression(E.concat(levels), mode)
        return E.add(out, self.shortcut(x, mode))

    def cost(self, in_shape, prefix=""):
        p = prefix or "pyramid"
        n, _, h, w = in_shape
        hid = self.hidden
        records, rshape = self.reduce0.cost(in_shape, f"{p}.reduce0")
        if self.style == "dlkppm":
            for name, mod in (("gate_small", self.gate_small), ("gate_h", self.gate_h),
                              ("gate_v", self.gate_v), ("gate_proj", self.gate_proj)):
                recs, _ = mod.cost(rshape, f"{p}.{name}")
                records.extend(recs)
            records.append(costs.elemwise_cost(f"{p}.gate", rshape)[0])
        for i, (k, s, pd) in enumerate(POOL_SCALES):
            if self._degenerate(k, s, pd, h, w):
                rec, pooled = costs.global_pool_cost(f"{p}.pool{i}", in_shape)
            else:
                rec, pooled = costs.pool_cost(f"{p}.pool{i}", in_shape, (k, k), (s, s),
                                              (pd, pd))
            records.append(rec)
            recs, yshape = self.reduces[i].cost(pooled, f"{p}.reduce{i + 1}")
            records.extend(recs)
            rec, yshape = costs.resize_cost(f"{p}.up{i}", yshape, h, w)
            records.append(rec)
            records.append(costs.elemwise_cost(f"{p}.sum{i}", yshape)[0])
            recs, _ = self.processes[i].cost(yshape, f"{p}.process{i}")
            records.extend(recs)
        rec, pooled = costs.global_pool_cost(f"{p}.pool_global", in_shape)
        records.append(rec)
        recs, yshape = self.reduces[-1].cost(pooled, f"{p}.reduce_global")
        records.extend(recs)
        rec, yshape = costs.resize_cost(f"{p}.up_global", yshape, h, w)
        records.append(rec)
        records.append(costs.elemwise_cost(f"{p}.sum_global", yshape)[0])
        recs, _ = self.processes[-1].cost(yshape, f"{p}.process_global")
        records.extend(recs)
        cat = (n, hid * (len(POOL_SCALES) + 2), h, w)
        recs, oshape = self.compression.cost(cat, f"{p}.compression")
        records.extend(recs)
        recs, _ = self.shortcut.cost(in_shape, f"{p}.shortcut")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.residual", oshape)[0])
        return records, oshape
