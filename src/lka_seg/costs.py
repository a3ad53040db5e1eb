"""Static cost conventions: FLOPs, parameter counts, receptive fields.

The FLOP table (one multiply-add = 2 FLOPs) used by BOTH the static model
walk (this module) and the runtime meter inside `lka_seg.engine`:

  convolution        2 * kh * kw * (c_in / g) * c_out * oh * ow * n
  conv bias          c_out * oh * ow * n
  normalization      2 per element
  activation         1 per element (relu / gelu / sigmoid alike)
  selector mix       per joint logit: 1 (s_i * cvec_i) + 4 (softmax across
                     branches); per output element: k muls + (k - 1) adds
  average pooling    kh * kw per output element
  global avg pool    1 per input element
  bilinear resize    8 per output element
  elementwise op     1 per output element (add, sub, mul)
  channel mean/max   1 per input element
  concat             0

FLOPs are nominal: every kernel tap is charged, including the taps the
engine skips because they read only padding (`engine._live_taps`).

The two sides implement this table independently; the acceptance suite
pins them to exact integer equality on whole models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod as _numel


@dataclass
class LayerCost:
    """One accounted step of a forward pass."""

    name: str
    kind: str
    flops: int
    params: int
    out_shape: tuple


@dataclass
class CostReport:
    """Per-layer cost records plus their totals."""

    input_shape: tuple
    layers: list = field(default_factory=list)

    @property
    def total_flops(self):
        return sum(rec.flops for rec in self.layers)

    @property
    def total_params(self):
        return sum(rec.params for rec in self.layers)


def conv_out_hw(h, w, kernel, stride, padding, dilation):
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    oh = (h + 2 * ph - (kh - 1) * dh - 1) // sh + 1
    ow = (w + 2 * pw - (kw - 1) * dw - 1) // sw + 1
    return oh, ow


def conv_cost(name, in_shape, cout, kernel, stride=(1, 1), padding=(0, 0),
              dilation=(1, 1), groups=1, bias=True):
    n, cin, h, w = in_shape
    oh, ow = conv_out_hw(h, w, kernel, stride, padding, dilation)
    kh, kw = kernel
    flops = 2 * kh * kw * (cin // groups) * cout * oh * ow * n
    params = cout * (cin // groups) * kh * kw
    if bias:
        flops += cout * oh * ow * n
        params += cout
    return LayerCost(name, "conv", flops, params, (n, cout, oh, ow)), (n, cout, oh, ow)


def norm_cost(name, shape):
    c = shape[1]
    return LayerCost(name, "norm", 2 * _numel(shape), 2 * c, shape), shape


def act_cost(name, shape):
    return LayerCost(name, "act", _numel(shape), 0, shape), shape


def softmax_cost(name, shape):
    return LayerCost(name, "softmax", 4 * _numel(shape), 0, shape), shape


def pool_cost(name, in_shape, kernel, stride, padding=(0, 0)):
    n, c, h, w = in_shape
    kh, kw = kernel
    oh, ow = conv_out_hw(h, w, kernel, stride, padding, (1, 1))
    out = (n, c, oh, ow)
    return LayerCost(name, "pool", kh * kw * _numel(out), 0, out), out


def global_pool_cost(name, in_shape):
    n, c = in_shape[0], in_shape[1]
    out = (n, c, 1, 1)
    return LayerCost(name, "pool", _numel(in_shape), 0, out), out


def resize_cost(name, in_shape, out_h, out_w):
    n, c = in_shape[0], in_shape[1]
    out = (n, c, out_h, out_w)
    return LayerCost(name, "resize", 8 * _numel(out), 0, out), out


def elemwise_cost(name, shape, n_ops=1):
    return LayerCost(name, "elemwise", n_ops * _numel(shape), 0, shape), shape


def reduce_cost(name, in_shape, out_shape):
    """Channel mean/max style reductions: 1 FLOP per input element."""
    return LayerCost(name, "reduce", _numel(in_shape), 0, out_shape), out_shape


def receptive_field(path):
    """RF of a 1-D layer chain [(kernel, dilation, stride), ...].

    rf = 1 + sum_i (k_i - 1) * d_i * prod_{j<i} s_j
    """
    if not path:
        raise ValueError("receptive_field needs a non-empty path")
    rf = 1
    jump = 1
    for k, d, s in path:
        rf += (k - 1) * d * jump
        jump *= s
    return rf


def receptive_field_2d(path):
    """Per-axis RF of a chain of ((kh, kw), (dh, dw), (sh, sw)) layers."""
    rf_h = receptive_field([(k[0], d[0], s[0]) for k, d, s in path])
    rf_w = receptive_field([(k[1], d[1], s[1]) for k, d, s in path])
    return rf_h, rf_w
