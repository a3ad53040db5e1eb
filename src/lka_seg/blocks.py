"""Attention blocks: decomposed large-kernel gating with adaptive fusion.

The core unit multiplies its input by an attention map built from a small
5x5 depthwise kernel refined by two orthogonal dilated strip kernels
(1x11 and 11x1, dilation 3, applied in sequence), which stretches the
receptive field of the strip path to 35 pixels per axis at depthwise cost.
The three intermediate features are mixed by a joint spatial-and-channel
selector into a single map before the pointwise projection.
"""

from __future__ import annotations

from . import engine as E
from . import costs
from .nn import BatchNorm2d, Conv2d, Module, ReLU, Sequential

STRIP_LEN = 11
STRIP_DILATION = 3
SMALL_KERNEL = 5
SELECTOR_KERNEL = 7
FFN_RATIO = 2


def large_kernel_chain():
    """(kernel, dilation, stride) chain of the full strip path, 2-D."""
    return [
        ((SMALL_KERNEL, SMALL_KERNEL), (1, 1), (1, 1)),
        ((1, STRIP_LEN), (1, STRIP_DILATION), (1, 1)),
        ((STRIP_LEN, 1), (STRIP_DILATION, 1), (1, 1)),
    ]


def large_kernel_convs(channels, rng):
    """Depthwise convs of `large_kernel_chain`, bias-free and shape-preserving.

    Their initial weights are drawn from `rng` in chain order.
    """
    c = channels
    return tuple(
        Conv2d(c, c, k, rng, padding=((k[0] - 1) * d[0] // 2, (k[1] - 1) * d[1] // 2),
               dilation=d, groups=c, bias=False)
        for k, d, _ in large_kernel_chain()
    )


class KernelSelector(Module):
    """Joint spatial/channel gating over three candidate feature maps.

    Spatial weights come from a 7x7 conv over the channel-mean and
    channel-max maps of the branch sum (3 output channels, one per
    branch); channel weights come from the globally pooled descriptor
    through a pointwise expansion and a per-channel refinement. The
    product of the two is normalized with a softmax across the branch
    axis, so the mixing weights form a simplex at every position.
    """

    BRANCHES = 3

    def __init__(self, channels, rng):
        super().__init__()
        self.channels = channels
        self.spatial_conv = Conv2d(2, self.BRANCHES, SELECTOR_KERNEL, rng,
                                   padding=SELECTOR_KERNEL // 2)
        self.channel_pw = Conv2d(channels, self.BRANCHES * channels, 1, rng)
        self.channel_dw = Conv2d(self.BRANCHES * channels, self.BRANCHES * channels,
                                 1, rng, groups=self.BRANCHES * channels)

    def _logits(self, branches, mode):
        """Spatial logits (n, 3, h, w) and channel logits (n, 3c, 1, 1)."""
        b0, b1, b2 = branches
        u = E.add(E.add(b0, b1), b2)
        stats = E.concat([E.channel_mean(u), E.channel_max(u)])
        s = self.spatial_conv(stats, mode)
        d = E.global_avg_pool(u)
        cvec = self.channel_dw(E.gelu(self.channel_pw(d, mode)), mode)
        return s, cvec

    def weights(self, branches, mode="eval"):
        """Per-branch mixing weights, each (n, c, h, w), summing to 1 (off the tape)."""
        s, cvec = self._logits(branches, mode)
        wts = E._select_weights(s.data, cvec.data)
        return [E.Tensor(wts[:, i]) for i in range(self.BRANCHES)]

    def forward(self, branches, mode="eval"):
        shapes = {b.data.shape for b in branches}
        if len(branches) != self.BRANCHES or len(shapes) != 1:
            raise ValueError(
                f"selector needs {self.BRANCHES} same-shape branches, got "
                f"{[b.data.shape for b in branches]}"
            )
        return E.select_mix(*self._logits(branches, mode), branches)

    def cost(self, in_shape, prefix=""):
        n, c, h, w = in_shape
        p = prefix or "selector"
        records = []
        records.append(costs.elemwise_cost(f"{p}.branch_sum", in_shape, 2)[0])
        records.append(costs.reduce_cost(f"{p}.channel_mean", in_shape, (n, 1, h, w))[0])
        records.append(costs.reduce_cost(f"{p}.channel_max", in_shape, (n, 1, h, w))[0])
        recs, _ = self.spatial_conv.cost((n, 2, h, w), f"{p}.spatial_conv")
        records.extend(recs)
        records.append(costs.global_pool_cost(f"{p}.pool", in_shape)[0])
        recs, dshape = self.channel_pw.cost((n, c, 1, 1), f"{p}.channel_pw")
        records.extend(recs)
        records.append(costs.act_cost(f"{p}.gelu", dshape)[0])
        recs, _ = self.channel_dw.cost(dshape, f"{p}.channel_dw")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.joint_logits", (n, 3 * c, h, w))[0])
        records.append(costs.softmax_cost(f"{p}.softmax", (n, 3 * c, h, w))[0])
        records.append(costs.elemwise_cost(f"{p}.mix", in_shape, 5)[0])
        return records, in_shape


class LargeKernelAttention(Module):
    """Decomposed large-kernel gate: attention map times input.

    y0 = dw5x5(x); yh = dw1x11_d3(y0); yv = dw11x1_d3(yh). The selector
    fuses (y0, yh, yv), a pointwise conv forms the attention map, and the
    output is attention * x. Output shape equals input shape.
    """

    def __init__(self, channels, rng):
        super().__init__()
        self.channels = channels
        self.dw_small, self.strip_h, self.strip_v = large_kernel_convs(channels, rng)
        self.selector = KernelSelector(channels, rng)
        self.proj = Conv2d(channels, channels, 1, rng)

    def forward(self, x, mode="eval"):
        if x.data.shape[1] != self.channels:
            raise ValueError(
                f"channel axis mismatch: attention built for {self.channels}, "
                f"input has {x.data.shape[1]}"
            )
        y0 = self.dw_small(x, mode)
        yh = self.strip_h(y0, mode)
        yv = self.strip_v(yh, mode)
        fused = self.selector([y0, yh, yv], mode)
        attn = self.proj(fused, mode)
        return E.mul(attn, x)

    def cost(self, in_shape, prefix=""):
        p = prefix or "lka"
        records = []
        for name, mod in (("dw_small", self.dw_small), ("strip_h", self.strip_h),
                          ("strip_v", self.strip_v)):
            recs, _ = mod.cost(in_shape, f"{p}.{name}")
            records.extend(recs)
        recs, _ = self.selector.cost(in_shape, f"{p}.selector")
        records.extend(recs)
        recs, _ = self.proj.cost(in_shape, f"{p}.proj")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.gate", in_shape)[0])
        return records, in_shape


class ConvFeedForward(Module):
    """Pointwise expand by FFN_RATIO, depthwise 3x3, GELU, pointwise project."""

    def __init__(self, channels, rng):
        super().__init__()
        hidden = channels * FFN_RATIO
        self.channels = channels
        self.expand = Conv2d(channels, hidden, 1, rng)
        self.dw = Conv2d(hidden, hidden, 3, rng, padding=1, groups=hidden)
        self.project = Conv2d(hidden, channels, 1, rng)

    def forward(self, x, mode="eval"):
        h = self.dw(self.expand(x, mode), mode)
        return self.project(E.gelu(h), mode)

    def cost(self, in_shape, prefix=""):
        p = prefix or "ffn"
        records, shape = self.expand.cost(in_shape, f"{p}.expand")
        recs, shape = self.dw.cost(shape, f"{p}.dw")
        records.extend(recs)
        records.append(costs.act_cost(f"{p}.gelu", shape)[0])
        recs, shape = self.project.cost(shape, f"{p}.project")
        records.extend(recs)
        return records, shape


class LKABlock(Module):
    """Residual pair: large-kernel gate then conv feed-forward.

    u = x + attention(norm1(x)); out = u + ffn(norm2(u)). Zeroing the two
    inner output projections makes the block an exact identity.
    """

    def __init__(self, channels, rng):
        super().__init__()
        self.norm1 = BatchNorm2d(channels)
        self.attn = LargeKernelAttention(channels, rng)
        self.norm2 = BatchNorm2d(channels)
        self.ffn = ConvFeedForward(channels, rng)

    def forward(self, x, mode="eval"):
        u = E.add(x, self.attn(self.norm1(x, mode), mode))
        return E.add(u, self.ffn(self.norm2(u, mode), mode))

    def cost(self, in_shape, prefix=""):
        p = prefix or "block"
        records, _ = self.norm1.cost(in_shape, f"{p}.norm1")
        recs, _ = self.attn.cost(in_shape, f"{p}.attn")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.residual1", in_shape)[0])
        recs, _ = self.norm2.cost(in_shape, f"{p}.norm2")
        records.extend(recs)
        recs, _ = self.ffn.cost(in_shape, f"{p}.ffn")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.residual2", in_shape)[0])
        return records, in_shape


class ResidualConvBlock(Module):
    """Plain two-conv residual block (detail-branch stem stage)."""

    def __init__(self, channels, rng):
        super().__init__()
        self.body = Sequential(
            Conv2d(channels, channels, 3, rng, padding=1, bias=False),
            BatchNorm2d(channels),
            ReLU(),
            Conv2d(channels, channels, 3, rng, padding=1, bias=False),
            BatchNorm2d(channels),
        )

    def forward(self, x, mode="eval"):
        return E.relu(E.add(x, self.body(x, mode)))

    def cost(self, in_shape, prefix=""):
        p = prefix or "res"
        records, _ = self.body.cost(in_shape, f"{p}.body")
        records.append(costs.elemwise_cost(f"{p}.residual", in_shape)[0])
        records.append(costs.act_cost(f"{p}.relu", in_shape)[0])
        return records, in_shape
