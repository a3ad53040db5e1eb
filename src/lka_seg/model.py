"""Bilateral segmentation network.

Two branches share a three-conv stem that lands at 1/8 resolution. The
detail branch stays at 1/8 the whole way; the semantic branch descends to
1/16 and 1/32, gets the pyramid context block on top, and is folded back
into the detail branch twice along the way (additive exchanges in both
directions). A small boundary head off the detail branch supervises a
one-channel edge map and feeds the fusion gate: a sigmoid of the gate
logit interpolates pointwise between the refined detail and refined
semantic features before the segmentation head upsamples 8x to full
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine as E
from . import costs
from .blocks import LKABlock, ResidualConvBlock, large_kernel_chain
from .context import PyramidPooling
from .nn import (
    BatchNorm2d,
    Conv2d,
    Module,
    ReLU,
    Sequential,
    bn_act_conv,
    conv_bn,
    locate_nonfinite,
)

PRESETS = {
    "toy": dict(stem_width=16, low_width=16, mid_width=32, high_width=64,
                blocks_per_stage=2),
    "small": dict(stem_width=24, low_width=24, mid_width=48, high_width=96,
                  blocks_per_stage=2),
    "base": dict(stem_width=32, low_width=32, mid_width=64, high_width=128,
                 blocks_per_stage=3),
}


@dataclass(frozen=True)
class ModelConfig:
    """Widths, depths and toggles of one network build.

    The presets are desk-scale declarations; none of them tries to match
    any published parameter or FLOP budget.
    """

    class_count: int = 5
    stem_width: int = 16
    low_width: int = 16
    mid_width: int = 32
    high_width: int = 64
    blocks_per_stage: int = 2
    ppm: str = "dlkppm"
    fuse_width: int = 0          # 0 -> 2 * low_width
    head_width: int = 0          # 0 -> 2 * low_width
    fixed_gate: float = float("nan")   # NaN -> learned sigmoid gate

    def resolved(self):
        return replace(
            self,
            fuse_width=self.fuse_width or 2 * self.low_width,
            head_width=self.head_width or 2 * self.low_width,
        )

    def validate(self):
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        resolved = self.resolved()   # a width of 0 stands for 2 * low_width
        for name in ("stem_width", "low_width", "mid_width", "high_width",
                     "blocks_per_stage", "fuse_width", "head_width"):
            if getattr(resolved, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.ppm not in ("dappm", "dlkppm"):
            raise ValueError(f"ppm must be 'dappm' or 'dlkppm', got {self.ppm!r}")
        if not np.isnan(self.fixed_gate) and not (0.0 < self.fixed_gate < 1.0):
            raise ValueError(f"fixed_gate must lie in (0, 1), got {self.fixed_gate}")

    @property
    def gate_is_fixed(self):
        return not np.isnan(self.fixed_gate)


def preset_config(name, **overrides):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    merged = dict(PRESETS[name])
    merged.update(overrides)
    return ModelConfig(**merged)


def _check_input_shape(shape):
    """Forward and `cost` take (n, 3, h, w) with h and w positive
    multiples of 64; any other shape raises `ValueError`."""
    if len(shape) != 4 or shape[1] != 3:
        raise ValueError(f"input must be (n, 3, h, w), got {tuple(shape)}")
    h, w = shape[2:]
    if h < 1 or w < 1 or h % 64 or w % 64:
        raise ValueError(
            f"input spatial dims must be positive and divisible by 64, got {h}x{w}")


@dataclass
class ModelOutputs:
    seg_logits: E.Tensor
    boundary_logits: E.Tensor
    aux_logits: E.Tensor = None   # train mode only


class BoundaryGuidedFusion(Module):
    """Boundary-gated blend of detail and semantic features plus shortcut.

    sigma = sigmoid(gate(boundary)); balanced = sigma * refine(detail) +
    (1 - sigma) * refine(semantic); out = conv(balanced + proj(detail)).
    With `fixed_sigma` set, the gate convolution is bypassed and sigma is
    that constant (the fusion ablation).
    """

    def __init__(self, detail_c, semantic_c, boundary_c, width, rng,
                 fixed_sigma=None):
        super().__init__()
        self.width = width
        self.fixed_sigma = fixed_sigma
        self.detail_refine = bn_act_conv(detail_c, width, 3, rng, padding=1)
        self.semantic_refine = bn_act_conv(semantic_c, width, 3, rng, padding=1)
        self.gate = Conv2d(boundary_c, 1, 5, rng, padding=2)
        self.shortcut = Conv2d(detail_c, width, 1, rng, bias=False)
        self.out_conv = Conv2d(width, width, 3, rng, padding=1, bias=False)

    def forward(self, detail, semantic, boundary, mode="eval"):
        dshape, sshape, bshape = (t.data.shape for t in (detail, semantic, boundary))
        if dshape[2:] != sshape[2:] or dshape[2:] != bshape[2:]:
            raise ValueError(
                f"fusion inputs disagree spatially: detail {dshape[2:]}, "
                f"semantic {sshape[2:]}, boundary {bshape[2:]} (resize first)"
            )
        n, _, h, w = dshape
        if self.fixed_sigma is None:
            sigma = E.sigmoid(self.gate(boundary, mode))
            one_minus = E.sub(1.0, sigma)
        else:
            sigma = E.Tensor(np.full((n, 1, h, w), self.fixed_sigma))
            one_minus = E.Tensor(np.full((n, 1, h, w), 1.0 - self.fixed_sigma))
        rd = self.detail_refine(detail, mode)
        rs = self.semantic_refine(semantic, mode)
        balanced = E.add(E.mul(sigma, rd), E.mul(one_minus, rs))
        return self.out_conv(E.add(balanced, self.shortcut(detail, mode)), mode)

    def cost(self, detail_shape, semantic_shape, boundary_shape, prefix=""):
        p = prefix or "fusion"
        n, _, h, w = detail_shape
        records = []
        if self.fixed_sigma is None:
            recs, gshape = self.gate.cost(boundary_shape, f"{p}.gate")
            records.extend(recs)
            records.append(costs.act_cost(f"{p}.sigmoid", gshape)[0])
            records.append(costs.elemwise_cost(f"{p}.one_minus", gshape)[0])
        recs, fshape = self.detail_refine.cost(detail_shape, f"{p}.detail_refine")
        records.extend(recs)
        recs, _ = self.semantic_refine.cost(semantic_shape, f"{p}.semantic_refine")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.blend", fshape, 3)[0])
        recs, _ = self.shortcut.cost(detail_shape, f"{p}.shortcut")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.residual", fshape)[0])
        recs, oshape = self.out_conv.cost(fshape, f"{p}.out_conv")
        records.extend(recs)
        return records, oshape


class BilateralNet(Module):
    """The assembled two-branch segmenter; build with `build_model`."""

    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        cfg.validate()
        cfg = cfg.resolved()
        self.cfg = cfg
        low, mid, high = cfg.low_width, cfg.mid_width, cfg.high_width
        k = cfg.class_count
        depth = cfg.blocks_per_stage

        self.stem = Sequential(
            *conv_bn(3, cfg.stem_width, 3, rng, stride=2, padding=1),
            *conv_bn(cfg.stem_width, cfg.stem_width, 3, rng, stride=2, padding=1),
            *conv_bn(cfg.stem_width, low, 3, rng, stride=2, padding=1),
        )
        self.low_stage1 = Sequential(*[ResidualConvBlock(low, rng) for _ in range(depth)])
        self.high_down1 = conv_bn(low, mid, 3, rng, stride=2, padding=1)
        self.high_stage1 = Sequential(*[LKABlock(mid, rng) for _ in range(depth)])
        self.exch1_h2l = conv_bn(mid, low, 1, rng, act=False)
        self.exch1_l2h = conv_bn(low, mid, 3, rng, stride=2, padding=1, act=False)
        self.low_stage2 = Sequential(*[LKABlock(low, rng) for _ in range(depth)])
        self.high_down2 = conv_bn(mid, high, 3, rng, stride=2, padding=1)
        self.high_stage2 = Sequential(*[LKABlock(high, rng) for _ in range(depth)])
        self.exch2_h2l = conv_bn(high, low, 1, rng, act=False)
        self.exch2_l2h = Sequential(
            *conv_bn(low, mid, 3, rng, stride=2, padding=1),
            *conv_bn(mid, high, 3, rng, stride=2, padding=1, act=False),
        )
        self.ppm = PyramidPooling(high, high, rng, style=cfg.ppm)
        self.boundary_feat = conv_bn(low, low, 3, rng, padding=1)
        self.boundary_logit = Conv2d(low, 1, 1, rng)
        self.aux_head = Sequential(
            BatchNorm2d(low), ReLU(),
            Conv2d(low, cfg.head_width, 3, rng, padding=1, bias=False),
            BatchNorm2d(cfg.head_width), ReLU(),
            Conv2d(cfg.head_width, k, 1, rng),
        )
        # the gate reads the boundary feature, which keeps `low` channels
        self.fuse = BoundaryGuidedFusion(
            low, high, low, cfg.fuse_width, rng,
            fixed_sigma=None if not cfg.gate_is_fixed else cfg.fixed_gate,
        )
        self.seg_head = Sequential(
            BatchNorm2d(cfg.fuse_width), ReLU(),
            Conv2d(cfg.fuse_width, cfg.head_width, 3, rng, padding=1, bias=False),
            BatchNorm2d(cfg.head_width), ReLU(),
            Conv2d(cfg.head_width, k, 1, rng),
        )

    # -- forward ---------------------------------------------------------

    def forward(self, x, mode="eval"):
        _check_input_shape(x.data.shape)
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        n, _, h, w = x.data.shape
        h8, w8 = h // 8, w // 8

        s8 = self.stem(x, mode)
        low = self.low_stage1(s8, mode)
        hi = self.high_stage1(self.high_down1(s8, mode), mode)

        low_x = E.relu(E.add(low, E.bilinear_resize(self.exch1_h2l(hi, mode), h8, w8)))
        hi_x = E.relu(E.add(hi, self.exch1_l2h(low, mode)))

        aux_src = low_x
        low = self.low_stage2(low_x, mode)
        hi = self.high_stage2(self.high_down2(hi_x, mode), mode)

        low_x = E.relu(E.add(low, E.bilinear_resize(self.exch2_h2l(hi, mode), h8, w8)))
        hi_x = E.relu(E.add(hi, self.exch2_l2h(low, mode)))

        sem = E.bilinear_resize(self.ppm(hi_x, mode), h8, w8)

        bfeat = self.boundary_feat(low_x, mode)
        boundary_logits = self.boundary_logit(bfeat, mode)

        fused = self.fuse(low_x, sem, bfeat, mode)
        seg = E.bilinear_resize(self.seg_head(fused, mode), h, w)

        aux_logits = None
        if mode == "train":
            aux_logits = E.bilinear_resize(self.aux_head(aux_src, mode), h, w)

        # the engine does not scan op outputs; the model checks what it returns
        outs = (seg, boundary_logits) if aux_logits is None else (
            seg, boundary_logits, aux_logits)
        if not all(np.isfinite(t.data).all() for t in outs):
            locate_nonfinite(self, lambda: self(x, mode), "model output")
        return ModelOutputs(seg_logits=seg, boundary_logits=boundary_logits,
                            aux_logits=aux_logits)

    # -- static cost (mirrors the eval-mode forward exactly) --------------

    def cost(self, in_shape, prefix=""):
        _check_input_shape(in_shape)
        n, c, h, w = in_shape
        p = prefix or "model"
        h8, w8 = h // 8, w // 8
        records, s8 = self.stem.cost(in_shape, f"{p}.stem")

        recs, low_sh = self.low_stage1.cost(s8, f"{p}.low_stage1")
        records.extend(recs)
        recs, hi_sh = self.high_down1.cost(s8, f"{p}.high_down1")
        records.extend(recs)
        recs, hi_sh = self.high_stage1.cost(hi_sh, f"{p}.high_stage1")
        records.extend(recs)

        recs, e_sh = self.exch1_h2l.cost(hi_sh, f"{p}.exch1_h2l")
        records.extend(recs)
        rec, e_sh = costs.resize_cost(f"{p}.exch1_up", e_sh, h8, w8)
        records.append(rec)
        records.append(costs.elemwise_cost(f"{p}.exch1_add_low", low_sh)[0])
        records.append(costs.act_cost(f"{p}.exch1_relu_low", low_sh)[0])
        recs, _ = self.exch1_l2h.cost(low_sh, f"{p}.exch1_l2h")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.exch1_add_high", hi_sh)[0])
        records.append(costs.act_cost(f"{p}.exch1_relu_high", hi_sh)[0])

        recs, low_sh = self.low_stage2.cost(low_sh, f"{p}.low_stage2")
        records.extend(recs)
        recs, hi_sh2 = self.high_down2.cost(hi_sh, f"{p}.high_down2")
        records.extend(recs)
        recs, hi_sh2 = self.high_stage2.cost(hi_sh2, f"{p}.high_stage2")
        records.extend(recs)

        recs, e_sh = self.exch2_h2l.cost(hi_sh2, f"{p}.exch2_h2l")
        records.extend(recs)
        rec, e_sh = costs.resize_cost(f"{p}.exch2_up", e_sh, h8, w8)
        records.append(rec)
        records.append(costs.elemwise_cost(f"{p}.exch2_add_low", low_sh)[0])
        records.append(costs.act_cost(f"{p}.exch2_relu_low", low_sh)[0])
        recs, _ = self.exch2_l2h.cost(low_sh, f"{p}.exch2_l2h")
        records.extend(recs)
        records.append(costs.elemwise_cost(f"{p}.exch2_add_high", hi_sh2)[0])
        records.append(costs.act_cost(f"{p}.exch2_relu_high", hi_sh2)[0])

        recs, ppm_sh = self.ppm.cost(hi_sh2, f"{p}.ppm")
        records.extend(recs)
        rec, sem_sh = costs.resize_cost(f"{p}.sem_up", ppm_sh, h8, w8)
        records.append(rec)

        recs, b_sh = self.boundary_feat.cost(low_sh, f"{p}.boundary_feat")
        records.extend(recs)
        recs, _ = self.boundary_logit.cost(b_sh, f"{p}.boundary_logit")
        records.extend(recs)

        recs, f_sh = self.fuse.cost(low_sh, sem_sh, b_sh, f"{p}.fuse")
        records.extend(recs)
        recs, seg_sh = self.seg_head.cost(f_sh, f"{p}.seg_head")
        records.extend(recs)
        rec, seg_sh = costs.resize_cost(f"{p}.seg_up", seg_sh, h, w)
        records.append(rec)
        return records, seg_sh

    def rf_paths(self):
        """Named (kernel, dilation, stride) chains for the RF table."""
        stem = [((3, 3), (1, 1), (2, 2))] * 3
        return {
            "stem": stem,
            "lka_small": large_kernel_chain()[:1],
            "lka_strip_h": large_kernel_chain()[:2],
            "lka_large": large_kernel_chain(),
            "context_gate": large_kernel_chain(),
        }


def build_model(cfg: ModelConfig, seed=0):
    """Deterministically initialized network: same seed, identical bits."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    return BilateralNet(cfg, rng)
