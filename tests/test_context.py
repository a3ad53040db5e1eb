"""Pyramid context block: shapes, hierarchy oracle, degradation, gradients."""

import pickle

import numpy as np
import pytest

import lka_seg.engine as E
from lka_seg.context import POOL_SCALES, PyramidPooling
from helpers import gradcheck, random_loss, randomize_norms, sum_all
from oracles import avg_pool_naive, bilinear_naive, conv2d_naive, rel_err


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def _bn_eval(x, bn):
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    return (bn.gamma.data * (x.transpose(0, 2, 3, 1) - bn.running_mean)
            * inv + bn.beta.data).transpose(0, 3, 1, 2)


def _bn_act_conv_naive(x, seq):
    bn, _, conv = seq._items
    h = np.maximum(_bn_eval(x, bn), 0.0)
    b = None if conv.bias is None else conv.bias.data
    return conv2d_naive(h, conv.weight.data, b, conv.stride, conv.padding,
                        conv.dilation, conv.groups)


def pyramid_naive(mod, x):
    """Loop-level eval-mode re-implementation of the whole pyramid."""
    h, w = x.shape[2:]
    r = _bn_act_conv_naive(x, mod.reduce0)
    if mod.style == "dlkppm":
        attn = r
        for conv in (mod.gate_small, mod.gate_h, mod.gate_v, mod.gate_proj):
            b = None if conv.bias is None else conv.bias.data
            attn = conv2d_naive(attn, conv.weight.data, b, conv.stride,
                                conv.padding, conv.dilation, conv.groups)
        r = attn * r
    levels = [r]
    for i, (k, s, p) in enumerate(POOL_SCALES):
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        if oh <= 1 and ow <= 1:
            pooled = x.mean(axis=(2, 3), keepdims=True)
        else:
            pooled = avg_pool_naive(x, (k, k), (s, s), (p, p))
        y = _bn_act_conv_naive(pooled, mod.reduces[i])
        y = bilinear_naive(y, h, w)
        levels.append(_bn_act_conv_naive(y + levels[-1], mod.processes[i]))
    y = _bn_act_conv_naive(x.mean(axis=(2, 3), keepdims=True), mod.reduces[-1])
    y = bilinear_naive(y, h, w)
    levels.append(_bn_act_conv_naive(y + levels[-1], mod.processes[-1]))
    out = _bn_act_conv_naive(np.concatenate(levels, axis=1), mod.compression)
    return out + _bn_act_conv_naive(x, mod.shortcut)


class TestShapes:
    def test_output_shape(self, rng):
        mod = PyramidPooling(6, 10, rng, hidden=3)
        x = E.Tensor(rng.normal(size=(1, 6, 32, 32)))
        assert mod(x, "eval").data.shape == (1, 10, 32, 32)

    @pytest.mark.parametrize("hw", [(16, 16), (16, 32), (24, 40)])
    def test_spatial_preserved(self, rng, hw):
        mod = PyramidPooling(4, 4, rng, hidden=2)
        x = E.Tensor(rng.normal(size=(1, 4, *hw)))
        assert mod(x, "eval").data.shape[2:] == hw

    def test_channel_mismatch(self, rng):
        mod = PyramidPooling(4, 4, rng)
        with pytest.raises(ValueError, match="channel"):
            mod(E.Tensor(np.zeros((1, 3, 16, 16))), "eval")

    def test_bad_style_rejected(self, rng):
        with pytest.raises(ValueError, match="style"):
            PyramidPooling(4, 4, rng, style="pspnet")


class TestOracle:
    def test_constant_input_matches_naive(self, rng):
        mod = PyramidPooling(2, 3, rng, hidden=2)
        x = np.full((1, 2, 16, 16), 1.3)
        out = mod(E.Tensor(x), "eval")
        assert rel_err(out.data, pyramid_naive(mod, x)) < 1e-12

    def test_random_input_matches_naive(self, rng):
        for style in ("dappm", "dlkppm"):
            mod = PyramidPooling(3, 4, rng, hidden=2, style=style)
            x = rng.normal(size=(1, 3, 16, 16))
            out = mod(E.Tensor(x), "eval")
            assert rel_err(out.data, pyramid_naive(mod, x)) < 1e-12


class TestDegradation:
    def test_small_input_degrades_to_global(self, rng):
        mod = PyramidPooling(2, 2, rng, hidden=2)
        x = rng.normal(size=(1, 2, 8, 8))
        out = mod(E.Tensor(x), "eval")
        # k=17 collapses to a single output position at 8x8, so it degrades,
        # and the degraded scale equals true global pooling numerically
        assert rel_err(out.data, pyramid_naive(mod, x)) < 1e-12

    def test_degraded_forward_leaves_the_module_unchanged(self, rng):
        mod = PyramidPooling(2, 2, rng, hidden=2)
        before = pickle.dumps(mod)
        x = E.Tensor(rng.normal(size=(1, 2, 8, 8)))
        mod(x, "eval")
        mod(x, "eval")
        assert pickle.dumps(mod) == before

    def test_tiny_input_never_crashes(self, rng):
        mod = PyramidPooling(2, 2, rng, hidden=2)
        out = mod(E.Tensor(rng.normal(size=(1, 2, 2, 2))), "eval")
        assert out.data.shape == (1, 2, 2, 2)

    def test_cost_model_follows_degradation(self, rng):
        mod = PyramidPooling(2, 2, rng, hidden=2)
        for hw in ((2, 2), (8, 8), (16, 16), (32, 32)):
            x = E.Tensor(rng.normal(size=(1, 2, *hw)))
            with E.no_grad(), E.flop_meter() as meter:
                mod(x, "eval")
            records, _ = mod.cost((1, 2, *hw))
            assert sum(r.flops for r in records) == meter.total, hw


class TestGradientsAndLiveness:
    def test_gradient_check(self, rng):
        mod = PyramidPooling(4, 4, rng, hidden=2)
        randomize_norms(mod, rng)
        x = E.Parameter(rng.normal(size=(1, 4, 16, 16)))
        d = E.Tensor(rng.normal(size=(1, 4, 16, 16)))
        params = [p for _, p in mod.named_parameters()]
        gradcheck(lambda: sum_all(E.mul(mod(x, "eval"), d)), params + [x])

    def test_shortcut_is_live(self, rng):
        mod = PyramidPooling(4, 6, rng, hidden=2)
        x = E.Tensor(rng.normal(size=(1, 4, 16, 16)))
        base = mod(x, "eval").data.copy()
        keep = mod.shortcut._items[2].weight.data.copy()
        mod.shortcut._items[2].weight.data[:] = 0
        ablated = mod(x, "eval").data
        mod.shortcut._items[2].weight.data = keep
        assert np.linalg.norm(base - ablated) > 0

    def test_gate_impulse_support_at_most_35(self, rng):
        mod = PyramidPooling(1, 1, rng, hidden=1)
        for _, p in mod.named_parameters():
            p.data = np.ones_like(p.data)
        x = np.zeros((1, 1, 81, 81))
        x[0, 0, 40, 40] = 1.0
        y = x
        for conv in (mod.gate_small, mod.gate_h, mod.gate_v):
            y = conv(E.Tensor(y), "eval").data
        nz = np.abs(y[0, 0]) > 0
        rows = np.flatnonzero(nz.any(axis=1))
        cols = np.flatnonzero(nz.any(axis=0))
        assert rows[-1] - rows[0] + 1 <= 35
        assert cols[-1] - cols[0] + 1 <= 35

    def test_all_parameters_connected(self, rng):
        # batch >= 2: train-mode norm of a batch-1 pooled 1x1 map has zero
        # batch variance, which structurally blocks its gamma gradient
        mod = PyramidPooling(3, 5, rng, hidden=2)
        x = E.Tensor(rng.normal(size=(2, 3, 16, 16)))
        loss = random_loss(mod(x, "train"), rng)
        loss.backward()
        for name, p in mod.named_parameters():
            assert p.grad is not None and np.abs(p.grad).max() > 0, name
