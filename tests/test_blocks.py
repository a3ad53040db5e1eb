"""Attention block contracts: supports, simplex weights, residual identity."""

import math

import numpy as np
import pytest

import lka_seg.engine as E
from lka_seg.blocks import (
    ConvFeedForward,
    KernelSelector,
    LKABlock,
    LargeKernelAttention,
    ResidualConvBlock,
)
from helpers import gradcheck, random_loss, sum_all
from oracles import conv2d_naive, gelu_naive, rel_err


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def _ones_weights(module):
    for _, p in module.named_parameters():
        p.data = np.ones_like(p.data)


def _impulse(size, channels=1):
    x = np.zeros((1, channels, size, size))
    x[:, :, size // 2, size // 2] = 1.0
    return E.Tensor(x)


def _support(arr):
    nz = np.abs(arr[0, 0]) > 0
    rows = np.flatnonzero(nz.any(axis=1))
    cols = np.flatnonzero(nz.any(axis=0))
    return rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1


class TestAttentionSupports:
    """Impulse-response footprints of the decomposed kernel path."""

    def setup_method(self, _):
        self.attn = LargeKernelAttention(1, np.random.default_rng(0))
        _ones_weights(self.attn)

    def test_small_path_is_5x5(self):
        y0 = self.attn.dw_small(_impulse(81))
        assert _support(y0.data) == (5, 5)

    def test_strip_h_path_is_35_wide_5_tall(self):
        y0 = self.attn.dw_small(_impulse(81))
        yh = self.attn.strip_h(y0)
        assert _support(yh.data) == (5, 35)

    def test_full_path_is_35x35(self):
        y0 = self.attn.dw_small(_impulse(81))
        yv = self.attn.strip_v(self.attn.strip_h(y0))
        assert _support(yv.data) == (35, 35)


class TestLargeKernelAttention:
    def test_zero_input_zero_output(self, rng):
        attn = LargeKernelAttention(4, rng)
        out = attn(E.Tensor(np.zeros((1, 4, 12, 12))), "eval")
        assert (out.data == 0).all()

    def test_shape_preserved(self, rng):
        attn = LargeKernelAttention(8, rng)
        x = E.Tensor(rng.normal(size=(1, 8, 32, 32)))
        assert attn(x, "eval").data.shape == (1, 8, 32, 32)

    def test_channel_mismatch(self, rng):
        attn = LargeKernelAttention(4, rng)
        with pytest.raises(ValueError, match="channel"):
            attn(E.Tensor(np.zeros((1, 3, 8, 8))), "eval")

    def test_gradients(self, rng):
        attn = LargeKernelAttention(2, rng)
        x = E.Parameter(rng.normal(size=(1, 2, 8, 8)))
        d = E.Tensor(rng.normal(size=(1, 2, 8, 8)))
        params = [p for _, p in attn.named_parameters()]
        gradcheck(lambda: sum_all(E.mul(attn(x, "eval"), d)), params + [x],
                  tol=1e-6)


class TestKernelSelector:
    def test_equal_branches_identity(self, rng):
        sel = KernelSelector(3, rng)
        f = E.Tensor(rng.normal(size=(2, 3, 6, 6)))
        out = sel([f, f, f], "eval")
        assert np.abs(out.data - f.data).max() < 1e-12

    def test_weights_form_simplex(self, rng):
        sel = KernelSelector(4, rng)
        for _ in range(20):
            branches = [E.Tensor(rng.normal(size=(1, 4, 5, 5)) * 3) for _ in range(3)]
            ws = sel.weights(branches, "eval")
            total = sum(w.data for w in ws)
            assert all((w.data >= 0).all() for w in ws)
            assert np.abs(total - 1.0).max() < 1e-12

    def test_matches_scalar_oracle(self, rng):
        c = 3
        sel = KernelSelector(c, rng)
        branches = [rng.normal(size=(1, c, 5, 5)) for _ in range(3)]
        out = sel([E.Tensor(b) for b in branches], "eval").data

        # independent re-implementation with naive convolution and loops
        u = branches[0] + branches[1] + branches[2]
        stats = np.concatenate([u.mean(axis=1, keepdims=True),
                                u.max(axis=1, keepdims=True)], axis=1)
        s = conv2d_naive(stats, sel.spatial_conv.weight.data,
                         sel.spatial_conv.bias.data, (1, 1), (3, 3), (1, 1), 1)
        d = u.mean(axis=(2, 3))[0]
        pw_w = sel.channel_pw.weight.data[:, :, 0, 0]
        t = pw_w @ d + sel.channel_pw.bias.data
        t = np.array([gelu_naive(v) for v in t])
        v = sel.channel_dw.weight.data[:, 0, 0, 0] * t + sel.channel_dw.bias.data
        expected = np.zeros_like(branches[0])
        for ci in range(c):
            for y in range(5):
                for x in range(5):
                    logits = [s[0, i, y, x] * v[i * c + ci] for i in range(3)]
                    m = max(logits)
                    e = [math.exp(l - m) for l in logits]
                    z = sum(e)
                    expected[0, ci, y, x] = sum(
                        e[i] / z * branches[i][0, ci, y, x] for i in range(3))
        assert rel_err(out, expected) < 1e-12

    def test_rejects_mismatched_branches(self, rng):
        sel = KernelSelector(2, rng)
        a = E.Tensor(np.zeros((1, 2, 4, 4)))
        b = E.Tensor(np.zeros((1, 2, 5, 4)))
        with pytest.raises(ValueError, match="same-shape"):
            sel([a, a, b], "eval")


class TestConvFeedForward:
    def test_zero_projection_zero_output(self, rng):
        ffn = ConvFeedForward(3, rng)
        ffn.project.weight.data[:] = 0
        ffn.project.bias.data[:] = 0
        out = ffn(E.Tensor(rng.normal(size=(1, 3, 6, 6))), "eval")
        assert (out.data == 0).all()

    def test_shape_preserved(self, rng):
        ffn = ConvFeedForward(5, rng)
        x = E.Tensor(rng.normal(size=(2, 5, 7, 9)))
        assert ffn(x, "eval").data.shape == (2, 5, 7, 9)

    def test_gradients(self, rng):
        ffn = ConvFeedForward(2, rng)
        x = E.Parameter(rng.normal(size=(1, 2, 6, 6)))
        d = E.Tensor(rng.normal(size=(1, 2, 6, 6)))
        params = [p for _, p in ffn.named_parameters()]
        gradcheck(lambda: sum_all(E.mul(ffn(x, "eval"), d)), params + [x])


class TestLKABlock:
    def test_zeroed_projections_identity(self, rng):
        block = LKABlock(3, rng)
        for conv in (block.attn.proj, block.ffn.project):
            conv.weight.data[:] = 0
            conv.bias.data[:] = 0
        x = rng.normal(size=(1, 3, 8, 8))
        out = block(E.Tensor(x), "eval")
        np.testing.assert_array_equal(out.data, x)

    def test_shape_preserved(self, rng):
        block = LKABlock(4, rng)
        x = E.Tensor(rng.normal(size=(2, 4, 16, 16)))
        assert block(x, "train").data.shape == (2, 4, 16, 16)

    def test_end_to_end_gradients(self, rng):
        block = LKABlock(2, rng)
        x = E.Parameter(rng.normal(size=(1, 2, 8, 8)))
        d = E.Tensor(rng.normal(size=(1, 2, 8, 8)))
        params = [p for _, p in block.named_parameters()]
        gradcheck(lambda: sum_all(E.mul(block(x, "train"), d)), params + [x])

    def test_all_parameters_connected(self, rng):
        block = LKABlock(3, rng)
        x = E.Tensor(rng.normal(size=(2, 3, 9, 9)))
        loss = random_loss(block(x, "train"), rng)
        loss.backward()
        for name, p in block.named_parameters():
            assert p.grad is not None and np.abs(p.grad).max() > 0, name


def test_residual_conv_block(rng):
    block = ResidualConvBlock(3, rng)
    x = E.Tensor(rng.normal(size=(1, 3, 8, 8)))
    assert block(x, "train").data.shape == (1, 3, 8, 8)
    for conv in (block.body._items[3],):
        conv.weight.data[:] = 0
    # with the second conv zeroed the block reduces to relu(x + bn_bias)
    out = block(x, "eval")
    assert out.data.shape == (1, 3, 8, 8)
