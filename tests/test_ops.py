"""Pooling, normalization, activations, and resizing."""

import numpy as np
import pytest

import lka_seg.engine as E
from helpers import sum_all
from oracles import avg_pool_naive, bilinear_naive, gelu_naive, rel_err


class TestAvgPool:
    def test_constant_input(self):
        out = E.avg_pool(E.Tensor(np.full((1, 2, 9, 9), 4.25)), 3, 2, 1)
        assert np.allclose(out.data, 4.25)

    def test_global_pool_mean(self):
        x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2)
        out = E.global_avg_pool(E.Tensor(x))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_matches_window_enumeration(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 1, 16, 16))
        out = E.avg_pool(E.Tensor(x), 5, 2, 2)
        ref = avg_pool_naive(x, (5, 5), (2, 2), (2, 2))
        assert rel_err(out.data, ref) < 1e-13

    def test_kernel_larger_than_padded_input_fails(self):
        with pytest.raises(ValueError, match="larger than padded input"):
            E.avg_pool(E.Tensor(np.zeros((1, 1, 4, 4))), 17, 8, 0)

    def test_divisor_excludes_padding(self):
        x = np.ones((1, 1, 2, 2))
        out = E.avg_pool(E.Tensor(x), 2, 1, 1)
        # every window averages only valid cells, so a constant stays constant
        assert np.allclose(out.data, 1.0)

    def test_constant_preserved_for_random_geometries(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            h = int(rng.integers(3, 20))
            w = int(rng.integers(3, 20))
            k = int(rng.integers(1, min(h, w) + 1))
            p = int(rng.integers(0, max(1, (k + 1) // 2)))
            s = int(rng.integers(1, k + 1))
            x = np.full((1, 2, h, w), -2.5)
            out = E.avg_pool(E.Tensor(x), k, s, p)
            assert np.allclose(out.data, -2.5), (h, w, k, s, p)


class TestBatchNorm:
    def test_constant_input_maps_to_zero(self):
        x = np.broadcast_to(np.array([3.0, -2.0])[None, :, None, None],
                            (2, 2, 4, 4)).copy()
        out = E.batch_norm(E.Tensor(x), E.Tensor(np.ones(2)), E.Tensor(np.zeros(2)),
                           np.zeros(2), np.ones(2), "train", eps=1e-12)
        assert np.abs(out.data).max() <= 1e-6

    def test_gamma_zero_beta_constant(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4, 4))
        out = E.batch_norm(E.Tensor(x), E.Tensor(np.zeros(3)),
                           E.Tensor(np.full(3, 7.0)), np.zeros(3), np.ones(3),
                           "train")
        assert np.allclose(out.data, 7.0)

    def test_moments_after_normalization(self):
        rng = np.random.default_rng(2)
        x = rng.normal(1.5, 2.0, size=(4, 3, 8, 8))
        out = E.batch_norm(E.Tensor(x), E.Tensor(np.ones(3)), E.Tensor(np.zeros(3)),
                           np.zeros(3), np.ones(3), "train", eps=1e-12)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-10
        assert np.abs(var - 1.0).max() < 1e-8

    def test_running_stats_ema_and_eval(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        E.batch_norm(E.Tensor(x), E.Tensor(np.ones(2)), E.Tensor(np.zeros(2)),
                     rm, rv, "train", momentum=0.25)
        np.testing.assert_allclose(rm, 0.25 * x.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(
            rv, 0.75 * 1.0 + 0.25 * x.var(axis=(0, 2, 3)))
        out = E.batch_norm(E.Tensor(x), E.Tensor(np.ones(2)), E.Tensor(np.zeros(2)),
                           rm.copy(), rv.copy(), "eval", eps=1e-5)
        ref = (x - rm[None, :, None, None]) / np.sqrt(rv + 1e-5)[None, :, None, None]
        assert rel_err(out.data, ref) < 1e-14

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel axis"):
            E.batch_norm(E.Tensor(np.zeros((1, 3, 2, 2))), E.Tensor(np.ones(2)),
                         E.Tensor(np.zeros(2)), np.zeros(2), np.ones(2), "train")


class TestActivations:
    def test_sigmoid_zero(self):
        assert E.sigmoid(E.Tensor(np.zeros((1, 1, 1, 1)))).data[0, 0, 0, 0] == 0.5

    def test_softmax_uniform(self):
        out = E._select_weights(np.zeros((1, 3, 1, 1)), np.ones((1, 3, 1, 1)))
        assert np.allclose(out, 1.0 / 3.0)

    def test_gelu_matches_erf_oracle(self):
        grid = np.linspace(-5.0, 5.0, 100)
        out = E.gelu(E.Tensor(grid.reshape(1, 1, 1, -1)))
        ref = np.array([gelu_naive(v) for v in grid])
        assert np.abs(out.data.ravel() - ref).max() < 1e-12

    def test_softmax_shift_invariance(self):
        # unit channel logits: the joint logits are the spatial ones
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 5, 3, 3))
        ones = np.ones((2, 5, 1, 1))
        a = E._select_weights(x, ones)
        b = E._select_weights(x + 123.456, ones)
        assert rel_err(a, b) < 1e-12

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 7, 4, 4)) * 50
        out = E._select_weights(x, rng.normal(size=(2, 14, 1, 1)))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]]).reshape(1, 1, 1, 3)
        np.testing.assert_array_equal(E.relu(E.Tensor(x)).data.ravel(), [0, 0, 2])


class TestBilinearResize:
    def test_identity_size(self):
        rng = np.random.default_rng(6)
        for shape in ((1, 2, 5, 5), (2, 1, 1, 1), (1, 3, 4, 7)):
            x = E.Parameter(rng.normal(size=shape))
            out = E.bilinear_resize(x, *shape[2:])
            np.testing.assert_array_equal(out.data, x.data)
            g = rng.normal(size=shape)
            sum_all(E.mul(out, E.Tensor(g))).backward()
            np.testing.assert_array_equal(x.grad, g)

    def test_constant_input(self):
        x = np.full((1, 3, 4, 4), 0.77)
        out = E.bilinear_resize(E.Tensor(x), 9, 13)
        assert np.allclose(out.data, 0.77)

    def test_constant_preserved_at_random_sizes(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            hin, win = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            hout, wout = int(rng.integers(1, 24)), int(rng.integers(1, 24))
            x = np.full((1, 1, hin, win), 3.25)
            out = E.bilinear_resize(E.Tensor(x), hout, wout)
            assert np.abs(out.data - 3.25).max() < 1e-12, (hin, win, hout, wout)

    def test_2x2_to_4x4_frozen(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = E.bilinear_resize(E.Tensor(x), 4, 4)
        expected = np.array([
            [1.0, 1.25, 1.75, 2.0],
            [1.5, 1.75, 2.25, 2.5],
            [2.5, 2.75, 3.25, 3.5],
            [3.0, 3.25, 3.75, 4.0],
        ])
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-15)

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5, 7))
        out = E.bilinear_resize(E.Tensor(x), 11, 4)
        assert rel_err(out.data, bilinear_naive(x, 11, 4)) < 1e-13

    @pytest.mark.parametrize("shape, size", [
        ((1, 64, 1, 1), (8, 8)),
        ((1, 32, 2, 2), (8, 8)),
        ((1, 16, 4, 4), (8, 8)),
        ((1, 5, 8, 8), (64, 64)),
        ((8, 64, 1, 1), (8, 8)),
        ((8, 16, 4, 4), (32, 32)),
        ((8, 5, 32, 32), (256, 256)),
    ])
    def test_forward_matches_einsum_bit_for_bit(self, shape, size):
        # the model's resize shapes at 64x64 (b1, b8) and 256x256 (b8); the
        # reference is the pair of einsums the forward ran before
        x = np.random.default_rng(17).normal(size=shape)
        ah, aw = (E._resize_matrix(n, m) for n, m in zip(shape[2:], size))
        ref = np.einsum("pw,ncow->ncop", aw,
                        np.einsum("oh,nchw->ncow", ah, x, optimize=True),
                        optimize=True)
        out = E.bilinear_resize(E.Tensor(x), *size)
        assert out.data.tobytes() == ref.tobytes()


class TestGroupSoftmax:
    """The selector's softmax across branch groups, `engine._select_weights`."""

    def test_simplex(self):
        rng = np.random.default_rng(8)
        out = E._select_weights(rng.normal(size=(2, 3, 4, 4)) * 10,
                                rng.normal(size=(2, 9, 1, 1)))
        assert out.shape == (2, 3, 3, 4, 4)
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError, match="divisible"):
            E._select_weights(np.zeros((1, 3, 2, 2)), np.zeros((1, 5, 1, 1)))


def test_select_mix_rejects_mismatched_shapes():
    s = E.Tensor(np.zeros((1, 3, 2, 2)))
    b = E.Tensor(np.zeros((1, 2, 2, 2)))
    for cvec, branches in ((np.zeros((1, 6, 1, 1)), [b, b]),
                           (np.zeros((1, 6, 1, 1)), [b, b, E.Tensor(np.zeros((1, 2, 2, 3)))]),
                           (np.zeros((1, 6, 2, 2)), [b, b, b]),
                           (np.zeros((1, 5, 1, 1)), [b, b, b])):
        with pytest.raises(ValueError, match="selector logits"):
            E.select_mix(s, E.Tensor(cvec), branches)


def test_channel_mean_max():
    x = np.arange(24, dtype=float).reshape(1, 4, 2, 3)
    m = E.channel_mean(E.Tensor(x))
    mx = E.channel_max(E.Tensor(x))
    np.testing.assert_allclose(m.data[0, 0], x[0].mean(axis=0))
    np.testing.assert_allclose(mx.data[0, 0], x[0].max(axis=0))
