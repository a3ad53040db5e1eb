"""Convolution against the six-nested-loop oracle, plus its contracts."""

import gc
import itertools
import weakref

import numpy as np
import pytest

import lka_seg.engine as E
from lka_seg.context import POOL_SCALES
from helpers import gradcheck, sum_all
from oracles import (avg_pool_naive, avg_pool_naive_grad, conv2d_naive,
                     conv2d_naive_grads, dense_input_grad_scatter,
                     depthwise_tap_loop, depthwise_tap_loop_grads, expand_kernel,
                     rel_err, scatter_tap_grads)


def test_scalar_product():
    out = E.conv2d(E.Tensor([[[[2.0]]]]), E.Tensor([[[[3.0]]]]))
    assert out.data.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 6.0


def test_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 6, 7))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = E.conv2d(E.Tensor(x), E.Tensor(w), padding=1)
    np.testing.assert_array_equal(out.data, x)


@pytest.mark.parametrize("case", [
    dict(groups=1, stride=(1, 1), padding=(0, 0), dilation=(1, 1), kernel=(3, 3)),
    dict(groups=2, stride=(2, 1), padding=(1, 2), dilation=(1, 1), kernel=(3, 2)),
    dict(groups=4, stride=(1, 2), padding=(2, 0), dilation=(2, 3), kernel=(3, 3)),
    dict(groups=1, stride=(1, 1), padding=(0, 15), dilation=(1, 3), kernel=(1, 11)),
])
def test_matches_naive_oracle(case):
    rng = np.random.default_rng(42)
    cin, cout = 4, 8
    x = rng.normal(size=(2, cin, 9, 11))
    w = rng.normal(size=(cout, cin // case["groups"], *case["kernel"]))
    b = rng.normal(size=(cout,))
    out = E.conv2d(E.Tensor(x), E.Tensor(w), E.Tensor(b),
                   stride=case["stride"], padding=case["padding"],
                   dilation=case["dilation"], groups=case["groups"])
    ref = conv2d_naive(x, w, b, case["stride"], case["padding"],
                       case["dilation"], case["groups"])
    assert rel_err(out.data, ref) < 1e-13


def test_dilated_equals_zero_expanded_dense():
    # 1x3 dilation-3 kernel equals the 1x7 kernel with zeros at non-taps
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2, 8, 8))
    w = rng.normal(size=(2, 2, 1, 3))
    dilated = E.conv2d(E.Tensor(x), E.Tensor(w), dilation=(1, 3))
    dense = E.conv2d(E.Tensor(x), E.Tensor(expand_kernel(w, (1, 3))))
    assert rel_err(dilated.data, dense.data) < 1e-12


def test_dilation_expansion_randomized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cin = int(rng.integers(1, 5))
        g = int(rng.choice([1, cin]))
        cout = cin if g == cin else int(rng.integers(1, 5))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        dh, dw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h = int(rng.integers((kh - 1) * dh + 1, 17))
        w = int(rng.integers((kw - 1) * dw + 1, 17))
        x = rng.normal(size=(1, cin, h, w))
        wgt = rng.normal(size=(cout, cin // g, kh, kw))
        pad = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        a = E.conv2d(E.Tensor(x), E.Tensor(wgt), padding=pad,
                     dilation=(dh, dw), groups=g)
        b = E.conv2d(E.Tensor(x), E.Tensor(expand_kernel(wgt, (dh, dw))),
                     padding=pad, groups=g)
        assert rel_err(a.data, b.data) < 1e-12


def test_linearity_without_bias():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 3, 8, 8))
    y = rng.normal(size=(1, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    alpha, beta = 1.7, -0.6
    mixed = E.conv2d(E.Tensor(alpha * x + beta * y), E.Tensor(w), padding=1)
    parts = (alpha * E.conv2d(E.Tensor(x), E.Tensor(w), padding=1).data
             + beta * E.conv2d(E.Tensor(y), E.Tensor(w), padding=1).data)
    assert rel_err(mixed.data, parts) < 1e-12


def test_linearity_random_geometries():
    rng = np.random.default_rng(14)
    for _ in range(10):
        cin = int(rng.integers(1, 5))
        g = int(rng.choice([1, cin]))
        cout = cin if g == cin else int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        kw_args = dict(stride=int(rng.integers(1, 3)),
                       padding=int(rng.integers(0, 3)),
                       dilation=int(rng.integers(1, 3)), groups=g)
        h = int(rng.integers((k - 1) * kw_args["dilation"] + 1, 14))
        x = rng.normal(size=(2, cin, h, h))
        y = rng.normal(size=(2, cin, h, h))
        w = rng.normal(size=(cout, cin // g, k, k))
        a, b = float(rng.normal()), float(rng.normal())
        mixed = E.conv2d(E.Tensor(a * x + b * y), E.Tensor(w), **kw_args)
        parts = (a * E.conv2d(E.Tensor(x), E.Tensor(w), **kw_args).data
                 + b * E.conv2d(E.Tensor(y), E.Tensor(w), **kw_args).data)
        assert rel_err(mixed.data, parts) < 1e-12


class TestDepthwise:
    def test_per_channel_scaling(self):
        x = np.ones((1, 2, 3, 3))
        w = np.array([2.0, 5.0]).reshape(2, 1, 1, 1)
        out = E.conv2d(E.Tensor(x), E.Tensor(w), groups=2)
        assert (out.data[0, 0] == 2.0).all()
        assert (out.data[0, 1] == 5.0).all()

    def test_equals_block_diagonal_dense(self):
        rng = np.random.default_rng(5)
        c = 3
        x = rng.normal(size=(1, c, 8, 8))
        w = rng.normal(size=(c, 1, 5, 5))
        dense = np.zeros((c, c, 5, 5))
        for i in range(c):
            dense[i, i] = w[i, 0]
        a = E.conv2d(E.Tensor(x), E.Tensor(w), padding=2, groups=c)
        ref = conv2d_naive(x, dense, None, (1, 1), (2, 2), (1, 1), 1)
        assert rel_err(a.data, ref) < 1e-13

    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(0).normal(size=(1, 4, 6, 6))
        out = E.conv2d(E.Tensor(x), E.Tensor(np.zeros((4, 1, 3, 3))), padding=1,
                       groups=4)
        assert (out.data == 0).all()

    def test_rejects_wrong_group_shape(self):
        x = E.Tensor(np.zeros((1, 4, 6, 6)))
        with pytest.raises(ValueError, match="weight channel axis mismatch"):
            E.conv2d(x, E.Tensor(np.zeros((4, 2, 3, 3))), groups=4)


class TestConvErrors:
    def test_channel_mismatch_names_axis(self):
        x = E.Tensor(np.zeros((1, 4, 6, 6)))
        w = E.Tensor(np.zeros((8, 3, 3, 3)))
        with pytest.raises(ValueError, match="channel axis"):
            E.conv2d(x, w)

    def test_groups_must_divide(self):
        x = E.Tensor(np.zeros((1, 4, 6, 6)))
        w = E.Tensor(np.zeros((6, 1, 3, 3)))
        with pytest.raises(ValueError, match="divisible"):
            E.conv2d(x, w, groups=3)

    def test_bias_shape(self):
        x = E.Tensor(np.zeros((1, 2, 4, 4)))
        w = E.Tensor(np.zeros((3, 2, 1, 1)))
        with pytest.raises(ValueError, match="bias axis"):
            E.conv2d(x, w, E.Tensor(np.zeros(2)))

    def test_zero_sized_output(self):
        x = E.Tensor(np.zeros((1, 1, 4, 4)))
        w = E.Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ValueError, match="zero-sized"):
            E.conv2d(x, w)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            E.Tensor(np.array([[[[np.inf]]]]))


def test_bad_window_rejected():
    x = E.Tensor(np.ones((1, 1, 4, 4)))
    w = E.Tensor(np.ones((1, 1, 3, 3)))
    for name, kw in (("stride", dict(stride=0)), ("dilation", dict(dilation=0)),
                     ("dilation", dict(dilation=(1, 0))),
                     ("padding", dict(padding=-1))):
        with pytest.raises(ValueError, match=name):
            E.conv2d(x, w, **kw)
    with pytest.raises(ValueError, match="kernel"):
        E.conv2d(x, E.Tensor(np.ones((1, 1, 0, 3))))
    for name, args in (("stride", (2, 0)), ("padding", (2, 2, -1)),
                       ("kernel", (0,))):
        with pytest.raises(ValueError, match=name):
            E.avg_pool(x, *args)


# Every conv geometry the toy model runs: kernel, stride, padding, dilation,
# depthwise (groups = channels) or dense.
MODEL_CONVS = [
    ((3, 3), (1, 1), (1, 1), (1, 1), False),
    ((3, 3), (2, 2), (1, 1), (1, 1), False),
    ((3, 3), (1, 1), (2, 2), (2, 2), False),
    ((3, 3), (1, 1), (1, 1), (1, 1), True),
    ((5, 5), (1, 1), (2, 2), (1, 1), True),
    ((5, 5), (1, 1), (2, 2), (1, 1), False),
    ((1, 11), (1, 1), (0, 15), (1, 3), True),
    ((11, 1), (1, 1), (15, 0), (3, 1), True),
    ((7, 7), (1, 1), (3, 3), (1, 1), False),
    ((1, 1), (1, 1), (0, 0), (1, 1), False),
    ((1, 1), (1, 1), (0, 0), (1, 1), True),
]


def _conv_case(rng, geometry, x):
    kernel, stride, padding, dilation, dw = geometry
    cin = x.shape[1]
    groups = cin if dw else 1
    cout = cin if dw else 3
    w = rng.normal(size=(cout, cin // groups, *kernel))
    b = rng.normal(size=(cout,))
    return w, b, dict(stride=stride, padding=padding, dilation=dilation, groups=groups)


@pytest.mark.parametrize("geometry", MODEL_CONVS)
def test_model_conv_geometries_match_oracle(geometry):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 4, 10, 9))
    w, b, kw = _conv_case(rng, geometry, x)
    xt, wt, bt = E.Parameter(x), E.Parameter(w), E.Parameter(b)
    out = E.conv2d(xt, wt, bt, **kw)
    ref = conv2d_naive(x, w, b, kw["stride"], kw["padding"], kw["dilation"],
                       kw["groups"])
    assert rel_err(out.data, ref) < 1e-12
    # conv is linear in x and in w, so <conv(x, w) - b, d> equals both
    # <x, dL/dx> and <w, dL/dw> for L = <conv(x, w), d>
    d = rng.normal(size=ref.shape)
    sum_all(E.mul(out, E.Tensor(d))).backward()
    inner = float(((ref - b[None, :, None, None]) * d).sum())
    assert abs(float((x * xt.grad).sum()) - inner) < 1e-12 * np.abs(ref * d).sum()
    assert abs(float((w * wt.grad).sum()) - inner) < 1e-12 * np.abs(ref * d).sum()
    np.testing.assert_allclose(bt.grad, d.sum(axis=(0, 2, 3)), rtol=1e-12)


@pytest.mark.parametrize("scale", POOL_SCALES)
def test_model_pool_geometries_match_oracle(scale):
    k, s, p = scale
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 3, 12, 10))
    xt = E.Parameter(x)
    out = E.avg_pool(xt, k, s, p)
    ref = avg_pool_naive(x, (k, k), (s, s), (p, p))
    assert rel_err(out.data, ref) < 1e-12
    d = rng.normal(size=ref.shape)
    sum_all(E.mul(out, E.Tensor(d))).backward()
    inner = float((ref * d).sum())
    assert abs(float((x * xt.grad).sum()) - inner) < 1e-12 * np.abs(ref * d).sum()


# Geometries whose taps partly read only padding: (x shape, kernel, stride,
# padding, dilation, depthwise). The strips on 8x8 down to 1x1 maps are the
# attention's; strided convs and the pool reach the `_scatter_taps` skip.
DEAD_TAP_CONVS = [
    *(((1, 2, s, s), (1, 11), (1, 1), (0, 15), (1, 3), True) for s in (8, 4, 2, 1)),
    *(((1, 2, s, s), (11, 1), (1, 1), (15, 0), (3, 1), True) for s in (8, 4, 2, 1)),
    ((2, 2, 2, 2), (5, 5), (1, 1), (2, 2), (1, 1), True),
    ((1, 2, 4, 4), (5, 5), (2, 2), (6, 6), (3, 3), True),
    ((1, 2, 4, 5), (5, 5), (2, 2), (6, 6), (3, 3), False),
    ((1, 2, 1, 6), (5, 5), (1, 1), (2, 2), (1, 1), True),  # one live tap row
]


@pytest.mark.parametrize("geometry", DEAD_TAP_CONVS)
def test_dead_taps_match_oracle(geometry):
    shape, kernel, stride, padding, dilation, dw = geometry
    out_hw = E._out_hw(*shape[2:], kernel, stride, padding, dilation)
    rows, cols = E._live_taps(shape[2:], kernel, stride, padding, dilation, out_hw)
    assert len(rows) * len(cols) < kernel[0] * kernel[1]
    if shape[2] == 1 and kernel[0] > 1:
        assert len(rows) == 1
    rng = np.random.default_rng(24)
    x = rng.normal(size=shape)
    cin = shape[1]
    groups = cin if dw else 1
    cout = cin if dw else 3
    wgt = rng.normal(size=(cout, cin // groups, *kernel))
    b = rng.normal(size=(cout,))
    kw = dict(stride=stride, padding=padding, dilation=dilation, groups=groups)
    xt, wt, bt = E.Parameter(x), E.Parameter(wgt), E.Parameter(b)
    out = E.conv2d(xt, wt, bt, **kw)
    ref = conv2d_naive(x, wgt, b, stride, padding, dilation, groups)
    assert rel_err(out.data, ref) < 1e-12
    d = rng.normal(size=ref.shape)
    sum_all(E.mul(out, E.Tensor(d))).backward()
    for got, want in zip((xt.grad, wt.grad, bt.grad),
                         conv2d_naive_grads(x, wgt, d, stride, padding, dilation, groups)):
        assert rel_err(got, want) < 1e-12
    xt.grad = wt.grad = bt.grad = None
    dt = E.Tensor(d)
    gradcheck(lambda: sum_all(E.mul(E.conv2d(xt, wt, bt, **kw), dt)), [xt, wt, bt])


def test_live_taps_are_the_taps_that_read_the_input():
    # per axis: exactly the taps whose reads straddle the input, which
    # include every tap with a read inside it
    live_taps = E._live_taps.__wrapped__   # uncached: 12k geometries
    for size, k, s, p, d in itertools.product(range(1, 9), range(1, 12), range(1, 4),
                                              range(16), range(1, 4)):
        o = (size + 2 * p - (k - 1) * d - 1) // s + 1
        if o < 1:
            continue
        got = live_taps((size, 1), (k, 1), (s, 1), (p, 0), (d, 1), (o, 1))[0]
        straddle = [i for i in range(k)
                    if i * d - p < size and i * d - p + (o - 1) * s >= 0]
        reads = {i for i in range(k)
                 if any(0 <= i * d - p + y * s < size for y in range(o))}
        assert list(got) == straddle and reads <= set(got), (size, k, s, p, d)


@pytest.mark.parametrize("shape", [(1, 2, 2, 3), (1, 1, 1, 1)])
def test_dead_pool_taps_match_oracle(shape):
    # the pyramid's smallest pool (5, stride 2, padding 2) on maps it overhangs
    rng = np.random.default_rng(25)
    x = rng.normal(size=shape)
    xt = E.Parameter(x)
    out = E.avg_pool(xt, 5, 2, 2)
    ref = avg_pool_naive(x, (5, 5), (2, 2), (2, 2))
    assert rel_err(out.data, ref) < 1e-12
    d = rng.normal(size=ref.shape)
    sum_all(E.mul(out, E.Tensor(d))).backward()
    assert rel_err(xt.grad, avg_pool_naive_grad(shape, d, (5, 5), (2, 2), (2, 2))) < 1e-12
    xt.grad = None
    dt = E.Tensor(d)
    gradcheck(lambda: sum_all(E.mul(E.avg_pool(xt, 5, 2, 2), dt)), [xt])


def _forward_backward(op, *leaves):
    out = op(*leaves)
    d = np.linspace(-1.0, 1.0, out.data.size).reshape(out.data.shape)
    sum_all(E.mul(out, E.Tensor(d))).backward()
    return out.data


@pytest.mark.parametrize("padding", [(0, 0), (2, 1)])
@pytest.mark.parametrize("dw", [False, True])
def test_non_contiguous_input_matches_contiguous_copy(padding, dw):
    rng = np.random.default_rng(23)
    c = 3
    wdata = rng.normal(size=(c, 1 if dw else c, 3, 3))
    ops = (
        lambda x, w: E.conv2d(x, w, padding=padding, dilation=(2, 1),
                              groups=c if dw else 1),
        lambda x, _: E.avg_pool(x, 3, 2, padding),
    )
    for op in ops:
        # a channel slice of a wider map, and a transposed array
        sliced = E.Parameter(rng.normal(size=(2, c + 2, 9, 8))[:, 1:1 + c])
        transposed = E.Parameter(rng.normal(size=(8, 9, c, 2)).transpose(3, 2, 1, 0))
        for x in (sliced, transposed):
            assert not x.data.flags.c_contiguous
            w = E.Parameter(wdata)
            out = _forward_backward(op, x, w)
            xc, wc = E.Parameter(np.ascontiguousarray(x.data)), E.Parameter(wdata)
            assert np.array_equal(out, _forward_backward(op, xc, wc))
            assert np.array_equal(x.grad, xc.grad)
            assert (w.grad is None and wc.grad is None) or np.array_equal(w.grad, wc.grad)


def test_window_view_is_read_only():
    x = np.arange(2 * 3 * 5 * 6, dtype=float).reshape(2, 3, 5, 6)
    xp = E._pad(x, (1, 2))
    # kernel (3, 2), stride (2, 1), dilation (1, 3) over the padded 7x10 map
    win = E._tap_view(xp, (3, 2), (3, 7), (0, 0), (1, 3), (2, 1))
    assert win.shape == (3, 2, 2, 3, 3, 7)
    assert not win.flags.writeable
    with pytest.raises(ValueError):
        win[0, 0, 0, 0, 0, 0] = 1.0
    # tap (i, j) of output (y, x) reads xp[y * sh + i * dh, x * sw + j * dw]
    assert win[1, 1, 1, 2, 2, 4] == xp[1, 2, 2 * 2 + 1, 4 + 3]
    # strides come from the array itself, whatever its layout
    last = E._pad(x, (1, 2), last=True)
    assert not last.flags.c_contiguous
    assert np.array_equal(E._tap_view(last, (3, 2), (3, 7), (0, 0), (1, 3), (2, 1)), win)


@pytest.mark.parametrize("groups", [1, 2])
def test_graph_does_not_hold_replaced_weights(groups):
    # SGD rebinds Parameter.data after each step while the last graph is
    # still referenced; the conv's backward must not pin the old array
    rng = np.random.default_rng(0)
    x = E.Parameter(rng.normal(size=(1, 4, 6, 6)))
    old = rng.normal(size=(6, 4 // groups, 3, 3))
    w = E.Parameter(old)
    out = E.conv2d(x, w, padding=1, groups=groups)
    ref = weakref.ref(old)
    w.data = w.data - 0.1
    del old
    assert ref() is None
    assert out.requires_grad


# Every depthwise geometry the toy model runs, by (channels, map size,
# kernel, padding, dilation); stride 1 throughout.
MODEL_DEPTHWISE = [
    (16, 8, (5, 5), (2, 2), (1, 1)),
    (32, 4, (5, 5), (2, 2), (1, 1)),
    (32, 2, (5, 5), (2, 2), (1, 1)),
    (64, 2, (5, 5), (2, 2), (1, 1)),
    (16, 8, (1, 11), (0, 15), (1, 3)),
    (16, 8, (11, 1), (15, 0), (3, 1)),
    (32, 4, (1, 11), (0, 15), (1, 3)),
    (64, 2, (11, 1), (15, 0), (3, 1)),
    (32, 8, (3, 3), (1, 1), (1, 1)),
    (64, 4, (3, 3), (1, 1), (1, 1)),
    (128, 2, (3, 3), (1, 1), (1, 1)),
    (48, 1, (1, 1), (0, 0), (1, 1)),
    (192, 1, (1, 1), (0, 0), (1, 1)),
]


def _depthwise_case(rng, n, c, h, kernel):
    # magnitudes spread over 12 decades, so a change of summation order
    # changes bits
    x = rng.normal(size=(n, c, h, h)) * 10.0 ** rng.integers(-6, 6, (n, c, h, h))
    w = rng.normal(size=(c, 1, *kernel)) * 10.0 ** rng.integers(-6, 6, (c, 1, *kernel))
    return x, w


def _depthwise_temp(n, c, h, kernel, padding, dilation):
    """Elements of the live-tap product a batched depthwise forward forms."""
    oh, ow = E._out_hw(h, h, kernel, (1, 1), padding, dilation)
    rows, cols = E._live_taps((h, h), kernel, (1, 1), padding, dilation, (oh, ow))
    return len(rows) * len(cols) * n * c * oh * ow


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "loop"])
@pytest.mark.parametrize("geometry", MODEL_DEPTHWISE)
def test_model_depthwise_matches_tap_loop_bytes(geometry, batched, monkeypatch):
    c, h, kernel, padding, dilation = geometry
    if not batched:
        monkeypatch.setattr(E, "_DW_BATCH_MAX", 0)
    rng = np.random.default_rng(26)
    for n in (1, 4):
        assert (_depthwise_temp(n, c, h, kernel, padding, dilation)
                <= E._DW_BATCH_MAX) == batched
        x, w = _depthwise_case(rng, n, c, h, kernel)
        out = E.conv2d(E.Tensor(x), E.Tensor(w), padding=padding,
                       dilation=dilation, groups=c)
        ref = depthwise_tap_loop(x, w, padding, dilation)
        assert out.data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n, c, h, padding", [(2, 64, 16, (2, 2)), (1, 1, 5, (0, 0))],
                         ids=["above-crossover", "lone-output-cell"])
def test_depthwise_loop_side_matches_tap_loop_bytes(n, c, h, padding):
    # the forward loops over taps above the crossover, and for a single
    # output cell, whose taps one numpy reduction would sum pairwise
    if c > 1:
        assert _depthwise_temp(n, c, h, (5, 5), padding, (1, 1)) > E._DW_BATCH_MAX
    x, w = _depthwise_case(np.random.default_rng(27), n, c, h, (5, 5))
    out = E.conv2d(E.Tensor(x), E.Tensor(w), padding=padding, groups=c)
    assert out.data.tobytes() == depthwise_tap_loop(x, w, padding).tobytes()


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "loop"])
def test_depthwise_zero_region_keeps_positive_zero(batched, monkeypatch):
    # every product over the zero rows is -0.0; summed from +0.0 they give
    # +0.0, where a sum started from the first product would give -0.0
    if not batched:
        monkeypatch.setattr(E, "_DW_BATCH_MAX", 0)
    rng = np.random.default_rng(28)
    x = rng.normal(size=(2, 4, 8, 8))
    x[:, :, :3] = 0.0
    w = -np.abs(rng.normal(size=(4, 1, 3, 3))) - 0.5
    out = E.conv2d(E.Tensor(x), E.Tensor(w), padding=(0, 1), groups=4)
    assert out.data.tobytes() == depthwise_tap_loop(x, w, (0, 1)).tobytes()
    assert (out.data[:, :, 0] == 0.0).all()
    assert not np.signbit(out.data[:, :, 0]).any()


def _spread(rng, shape):
    """Normal samples scaled over 12 decades."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, shape)


def _signed_zero_grad(rng, shape):
    """An output gradient holding +0.0, -0.0 and magnitudes over 12 decades."""
    g = _spread(rng, shape)
    pick = rng.random(shape)
    g[pick < 0.1] = 0.0
    g[pick > 0.9] = -0.0
    return g


def _depthwise_grads(x, w, g, **kw):
    xt, wt = E.Parameter(x), E.Parameter(w)
    out = E.conv2d(xt, wt, groups=x.shape[1], **kw)
    sum_all(E.mul(out, E.Tensor(g))).backward()
    return xt.grad, wt.grad


def _assert_grads_match_tap_loop(rng, n, c, size, kernel, padding, dilation):
    x, w = _spread(rng, (n, c, *size)), _spread(rng, (c, 1, *kernel))
    oh, ow = E._out_hw(*size, kernel, (1, 1), padding, dilation)
    g = _signed_zero_grad(rng, (n, c, oh, ow))
    gx, gw = _depthwise_grads(x, w, g, padding=padding, dilation=dilation)
    want_gx, want_gw = depthwise_tap_loop_grads(x, w, g, padding, dilation)
    assert gx.tobytes() == want_gx.tobytes()
    assert gw.tobytes() == want_gw.tobytes()


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "loop"])
@pytest.mark.parametrize("geometry", MODEL_DEPTHWISE)
def test_model_depthwise_grads_match_tap_loop_bytes(geometry, batched, monkeypatch):
    # the input gradient sums the taps backwards over the output gradient;
    # every cell must get the oracle's products in the oracle's order, from +0.0
    c, h, kernel, padding, dilation = geometry
    if not batched:
        monkeypatch.setattr(E, "_DW_BATCH_MAX", 0)
    rng = np.random.default_rng(30)
    for n in (1, 4):
        assert (_depthwise_temp(n, c, h, kernel, padding, dilation)
                <= E._DW_BATCH_MAX) == batched
        _assert_grads_match_tap_loop(rng, n, c, (h, h), kernel, padding, dilation)


@pytest.mark.parametrize("n, c, h, padding", [(2, 16, 32, (2, 2)), (1, 1, 1, (2, 2)),
                                              (1, 1, 5, (0, 0))],
                         ids=["eval-256-loop-side", "lone-input-cell",
                              "lone-output-cell"])
def test_depthwise_loop_side_grads_match_tap_loop_bytes(n, c, h, padding):
    if c > 1:
        assert _depthwise_temp(n, c, h, (5, 5), padding, (1, 1)) > E._DW_BATCH_MAX
    _assert_grads_match_tap_loop(np.random.default_rng(31), n, c, (h, h), (5, 5),
                                 padding, (1, 1))


# Edge geometries of the reversed window: (map size, kernel, padding, dilation)
REVERSED_WINDOW_EDGES = [
    ((1, 1), (1, 11), (0, 15), (1, 3)),   # one live tap
    ((2, 2), (1, 11), (0, 15), (1, 3)),   # one live tap
    ((2, 2), (11, 1), (15, 0), (3, 1)),
    ((1, 1), (5, 5), (2, 2), (1, 1)),
    ((6, 6), (5, 5), (2, 1), (1, 1)),
    ((5, 9), (5, 5), (2, 2), (1, 1)),
    ((7, 3), (3, 5), (1, 2), (2, 1)),
    ((4, 5), (3, 3), (3, 0), (1, 1)),     # padding past the kernel's reach
]


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "loop"])
@pytest.mark.parametrize("geometry", REVERSED_WINDOW_EDGES)
def test_reversed_window_edges_match_tap_loop_bytes(geometry, batched, monkeypatch):
    size, kernel, padding, dilation = geometry
    if not batched:
        monkeypatch.setattr(E, "_DW_BATCH_MAX", 0)
    rng = np.random.default_rng(32)
    for n in (1, 3):
        _assert_grads_match_tap_loop(rng, n, 4, size, kernel, padding, dilation)


def test_strided_depthwise_grads_match_naive():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(2, 3, 9, 8))
    w = rng.normal(size=(3, 1, 3, 5))
    kw = dict(stride=(2, 2), padding=(1, 2), dilation=(2, 1))
    g = rng.normal(size=E.conv2d(E.Tensor(x), E.Tensor(w), groups=3, **kw).shape)
    for got, want in zip(_depthwise_grads(x, w, g, **kw),
                         conv2d_naive_grads(x, w, g, groups=3, **kw)):
        assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("op, scatters", [
    (lambda x: E.conv2d(x, E.Tensor(np.ones((3, 1, 5, 5))), padding=2, groups=3),
     False),
    (lambda x: E.conv2d(x, E.Tensor(np.ones((3, 1, 3, 3))), stride=2, groups=3),
     True),
    (lambda x: E.conv2d(x, E.Tensor(np.ones((2, 3, 3, 3))), padding=1), False),
    (lambda x: E.conv2d(x, E.Tensor(np.ones((2, 3, 3, 3))), stride=2, padding=1),
     True),
    (lambda x: E.avg_pool(x, 3, 2, 1), True),
], ids=["depthwise", "strided-depthwise", "dense", "strided-dense", "avg-pool"])
def test_which_backwards_scatter_taps(op, scatters, monkeypatch):
    calls = []
    scatter = E._scatter_taps
    monkeypatch.setattr(E, "_scatter_taps", lambda *a: calls.append(1) or scatter(*a))
    x = E.Parameter(np.random.default_rng(34).normal(size=(2, 3, 7, 7)))
    sum_all(op(x)).backward()
    assert x.grad is not None
    assert bool(calls) == scatters


def _signed_spread(rng, shape, zeros=0.2):
    """Normal draws over 12 decades, with +0.0 and -0.0 entries."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
    v[rng.random(shape) < zeros] = 0.0
    v[rng.random(shape) < zeros] = -0.0
    return v


@pytest.mark.parametrize("gather", [True, False], ids=["gather", "tap-loop"])
@pytest.mark.parametrize("geometry", [g for g in MODEL_CONVS
                                      if g[1] == (1, 1) and not g[4]])
def test_dense_input_grad_matches_scatter_bytes(geometry, gather, monkeypatch):
    # both sides of the size rule give the scatter's bytes, signed zeros too
    kernel, _, padding, dilation, _ = geometry
    monkeypatch.setattr(E, "_DENSE_GATHER_MAX", 1 << 30 if gather else 0)
    rng = np.random.default_rng(35)
    for (h, wd), n in itertools.product([(1, 1), (2, 2), (4, 4), (8, 8), (5, 3)],
                                        (1, 4)):
        x = E.Parameter(rng.normal(size=(n, 3, h, wd)))
        w = _signed_spread(rng, (4, 3, *kernel), zeros=0.1)
        out = E.conv2d(x, E.Tensor(w), padding=padding, dilation=dilation)
        g = _signed_spread(rng, out.shape)
        sum_all(E.mul(out, E.Tensor(g))).backward()
        want = dense_input_grad_scatter(w, g, x.shape, padding, dilation)
        assert x.grad.tobytes() == want.tobytes(), (h, wd, n)


@pytest.mark.parametrize("gather", [True, False], ids=["gather", "tap-loop"])
@pytest.mark.parametrize("geometry", [g for g in MODEL_CONVS
                                      if g[1] == (1, 1) and not g[4]])
def test_dense_tap_sum_keeps_signed_zeros(geometry, gather, monkeypatch):
    # OpenBLAS returns no -0.0 from the matmul, so feed the per-tap
    # gradients directly: a cell whose every read is -0.0 stays +0.0
    kernel, _, padding, dilation, _ = geometry
    monkeypatch.setattr(E, "_DENSE_GATHER_MAX", 1 << 30 if gather else 0)
    rng = np.random.default_rng(36)
    for (h, wd), n in itertools.product([(1, 1), (2, 2), (4, 4), (5, 3)], (1, 4)):
        oh, ow = E._out_hw(h, wd, kernel, (1, 1), padding, dilation)
        taps = _signed_spread(rng, (n, 3, *kernel, oh, ow), zeros=0.3)
        taps[:, 1] = -0.0
        got = E._dense_input_grad(taps, (h, wd), dilation, padding)
        want = scatter_tap_grads(taps, (n, 3, h, wd), padding, dilation)
        assert got.tobytes() == want.tobytes(), (h, wd, n)


# The toy model's strided dense convs, all 3x3 at stride 2 and padding 1:
# (c_in, c_out, map size), from the stem at 64x64 down to the high branch.
MODEL_STRIDED_DENSE = [(3, 16, 64), (16, 16, 32), (16, 16, 16), (16, 32, 8),
                       (32, 64, 4)]


@pytest.mark.parametrize("cin, cout, size", MODEL_STRIDED_DENSE)
def test_strided_dense_input_grad_matches_scatter_bytes(cin, cout, size):
    rng = np.random.default_rng(37)
    for n in (1, 2):
        x = E.Parameter(rng.normal(size=(n, cin, size, size)))
        w = _signed_spread(rng, (cout, cin, 3, 3), zeros=0.1)
        out = E.conv2d(x, E.Tensor(w), stride=2, padding=1)
        g = _signed_spread(rng, out.shape)
        sum_all(E.mul(out, E.Tensor(g))).backward()
        want = dense_input_grad_scatter(w, g, x.shape, (1, 1), (1, 1), (2, 2))
        assert x.grad.tobytes() == want.tobytes(), n


def _depthwise_taps(w, g):
    """The gradient (n, c, kh, kw, oh, ow) reaching each depthwise tap."""
    return g[:, :, None, None] * w[:, 0, :, :, None, None]


def test_strided_depthwise_input_grad_matches_scatter_bytes():
    rng = np.random.default_rng(38)
    x, w = _spread(rng, (2, 3, 9, 8)), _spread(rng, (3, 1, 3, 5))
    kw = dict(stride=(2, 2), padding=(1, 2), dilation=(2, 1))
    g = _signed_zero_grad(rng, E.conv2d(E.Tensor(x), E.Tensor(w), groups=3, **kw).shape)
    gx, _ = _depthwise_grads(x, w, g, **kw)
    want = scatter_tap_grads(_depthwise_taps(w, g), x.shape, (1, 2), (2, 1), (2, 2))
    assert gx.tobytes() == want.tobytes()


def _pool_counts(size, out, k, s, p):
    """Valid cells of each pooling window, per axis products."""
    per_axis = [[sum(0 <= y * s + i - p < n for i in range(k)) for y in range(o)]
                for n, o in zip(size, out)]
    return np.outer(*per_axis).astype(float)


@pytest.mark.parametrize("shape", [(2, 3, 20, 18), (1, 2, 12, 9)])
@pytest.mark.parametrize("scale", POOL_SCALES)
def test_pool_input_grad_matches_scatter_bytes(scale, shape):
    k, s, p = scale
    rng = np.random.default_rng(39)
    x = E.Parameter(rng.normal(size=shape))
    out = E.avg_pool(x, k, s, p)
    n, c, oh, ow = out.shape
    assert oh > 1 and ow > 1
    g = _signed_spread(rng, out.shape)
    sum_all(E.mul(out, E.Tensor(g))).backward()
    gn = g / _pool_counts(shape[2:], (oh, ow), k, s, p)
    taps = np.broadcast_to(gn[:, :, None, None], (n, c, k, k, oh, ow))
    want = scatter_tap_grads(taps, shape, (p, p), (1, 1), (s, s))
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("dw", [False, True], ids=["dense", "depthwise"])
def test_tap_stepping_over_every_cell_matches_scatter_bytes(dw):
    # 3x3 map, kernel 3, stride 4, padding 2: per axis tap 1 reads cells
    # -1 and 3, live by `_live_taps` but with no read inside the map
    shape, stride, padding = (2, 3, 3, 3), (4, 4), (2, 2)
    oh, ow = E._out_hw(3, 3, (3, 3), stride, padding)
    rows, _ = E._live_taps((3, 3), (3, 3), stride, padding, (1, 1), (oh, ow))
    assert [E._in_bounds(i - 2, oh, 4, 3) is None for i in rows] == [False, True, False]
    rng = np.random.default_rng(40)
    x = _spread(rng, shape)
    w = _spread(rng, (3, 1 if dw else 3, 3, 3))
    g = _signed_zero_grad(rng, (2, 3, oh, ow))
    xt = E.Parameter(x)
    out = E.conv2d(xt, E.Tensor(w), stride=stride, padding=padding,
                   groups=3 if dw else 1)
    sum_all(E.mul(out, E.Tensor(g))).backward()
    if dw:
        want = scatter_tap_grads(_depthwise_taps(w, g), shape, padding, (1, 1), stride)
    else:
        want = dense_input_grad_scatter(w, g, shape, padding, (1, 1), stride)
    assert xt.grad.tobytes() == want.tobytes()


def _spy_on(monkeypatch, name):
    """Weak references to the memory of every array `E.<name>` returns."""
    refs = []
    real = getattr(E, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        refs.append(weakref.ref(out if out.base is None else out.base))
        return out

    monkeypatch.setattr(E, name, spy)
    return refs


_GRAD_OPS = {
    "dense": lambda x: E.conv2d(x, E.Parameter(np.ones((4, 3, 3, 3))), padding=1),
    "strided-dense": lambda x: E.conv2d(x, E.Parameter(np.ones((4, 3, 3, 3))),
                                        stride=2, padding=1),
    "grouped": lambda x: E.conv2d(x, E.Parameter(np.ones((6, 1, 3, 3))), padding=1,
                                  groups=3),
    "depthwise": lambda x: E.conv2d(x, E.Parameter(np.ones((3, 1, 5, 5))), padding=2,
                                    groups=3),
    "depthwise-strip": lambda x: E.conv2d(x, E.Parameter(np.ones((3, 1, 1, 11))),
                                          padding=(0, 15), dilation=(1, 3), groups=3),
    "strided-depthwise": lambda x: E.conv2d(x, E.Parameter(np.ones((3, 1, 3, 3))),
                                            stride=2, groups=3),
    "avg-pool": lambda x: E.avg_pool(x, 3, 2, 1),
}


@pytest.mark.parametrize("op", _GRAD_OPS.values(), ids=_GRAD_OPS.keys())
def test_backward_does_not_hold_padded_copy(op, monkeypatch):
    # the backward builds the im2col columns and the depthwise tap view
    # again, and the scatter needs only the input's shape, so the padded
    # copy dies with the forward while its output, and so its backward,
    # lives on
    copies = _spy_on(monkeypatch, "_pad")
    out = op(E.Parameter(np.random.default_rng(41).normal(size=(2, 3, 6, 6))))
    assert out.requires_grad and copies
    gc.collect()
    assert [ref() for ref in copies] == [None] * len(copies)


@pytest.mark.parametrize("op", [_GRAD_OPS[k] for k in ("dense", "strided-dense",
                                                       "grouped")],
                         ids=["dense", "strided-dense", "grouped"])
def test_backward_does_not_hold_im2col_columns(op, monkeypatch):
    columns = _spy_on(monkeypatch, "_columns")
    x = E.Parameter(np.random.default_rng(42).normal(size=(2, 3, 6, 6)))
    out = op(x)
    assert out.requires_grad and len(columns) == 1
    gc.collect()
    assert columns[0]() is None
    # the backward builds them again, and drops them too
    sum_all(out).backward()
    assert x.grad is not None and len(columns) == 2
    gc.collect()
    assert columns[1]() is None


def _pointwise_im2col(x, w, groups):
    """A 1x1 stride-1 conv through a window view and its im2col columns."""
    xp = np.ascontiguousarray(x)
    n, c, h, wd = xp.shape
    cout, cg = w.shape[:2]
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (n, c, h, wd, 1, 1),
                                          (s0, s1, s2, s3, s2, s3))
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, groups, cg, h * wd)
    out = np.matmul(w.reshape(groups, cout // groups, -1), cols)
    return out.reshape(n, cout, h, wd), cols


@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("layout", ["contiguous", "channel-slice", "transposed"])
def test_pointwise_conv_matches_im2col_bytes(layout, groups):
    rng = np.random.default_rng(29)
    n, c, h, wd, cout = 3, 4, 5, 6, 6
    if layout == "contiguous":
        x = rng.normal(size=(n, c, h, wd))
    elif layout == "channel-slice":
        x = rng.normal(size=(n, c + 3, h, wd))[:, 2:2 + c]
    else:
        x = rng.normal(size=(wd, h, c, n)).transpose(3, 2, 1, 0)
    w = rng.normal(size=(cout, c // groups, 1, 1))
    d = rng.normal(size=(n, cout, h, wd))
    xt, wt = E.Parameter(x), E.Parameter(w)
    out = E.conv2d(xt, wt, groups=groups)
    want, cols = _pointwise_im2col(x, w, groups)
    assert out.data.tobytes() == want.tobytes()
    sum_all(E.mul(out, E.Tensor(d))).backward()
    gog = d.reshape(n, groups, cout // groups, h * wd)
    gw = np.matmul(gog, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(w.shape)
    assert wt.grad.tobytes() == gw.tobytes()
