"""Convolution and pooling over random geometries against the naive oracles.

The engine picks its path by geometry: `_DW_BATCH_MAX` and
`_DENSE_GATHER_MAX`, the `1 < cells` guards, the live-tap pruning of
`_live_taps` and the strided against the stride-1 backward. Hand-picked
cases can miss a boundary between them, so these properties draw the
geometry: every output and both gradients agree with `tests/oracles.py`'s
scalar loops within 1e-12. In half the conv draws both thresholds are set
low, so each conv is drawn on either side of them. Hypothesis runs derandomized
with a bounded example count, so every run tries the same inputs.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import lka_seg.engine as E
from helpers import sum_all
from oracles import (avg_pool_naive, avg_pool_naive_grad, conv2d_naive,
                     conv2d_naive_grads, rel_err)

SWEEP = settings(derandomize=True, max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])
TOL = 1e-12
# the oracles are scalar loops: cap each draw's multiply-adds
MAX_MACS = 4000

# the path thresholds as the engine has them, or low in half the draws
_thresholds = st.one_of(
    st.none(),
    st.tuples(st.sampled_from([0, 8, 64, 512]), st.sampled_from([0, 8, 64, 512])))
_axis = st.integers(1, 3)


def _low_thresholds(mp, thresholds):
    if thresholds is not None:
        mp.setattr(E, "_DW_BATCH_MAX", thresholds[0])
        mp.setattr(E, "_DENSE_GATHER_MAX", thresholds[1])


@st.composite
def conv_case(draw):
    """(x shape, w shape, groups, stride, padding, dilation, bias, seed)."""
    kind = draw(st.sampled_from(["dense", "grouped", "depthwise"]))
    if kind == "dense":
        groups, cin, cout = 1, draw(st.integers(1, 3)), draw(st.integers(1, 3))
    elif kind == "grouped":
        groups = 2
        cin, cout = 2 * draw(st.integers(1, 2)), 2 * draw(st.integers(1, 2))
    else:
        groups = cin = cout = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2))
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride, dilation = (draw(_axis), draw(_axis)), (draw(_axis), draw(_axis))
    padding = (draw(st.integers(0, kh * dilation[0])),
               draw(st.integers(0, kw * dilation[1])))
    oh, ow = E._out_hw(h, w, (kh, kw), stride, padding, dilation)
    assume(oh >= 1 and ow >= 1)
    assume(n * cout * oh * ow * (cin // groups) * kh * kw <= MAX_MACS)
    return ((n, cin, h, w), (cout, cin // groups, kh, kw), groups, stride, padding,
            dilation, draw(st.booleans()), draw(st.integers(0, 2**16)))


# Stride 1 with no live tap along an axis: each of the 4 dilated taps'
# rows lands in padding. The forward is zeros; the backward once raised in
# `_adjoint_view`. The random draws reach such a geometry about once in 400.
# stride, padding, dilation, bias, seed
_NO_LIVE_ROW = (1, 1), (5, 3), (3, 3), False, 0


@SWEEP
@given(case=conv_case(), thresholds=_thresholds)
@example(case=((1, 1, 1, 5), (2, 1, 4, 3), 1, *_NO_LIVE_ROW), thresholds=None)
@example(case=((1, 2, 1, 5), (2, 1, 4, 3), 2, *_NO_LIVE_ROW), thresholds=None)
def test_conv2d_matches_naive_oracle(case, thresholds):
    xs, ws, groups, stride, padding, dilation, bias, seed = case
    rng = np.random.default_rng(seed)
    x = E.Parameter(rng.normal(size=xs))
    w = E.Parameter(rng.normal(size=ws))
    b = E.Parameter(rng.normal(size=ws[0])) if bias else None
    kw = dict(stride=stride, padding=padding, dilation=dilation, groups=groups)
    with pytest.MonkeyPatch.context() as mp:
        _low_thresholds(mp, thresholds)
        out = E.conv2d(x, w, b, **kw)
        want = conv2d_naive(x.data, w.data, None if b is None else b.data, **kw)
        assert out.shape == want.shape
        assert rel_err(out.data, want) < TOL
        g = rng.normal(size=out.shape)
        sum_all(E.mul(out, E.Tensor(g))).backward()
    gx, gw, gb = conv2d_naive_grads(x.data, w.data, g, **kw)
    assert rel_err(x.grad, gx) < TOL
    assert rel_err(w.grad, gw) < TOL
    if b is not None:
        assert rel_err(b.grad, gb) < TOL


@st.composite
def pool_case(draw):
    """(x shape, kernel, stride, padding, seed); every window holds a cell."""
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kernel = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride = draw(_axis), draw(_axis)
    # padding below the kernel leaves a cell in the first and last windows
    padding = draw(st.integers(0, kernel[0] - 1)), draw(st.integers(0, kernel[1] - 1))
    assume(kernel[0] <= h + 2 * padding[0] and kernel[1] <= w + 2 * padding[1])
    return (n, c, h, w), kernel, stride, padding, draw(st.integers(0, 2**16))


@SWEEP
@given(case=pool_case())
def test_avg_pool_matches_naive_oracle(case):
    xs, kernel, stride, padding, seed = case
    rng = np.random.default_rng(seed)
    x = E.Parameter(rng.normal(size=xs))
    out = E.avg_pool(x, kernel, stride, padding)
    want = avg_pool_naive(x.data, kernel, stride, padding)
    assert out.shape == want.shape
    assert rel_err(out.data, want) < TOL
    g = rng.normal(size=out.shape)
    sum_all(E.mul(out, E.Tensor(g))).backward()
    assert rel_err(x.grad, avg_pool_naive_grad(xs, g, kernel, stride, padding)) < TOL
