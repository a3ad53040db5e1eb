"""Finite-difference checks for every primitive and the tape contract."""

import gc
import weakref
from contextlib import ExitStack

import numpy as np
import pytest

import lka_seg.engine as E
from helpers import gradcheck, sum_all


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def test_sum_of_weighted_input(rng):
    # loss = sum(w * x) with x fixed -> dloss/dw = x
    x = rng.normal(size=(1, 2, 3, 3))
    w = E.Parameter(rng.normal(size=(1, 2, 3, 3)))
    loss = sum_all(E.mul(w, E.Tensor(x)))
    loss.backward()
    np.testing.assert_allclose(w.grad, x, atol=1e-15)


def test_unused_parameter_gets_no_gradient(rng):
    used = E.Parameter(rng.normal(size=(2,)))
    unused = E.Parameter(rng.normal(size=(3,)))
    loss = sum_all(E.mul(used, used))
    loss.backward()
    assert unused.grad is None  # treated as exactly zero downstream
    g = unused.grad if unused.grad is not None else np.zeros_like(unused.data)
    assert (g == 0).all()


def test_backward_requires_scalar(rng):
    x = E.Parameter(rng.normal(size=(1, 1, 2, 2)))
    out = E.mul(x, x)
    with pytest.raises(ValueError, match="scalar"):
        out.backward()


def test_backward_twice_rejected(rng):
    x = E.Parameter(rng.normal(size=(1, 1, 2, 2)))
    loss = sum_all(E.mul(x, x))
    loss.backward()
    with pytest.raises(RuntimeError, match="already ran"):
        loss.backward()


def test_backward_frees_intermediate_activations(rng):
    # held only through the graph, an activation lives until the last op
    # that consumed it has run its backward
    x = E.Parameter(rng.normal(size=(1, 2, 3, 3)))
    h = E.relu(E.mul(x, x))
    act = weakref.ref(h.data)
    loss = sum_all(E.mul(h, E.add(h, 1.0)))
    del h
    gc.collect()
    assert act() is not None
    loss.backward()
    gc.collect()
    assert act() is None
    assert x.grad is not None


def test_second_sweep_through_a_swept_graph_rejected(rng):
    x = E.Parameter(rng.normal(size=(2,)))
    inner = sum_all(E.mul(x, x))   # a scalar op output inside the graph
    loss = E.mul(inner, 3.0)
    loss.backward()
    with pytest.raises(RuntimeError, match="already ran"):
        inner.backward()
    with pytest.raises(RuntimeError, match="already ran"):
        E.mul(inner, 2.0).backward()   # a new loss on a swept graph
    np.testing.assert_allclose(x.grad, 6.0 * x.data)


def test_grad_accumulates_across_uses(rng):
    x = E.Parameter(np.array([2.0]))
    loss = sum_all(E.add(E.mul(x, 3.0), E.mul(x, x)))
    loss.backward()
    np.testing.assert_allclose(x.grad, [3.0 + 2 * 2.0])


def test_no_grad_suppresses_tape(rng):
    x = E.Parameter(rng.normal(size=(2,)))
    with E.no_grad():
        out = E.mul(x, x)
    assert out._parents == () and not out.requires_grad


class TestPrimitiveGradients:
    """Every differentiable op against central differences (rel err < 1e-6)."""

    def test_elementwise_binary(self, rng):
        a = E.Parameter(rng.normal(size=(1, 3, 4, 4)))
        b = E.Parameter(rng.normal(size=(1, 3, 1, 1)) + 3.0)  # broadcast, away from 0
        for op in (E.add, E.sub, E.mul):
            d = E.Tensor(rng.normal(size=(1, 3, 4, 4)))
            gradcheck(lambda op=op, d=d: sum_all(E.mul(op(a, b), d)), [a, b])

    def test_activations(self, rng):
        for op in (E.relu, E.gelu, E.sigmoid):
            x = E.Parameter(rng.normal(size=(1, 2, 4, 4)) + 0.1)
            d = E.Tensor(rng.normal(size=(1, 2, 4, 4)))
            gradcheck(lambda op=op, x=x, d=d: sum_all(E.mul(op(x), d)), [x])

    def test_select_mix(self, rng):
        s = E.Parameter(rng.normal(size=(2, 3, 3, 4)))
        cvec = E.Parameter(rng.normal(size=(2, 6, 1, 1)))
        branches = [E.Parameter(rng.normal(size=(2, 2, 3, 4))) for _ in range(3)]
        d = E.Tensor(rng.normal(size=(2, 2, 3, 4)))
        gradcheck(lambda: sum_all(E.mul(E.select_mix(s, cvec, branches), d)),
                  [s, cvec, *branches])

    def test_conv2d(self, rng):
        x = E.Parameter(rng.normal(size=(2, 4, 6, 6)))
        w = E.Parameter(rng.normal(size=(6, 2, 3, 3)))
        b = E.Parameter(rng.normal(size=(6,)))
        d = None

        def build():
            out = E.conv2d(x, w, b, stride=2, padding=1, dilation=2, groups=2)
            nonlocal d
            if d is None:
                d = E.Tensor(np.random.default_rng(0).normal(size=out.data.shape))
            return sum_all(E.mul(out, d))

        gradcheck(build, [x, w, b])

    def test_depthwise_strip(self, rng):
        x = E.Parameter(rng.normal(size=(1, 3, 8, 8)))
        w = E.Parameter(rng.normal(size=(3, 1, 1, 5)))
        d = E.Tensor(rng.normal(size=(1, 3, 8, 8)))
        gradcheck(lambda: sum_all(E.mul(
            E.conv2d(x, w, padding=(0, 4), dilation=(1, 2), groups=3), d)), [x, w])

    def test_avg_pool(self, rng):
        x = E.Parameter(rng.normal(size=(1, 2, 8, 8)))
        d = E.Tensor(rng.normal(size=(1, 2, 4, 4)))
        gradcheck(lambda: sum_all(E.mul(E.avg_pool(x, 3, 2, 1), d)), [x])

    def test_global_avg_pool(self, rng):
        x = E.Parameter(rng.normal(size=(2, 3, 5, 5)))
        d = E.Tensor(rng.normal(size=(2, 3, 1, 1)))
        gradcheck(lambda: sum_all(E.mul(E.global_avg_pool(x), d)), [x])

    def test_batch_norm_train(self, rng):
        x = E.Parameter(rng.normal(size=(2, 3, 4, 4)))
        gamma = E.Parameter(rng.normal(size=(3,)))
        beta = E.Parameter(rng.normal(size=(3,)))
        d = E.Tensor(rng.normal(size=(2, 3, 4, 4)))
        gradcheck(lambda: sum_all(E.mul(
            E.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), "train"), d)),
            [x, gamma, beta])

    def test_batch_norm_eval(self, rng):
        x = E.Parameter(rng.normal(size=(1, 2, 4, 4)))
        gamma = E.Parameter(rng.normal(size=(2,)))
        beta = E.Parameter(rng.normal(size=(2,)))
        rm = rng.normal(size=(2,))
        rv = rng.uniform(0.5, 2.0, size=(2,))
        d = E.Tensor(rng.normal(size=(1, 2, 4, 4)))
        gradcheck(lambda: sum_all(E.mul(
            E.batch_norm(x, gamma, beta, rm, rv, "eval"), d)), [x, gamma, beta])

    def test_bilinear_resize(self, rng):
        x = E.Parameter(rng.normal(size=(1, 2, 4, 6)))
        d = E.Tensor(rng.normal(size=(1, 2, 9, 5)))
        gradcheck(lambda: sum_all(E.mul(E.bilinear_resize(x, 9, 5), d)), [x])

    def test_concat(self, rng):
        a = E.Parameter(rng.normal(size=(1, 2, 3, 3)))
        b = E.Parameter(rng.normal(size=(1, 3, 3, 3)))
        d = E.Tensor(rng.normal(size=(1, 5, 3, 3)))
        gradcheck(lambda: sum_all(E.mul(E.concat([a, b]), d)), [a, b])

    def test_channel_reductions(self, rng):
        x = E.Parameter(rng.normal(size=(1, 4, 3, 3)))
        d = E.Tensor(rng.normal(size=(1, 1, 3, 3)))
        gradcheck(lambda: sum_all(E.mul(E.channel_mean(x), d)), [x])
        gradcheck(lambda: sum_all(E.mul(E.channel_max(x), d)), [x])


def test_disconnected_branch_gets_no_grad(rng):
    x = E.Parameter(rng.normal(size=(1, 2, 3, 3)))
    y = E.Parameter(rng.normal(size=(1, 2, 3, 3)))
    E.mul(y, y)  # dead branch, never reaches the loss
    loss = sum_all(E.mul(x, x))
    loss.backward()
    assert x.grad is not None and y.grad is None


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_op_outputs_are_not_scanned():
    # finiteness is checked at the model's boundaries, not inside ops
    big = E.Tensor(np.full((1, 1, 2, 2), 1e200))
    assert np.isinf(E.mul(big, big).data).all()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_armed_checks_name_the_first_faulty_op():
    big = E.Tensor(np.full((1, 1, 2, 2), 1e200))
    with E.op_checks({}):
        with pytest.raises(E.NonFiniteError,
                           match="^mul outside any module, the first op"):
            E.relu(E.mul(big, big))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("meter_outside", [True, False])
def test_armed_checks_name_the_faulty_op_under_a_meter(meter_outside):
    big = E.Tensor(np.full((1, 1, 2, 2), 1e200))
    with ExitStack() as armed:
        if meter_outside:
            meter = armed.enter_context(E.flop_meter())
        armed.enter_context(E.op_checks({}))
        if not meter_outside:
            meter = armed.enter_context(E.flop_meter())
        with pytest.raises(E.NonFiniteError,
                           match="^mul outside any module, the first op"):
            E.relu(E.mul(big, big))
    assert meter.total == 4   # the mul is charged before its output is scanned


@pytest.mark.parametrize("arm, slot", [
    (E.no_grad, "grad_enabled"),
    (E.flop_meter, "meter"),
    (lambda: E.op_checks({}), "checks"),
])
def test_arming_restores_the_previous_state_when_the_block_raises(arm, slot):
    before = getattr(E._state, slot)
    with pytest.raises(KeyError):
        with arm():
            assert getattr(E._state, slot) is not before
            raise KeyError("escapes the block")
    assert getattr(E._state, slot) is before


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_armed_backward_names_the_op_whose_gradient_overflows():
    # forward 1e-300 * 1e300 * 1e10 is finite; d/da = 1e300 * 1e10 is not
    a = E.Parameter(np.array([1e-300]))
    with E.op_checks({}):
        loss = E.mul(E.mul(a, 1e300), 1e10)
        with pytest.raises(E.NonFiniteError,
                           match="^the backward of mul outside any module"):
            loss.backward()
    assert not np.isfinite(a.grad).all()
