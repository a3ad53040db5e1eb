"""Cost model: FLOPs vs the runtime meter, params, receptive fields."""

import numpy as np
import pytest

import lka_seg.engine as E
from lka_seg.analysis import (
    count_flops,
    count_params,
    receptive_field,
    receptive_field_2d,
    rf_table,
)
from lka_seg.blocks import (
    ConvFeedForward,
    KernelSelector,
    LKABlock,
    LargeKernelAttention,
    large_kernel_chain,
)
from lka_seg.context import PyramidPooling
from lka_seg.model import BoundaryGuidedFusion, build_model, preset_config
from lka_seg.nn import Conv2d, Module, Sequential
from helpers import sum_all


@pytest.fixture
def rng():
    return np.random.default_rng(8)


class TestConvCosts:
    def test_one_by_one_conv_is_two_flops(self, rng):
        layer = Conv2d(1, 1, 1, rng, bias=False)
        report = count_flops(layer, (1, 1, 1, 1))
        assert report.total_flops == 2

    def test_three_by_three_conv_288(self, rng):
        layer = Conv2d(1, 1, 3, rng, padding=1, bias=False)
        report = count_flops(layer, (1, 1, 4, 4))
        assert report.total_flops == 2 * 9 * 16

    def test_bias_adds_output_elements(self, rng):
        plain = count_flops(Conv2d(2, 3, 1, rng, bias=False), (1, 2, 4, 4))
        biased = count_flops(Conv2d(2, 3, 1, rng, bias=True), (1, 2, 4, 4))
        assert biased.total_flops - plain.total_flops == 3 * 16


class TestParams:
    def test_conv_formula(self, rng):
        layer = Conv2d(4, 8, 3, rng, bias=True)
        assert count_params(layer) == 4 * 8 * 9 + 8

    def test_zero_layer_model(self):
        class Empty(Module):
            pass

        assert count_params(Empty()) == 0

    def test_report_totals_are_sums(self, rng):
        model = build_model(preset_config("toy", class_count=5), seed=0)
        report = count_flops(model, (1, 3, 64, 64))
        assert report.total_flops == sum(r.flops for r in report.layers)
        assert report.total_params == sum(r.params for r in report.layers)


class TestReceptiveField:
    def test_paper_value_35(self):
        assert receptive_field([(5, 1, 1), (11, 3, 1)]) == 35

    def test_identity(self):
        assert receptive_field([(1, 1, 1)]) == 1

    def test_strided_chain(self):
        assert receptive_field([(3, 1, 1), (3, 1, 2), (3, 1, 1)]) == 9

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            receptive_field([])

    def test_large_kernel_chain_is_35_per_axis(self):
        assert receptive_field_2d(large_kernel_chain()) == (35, 35)

    def test_matches_impulse_oracle(self, rng):
        # input support of one output = nonzero footprint of its gradient
        specs = [(3, 1, 1), (3, 1, 2), (3, 1, 1)]
        mods, c = [], 1
        for k, d, s in specs:
            conv = Conv2d(c, c, k, rng, stride=s, dilation=d, bias=False)
            conv.weight.data[:] = 1.0
            mods.append(conv)
        x = E.Parameter(np.ones((1, 1, 41, 41)))
        out = x
        for m in mods:
            out = m(out, "eval")
        center = np.zeros_like(out.data)
        center[0, 0, out.data.shape[2] // 2, out.data.shape[3] // 2] = 1.0
        sum_all(E.mul(out, E.Tensor(center))).backward()
        nz = np.abs(x.grad[0, 0]) > 0
        rows = np.flatnonzero(nz.any(axis=1))
        cols = np.flatnonzero(nz.any(axis=0))
        rf = receptive_field(specs)
        assert rows[-1] - rows[0] + 1 == rf
        assert cols[-1] - cols[0] + 1 == rf


class TestStaticEqualsRuntime:
    """The static walk must match the armed meter to the integer."""

    def _assert_equal(self, module, shape, call=None):
        x = E.Tensor(np.random.default_rng(0).uniform(size=shape))
        with E.no_grad(), E.flop_meter() as meter:
            (call or (lambda m, t: m(t, "eval")))(module, x)
        records, _ = (module.cost(shape) if call is None
                      else call(module, None))
        static = sum(r.flops for r in records)
        assert static == meter.total

    def test_attention_block(self, rng):
        self._assert_equal(LargeKernelAttention(6, rng), (1, 6, 10, 10))

    def test_selector(self, rng):
        sel = KernelSelector(4, rng)
        x = [E.Tensor(np.random.default_rng(i).uniform(size=(1, 4, 6, 6)))
             for i in range(3)]
        with E.no_grad(), E.flop_meter() as meter:
            sel(x, "eval")
        records, _ = sel.cost((1, 4, 6, 6))
        assert sum(r.flops for r in records) == meter.total

    def test_ffn_and_block(self, rng):
        self._assert_equal(ConvFeedForward(5, rng), (2, 5, 7, 7))
        self._assert_equal(LKABlock(4, rng), (1, 4, 8, 8))

    def test_pyramid_both_styles(self, rng):
        for style in ("dappm", "dlkppm"):
            self._assert_equal(PyramidPooling(6, 8, rng, hidden=3, style=style),
                               (1, 6, 32, 32))

    def test_fusion_learned_and_fixed(self, rng):
        for fixed in (None, 0.5):
            fuse = BoundaryGuidedFusion(4, 6, 4, 5, rng, fixed_sigma=fixed)
            d = E.Tensor(np.random.default_rng(0).uniform(size=(1, 4, 8, 8)))
            s = E.Tensor(np.random.default_rng(1).uniform(size=(1, 6, 8, 8)))
            b = E.Tensor(np.random.default_rng(2).uniform(size=(1, 4, 8, 8)))
            with E.no_grad(), E.flop_meter() as meter:
                fuse(d, s, b, "eval")
            records, _ = fuse.cost((1, 4, 8, 8), (1, 6, 8, 8), (1, 4, 8, 8))
            assert sum(r.flops for r in records) == meter.total

    @pytest.mark.parametrize("preset", ["toy", "small"])
    def test_full_model(self, preset):
        model = build_model(preset_config(preset, class_count=5), seed=0)
        x = E.Tensor(np.random.default_rng(3).uniform(size=(1, 3, 64, 64)))
        with E.no_grad(), E.flop_meter() as meter:
            model(x, "eval")
        report = count_flops(model, (1, 3, 64, 64))
        assert report.total_flops == meter.total

    def test_armed_checks_leave_the_total_unchanged(self):
        # the tracer arms a meter for a whole run, and a non-finite forward
        # inside it arms checks; checks can also wrap a meter
        model = build_model(preset_config("toy", class_count=5), seed=0)
        x = E.Tensor(np.random.default_rng(3).uniform(size=(1, 3, 64, 64)))
        with E.no_grad(), E.flop_meter() as bare:
            model(x, "eval")
        with E.no_grad(), E.flop_meter() as outside, E.op_checks({}):
            model(x, "eval")
        with E.no_grad(), E.op_checks({}), E.flop_meter() as inside:
            model(x, "eval")
        assert type(bare.total) is int
        assert outside.total == inside.total == bare.total > 0

    def test_additivity_over_composition(self, rng):
        a = Conv2d(3, 5, 3, rng, padding=1)
        b = Conv2d(5, 2, 1, rng)
        seq = Sequential(a, b)
        ra = count_flops(a, (1, 3, 8, 8)).total_flops
        rb = count_flops(b, (1, 5, 8, 8)).total_flops
        assert count_flops(seq, (1, 3, 8, 8)).total_flops == ra + rb


def test_model_rf_table_lists_large_path():
    model = build_model(preset_config("toy", class_count=5), seed=0)
    table = rf_table(model)
    assert table["lka_large"] == (35, 35)
    assert table["context_gate"] == (35, 35)
    assert table["lka_small"] == (5, 5)
