"""Fusion gate contracts and the assembled bilateral network."""

import numpy as np
import pytest
from scipy.special import expit

import lka_seg.engine as E
from lka_seg.model import (
    BoundaryGuidedFusion,
    ModelConfig,
    build_model,
    preset_config,
)
from helpers import randomize_norms, sum_all
from oracles import conv2d_naive, rel_err


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def _fusion_inputs(rng, n=1, h=6, w=6):
    detail = E.Tensor(rng.normal(size=(n, 4, h, w)))
    semantic = E.Tensor(rng.normal(size=(n, 6, h, w)))
    boundary = E.Tensor(rng.normal(size=(n, 4, h, w)))
    return detail, semantic, boundary


def _blend(fuse, detail, semantic, boundary, sigma=None):
    """Gate value, refined inputs and balanced blend, rebuilt from the
    fusion's own parts; checks that `fuse` outputs out_conv(blend + shortcut).
    """
    if sigma is None:
        sigma = expit(fuse.gate(boundary, "eval").data)
    rd = fuse.detail_refine(detail, "eval").data
    rs = fuse.semantic_refine(semantic, "eval").data
    balanced = sigma * rd + (1.0 - sigma) * rs
    shortcut = fuse.shortcut(detail, "eval").data
    expected = fuse.out_conv(E.Tensor(balanced + shortcut), "eval").data
    assert rel_err(fuse(detail, semantic, boundary, "eval").data, expected) < 1e-12
    return sigma, rd, rs, balanced


class TestBoundaryGuidedFusion:
    def test_zero_gate_means_even_blend(self, rng):
        fuse = BoundaryGuidedFusion(4, 6, 4, 5, rng)
        fuse.gate.weight.data[:] = 0
        fuse.gate.bias.data[:] = 0
        sigma, rd, rs, balanced = _blend(fuse, *_fusion_inputs(rng))
        assert np.allclose(sigma, 0.5)
        assert rel_err(balanced, 0.5 * (rd + rs)) < 1e-14

    def test_saturated_gate_selects_detail(self, rng):
        fuse = BoundaryGuidedFusion(4, 6, 4, 5, rng)
        fuse.gate.weight.data[:] = 0
        fuse.gate.bias.data[:] = 40.0
        _, rd, _, balanced = _blend(fuse, *_fusion_inputs(rng))
        assert np.abs(balanced - rd).max() < 1e-12

    def test_sigma_strictly_inside_unit_interval(self, rng):
        fuse = BoundaryGuidedFusion(4, 6, 4, 5, rng)
        sigma = _blend(fuse, *_fusion_inputs(rng))[0]
        assert (sigma > 0).all() and (sigma < 1).all()

    def test_monotone_toward_detail(self, rng):
        fuse = BoundaryGuidedFusion(4, 6, 4, 5, rng)
        inputs = _fusion_inputs(rng)
        gaps = []
        for bias in (0.0, 1.0, 2.0, 4.0):
            fuse.gate.bias.data[:] = bias
            _, rd, _, balanced = _blend(fuse, *inputs)
            gaps.append(np.abs(balanced - rd))
        for a, b in zip(gaps, gaps[1:]):
            assert (b <= a + 1e-15).all()

    def test_matches_scalar_oracle(self, rng):
        fuse = BoundaryGuidedFusion(3, 4, 3, 4, rng)
        randomize_norms(fuse, rng)
        n, h, w = 1, 5, 5
        detail = rng.normal(size=(n, 3, h, w))
        semantic = rng.normal(size=(n, 4, h, w))
        boundary = rng.normal(size=(n, 3, h, w))
        out = fuse(E.Tensor(detail), E.Tensor(semantic), E.Tensor(boundary),
                   "eval").data

        def bn_eval(x, bn):
            inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
            return (bn.gamma.data * (x.transpose(0, 2, 3, 1) - bn.running_mean)
                    * inv + bn.beta.data).transpose(0, 3, 1, 2)

        def refine(x, seq):
            bn, _, conv = seq._items
            h_ = np.maximum(bn_eval(x, bn), 0.0)
            return conv2d_naive(h_, conv.weight.data, None, (1, 1), (1, 1),
                                (1, 1), 1)

        gate = fuse.gate
        sig = expit(conv2d_naive(boundary, gate.weight.data, gate.bias.data,
                                 gate.stride, gate.padding, gate.dilation, 1))
        balanced = sig * refine(detail, fuse.detail_refine) \
            + (1 - sig) * refine(semantic, fuse.semantic_refine)
        shortcut = conv2d_naive(detail, fuse.shortcut.weight.data, None,
                                (1, 1), (0, 0), (1, 1), 1)
        expected = conv2d_naive(balanced + shortcut, fuse.out_conv.weight.data,
                                None, (1, 1), (1, 1), (1, 1), 1)
        assert rel_err(out, expected) < 1e-12

    def test_fixed_sigma_bypasses_gate(self, rng):
        fuse = BoundaryGuidedFusion(4, 6, 4, 5, rng, fixed_sigma=0.5)
        inputs = _fusion_inputs(rng)
        _blend(fuse, *inputs, sigma=0.5)
        fuse.gate.bias.data[:] = 40.0
        _blend(fuse, *inputs, sigma=0.5)

    def test_spatial_mismatch_rejected(self, rng):
        fuse = BoundaryGuidedFusion(4, 6, 4, 5, rng)
        detail = E.Tensor(np.zeros((1, 4, 6, 6)))
        semantic = E.Tensor(np.zeros((1, 6, 3, 3)))
        boundary = E.Tensor(np.zeros((1, 4, 6, 6)))
        with pytest.raises(ValueError, match="resize first"):
            fuse(detail, semantic, boundary, "eval")


class TestBuildModel:
    def test_same_seed_identical_parameters(self):
        cfg = preset_config("toy", class_count=5)
        a = build_model(cfg, seed=123)
        b = build_model(cfg, seed=123)
        for (name_a, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name_a)

    def test_different_seed_differs(self):
        cfg = preset_config("toy", class_count=5)
        a = build_model(cfg, seed=1)
        b = build_model(cfg, seed=2)
        assert any(not np.array_equal(pa.data, pb.data)
                   for (_, pa), (_, pb) in zip(a.named_parameters(),
                                               b.named_parameters()))

    def test_invalid_configs_fail_at_build(self):
        with pytest.raises(ValueError, match="class_count"):
            build_model(ModelConfig(class_count=1))
        with pytest.raises(ValueError, match="ppm"):
            build_model(ModelConfig(ppm="pappm"))
        with pytest.raises(ValueError, match="fixed_gate"):
            build_model(ModelConfig(fixed_gate=1.5))
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("huge")

    def test_param_count_matches_independent_walk(self):
        from lka_seg.analysis import count_params
        model = build_model(preset_config("toy", class_count=5), seed=0)

        def walk(mod):
            total = sum(int(np.prod(p.data.shape)) for p in mod._params.values())
            return total + sum(walk(c) for c in mod._children.values())

        assert walk(model) == count_params(model)


class TestForward:
    def test_output_shapes(self, rng):
        model = build_model(preset_config("toy", class_count=5), seed=0)
        x = E.Tensor(rng.uniform(size=(1, 3, 64, 64)))
        out = model(x, "eval")
        assert out.seg_logits.data.shape == (1, 5, 64, 64)
        assert out.boundary_logits.data.shape == (1, 1, 8, 8)
        assert out.aux_logits is None

    def test_train_mode_emits_aux(self, rng):
        model = build_model(preset_config("toy", class_count=4), seed=0)
        x = E.Tensor(rng.uniform(size=(2, 3, 64, 64)))
        out = model(x, "train")
        assert out.aux_logits.data.shape == (2, 4, 64, 64)

    def test_eval_deterministic(self, rng):
        model = build_model(preset_config("toy", class_count=3), seed=0)
        x = E.Tensor(rng.uniform(size=(1, 3, 64, 64)))
        a = model(x, "eval").seg_logits.data
        b = model(x, "eval").seg_logits.data
        np.testing.assert_array_equal(a, b)

    def test_input_contract(self, rng):
        model = build_model(preset_config("toy"), seed=0)
        with pytest.raises(ValueError, match="divisible by 64"):
            model(E.Tensor(np.zeros((1, 3, 48, 64))), "eval")
        with pytest.raises(ValueError, match=r"\(n, 3, h, w\)"):
            model(E.Tensor(np.zeros((1, 4, 64, 64))), "eval")
        with pytest.raises(ValueError, match="mode"):
            model(E.Tensor(np.zeros((1, 3, 64, 64))), "test")

    @pytest.mark.parametrize("h, w", [(0, 64), (64, 0), (-64, 64), (64, -128)])
    def test_forward_and_cost_reject_non_positive_sizes(self, h, w):
        model = build_model(preset_config("toy"), seed=0)
        with pytest.raises(ValueError, match="positive and divisible by 64"):
            model.cost((1, 3, h, w))
        if h >= 0 and w >= 0:
            with pytest.raises(ValueError, match="positive and divisible by 64"):
                model(E.Tensor(np.zeros((1, 3, h, w))), "eval")

    def test_logits_finite_on_random_input(self, rng):
        model = build_model(preset_config("toy", class_count=5), seed=7)
        x = E.Tensor(rng.uniform(size=(2, 3, 64, 64)))
        out = model(x, "train")
        assert np.isfinite(out.seg_logits.data).all()
        assert np.isfinite(out.boundary_logits.data).all()
        assert np.isfinite(out.aux_logits.data).all()


def _audit_loss(model, x, rng):
    out = model(x, "train")
    loss = sum_all(E.mul(out.seg_logits,
                           E.Tensor(rng.normal(size=out.seg_logits.data.shape))))
    for extra in (out.aux_logits, out.boundary_logits):
        loss = E.add(loss, sum_all(E.mul(
            extra, E.Tensor(rng.normal(size=extra.data.shape)))))
    return loss


class TestGradients:
    def test_every_parameter_connected(self, rng):
        model = build_model(preset_config("toy", class_count=4), seed=3)
        x = E.Tensor(rng.uniform(size=(4, 3, 64, 64)))
        loss = _audit_loss(model, x, np.random.default_rng(0))
        loss.backward()
        dead = [name for name, p in model.named_parameters()
                if p.grad is None or np.abs(p.grad).max() == 0]
        assert dead == []

    def test_spot_finite_differences(self, rng):
        # 10 random scalar parameters of the toy model, rel err < 1e-5
        model = build_model(preset_config("toy", class_count=3), seed=1)
        randomize_norms(model, rng)
        x = E.Tensor(rng.uniform(size=(1, 3, 64, 64)))
        dir_rng = np.random.default_rng(5)
        loss = _audit_loss(model, x, dir_rng)
        loss.backward()

        params = list(model.named_parameters())
        pick = np.random.default_rng(11)
        chosen = []
        for _ in range(10):
            name, p = params[pick.integers(len(params))]
            flat = int(pick.integers(p.data.size))
            chosen.append((name, p, flat))

        noise_floor = max(1e-8, abs(float(loss.data)) * 1e-10)  # FD roundoff scale
        for name, p, flat in chosen:
            grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()[flat]
            orig = p.data.ravel()[flat]
            eps = 1e-5

            def f(v):
                p.data.ravel()[flat] = v
                with E.no_grad():
                    val = float(_audit_loss(model, x, np.random.default_rng(5)).data)
                p.data.ravel()[flat] = orig
                return val

            fd = (f(orig + eps) - f(orig - eps)) / (2 * eps)
            if abs(grad - fd) < noise_floor:
                continue
            denom = max(abs(grad), abs(fd))
            assert abs(grad - fd) / denom < 1e-5, (name, flat, grad, fd)


def _batched_vs_looped(monkeypatch, run):
    """`run()` with the depthwise forward at its default crossover, then
    with every depthwise call forced onto the tap loop."""
    default = run()
    monkeypatch.setattr(E, "_DW_BATCH_MAX", 0)
    return default, run()


def test_depthwise_crossover_keeps_model_bits(monkeypatch):
    cfg = preset_config("toy", class_count=5, fuse_width=48, head_width=48)
    x = np.random.default_rng(12).normal(size=(1, 3, 64, 64))

    def logits():
        with E.no_grad():
            out = build_model(cfg, seed=2)(E.Tensor(x), "eval")
        return out.seg_logits.data.tobytes() + out.boundary_logits.data.tobytes()

    default, looped = _batched_vs_looped(monkeypatch, logits)
    assert default == looped


def test_depthwise_crossover_keeps_train_step_bits(monkeypatch):
    from lka_seg import training
    from lka_seg.data_io import SynthSpec, synth_dataset

    cfg = preset_config("toy", class_count=5, fuse_width=48, head_width=48)
    data = synth_dataset(SynthSpec(seed=7, count=4, height=64, width=64,
                                   class_count=5))
    images, labels = training._collate(data)

    def step():
        model = build_model(cfg, seed=2)
        loss = training._train_step(model, images, labels)
        state = [p.grad for _, p in model.named_parameters()]
        state += [v for _, v in model.named_buffers()]
        return repr(loss), [a.tobytes() for a in state]

    default, looped = _batched_vs_looped(monkeypatch, step)
    assert default == looped
