"""Losses, schedule, optimizer, metrics, and loop behavior."""

import dataclasses
import hashlib
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

import lka_seg.engine as E
from lka_seg import data_io
from lka_seg import model as model_module
from lka_seg import training
from lka_seg.data_io import SynthSpec, save_checkpoint, synth_dataset
from lka_seg.model import ModelConfig, build_model
from lka_seg.training import (
    ConfusionMatrix,
    NumericalAbort,
    OhemConfig,
    SGD,
    TrainConfig,
    boundary_bce,
    boundary_target_at_scale,
    cross_entropy,
    evaluate,
    history_csv,
    miou,
    ohem_cross_entropy,
    poly_lr,
    train_model,
)
from oracles import (boundary_target_one_hot, cross_entropy_naive,
                     ohem_two_softmax, rel_err)


@pytest.fixture
def rng():
    return np.random.default_rng(21)


TINY_MODEL = ModelConfig(class_count=3, stem_width=4, low_width=4, mid_width=6,
                         high_width=8, blocks_per_stage=1, fuse_width=6,
                         head_width=6)


def tiny_data(count, seed=5, k=3, size=64):
    return synth_dataset(SynthSpec(seed=seed, count=count, height=size,
                                   width=size, class_count=k, min_shape=16))


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 3, 2, 2))
        logits[:, 1] = 50.0
        labels = np.ones((1, 2, 2), dtype=int)
        loss = cross_entropy(E.Tensor(logits), labels)
        assert loss.item() < 1e-10

    def test_uniform_logits_log_k(self):
        loss = cross_entropy(E.Tensor(np.zeros((1, 4, 3, 3))),
                             np.zeros((1, 3, 3), dtype=int))
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_matches_scalar_oracle(self, rng):
        logits = rng.normal(size=(2, 5, 4, 4)) * 3
        labels = rng.integers(0, 5, size=(2, 4, 4))
        labels[0, 0, 0] = 255
        loss = cross_entropy(E.Tensor(logits), labels, ignore_index=255)
        ref = cross_entropy_naive(logits, labels, 255)
        assert abs(loss.item() - ref) < 1e-12

    def test_all_ignored_gives_zero_with_zero_grads(self):
        logits = E.Parameter(np.random.default_rng(0).normal(size=(1, 3, 2, 2)))
        labels = np.full((1, 2, 2), 255)
        loss = cross_entropy(logits, labels)
        assert loss.item() == 0.0
        loss.backward()
        assert (logits.grad == 0).all()

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            cross_entropy(E.Tensor(np.zeros((1, 3, 1, 1))),
                          np.array([[[7]]]), ignore_index=255)

    def test_gradient(self, rng):
        logits = E.Parameter(rng.normal(size=(1, 4, 3, 3)))
        labels = rng.integers(0, 4, size=(1, 3, 3))
        loss = cross_entropy(logits, labels)
        loss.backward()
        got = logits.grad.copy()
        from oracles import fd_gradient
        fd = fd_gradient(
            lambda: cross_entropy(E.Tensor(logits.data), labels).item(),
            logits.data)
        assert rel_err(got, fd) < 1e-6


class TestOhem:
    def test_threshold_one_is_plain_ce(self, rng):
        for _ in range(10):
            logits = E.Tensor(rng.normal(size=(2, 4, 5, 5)))
            labels = rng.integers(0, 4, size=(2, 5, 5))
            a = ohem_cross_entropy(logits, labels, OhemConfig(1.0, 1))
            b = cross_entropy(E.Tensor(logits.data), labels)
            assert a.item() == b.item()  # bit-for-bit

    def test_min_kept_all_is_plain_ce(self, rng):
        for _ in range(10):
            logits = E.Tensor(rng.normal(size=(1, 3, 4, 4)) * 5)
            labels = rng.integers(0, 3, size=(1, 4, 4))
            cfg = OhemConfig(0.0001, labels.size)
            a = ohem_cross_entropy(logits, labels, cfg)
            b = cross_entropy(E.Tensor(logits.data), labels)
            assert a.item() == b.item()

    def test_three_pixel_hand_case(self):
        # p_true = 0.9, 0.6, 0.3; threshold 0.7 keeps the last two
        probs = [0.9, 0.6, 0.3]
        logits = np.zeros((1, 2, 1, 3))
        for i, p in enumerate(probs):
            logits[0, 0, 0, i] = math.log(p / (1 - p))
        labels = np.zeros((1, 1, 3), dtype=int)
        loss = ohem_cross_entropy(E.Tensor(logits), labels, OhemConfig(0.7, 1))
        expected = (-math.log(0.6) - math.log(0.3)) / 2
        assert abs(loss.item() - expected) < 1e-12

    def test_min_kept_floor_applies(self):
        probs = [0.9, 0.8, 0.3]
        logits = np.zeros((1, 2, 1, 3))
        for i, p in enumerate(probs):
            logits[0, 0, 0, i] = math.log(p / (1 - p))
        labels = np.zeros((1, 1, 3), dtype=int)
        # only one pixel under 0.7, but min_kept = 2 pulls in the next hardest
        loss = ohem_cross_entropy(E.Tensor(logits), labels, OhemConfig(0.7, 2))
        expected = (-math.log(0.8) - math.log(0.3)) / 2
        assert abs(loss.item() - expected) < 1e-12

    def test_min_kept_clamped_to_valid(self, rng):
        logits = E.Tensor(rng.normal(size=(1, 3, 2, 2)))
        labels = rng.integers(0, 3, size=(1, 2, 2))
        labels[0, 0, :] = 255
        loss = ohem_cross_entropy(logits, labels, OhemConfig(0.5, 10 ** 6))
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("threshold, min_kept, ignored", [
        (1.0, 1, 0.0),        # no mining: every valid pixel
        (0.7, 1, 0.0),        # hard pixels only
        (0.05, 40, 0.0),      # fewer hard pixels than min_kept: argpartition
        (0.7, 1, 1.0),        # an all-ignored batch
        (0.7, 1, 0.3),        # ignored pixels among kept ones
        (0.05, 40, 0.3),
    ], ids=["threshold-1", "hard", "min-kept", "all-ignored", "ignored-kept",
            "ignored-min-kept"])
    def test_bytes_match_two_softmax_form(self, threshold, min_kept, ignored):
        # the mining softmax and the loss share z and its exp-sum; the loss
        # and gradient must keep the bytes of computing each from scratch
        rng = np.random.default_rng(int(threshold * 100) + min_kept)
        for _ in range(8):
            x = rng.normal(size=(2, 5, 6, 7)) * 10.0 ** rng.uniform(-2, 1.5)
            labels = rng.integers(0, 5, size=(2, 6, 7))
            labels[rng.random(labels.shape) < ignored] = 255
            logits = E.Parameter(x)
            loss = ohem_cross_entropy(logits, labels, OhemConfig(threshold, min_kept))
            loss.backward()
            want_loss, want_grad = ohem_two_softmax(x, labels, threshold, min_kept)
            assert loss.data.tobytes() == np.asarray(want_loss).tobytes()
            assert logits.grad.tobytes() == want_grad.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OhemConfig(0.0, 1)
        with pytest.raises(ValueError):
            OhemConfig(0.5, 0)


class TestBoundaryBce:
    def test_saturated_predictions_near_zero(self):
        mask = np.array([[[1.0, 0.0]]])
        logits = E.Tensor(np.array([[[[40.0, -40.0]]]]))
        assert boundary_bce(logits, mask).item() < 1e-12

    def test_all_zero_mask_is_negative_mean(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        mask = np.zeros((1, 3, 3))
        loss = boundary_bce(E.Tensor(x), mask)
        expected = np.mean(np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x))))
        assert abs(loss.item() - expected) < 1e-12

    def test_matches_scalar_oracle(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        mask = (rng.random((1, 4, 4)) < 0.3).astype(float)
        loss = boundary_bce(E.Tensor(x), mask)
        n_pos = mask.sum()
        n_neg = mask.size - n_pos
        total = 0.0
        for i in range(4):
            for j in range(4):
                v = x[0, 0, i, j]
                y = mask[0, i, j]
                bce = max(v, 0) - v * y + math.log1p(math.exp(-abs(v)))
                w = (y / n_pos + (1 - y) / n_neg) / 2
                total += bce * w
        assert abs(loss.item() - total) < 1e-12

    def test_gradient(self, rng):
        logits = E.Parameter(rng.normal(size=(1, 1, 3, 3)))
        mask = (rng.random((1, 3, 3)) < 0.4).astype(float)
        loss = boundary_bce(logits, mask)
        loss.backward()
        from oracles import fd_gradient
        fd = fd_gradient(
            lambda: boundary_bce(E.Tensor(logits.data), mask).item(),
            logits.data)
        assert rel_err(logits.grad, fd) < 1e-6

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            boundary_bce(E.Tensor(np.zeros((1, 1, 2, 2))),
                         np.full((1, 2, 2), 0.5))


class TestPolyLr:
    def test_endpoints(self):
        assert poly_lr(0.01, 0, 1000, 0.9) == 0.01
        assert poly_lr(0.01, 1000, 1000, 0.9) == 0.0

    def test_midpoint_frozen_value(self):
        assert abs(poly_lr(0.01, 500, 1000, 0.9) - 5.358867312681466e-3) < 1e-15

    def test_strictly_decreasing(self):
        values = [poly_lr(0.1, i, 100, 0.9) for i in range(101)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            poly_lr(0.1, -1, 10)
        with pytest.raises(ValueError):
            poly_lr(0.1, 11, 10)
        with pytest.raises(ValueError):
            poly_lr(0.1, 1, 10, power=0.0)


class TestSgd:
    def test_vanilla_step(self):
        p = E.Parameter(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -1.0])
        opt = SGD([("p", p)], momentum=0.0, weight_decay=0.0)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [1.0 - 0.05, 2.0 + 0.1])

    def test_zero_grad_is_identity(self):
        p = E.Parameter(np.array([3.0]))
        opt = SGD([("p", p)], momentum=0.9, weight_decay=0.0)
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_lr_zero_is_identity(self):
        p = E.Parameter(np.array([3.0]))
        p.grad = np.array([7.0])
        opt = SGD([("p", p)], momentum=0.9, weight_decay=1e-2)
        opt.step(lr=0.0)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_two_steps_match_hand_recursion(self):
        w0, g1, g2 = 2.0, 0.3, -0.2
        mom, wd, lr = 0.9, 0.01, 0.5
        p = E.Parameter(np.array([w0]))
        opt = SGD([("p", p)], momentum=mom, weight_decay=wd)
        p.grad = np.array([g1])
        opt.step(lr)
        v1 = g1 + wd * w0
        w1 = w0 - lr * v1
        np.testing.assert_allclose(p.data, [w1], rtol=1e-15)
        p.grad = np.array([g2])
        opt.step(lr)
        v2 = mom * v1 + g2 + wd * w1
        np.testing.assert_allclose(p.data, [w1 - lr * v2], rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        p = E.Parameter(np.zeros(3))
        p.grad = np.zeros(4)
        opt = SGD([("p", p)])
        with pytest.raises(ValueError, match="shape"):
            opt.step(0.1)


class TestMiou:
    def test_perfect_prediction(self):
        cm = ConfusionMatrix(3).update([0, 1, 2, 2], [0, 1, 2, 2])
        per, mean = miou(cm)
        assert mean == 1.0

    def test_inverted_binary_is_zero(self):
        cm = ConfusionMatrix(2).update([1, 0, 1], [0, 1, 0])
        _, mean = miou(cm)
        assert mean == 0.0

    def test_hand_counted_case(self):
        cm = ConfusionMatrix(3).update([0, 1, 2, 1], [0, 1, 2, 2])
        per, mean = miou(cm)
        np.testing.assert_allclose(per, [1.0, 0.5, 0.5])
        assert abs(mean - 2 / 3) < 1e-15

    def test_absent_class_excluded(self):
        cm = ConfusionMatrix(4).update([0, 1], [0, 1])
        per, mean = miou(cm)
        assert np.isnan(per[2]) and np.isnan(per[3])
        assert mean == 1.0

    def test_permutation_invariance(self, rng):
        truth = rng.integers(0, 4, size=200)
        pred = rng.integers(0, 4, size=200)
        _, base = miou(ConfusionMatrix(4).update(pred, truth))
        perm = np.array([2, 3, 1, 0])
        _, permuted = miou(ConfusionMatrix(4).update(perm[pred], perm[truth]))
        assert abs(base - permuted) < 1e-15

    def test_range_and_total(self, rng):
        truth = rng.integers(0, 3, size=500)
        pred = rng.integers(0, 3, size=500)
        cm = ConfusionMatrix(3).update(pred, truth, ignore_index=None)
        per, mean = miou(cm)
        assert cm.total() == 500
        assert 0.0 <= mean <= 1.0

    def test_ignore_index_not_scored(self):
        cm = ConfusionMatrix(2).update([0, 1], [0, 255], ignore_index=255)
        assert cm.total() == 1


class TestTrainLoop:
    def test_lr_zero_leaves_parameters_unchanged(self):
        model = build_model(TINY_MODEL, seed=0)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        data = tiny_data(4)
        cfg = TrainConfig(epochs=1, batch_size=4, base_lr=0.0, seed=0)
        train_model(model, data, data, cfg)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_identical_seeds_identical_history(self):
        data = tiny_data(8)
        cfg = TrainConfig(epochs=2, batch_size=4, base_lr=0.05, seed=3)
        h1 = train_model(build_model(TINY_MODEL, seed=3), data[:6], data[6:], cfg)
        h2 = train_model(build_model(TINY_MODEL, seed=3), data[:6], data[6:], cfg)
        assert history_csv(h1) == history_csv(h2)

    def test_loss_finite_and_nonnegative(self):
        data = tiny_data(8)
        cfg = TrainConfig(epochs=2, batch_size=4, base_lr=0.05, seed=1)
        history = train_model(build_model(TINY_MODEL, seed=1), data[:6], data[6:], cfg)
        for row in history:
            assert np.isfinite(row["loss"]) and row["loss"] >= 0.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_abort_names_offender(self):
        model = build_model(TINY_MODEL, seed=0)
        next(iter(model.parameters())).data[0] = np.inf
        data = tiny_data(4)
        cfg = TrainConfig(epochs=1, batch_size=4, base_lr=0.01, seed=0)
        with pytest.raises(NumericalAbort, match="parameter|gradient"):
            train_model(model, data, data, cfg)

    @pytest.fixture
    def reruns(self, monkeypatch):
        """Model state (parameter bytes, then buffer bytes) on entry to and
        on exit from every diagnostic re-run."""
        states = []

        def spy(real):
            def locate(model, run, what):
                def state():
                    return ([p.data.tobytes() for p in model.parameters()]
                            + [b.tobytes() for _, b in model.named_buffers()])
                states.append(state())
                try:
                    real(model, run, what)
                finally:
                    states.append(state())
            return locate

        for owner in (model_module, training):
            monkeypatch.setattr(owner, "locate_nonfinite",
                                spy(owner.locate_nonfinite))
        return states

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_op_overflow_names_op_and_leaves_failed_state(self, reruns):
        # step 0 scales the weights to ~1e300; step 1's forward overflows
        # inside an op while every parameter is still finite
        model = build_model(TINY_MODEL, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=4, base_lr=1e300, seed=0)
        with pytest.raises(NumericalAbort,
                           match=r"iteration 1: non-finite model output, traced "
                                 r"to \w+ at [\w.]+, the first op"):
            train_model(model, tiny_data(4), [], cfg)
        assert len(reruns) == 2
        assert reruns[0] == reruns[1]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_gradient_aborts_before_the_step(self, monkeypatch, reruns):
        real_bce = training.boundary_bce

        def overflowing_bce(logits, mask):
            loss = real_bce(logits, mask)
            return E.custom_op(loss.data, (logits,), lambda g: E._acc(
                logits, np.full(logits.data.shape, np.inf)))

        monkeypatch.setattr(training, "boundary_bce", overflowing_bce)
        model = build_model(TINY_MODEL, seed=0)
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(epochs=1, batch_size=4, base_lr=0.01, seed=0)
        with pytest.raises(NumericalAbort,
                           match="iteration 0: non-finite gradient, traced to the "
                                 "backward of overflowing_bce outside any module"
                                 ".*; first non-finite gradient "):
            train_model(model, tiny_data(4), [], cfg)
        for p, old in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, old)
        assert len(reruns) == 2
        assert reruns[0] == reruns[1]

    def test_bad_label_is_not_numerical(self):
        model = build_model(TINY_MODEL, seed=0)
        data = tiny_data(4, k=5)
        cfg = TrainConfig(epochs=1, batch_size=4, base_lr=0.01, seed=0)
        with pytest.raises(ValueError, match="outside") as err:  # not NumericalAbort
            train_model(model, data, data, cfg)
        # plain integers, not numpy scalars' reprs
        assert re.search(r"^label [34] at \(\d+, \d+, \d+\) outside",
                         str(err.value)), err.value

    def test_empty_dataset_rejected(self):
        model = build_model(TINY_MODEL, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_model(model, [], [], TrainConfig(epochs=1))

    def test_overfit_one_batch_halves_loss(self):
        # toy config, one batch of 4, 50 steps: final loss < 50% of first
        from lka_seg.model import preset_config
        model = build_model(preset_config("toy", class_count=5), seed=0)
        data = synth_dataset(SynthSpec(seed=11, count=4, class_count=5,
                                       min_shape=20))
        cfg = TrainConfig(epochs=50, batch_size=4, base_lr=0.05, seed=0)
        history = train_model(model, data, [], cfg)
        assert history[-1]["loss"] < 0.5 * history[0]["loss"]


def test_evaluate_on_tiny_model():
    model = build_model(TINY_MODEL, seed=2)
    data = tiny_data(6)
    per, mean = evaluate(model, data, 3, batch_size=4)
    assert 0.0 <= mean <= 1.0
    per2, mean2 = evaluate(model, data, 3, batch_size=3)
    assert abs(mean - mean2) < 1e-15


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_batch_below_one(batch_size):
    model = build_model(TINY_MODEL, seed=2)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        evaluate(model, tiny_data(2), 3, batch_size=batch_size)


class ForwardSpy:
    """Model stand-in that records (images, mode) of every forward."""

    def __init__(self, model):
        self.model = model
        self.forwards = []

    def __call__(self, x, mode="eval"):
        self.forwards.append((x.data.shape[0], mode))
        return self.model(x, mode)

    def __getattr__(self, name):
        return getattr(self.model, name)


class TestEvaluateChunks:
    @pytest.mark.parametrize("size,forwards", [(256, [2, 2, 2, 2]), (64, [8])])
    def test_forwards_hold_at_most_eval_pixels(self, size, forwards):
        spy = ForwardSpy(build_model(TINY_MODEL, seed=2))
        evaluate(spy, tiny_data(8, size=size), 3, batch_size=8)
        assert spy.forwards == [(n, "eval") for n in forwards]

    def test_training_validation_at_64_forwards_8_at_a_time(self):
        spy = ForwardSpy(build_model(TINY_MODEL, seed=2))
        cfg = TrainConfig(epochs=1, batch_size=4, base_lr=0.05, seed=0)
        train_model(spy, tiny_data(4), tiny_data(10, seed=6), cfg)
        assert [n for n, mode in spy.forwards if mode == "eval"] == [8, 2]

    @pytest.mark.parametrize("size", [64, 256])
    def test_per_class_iou_bytes_do_not_depend_on_batch_size(self, size):
        model = build_model(TINY_MODEL, seed=2)
        data = tiny_data(8, size=size)
        results = [evaluate(model, data, 3, batch_size=b) for b in (1, 2, 8)]
        for per_class, mean in results[1:]:
            assert per_class.tobytes() == results[0][0].tobytes()
            assert mean == results[0][1]

    def test_empty_dataset_scores_zero(self):
        per_class, mean = evaluate(build_model(TINY_MODEL, seed=2), [], 3)
        assert mean == 0.0 and np.isnan(per_class).all()


class TestBoundaryTarget:
    def test_tile_majority_decides_at_factor_8(self):
        # 16x16 labels -> 2x2 tiles of 64 pixels; radius 1 spans all tiles
        majority_one = np.zeros((16, 16), np.int64)
        majority_one[:5, :8] = 1          # 40 of tile (0, 0)'s 64 pixels
        minority_only = np.zeros((16, 16), np.int64)
        minority_only[:3, :8] = 1         # 24 of tile (0, 0)'s pixels
        minority_only[8:11, 8:] = 1       # 24 of tile (1, 1)'s pixels
        target = boundary_target_at_scale(np.stack([majority_one, minority_only]), 8)
        assert target.dtype == np.float64 and target.shape == (2, 1, 2, 2)
        np.testing.assert_array_equal(target[0, 0], np.ones((2, 2)))
        # pixel-level edges inside every-minority tiles give no positives
        np.testing.assert_array_equal(target[1, 0], np.zeros((2, 2)))

    def test_radius_one_marks_neighbouring_tiles_only(self):
        labels = np.zeros((1, 16, 16), np.int64)
        labels[0, :4, :4] = 1             # tile (0, 0) of a 4x4 grid
        labels[0, 12, 12:] = 1            # 4 of tile (3, 3)'s 16 pixels
        expected = np.zeros((4, 4))
        expected[:2, :2] = 1
        np.testing.assert_array_equal(boundary_target_at_scale(labels, 4)[0, 0],
                                      expected)

    @pytest.mark.parametrize("factor", range(1, 9))
    def test_bytes_match_one_hot_counts(self, factor):
        # ties go to the first class with the most pixels, as with argmax
        # over one-hot counts
        rng = np.random.default_rng(factor)
        for th, tw, k in ((3, 5, 5), (4, 4, 2), (2, 7, 1), (5, 2, 3)):
            labels = rng.integers(0, k, size=(3, th * factor, tw * factor))
            labels[rng.random(labels.shape) < 0.05] = 255
            for lab in (labels, np.where(labels == 255, 0, labels)):
                want = boundary_target_one_hot(lab, factor)
                assert boundary_target_at_scale(lab, factor).tobytes() == want.tobytes()

    def test_negative_label_rejected(self):
        labels = np.zeros((1, 8, 8), np.int64)
        labels[0, 5, 5] = -1
        with pytest.raises(ValueError, match="labels must be >= 0, got -1"):
            boundary_target_at_scale(labels, 4)

    def test_not_divisible_rejected(self):
        with pytest.raises(ValueError, match="not divisible by 8"):
            boundary_target_at_scale(np.zeros((1, 12, 16), np.int64), 8)

    @pytest.mark.parametrize("size, batch, digest", [
        (64, 4, "686333079771017f0c863b0313c891233e0480ad8c9ce7d82fe24c2dcae5ca12"),
        (256, 8, "9d2e402fb4c328a0d13a9b05eda58a0ccd85a49f4b6ba1b9851f9ab2b144739d"),
    ])
    def test_acceptance_scenes_keep_their_target_bytes(self, size, batch, digest):
        # criterion 7's scenes: these targets train the acceptance models,
        # so a rewrite of the target must keep every byte
        spec = SynthSpec(seed=7, count=80, height=size, width=size, class_count=5,
                         density=0.5, min_shape=28)
        labels = np.stack([s.labels for s in synth_dataset(spec)]).astype(np.int64)
        h = hashlib.sha256()
        for i in range(0, len(labels), batch):
            h.update(boundary_target_at_scale(labels[i:i + batch], 8).tobytes())
        assert h.hexdigest() == digest


class TestCheckpointWrites:
    CFG = TrainConfig(epochs=2, batch_size=4, base_lr=0.05, seed=0)

    def test_last_checkpoint_is_returned_model(self, tmp_path):
        model = build_model(TINY_MODEL, seed=0)
        data = tiny_data(6)
        threads = threading.active_count()
        train_model(model, data[:4], data[4:], self.CFG, out_dir=str(tmp_path))
        assert threading.active_count() == threads
        save_checkpoint(model, tmp_path / "expected.ckpt")
        assert ((tmp_path / "last.ckpt").read_bytes()
                == (tmp_path / "expected.ckpt").read_bytes())
        assert sorted(os.listdir(tmp_path)) == [
            "best.ckpt", "expected.ckpt", "last.ckpt", "metrics.csv"]

    def test_improving_epoch_writes_one_serialization(self, tmp_path, monkeypatch):
        # best.ckpt is a byte copy of last.ckpt, not a second save
        saves = []
        real = data_io.save_checkpoint
        monkeypatch.setattr(data_io, "save_checkpoint",
                            lambda model, path: saves.append(path) or real(model, path))
        model = build_model(TINY_MODEL, seed=0)
        data = tiny_data(6)
        # epoch 0 always improves on no score at all
        train_model(model, data[:4], data[4:], dataclasses.replace(self.CFG, epochs=1),
                    out_dir=str(tmp_path))
        assert len(saves) == 1
        real(model, tmp_path / "expected.ckpt")
        expected = (tmp_path / "expected.ckpt").read_bytes()
        assert (tmp_path / "best.ckpt").read_bytes() == expected
        assert (tmp_path / "last.ckpt").read_bytes() == expected

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_rename_failure_raises(self, tmp_path, epochs):
        (tmp_path / "last.ckpt").mkdir()
        (tmp_path / "last.ckpt" / "keep").write_text("x")
        model = build_model(TINY_MODEL, seed=0)
        data = tiny_data(4)
        cfg = dataclasses.replace(self.CFG, epochs=epochs)
        lines = []
        threads = threading.active_count()
        with pytest.raises(OSError):
            train_model(model, data, data, cfg, out_dir=str(tmp_path),
                        log=lines.append)
        assert threading.active_count() == threads
        # epoch 0's failed write raises in epoch 0
        assert len(lines) == 1
        assert not (tmp_path / "last.ckpt.tmp").exists()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_abort_leaves_earlier_checkpoints(self, tmp_path):
        model = build_model(TINY_MODEL, seed=0)
        data = tiny_data(4)

        def poison_after_first_epoch(line):
            # the model is final for epoch 0 here; its checkpoints follow
            if line.startswith("epoch=0 "):
                save_checkpoint(model, tmp_path / "epoch0.ckpt")
                data[:] = [dataclasses.replace(d, image=np.full_like(d.image, np.nan))
                           for d in data]

        with pytest.raises(NumericalAbort):
            train_model(model, data, [], self.CFG, out_dir=str(tmp_path),
                        log=poison_after_first_epoch)
        expected = (tmp_path / "epoch0.ckpt").read_bytes()
        assert (tmp_path / "best.ckpt").read_bytes() == expected
        assert (tmp_path / "last.ckpt").read_bytes() == expected
        assert not list(tmp_path.glob("*.staged")) and not list(tmp_path.glob("*.tmp"))
        # the history of every epoch whose checkpoints are on disk
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "epoch,loss,miou,lr" and lines[1].startswith("0,")


def test_train_step_peak_memory():
    # one b4 64x64 step of criterion 7's model: the backward keeps no im2col
    # columns or padded taps, and the sweep frees each activation once its
    # consumers' backwards have run (28.8 MiB traced peak when it did
    # neither, 14.3 MiB on a 2-core x86_64 host)
    from lka_seg.model import preset_config
    model = build_model(preset_config("toy", class_count=5, fuse_width=48,
                                      head_width=48), seed=2)
    data = synth_dataset(SynthSpec(seed=7, count=4, class_count=5, density=0.5,
                                   min_shape=28))
    images, labels = training._collate(data)
    tracemalloc.start()
    try:
        training._train_step(model, images, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20, peak / 2**20
