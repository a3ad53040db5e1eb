"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Heavy fixtures (the two 30-epoch toy trainings) are module-scoped and
shared across criteria. Run with `-s` to see the per-criterion lines.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

import lka_seg.engine as E
from lka_seg.analysis import count_flops, count_params, receptive_field_2d
from lka_seg.blocks import (
    ConvFeedForward,
    KernelSelector,
    LKABlock,
    LargeKernelAttention,
    large_kernel_chain,
)
from lka_seg.cli import main
from lka_seg.context import PyramidPooling
from lka_seg.data_io import (
    SynthSpec,
    checkpoint_scalar_count,
    load_checkpoint,
    read_pgm,
    read_ppm,
    save_checkpoint,
    synth_dataset,
    write_pgm,
    write_ppm,
)
from lka_seg.model import (
    BoundaryGuidedFusion,
    ModelConfig,
    build_model,
    preset_config,
)
from lka_seg.training import OhemConfig, TrainConfig, cross_entropy, \
    ohem_cross_entropy, train_model
from helpers import gradcheck, randomize_norms, sum_all
from oracles import expand_kernel, rel_err

ACCEPT_SPEC = SynthSpec(seed=7, count=80, class_count=5, density=0.5,
                        min_shape=28)
ACCEPT_MODEL = dict(class_count=5, fuse_width=48, head_width=48)
ACCEPT_TRAIN = TrainConfig(epochs=30, batch_size=4, base_lr=0.15, seed=2)

_timings = {}


def _report(num, desc, ok, extra=""):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}{extra}")
    assert ok, f"criterion {num} failed: {desc}{extra}"


@pytest.fixture(scope="module")
def accept_data():
    data = synth_dataset(ACCEPT_SPEC)
    return data[:64], data[64:]


def _train(accept_data, fixed_gate=None, ppm="dlkppm", epochs=None):
    train, val = accept_data
    kw = dict(ACCEPT_MODEL, ppm=ppm)
    if fixed_gate is not None:
        kw["fixed_gate"] = fixed_gate
    model = build_model(preset_config("toy", **kw), seed=ACCEPT_TRAIN.seed)
    cfg = ACCEPT_TRAIN if epochs is None else \
        dataclasses.replace(ACCEPT_TRAIN, epochs=epochs)
    t0 = time.monotonic()
    history = train_model(model, train, val, cfg)
    return model, history, time.monotonic() - t0


@pytest.fixture(scope="module")
def toy_run(accept_data):
    model, history, secs = _train(accept_data)
    _timings["toy"] = secs
    return model, history


@pytest.fixture(scope="module")
def ablation_run(accept_data):
    model, history, secs = _train(accept_data, fixed_gate=0.5)
    _timings["ablation"] = secs
    return model, history


def test_criterion_1_declares_paper_scale_out_of_reach():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    ok = "does not reproduce" in readme and "property suite" in readme
    _report(1, "published full-scale benchmark numbers declared out of scope "
               "and replaced by the property suite", ok)


def test_criterion_2_receptive_field_35():
    t0 = time.monotonic()
    rf = receptive_field_2d(large_kernel_chain())

    attn = LargeKernelAttention(1, np.random.default_rng(0))
    for _, p in attn.named_parameters():
        p.data = np.ones_like(p.data)
    x = np.zeros((1, 1, 81, 81))
    x[0, 0, 40, 40] = 1.0
    yv = attn.strip_v(attn.strip_h(attn.dw_small(E.Tensor(x))))
    nz = np.abs(yv.data[0, 0]) > 0
    rows = np.flatnonzero(nz.any(axis=1))
    cols = np.flatnonzero(nz.any(axis=0))
    support = (rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    elapsed = time.monotonic() - t0
    ok = rf == (35, 35) and support == (35, 35) and elapsed < 5.0
    _report(2, "large-kernel path receptive field is exactly 35 per axis and "
               "the impulse support is 35x35",
            ok, f" (rf={rf}, support={support}, {elapsed:.2f}s)")


def test_criterion_3_decomposition_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):
        c = int(rng.integers(1, 5))
        groups = int(rng.choice([1, c]))
        kind = case % 3
        if kind == 0:
            kh, kw = 1, int(rng.integers(2, 12))
        elif kind == 1:
            kh, kw = int(rng.integers(2, 12)), 1
        else:
            kh, kw = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        dh = int(rng.integers(1, 4)) if kh > 1 else 1
        dw = int(rng.integers(1, 4)) if kw > 1 else 1
        eh, ew = (kh - 1) * dh + 1, (kw - 1) * dw + 1
        h = int(rng.integers(eh, 17)) if eh < 17 else eh
        w = int(rng.integers(ew, 17)) if ew < 17 else ew
        x = rng.normal(size=(1, c, h, w))
        wt = rng.normal(size=(c if groups == c else int(rng.integers(1, 5)),
                              c // groups, kh, kw))
        pad = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        a = E.conv2d(E.Tensor(x), E.Tensor(wt), padding=pad,
                     dilation=(dh, dw), groups=groups)
        b = E.conv2d(E.Tensor(x), E.Tensor(expand_kernel(wt, (dh, dw))),
                     padding=pad, groups=groups)
        worst = max(worst, rel_err(a.data, b.data))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    _report(3, "50 random dilated/strip kernels equal their zero-expanded "
               "dense forms", ok, f" (max rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_4_gradient_audit():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)

    def direction(shape):
        return E.Tensor(rng.normal(size=shape))

    # primitives on desk shapes
    x = E.Parameter(rng.normal(size=(2, 4, 7, 7)))
    w = E.Parameter(rng.normal(size=(6, 2, 3, 3)))
    bias = E.Parameter(rng.normal(size=(6,)))
    d = direction((2, 6, 3, 3))
    gradcheck(lambda: sum_all(E.mul(E.conv2d(
        x, w, bias, stride=2, padding=1, dilation=2, groups=2), d)),
        [x, w, bias])

    xd = E.Parameter(rng.normal(size=(1, 3, 8, 8)))
    wd = E.Parameter(rng.normal(size=(3, 1, 1, 5)))
    dd = direction((1, 3, 8, 8))
    gradcheck(lambda: sum_all(E.mul(E.conv2d(
        xd, wd, padding=(0, 6), dilation=(1, 3), groups=3), dd)), [xd, wd])

    xp = E.Parameter(rng.normal(size=(1, 2, 8, 8)))
    dp = direction((1, 2, 4, 4))
    dg = direction((1, 2, 1, 1))
    gradcheck(lambda: sum_all(E.mul(E.avg_pool(xp, 5, 2, 2), dp)), [xp])
    gradcheck(lambda: sum_all(E.mul(E.global_avg_pool(xp), dg)), [xp])

    xb = E.Parameter(rng.normal(size=(2, 3, 5, 5)))
    gm = E.Parameter(rng.normal(size=(3,)))
    bt = E.Parameter(rng.normal(size=(3,)))
    db = direction((2, 3, 5, 5))
    gradcheck(lambda: sum_all(E.mul(E.batch_norm(
        xb, gm, bt, np.zeros(3), np.ones(3), "train"), db)), [xb, gm, bt])

    for op in (E.relu, E.gelu, E.sigmoid):
        xa = E.Parameter(rng.normal(size=(1, 3, 6, 6)) + 0.05)
        da = direction((1, 3, 6, 6))
        gradcheck(lambda op=op, xa=xa, da=da: sum_all(E.mul(op(xa), da)), [xa])
    ss = E.Parameter(rng.normal(size=(1, 3, 4, 4)))
    cs = E.Parameter(rng.normal(size=(1, 6, 1, 1)))
    bs = [E.Parameter(rng.normal(size=(1, 2, 4, 4))) for _ in range(3)]
    dmix = direction((1, 2, 4, 4))
    gradcheck(lambda: sum_all(E.mul(E.select_mix(ss, cs, bs), dmix)), [ss, cs, *bs])
    xr = E.Parameter(rng.normal(size=(1, 2, 5, 7)))
    dr = direction((1, 2, 8, 5))
    gradcheck(lambda: sum_all(E.mul(E.bilinear_resize(xr, 8, 5), dr)), [xr])

    # blocks: gate attention, selector, feed-forward, full block,
    # pyramid, fusion
    blocks = []
    attn = LargeKernelAttention(2, rng)
    blocks.append(("attention", attn, (1, 2, 8, 8),
                   lambda t: attn(t, "eval")))
    ffn = ConvFeedForward(2, rng)
    blocks.append(("ffn", ffn, (1, 2, 6, 6), lambda t: ffn(t, "eval")))
    blk = LKABlock(2, rng)
    blocks.append(("block", blk, (1, 2, 8, 8), lambda t: blk(t, "train")))
    ppm = PyramidPooling(4, 4, rng, hidden=2)
    randomize_norms(ppm, rng)
    blocks.append(("pyramid", ppm, (1, 4, 16, 16), lambda t: ppm(t, "eval")))
    for name, mod, shape, call in blocks:
        xt = E.Parameter(rng.normal(size=shape))
        dt = direction(shape)
        params = [p for _, p in mod.named_parameters()]
        gradcheck(lambda call=call, xt=xt, dt=dt: sum_all(
            E.mul(call(xt), dt)), params + [xt])

    sel = KernelSelector(2, rng)
    br = [E.Parameter(rng.normal(size=(1, 2, 5, 5))) for _ in range(3)]
    ds = direction((1, 2, 5, 5))
    gradcheck(lambda: sum_all(E.mul(sel(br, "eval"), ds)),
              [p for _, p in sel.named_parameters()] + br)

    fuse = BoundaryGuidedFusion(3, 4, 3, 4, rng)
    randomize_norms(fuse, rng)
    fd = E.Parameter(rng.normal(size=(1, 3, 6, 6)))
    fs = E.Parameter(rng.normal(size=(1, 4, 6, 6)))
    fb = E.Parameter(rng.normal(size=(1, 3, 6, 6)))
    df = direction((1, 4, 6, 6))
    gradcheck(lambda: sum_all(E.mul(fuse(fd, fs, fb, "eval"), df)),
              [p for _, p in fuse.named_parameters()] + [fd, fs, fb])

    # full-model spot check on 10 random scalar parameters, rel err < 1e-5
    model = build_model(preset_config("toy", class_count=3), seed=1)
    randomize_norms(model, np.random.default_rng(7))
    xm = E.Tensor(np.random.default_rng(8).uniform(size=(1, 3, 64, 64)))

    def audit_loss():
        out = model(xm, "train")
        drng = np.random.default_rng(5)
        loss = sum_all(E.mul(out.seg_logits,
                               E.Tensor(drng.normal(size=out.seg_logits.data.shape))))
        for extra in (out.aux_logits, out.boundary_logits):
            loss = E.add(loss, sum_all(E.mul(
                extra, E.Tensor(drng.normal(size=extra.data.shape)))))
        return loss

    loss = audit_loss()
    loss.backward()
    noise_floor = max(1e-8, abs(float(loss.data)) * 1e-10)
    params = list(model.named_parameters())
    pick = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        name, p = params[pick.integers(len(params))]
        flat = int(pick.integers(p.data.size))
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()[flat]
        orig = p.data.ravel()[flat]
        eps = 1e-5
        vals = []
        for v in (orig + eps, orig - eps):
            p.data.ravel()[flat] = v
            with E.no_grad():
                vals.append(float(audit_loss().data))
            p.data.ravel()[flat] = orig
        fd_val = (vals[0] - vals[1]) / (2 * eps)
        if abs(grad - fd_val) < noise_floor:
            continue
        err = abs(grad - fd_val) / max(abs(grad), abs(fd_val))
        worst = max(worst, err)
        assert err < 1e-5, (name, flat)
    elapsed = time.monotonic() - t0
    ok = elapsed < 300.0
    _report(4, "gradient audit: primitives and blocks < 1e-6, full-model "
               "spot check < 1e-5", ok,
            f" (model spot worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_5_selector_simplex():
    rng = np.random.default_rng(5)
    sel = KernelSelector(4, rng)
    worst_sum = 0.0
    nonneg = True
    for _ in range(20):
        branches = [E.Tensor(rng.normal(size=(1, 4, 6, 6)) * 4) for _ in range(3)]
        ws = sel.weights(branches, "eval")
        total = sum(w.data for w in ws)
        worst_sum = max(worst_sum, float(np.abs(total - 1.0).max()))
        nonneg = nonneg and all((w.data >= 0).all() for w in ws)
    f = E.Tensor(rng.normal(size=(2, 4, 6, 6)))
    ident = sel([f, f, f], "eval")
    ident_err = float(np.abs(ident.data - f.data).max())
    ok = nonneg and worst_sum < 1e-12 and ident_err < 1e-12
    _report(5, "selector weights form a simplex and equal branches pass "
               "through exactly", ok,
            f" (sum err {worst_sum:.2e}, identity err {ident_err:.2e})")


def test_criterion_6_ohem_degeneracy():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(10):
        logits = rng.normal(size=(2, 5, 6, 6)) * 3
        labels = rng.integers(0, 5, size=(2, 6, 6))
        plain = cross_entropy(E.Tensor(logits), labels).item()
        by_threshold = ohem_cross_entropy(E.Tensor(logits), labels,
                                          OhemConfig(1.0, 1)).item()
        by_min_kept = ohem_cross_entropy(E.Tensor(logits), labels,
                                         OhemConfig(1e-9, labels.size)).item()
        ok = ok and plain == by_threshold == by_min_kept
    _report(6, "hard-example mining with threshold 1.0 or min_kept=all "
               "reproduces plain cross-entropy bit for bit", ok)


def test_criterion_7_toy_training(toy_run, ablation_run):
    _, history = toy_run
    _, ablation_history = ablation_run
    final = history[-1]["miou"]
    ablated = ablation_history[-1]["miou"]
    total = _timings["toy"] + _timings["ablation"]
    ok = final >= 0.85 and final > ablated and total < 900.0
    _report(7, "30-epoch toy run reaches mIoU >= 0.85 and beats the fixed-gate "
               "ablation under the same seed", ok,
            f" (miou {final:.4f} vs fixed-gate {ablated:.4f}, {total:.0f}s)")


def test_criterion_8_pyramid_ablation(accept_data):
    _, hist_lka, _ = _train(accept_data, ppm="dlkppm", epochs=8)
    _, hist_plain, _ = _train(accept_data, ppm="dappm", epochs=8)
    a, b = hist_lka[-1]["miou"], hist_plain[-1]["miou"]
    ok = np.isfinite(a) and np.isfinite(b)
    _report(8, "pyramid ablation recorded (direction check only, not gated)",
            ok, f" (dlkppm={a:.4f}, dappm={b:.4f})")


def test_criterion_9_cost_model(tmp_path):
    ok = True
    details = []
    for preset in ("toy", "small"):
        model = build_model(preset_config(preset, class_count=5), seed=0)
        x = E.Tensor(np.random.default_rng(0).uniform(size=(1, 3, 64, 64)))
        with E.no_grad(), E.flop_meter() as meter:
            model(x, "eval")
        static = count_flops(model, (1, 3, 64, 64)).total_flops
        details.append(f"{preset}: static={static} runtime={meter.total}")
        ok = ok and static == meter.total
        path = tmp_path / f"{preset}.ckpt"
        save_checkpoint(model, path)
        ok = ok and checkpoint_scalar_count(path) == count_params(model)
    _report(9, "static FLOPs equal the instrumented forward and params equal "
               "the checkpoint scalar count", ok, " (" + "; ".join(details) + ")")


def test_criterion_10_determinism(tmp_path):
    data_dir = str(tmp_path / "data")
    assert main(["synth-data", "--out", data_dir, "--seed", "7", "--count",
                 "24", "--classes", "5", "--min-shape", "28",
                 "--density", "0.5"]) == 0
    cfg = {
        "version": 1,
        "model": dict(preset="toy", **ACCEPT_MODEL),
        "train": {"epochs": 3, "batch_size": 4, "base_lr": 0.15, "seed": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for run in ("r1", "r2"):
        out = str(tmp_path / run)
        assert main(["train", "--config", str(cfg_path), "--data", data_dir,
                     "--out", out, "--val-count", "8"]) == 0
        blobs.append({name: open(os.path.join(out, name), "rb").read()
                      for name in ("metrics.csv", "best.ckpt", "last.ckpt")})
    ok = all(blobs[0][k] == blobs[1][k] for k in blobs[0])
    _report(10, "identical seeds produce byte-identical metrics.csv and "
                "checkpoints", ok)


def test_criterion_11_format_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    ok = True
    for i in range(40):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        raw = rng.integers(0, 256, size=(3, h, w), dtype=np.uint8)
        path = tmp_path / "t.ppm"
        write_ppm(path, raw / 255.0)
        first = path.read_bytes()
        write_ppm(path, read_ppm(path))
        ok = ok and path.read_bytes() == first
    for i in range(40):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        labels = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        path = tmp_path / "t.pgm"
        write_pgm(path, labels)
        ok = ok and (read_pgm(path) == labels).all()
    cfg = ModelConfig(class_count=2, stem_width=4, low_width=4, mid_width=4,
                      high_width=8, blocks_per_stage=1, fuse_width=4,
                      head_width=4)
    for i in range(20):
        model = build_model(cfg, seed=i)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        entries = load_checkpoint(path)
        for name, p in model.named_parameters():
            ok = ok and np.array_equal(entries[name][0], p.data)
    blob = bytearray((tmp_path / "m.ckpt").read_bytes())
    blob[-50] ^= 0x01
    (tmp_path / "m.ckpt").write_bytes(bytes(blob))
    from lka_seg.data_io import CheckpointCrcError
    try:
        load_checkpoint(tmp_path / "m.ckpt")
        crc_ok = False
    except CheckpointCrcError:
        crc_ok = True
    ok = ok and crc_ok
    _report(11, "PPM/PGM and checkpoint round-trips are bit-exact on 100 "
                "random cases; payload corruption is rejected by CRC", ok)
