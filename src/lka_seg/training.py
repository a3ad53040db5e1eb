"""Losses, optimizer, schedule, segmentation metrics, and the train loop.

The segmentation loss is pixel cross-entropy restricted to hard examples
(kept pixel = true-class probability under the threshold, with a floor of
`min_kept` hardest pixels). The boundary head trains with class-balanced
binary cross-entropy against `boundary_target_at_scale`, a tile-level
edge map built from the labels at the head's 1/8 scale. Total loss:

    seg + AUX_WEIGHT * aux + BOUNDARY_WEIGHT * boundary

Mining and the loss share one softmax: `ohem_cross_entropy` shifts the
logits by their class max and sums exp over the classes once, and
`_masked_nll` takes only the log of that sum, so each loss gives the bytes
of computing both from scratch.

`TrainConfig` holds what a run varies: epochs, batch size, base learning
rate and seed. The rest are module constants: SGD `MOMENTUM` and
`WEIGHT_DECAY`, the poly schedule's `POLY_POWER`, the mining
`OHEM_THRESHOLD` and `OHEM_MIN_KEPT_FRAC` (of the batch's pixels), the
loss weights, `IGNORE_INDEX`, the validation batch `VAL_BATCH` and
`EVAL_PIXELS`, the most pixels one evaluation forward takes in. Every
training batch is flipped left-right per sample with probability 1/2.

The loop is single-threaded and deterministic for a fixed seed: one
`numpy` generator drives shuffling and augmentation, so two runs with the
same seed produce byte-identical metric histories and checkpoints.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import engine as E
from .nn import locate_nonfinite

MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
POLY_POWER = 0.9
OHEM_THRESHOLD = 0.7
OHEM_MIN_KEPT_FRAC = 1.0 / 16.0
AUX_WEIGHT = 0.4
BOUNDARY_WEIGHT = 1.0
IGNORE_INDEX = 255
VAL_BATCH = 8
# Most pixels (images * h * w) one `evaluate` forward takes in: 2 scenes at
# 256x256, 8 at 128x128, 32 at 64x64. An eval-mode forward treats each
# sample on its own, so the chunking changes no bit. Larger forwards
# overflow the cache: `evaluate` over 16 scenes on a 2-core x86_64 host,
# OpenBLAS 0.3.31 on one thread, median ms by images per forward:
# 256x256 b1 473.5, b2 468.2, b4 477.1, b8 561.0;
# 128x128 b2 131.2, b4 122.2, b8 123.3, b16 136.5; 64x64 b4 42.5, b8 38.3,
# b16 39.8. At 256x256, b8 took 60 ms of system time zero-filling fresh
# pages (11.7k minor faults); b2 took none (500 faults).
EVAL_PIXELS = 1 << 17

__all__ = [
    "OhemConfig",
    "TrainConfig",
    "NumericalAbort",
    "cross_entropy",
    "ohem_cross_entropy",
    "boundary_bce",
    "boundary_target_at_scale",
    "poly_lr",
    "SGD",
    "ConfusionMatrix",
    "miou",
    "evaluate",
    "train_model",
]


class NumericalAbort(RuntimeError):
    """Training hit a non-finite value; message names the first offender."""


@dataclass(frozen=True)
class OhemConfig:
    threshold: float = 0.7
    min_kept: int = 1

    def __post_init__(self):
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.min_kept < 1:
            raise ValueError(f"min_kept must be positive, got {self.min_kept}")


def _check_labels(labels, class_count, ignore_index):
    bad = (labels != ignore_index) & ((labels < 0) | (labels >= class_count))
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"label {labels[where]} at {where} outside "
            f"[0, {class_count}) and != ignore_index {ignore_index}"
        )


def _shifted_exp_sum(x):
    """(z, exp(z), the class sum of exp(z)) for z = `x` minus its class max."""
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=1, keepdims=True)


def _masked_nll(logits, labels, keep, shifted=None):
    """Mean negative log-softmax over the kept pixels (fused op).

    `keep` is a boolean (n, h, w) mask. An empty mask yields loss 0 with a
    zero gradient. Both plain and hard-example cross-entropy funnel through
    here, so degenerate mining settings reproduce the plain loss bit for
    bit. `shifted` is `(z, sum)` from `_shifted_exp_sum` of the logits,
    when the caller has them already.
    """
    x = logits.data
    n, k, h, w = x.shape
    safe = np.where(keep, labels, 0)[:, None]
    if shifted is None:
        z, _, esum = _shifted_exp_sum(x)
    else:
        z, esum = shifted
    lse = np.log(esum)
    nll = lse[:, 0] - np.take_along_axis(z, safe, axis=1)[:, 0]
    count = max(int(keep.sum()), 1)
    loss = (nll * keep).sum() / count

    def bwd(g):
        p = np.exp(z - lse)
        taken = np.take_along_axis(p, safe, axis=1) - 1.0
        np.put_along_axis(p, safe, taken, axis=1)
        p *= (keep / count)[:, None] * float(g)
        E._acc(logits, p)

    return E.custom_op(np.asarray(loss), (logits,), bwd)


def cross_entropy(logits, labels, ignore_index=IGNORE_INDEX):
    """Mean pixel NLL over non-ignored pixels."""
    labels = np.asarray(labels)
    _check_labels(labels, logits.data.shape[1], ignore_index)
    return _masked_nll(logits, labels, labels != ignore_index)


def ohem_cross_entropy(logits, labels, cfg: OhemConfig, ignore_index=IGNORE_INDEX):
    """Cross-entropy over the hard pixels only.

    A pixel is hard when its predicted true-class probability is below
    `cfg.threshold`; if fewer than `cfg.min_kept` qualify, the `min_kept`
    lowest-probability valid pixels are kept instead. `min_kept` is
    clamped to the number of valid pixels.
    """
    labels = np.asarray(labels)
    _check_labels(labels, logits.data.shape[1], ignore_index)
    valid = labels != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0 or cfg.threshold >= 1.0:
        return _masked_nll(logits, labels, valid)
    z, p, esum = _shifted_exp_sum(logits.data)
    p /= esum
    safe = np.where(valid, labels, 0)[:, None]
    p_true = np.take_along_axis(p, safe, axis=1)[:, 0]
    keep = valid & (p_true < cfg.threshold)
    min_kept = min(cfg.min_kept, n_valid)
    if int(keep.sum()) < min_kept:
        score = np.where(valid, p_true, np.inf).ravel()
        idx = np.argpartition(score, min_kept - 1)[:min_kept]
        keep = np.zeros(labels.shape, dtype=bool)
        keep.ravel()[idx] = True
    return _masked_nll(logits, labels, keep, (z, esum))


def boundary_bce(boundary_logits, boundary_mask):
    """Class-balanced binary cross-entropy on the boundary map.

    Positive and negative pixels are reweighted by inverse frequency: the
    loss is the average, over the classes present in the batch, of that
    class's mean BCE. An all-negative mask therefore reduces to the plain
    negative-class mean.
    """
    y = np.asarray(boundary_mask, dtype=np.float64)
    if y.ndim == 3:
        y = y[:, None]
    if y.shape != boundary_logits.data.shape:
        raise ValueError(
            f"mask shape {y.shape} does not match logits "
            f"{boundary_logits.data.shape}"
        )
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("boundary mask must be binary (0/1)")

    x = boundary_logits.data
    bce = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    n_pos = y.sum()
    n_neg = y.size - n_pos
    present = int(n_pos > 0) + int(n_neg > 0)
    w = np.zeros_like(y)
    if n_pos > 0:
        w += y / (n_pos * present)
    if n_neg > 0:
        w += (1.0 - y) / (n_neg * present)
    loss = (bce * w).sum()

    def bwd(g):
        E._acc(boundary_logits, (expit(x) - y) * w * float(g))

    return E.custom_op(np.asarray(loss), (boundary_logits,), bwd)


def poly_lr(base_lr, iteration, max_iter, power=POLY_POWER):
    """base_lr * (1 - iteration / max_iter) ** power."""
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    return base_lr * (1.0 - iteration / max_iter) ** power


class SGD:
    """Momentum SGD with coupled weight decay.

    v <- momentum * v + grad + weight_decay * w;  w <- w - lr * v
    """

    def __init__(self, named_params, momentum=0.9, weight_decay=0.0):
        self.params = list(named_params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr):
        for name, p in self.params:
            g = p.grad
            if g is not None and g.shape != p.data.shape:
                raise ValueError(
                    f"grad shape {g.shape} does not match parameter "
                    f"{name} shape {p.data.shape}"
                )
            v = self.velocity[name]
            v *= self.momentum
            if g is not None:
                v += g
            if self.weight_decay:
                v += self.weight_decay * p.data
            p.data = p.data - lr * v

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None


class ConfusionMatrix:
    """K x K pixel counts; rows are truth, columns are prediction."""

    def __init__(self, class_count):
        self.class_count = class_count
        self.mat = np.zeros((class_count, class_count), dtype=np.int64)

    def update(self, pred, truth, ignore_index=None):
        pred = np.asarray(pred).ravel()
        truth = np.asarray(truth).ravel()
        if ignore_index is not None:
            m = truth != ignore_index
            pred, truth = pred[m], truth[m]
        k = self.class_count
        if ((truth < 0) | (truth >= k)).any() or ((pred < 0) | (pred >= k)).any():
            raise ValueError("labels outside [0, class_count)")
        self.mat += np.bincount(k * truth + pred, minlength=k * k).reshape(k, k)
        return self

    def total(self):
        return int(self.mat.sum())


def miou(cm: ConfusionMatrix):
    """Per-class IoU (NaN for classes absent from truth and prediction)
    and their mean over the present classes."""
    m = cm.mat
    diag = np.diag(m).astype(np.float64)
    denom = m.sum(axis=1) + m.sum(axis=0) - np.diag(m)
    per_class = np.full(cm.class_count, np.nan)
    present = denom > 0
    per_class[present] = diag[present] / denom[present]
    mean = float(per_class[present].mean()) if present.any() else 0.0
    return per_class, mean


def boundary_target_at_scale(labels, factor):
    """Tile-level boundary target for a 1/factor-resolution boundary head.

    Labels are majority-voted per tile, then a tile is positive when any of
    its in-bounds 8 neighbours holds a different majority. A full-resolution
    mask downsampled with "any pixel" saturates at coarse scales; majority
    edges keep the target discriminative.
    """
    n, h, w = labels.shape
    if h % factor or w % factor:
        raise ValueError(f"label dims {h}x{w} not divisible by {factor}")
    if labels.min() < 0:
        raise ValueError(f"labels must be >= 0, got {labels.min()}")
    k = int(labels.max()) + 1
    th, tw = h // factor, w // factor
    tiles = labels.reshape(n, th, factor, tw, factor).transpose(0, 1, 3, 2, 4)
    # one count per (tile, class): key tile * k + label
    keys = np.arange(n * th * tw).reshape(n, th, tw, 1, 1) * k + tiles
    counts = np.bincount(keys.ravel(), minlength=n * th * tw * k)
    majority = counts.reshape(n, th, tw, k).argmax(axis=3)
    # an edge-padded border repeats an in-bounds neighbour, so it adds no edge
    padded = np.pad(majority, ((0, 0), (1, 1), (1, 1)), mode="edge")
    edge = np.zeros(majority.shape, dtype=bool)
    for dy in range(3):
        for dx in range(3):
            if dy != 1 or dx != 1:
                edge |= padded[:, dy:dy + th, dx:dx + tw] != majority
    return edge.astype(np.float64)[:, None]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    base_lr: float = 0.05
    seed: int = 0

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (np.isfinite(self.base_lr) and self.base_lr >= 0):
            raise ValueError(f"base_lr must be finite and >= 0, got {self.base_lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _collate(samples):
    images = np.stack([s.image for s in samples])
    labels = np.stack([s.labels for s in samples]).astype(np.int64)
    return images, labels


def _augment(images, labels, rng):
    """Flip each sample left-right with probability 1/2."""
    flips = rng.random(images.shape[0]) < 0.5
    images = np.where(flips[:, None, None, None], images[:, :, :, ::-1], images)
    labels = np.where(flips[:, None, None], labels[:, :, ::-1], labels)
    return images, labels


def _first_nonfinite(model):
    """'parameter <name>' or 'gradient <name>' of the first non-finite one, else None."""
    for name, p in model.named_parameters():
        if not np.isfinite(p.data).all():
            return f"parameter {name}"
        if p.grad is not None and not np.isfinite(p.grad).all():
            return f"gradient {name}"
    return None


def _numerical_abort(model, where, err, culprit=None):
    """`NumericalAbort` for `err`, found `where`, naming `culprit` or else
    the model's first non-finite parameter or gradient, if any."""
    culprit = culprit or _first_nonfinite(model)
    return NumericalAbort(f"non-finite value {where}: {err}"
                          + (f"; first non-finite {culprit}" if culprit else ""))


def _train_step(model, images, labels):
    """Forward, loss and, when the loss is finite, backward of one batch.

    Returns the loss value. The gradients are left on the parameters.
    """
    out = model(E.Tensor(images), "train")
    seg_cfg = OhemConfig(
        OHEM_THRESHOLD,
        max(1, int(labels.size * OHEM_MIN_KEPT_FRAC)),
    )
    loss = ohem_cross_entropy(out.seg_logits, labels, seg_cfg)
    aux = ohem_cross_entropy(out.aux_logits, labels, seg_cfg)
    loss = E.add(loss, E.mul(aux, AUX_WEIGHT))
    target = boundary_target_at_scale(
        labels, images.shape[2] // out.boundary_logits.data.shape[2])
    bl = boundary_bce(out.boundary_logits, target)
    loss = E.add(loss, E.mul(bl, BOUNDARY_WEIGHT))
    loss_val = loss.item()
    if np.isfinite(loss_val):
        loss.backward()
    return loss_val


def evaluate(model, dataset, class_count, batch_size=VAL_BATCH):
    """Aggregate confusion over the dataset; returns (per_class, mean) IoU.

    Each forward takes at most `batch_size` images and, beyond one image,
    at most `EVAL_PIXELS` pixels. The samples must share one size; the
    result does not depend on how they are chunked.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    cm = ConfusionMatrix(class_count)
    if dataset:
        h, w = dataset[0].image.shape[-2:]
        batch_size = min(batch_size, max(1, EVAL_PIXELS // (h * w)))
    for i in range(0, len(dataset), batch_size):
        images, labels = _collate(dataset[i:i + batch_size])
        # hold no model output into the next batch's forward
        with E.no_grad():
            pred = model(E.Tensor(images), "eval").seg_logits.data.argmax(axis=1)
        cm.update(pred, labels, IGNORE_INDEX)
    return miou(cm)


def history_csv(history):
    """Render the metric history exactly as written to metrics.csv."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "loss", "miou", "lr"])
    for row in history:
        writer.writerow([row["epoch"], f"{row['loss']:.12g}",
                         f"{row['miou']:.12g}", f"{row['lr']:.12g}"])
    return buf.getvalue()


def train_model(model, train_data, val_data, cfg: TrainConfig, out_dir=None,
                log=None):
    """Run the full loop; returns the per-epoch metric history.

    When `out_dir` is given, each epoch writes, in order: `last.ckpt`;
    `best.ckpt` when its validation mIoU is at least the best so far; and
    `metrics.csv`, the history up to that epoch. Each file goes through a
    temp file and a rename, and the model is serialized once per epoch:
    `best.ckpt` gets the bytes of `last.ckpt`. A failed write raises
    `OSError` in the epoch that made it; on any error, the files of earlier
    epochs are in place when it propagates. Aborts with `NumericalAbort`
    when a step's model outputs, loss or parameter gradients, or the
    epoch's validation outputs, are not finite, naming the first non-finite
    parameter or gradient and, from a re-run with per-op checks armed, the
    first op that made a non-finite value and its module path.
    """
    from .data_io import _atomic_write, save_checkpoint

    cfg.validate()
    if not train_data:
        raise ValueError("training dataset is empty")
    k = model.cfg.class_count
    rng = np.random.default_rng(cfg.seed)
    opt = SGD(model.named_parameters(), MOMENTUM, WEIGHT_DECAY)

    n = len(train_data)
    steps = (n + cfg.batch_size - 1) // cfg.batch_size
    max_iter = cfg.epochs * steps
    it = 0
    history = []
    best = -1.0
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        lr = cfg.base_lr
        for s in range(steps):
            idx = perm[s * cfg.batch_size:(s + 1) * cfg.batch_size]
            images, labels = _collate([train_data[i] for i in idx])
            images, labels = _augment(images, labels, rng)
            lr = poly_lr(cfg.base_lr, it, max_iter)

            culprit = None
            try:
                loss_val = _train_step(model, images, labels)
                culprit = _first_nonfinite(model)
                if culprit or not np.isfinite(loss_val):
                    # re-run the step with per-op checks to name the op;
                    # stale gradients would be blamed on the first op
                    # that adds to them
                    opt.zero_grad()
                    locate_nonfinite(
                        model, lambda: _train_step(model, images, labels),
                        "gradient" if culprit else "loss")
            except E.NonFiniteError as err:
                raise _numerical_abort(model, f"at iteration {it}", err,
                                       culprit) from err
            opt.step(lr)
            opt.zero_grad()
            epoch_loss += loss_val
            it += 1

        try:
            _, val_miou = evaluate(model, val_data, k) if val_data else (None, 0.0)
        except E.NonFiniteError as err:
            # the last step's update can overflow the weights without
            # making its own loss or gradients non-finite
            raise _numerical_abort(
                model, f"in the validation after epoch {epoch}", err) from err
        row = {"epoch": epoch, "loss": epoch_loss / steps, "miou": val_miou,
               "lr": lr}
        history.append(row)
        if log:
            log(f"epoch={epoch} loss={row['loss']:.6f} "
                f"miou={row['miou']:.6f} lr={row['lr']:.6g}")
        if out_dir:
            blob = save_checkpoint(model, os.path.join(out_dir, "last.ckpt"))
            if val_miou >= best:
                best = val_miou
                _atomic_write(os.path.join(out_dir, "best.ckpt"), blob)
            # kept through the next epoch, it would add its size to peak memory
            del blob
            _atomic_write(os.path.join(out_dir, "metrics.csv"),
                          history_csv(history).encode("ascii"))
    return history
