"""Regenerate the benchmark's stored inputs and reference values.

    python3 perfbench/make_reference.py

With BLAS pinned to one thread, trains criterion 7's setup for 8 epochs
on its 64x64 scenes and on the same scene spec at 256x256, and writes the
final weights to assets/ (the checkpoints infer-64 and eval-256 serve).
Then writes reference.json: the validation mIoU train-64 must reproduce
and the probe logits of each workload. The 256x256 training takes a few
minutes. Run it only when a change is meant to alter these values.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import envinfo

envinfo.pin_blas_threads()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lka_seg import data_io, training  # noqa: E402

import workloads as W  # noqa: E402


def train_asset(size):
    """Train at `size`, copy last.ckpt to its asset path; returns the history."""
    train, val = W.c7_scenes(size)
    with tempfile.TemporaryDirectory() as out_dir:
        history = training.train_model(W.build(), train, val, W.C7_TRAIN,
                                       out_dir=out_dir)
        os.makedirs(os.path.dirname(W.ASSET_CKPT[size]), exist_ok=True)
        shutil.copyfile(os.path.join(out_dir, "last.ckpt"), W.ASSET_CKPT[size])
    print(f"{size}x{size}: val_miou {history[-1]['miou']!r}")
    return history


def served(size):
    return data_io.load_into_model(W.build(), W.ASSET_CKPT[size])


def main():
    history = train_asset(64)
    train_asset(256)
    ref = {
        "infer-64": {"probe": W.probe_summary(W.probe_logits(served(64), 64))},
        "eval-256": {"probe": W.probe_summary(W.probe_logits(served(256), 256))},
        "train-64": {"probe": W.probe_summary(W.probe_logits(W.build(), 64)),
                     "val_miou": history[-1]["miou"]},
    }
    with open(W.REFERENCE, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"blas threads {envinfo.blas_threads_in_force()}")


if __name__ == "__main__":
    main()
