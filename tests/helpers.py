"""Shared test utilities: finite-difference gradient checking, checkpoint edits."""

import struct

import numpy as np

import lka_seg.engine as E
from oracles import fd_gradient, rel_err


def gradcheck(build_loss, tensors, eps=1e-5, tol=1e-6):
    """Assert autodiff grads of `build_loss()` match central differences.

    `build_loss` must rebuild the graph from scratch on every call (the
    tape is single-shot). `tensors` are the leaves to check.
    """
    loss = build_loss()
    loss.backward()
    analytic = []
    for t in tensors:
        analytic.append(np.zeros_like(t.data) if t.grad is None else t.grad.copy())
        t.grad = None

    def f():
        with E.no_grad():
            return float(build_loss().data)

    worst = 0.0
    for t, got in zip(tensors, analytic):
        fd = fd_gradient(f, t.data, eps)
        err = rel_err(got, fd)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} for shape {t.data.shape}"
    return worst


def random_loss(out, rng):
    """Generic scalar loss: inner product with a fixed random direction."""
    direction = E.Tensor(rng.normal(size=out.data.shape))
    return E.sum_all(E.mul(out, direction))


def randomize_norms(module, rng):
    """Move batch-norm affine terms and running stats off their identity init.

    Freshly built norms map whole constant feature plateaus to values at the
    ReLU kink, where central differences are undefined; random affine terms
    push those plateaus away from zero so finite differences are trustworthy.
    """
    for name, p in module.named_parameters():
        if name.endswith("gamma"):
            p.data = p.data + rng.normal(0.0, 0.2, size=p.data.shape)
        elif name.endswith("beta"):
            p.data = p.data + rng.normal(0.3, 0.2, size=p.data.shape)
    for name, b in module.named_buffers():
        if name.endswith("running_mean"):
            b += rng.normal(0.0, 0.1, size=b.shape)
        elif name.endswith("running_var"):
            b *= rng.uniform(0.7, 1.4, size=b.shape)


def set_first_offset(blob, offset):
    """Rewrite the first manifest entry's payload offset in a checkpoint.

    The payload and its CRC are untouched, so only manifest checks can
    catch the edit.
    """
    blob = bytearray(blob)
    pos = 12  # magic, version, entry count
    (nlen,) = struct.unpack_from("<H", blob, pos)
    pos += 2 + nlen
    ndim = blob[pos + 1]
    pos += 2 + 4 * ndim
    struct.pack_into("<Q", blob, pos, offset)
    return bytes(blob)
