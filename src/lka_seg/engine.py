"""Minimal reverse-mode tensor engine.

Everything runs on 64-bit floats so gradients can be checked tightly
against central finite differences. Convolution is direct (a blocked
im2col-style contraction, no FFT/Winograd), cross-correlation convention,
zero padding. Convolution and pooling share one geometry: the input is
copied once into a zero-filled buffer of the padded shape (`_pad`), every
kernel tap is read through one read-only strided view of that buffer
(`_windows`), and the backward adds each tap's gradient back through the
same slices (`_scatter_taps`).

The autodiff graph is a define-by-run tape: every operation that sees a
grad-requiring input records a backward closure on its output.

Conventions fixed here and relied on everywhere else:
  * bilinear resizing uses half-pixel source centers (align_corners=False
    is the only supported mode),
  * batch norm uses biased variance and updates running statistics as
    running = (1 - momentum) * running + momentum * batch_stat,
  * softmax subtracts the (detached) max along its axis before exp.

A process-wide FLOP meter can be armed with `flop_meter()`; while armed,
every primitive adds its cost using the conventions documented in
`lka_seg.costs` (the static model mirrors the same table independently).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf, expit

__all__ = [
    "Tensor",
    "Parameter",
    "ConvSpec",
    "no_grad",
    "flop_meter",
    "add",
    "sub",
    "mul",
    "div",
    "concat",
    "channel_slice",
    "channel_mean",
    "channel_max",
    "relu",
    "gelu",
    "sigmoid",
    "softmax",
    "group_softmax",
    "conv2d",
    "depthwise",
    "avg_pool",
    "global_avg_pool",
    "batch_norm",
    "bilinear_resize",
    "mean_all",
    "sum_all",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class _State(threading.local):
    def __init__(self):
        self.grad_enabled = True
        self.meter = None


_state = _State()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / oracles)."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class FlopMeter:
    """Accumulates the runtime FLOP count of every primitive executed."""

    def __init__(self):
        self.total = 0

    def add(self, n):
        self.total += int(n)


@contextmanager
def flop_meter():
    """Arm a runtime FLOP counter; yields the meter."""
    prev = _state.meter
    meter = FlopMeter()
    _state.meter = meter
    try:
        yield meter
    finally:
        _state.meter = prev


def _count(n):
    m = _state.meter
    if m is not None:
        m.add(n)


def _pair(v):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError(f"expected a pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


@dataclass(frozen=True)
class ConvSpec:
    """Kernel geometry: per-axis kernel size, stride, dilation, padding, groups."""

    kernel: tuple
    stride: tuple = (1, 1)
    dilation: tuple = (1, 1)
    padding: tuple = (0, 0)
    groups: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kernel", _pair(self.kernel))
        object.__setattr__(self, "stride", _pair(self.stride))
        object.__setattr__(self, "dilation", _pair(self.dilation))
        object.__setattr__(self, "padding", _pair(self.padding))
        if min(self.kernel) < 1:
            raise ValueError(f"kernel must be >= 1, got {self.kernel}")
        if min(self.stride) < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if min(self.dilation) < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if min(self.padding) < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")


class NonFiniteError(ValueError):
    """A tensor or loss holds NaN or Inf.

    Not listed in `__all__`: `perfbench/tracer.py` wraps every callable
    named there, apart from its own list of non-ops, as a tensor op.
    """


class Tensor:
    """A numpy-backed value on the autodiff tape.

    Feature maps are 4-D (n, c, h, w); parameters may be lower rank.
    Data is always float64 and must be finite; non-finite values are
    rejected with `NonFiniteError` at construction, i.e. at every
    operation boundary.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd", "_done")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor holds non-finite values (NaN or Inf)")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._bwd = None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def detach(self):
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.grad = None
        t.requires_grad = False
        t._parents = ()
        t._bwd = None
        t._done = False
        return t

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode sweep from a scalar loss.

        Populates `.grad` on every grad-requiring tensor reachable from
        this node. A second sweep from the same node is rejected; build a
        fresh graph per step instead.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if self._done:
            raise RuntimeError("backward already ran for this graph; reset first")
        self._done = True

        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)
                if node is not self:
                    node.grad = None  # free intermediate storage

    # convenience operators (tape-recorded)
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)


class Parameter(Tensor):
    """A trainable leaf tensor."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _as_tensor(v):
    if isinstance(v, Tensor):
        return v
    return Tensor(np.asarray(v, dtype=np.float64))


def _acc(t, g):
    t.grad = g if t.grad is None else t.grad + g


def _record(data, parents, bwd):
    out = Tensor(data)
    if _state.grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._bwd = bwd
    return out


def custom_op(data, parents, bwd):
    """Record a hand-written op (fused losses live outside this module)."""
    return _record(data, parents, bwd)


def _unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic (broadcasting)
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    _count(out.size)

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g, b.data.shape))

    return _record(out, (a, b), bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    _count(out.size)

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(-g, b.data.shape))

    return _record(out, (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    _count(out.size)

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), bwd)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data
    _count(out.size)

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _record(out, (a, b), bwd)


def concat(tensors, axis=1):
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _acc(t, piece)

    return _record(out, tuple(tensors), bwd)


def channel_slice(x, start, stop):
    """View of channels [start:stop); gradient zero-pads the complement."""
    x = _as_tensor(x)
    if not (0 <= start < stop <= x.data.shape[1]):
        raise ValueError(f"channel slice [{start}:{stop}) out of range for {x.data.shape}")
    out = x.data[:, start:stop]

    def bwd(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        _acc(x, full)

    return _record(out, (x,), bwd)


def channel_mean(x):
    """Mean over the channel axis, keepdims: (n, 1, h, w)."""
    x = _as_tensor(x)
    out = x.data.mean(axis=1, keepdims=True)
    _count(x.data.size)
    c = x.data.shape[1]

    def bwd(g):
        _acc(x, np.broadcast_to(g / c, x.data.shape).copy())

    return _record(out, (x,), bwd)


def channel_max(x):
    """Max over the channel axis, keepdims; gradient routes to the argmax."""
    x = _as_tensor(x)
    out = x.data.max(axis=1, keepdims=True)
    _count(x.data.size)

    def bwd(g):
        mask = x.data == out  # ties share the incoming gradient
        counts = mask.sum(axis=1, keepdims=True)
        _acc(x, mask * (g / counts))

    return _record(out, (x,), bwd)


def mean_all(x):
    x = _as_tensor(x)
    out = np.asarray(x.data.mean())
    _count(x.data.size)

    def bwd(g):
        _acc(x, np.full_like(x.data, float(g) / x.data.size))

    return _record(out, (x,), bwd)


def sum_all(x):
    x = _as_tensor(x)
    out = np.asarray(x.data.sum())
    _count(x.data.size)

    def bwd(g):
        _acc(x, np.full_like(x.data, float(g)))

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x):
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)
    _count(out.size)

    def bwd(g):
        _acc(x, g * (x.data > 0))

    return _record(out, (x,), bwd)


def gelu(x):
    """Exact (erf-based) GELU: x * Phi(x)."""
    x = _as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi
    _count(out.size)

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        _acc(x, g * (phi + x.data * pdf))

    return _record(out, (x,), bwd)


def sigmoid(x):
    x = _as_tensor(x)
    s = expit(x.data)
    _count(s.size)

    def bwd(g):
        _acc(x, g * s * (1.0 - s))

    return _record(s, (x,), bwd)


def softmax(x, axis=1):
    """Numerically stabilized softmax along `axis`; sums to 1 there."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    _count(4 * s.size)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _acc(x, s * (g - dot))

    return _record(s, (x,), bwd)


def group_softmax(x, groups):
    """Softmax across `groups` equal channel blocks at each (n, c, h, w).

    Channels are viewed as (groups, c // groups); the softmax runs over the
    group axis, so corresponding channels of each block compete.
    """
    x = _as_tensor(x)
    n, c, h, w = x.data.shape
    if c % groups:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    v = x.data.reshape(n, groups, c // groups, h, w)
    z = v - v.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    _count(4 * x.data.size)
    out = s.reshape(n, c, h, w)

    def bwd(g):
        gv = g.reshape(n, groups, c // groups, h, w)
        dot = (gv * s).sum(axis=1, keepdims=True)
        _acc(x, (s * (gv - dot)).reshape(n, c, h, w))

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# convolution and pooling
# ---------------------------------------------------------------------------


def _check_4d(x, name):
    if x.data.ndim != 4:
        raise ValueError(f"{name} must be 4-D (n, c, h, w), got shape {x.data.shape}")


def _out_hw(h, w, kernel, stride, padding, dilation=(1, 1)):
    """Output size per axis: floor((h + 2p - (k - 1) d - 1) / s) + 1."""
    (kh, kw), (sh, sw), (ph, pw), (dh, dw) = kernel, stride, padding, dilation
    return ((h + 2 * ph - (kh - 1) * dh - 1) // sh + 1,
            (w + 2 * pw - (kw - 1) * dw - 1) // sw + 1)


def _pad(arr, padding):
    """Zero-padded C-contiguous copy of a 4-D array.

    One zero-filled buffer of the padded shape with the input copied into
    its interior, so the values equal constant-mode `np.pad`. Without
    padding a C-contiguous input is returned as is; any other layout is
    copied, because the order in which numpy sums the window taps follows
    the memory layout, and results must not depend on it.
    """
    ph, pw = padding
    if not (ph or pw):
        return np.ascontiguousarray(arr)
    n, c, h, w = arr.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    out[:, :, ph : ph + h, pw : pw + w] = arr
    return out


def _windows(xp, kernel, stride, dilation):
    """Read-only strided view (n, c, oh, ow, kh, kw) of every kernel tap. No copy.

    `xp` is the padded input. Tap (i, j) of output (y, x) reads
    xp[..., y * sh + i * dh, x * sw + j * dw]; the view's strides are built
    from `xp`'s own, so non-contiguous inputs (channel slices, transposes)
    are read correctly.
    """
    n, c, hp, wp = xp.shape
    oh, ow = _out_hw(hp, wp, kernel, stride, (0, 0), dilation)
    s0, s1, s2, s3 = xp.strides
    (sh, sw), (dh, dw) = stride, dilation
    return as_strided(xp, (n, c, oh, ow, *kernel),
                      (s0, s1, s2 * sh, s3 * sw, s2 * dh, s3 * dw),
                      writeable=False)


def _scatter_taps(xp, tap_grad, kernel, stride, dilation, padding):
    """Adjoint of `_windows` over `_pad`: the gradient w.r.t. the unpadded input.

    Adds `tap_grad(i, j)`, the (n, c, oh, ow) gradient reaching tap (i, j),
    onto a zero grid laid out like the padded input `xp`, taps in row-major
    order, then crops the padding.
    """
    kh, kw = kernel
    (sh, sw), (dh, dw), (ph, pw) = stride, dilation, padding
    hp, wp = xp.shape[2:]
    oh, ow = _out_hw(hp, wp, kernel, stride, (0, 0), dilation)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        hs = slice(i * dh, i * dh + sh * oh, sh)
        for j in range(kw):
            ws = slice(j * dw, j * dw + sw * ow, sw)
            gxp[:, :, hs, ws] += tap_grad(i, j)
    if ph or pw:
        return gxp[:, :, ph : hp - ph, pw : wp - pw]
    return gxp


def conv2d(x, w, b=None, stride=1, padding=0, dilation=1, groups=1):
    """Direct grouped/strided/dilated 2-D convolution (cross-correlation).

    x: (n, c_in, h, w); w: (c_out, c_in / groups, kh, kw); b: (c_out,) or None.
    Output spatial size follows floor((h + 2p - (k - 1) d - 1) / s) + 1.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    _check_4d(x, "conv input")
    if w.data.ndim != 4:
        raise ValueError(f"conv weight must be 4-D, got shape {w.data.shape}")
    stride, padding, dilation = _pair(stride), _pair(padding), _pair(dilation)
    g = int(groups)

    n, cin, h, wdt = x.data.shape
    cout, cg, kh, kw = w.data.shape
    kernel = (kh, kw)
    if g < 1:
        raise ValueError(f"groups must be >= 1, got {g}")
    if cin % g:
        raise ValueError(f"input channel axis {cin} not divisible by groups {g}")
    if cout % g:
        raise ValueError(f"output channel axis {cout} not divisible by groups {g}")
    if cg != cin // g:
        raise ValueError(
            f"weight channel axis mismatch: expected c_in/groups = {cin // g}, got {cg}"
        )
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (cout,):
            raise ValueError(
                f"bias axis mismatch: expected ({cout},), got {b.data.shape}"
            )
    oh, ow = _out_hw(h, wdt, kernel, stride, padding, dilation)
    if oh < 1 or ow < 1:
        (dh, dw), (ph, pw) = dilation, padding
        raise ValueError(
            f"zero-sized conv output: input {h}x{wdt}, kernel extent "
            f"{(kh - 1) * dh + 1}x{(kw - 1) * dw + 1}, padding {ph}x{pw}"
        )

    xp = _pad(x.data, padding)
    win = _windows(xp, kernel, stride, dilation)  # (n, cin, oh, ow, kh, kw)
    depthwise_path = g == cin == cout

    if depthwise_path:
        # per-channel taps: accumulate w[c, 0, i, j] * window tap
        out = np.zeros((n, cout, oh, ow))
        for i in range(kh):
            for j in range(kw):
                out += win[:, :, :, :, i, j] * w.data[None, :, 0, i, j, None, None]
    elif g == 1:
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, cin * kh * kw, oh * ow)
        out = np.matmul(w.data.reshape(cout, -1), cols).reshape(n, cout, oh, ow)
    else:
        cg_in, cg_out = cin // g, cout // g
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, g, cg_in * kh * kw,
                                                       oh * ow)
        out = np.empty((n, g, cg_out, oh * ow))
        wmat = w.data.reshape(g, cg_out, cg_in * kh * kw)
        for gi in range(g):
            np.matmul(wmat[gi], cols[:, gi], out=out[:, gi])
        out = out.reshape(n, cout, oh, ow)
        cols = cols.reshape(n, g * cg_in * kh * kw, oh * ow)
    _count(2 * kh * kw * (cin // g) * cout * oh * ow * n)
    if b is not None:
        out = out + b.data[None, :, None, None]
        _count(cout * oh * ow * n)

    parents = (x, w) if b is None else (x, w, b)

    def bwd(g_out):
        if b is not None and b.requires_grad:
            _acc(b, g_out.sum(axis=(0, 2, 3)))
        if depthwise_path:
            if w.requires_grad:
                gw = np.empty_like(w.data)
                for i in range(kh):
                    for j in range(kw):
                        gw[:, 0, i, j] = (g_out * win[:, :, :, :, i, j]).sum(
                            axis=(0, 2, 3))
                _acc(w, gw)
            if x.requires_grad:
                _acc(x, _scatter_taps(
                    xp, lambda i, j: g_out * w.data[None, :, 0, i, j, None, None],
                    kernel, stride, dilation, padding))
            return
        go = g_out.reshape(n, cout, oh * ow)
        if g == 1:
            if w.requires_grad:
                gw = np.matmul(go, cols.transpose(0, 2, 1)).sum(axis=0)
                _acc(w, gw.reshape(w.data.shape))
            if x.requires_grad:
                gcols = np.matmul(w.data.reshape(cout, -1).T, go)
        else:
            cg_in, cg_out = cin // g, cout // g
            gog = go.reshape(n, g, cg_out, oh * ow)
            colsg = cols.reshape(n, g, cg_in * kh * kw, oh * ow)
            wmat = w.data.reshape(g, cg_out, cg_in * kh * kw)
            if w.requires_grad:
                gw = np.empty((g, cg_out, cg_in * kh * kw))
                for gi in range(g):
                    np.matmul(gog[:, gi], colsg[:, gi].transpose(0, 2, 1)
                              ).sum(axis=0, out=gw[gi])
                _acc(w, gw.reshape(w.data.shape))
            if x.requires_grad:
                gcols = np.empty((n, g, cg_in * kh * kw, oh * ow))
                for gi in range(g):
                    np.matmul(wmat[gi].T, gog[:, gi], out=gcols[:, gi])
        if x.requires_grad:
            taps = gcols.reshape(n, cin, kh, kw, oh, ow)
            _acc(x, _scatter_taps(xp, lambda i, j: taps[:, :, i, j],
                                  kernel, stride, dilation, padding))

    return _record(out, parents, bwd)


def depthwise(x, w, b=None, stride=1, padding=0, dilation=1):
    """Per-channel convolution: conv2d with groups = c_in = c_out."""
    x = _as_tensor(x)
    _check_4d(x, "depthwise input")
    c = x.data.shape[1]
    w = _as_tensor(w)
    if w.data.shape[0] != c or w.data.shape[1] != 1:
        raise ValueError(
            f"depthwise weight must be ({c}, 1, kh, kw), got {w.data.shape}"
        )
    return conv2d(x, w, b, stride=stride, padding=padding, dilation=dilation, groups=c)


def avg_pool(x, kernel, stride=None, padding=0):
    """Average pooling; the divisor counts only valid (non-padding) cells."""
    x = _as_tensor(x)
    _check_4d(x, "pool input")
    kernel = _pair(kernel)
    stride = _pair(stride) if stride is not None else kernel
    padding = _pair(padding)
    (kh, kw), (ph, pw) = kernel, padding
    n, c, h, w = x.data.shape
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ValueError(
            f"pool kernel {kh}x{kw} larger than padded input "
            f"{h + 2 * ph}x{w + 2 * pw}"
        )
    oh, ow = _out_hw(h, w, kernel, stride, padding)
    if oh < 1 or ow < 1:
        raise ValueError("zero-sized pool output")

    xp = _pad(x.data, padding)
    sums = _windows(xp, kernel, stride, (1, 1)).sum(axis=(4, 5))
    onesp = _pad(np.ones((1, 1, h, w)), padding)
    counts = _windows(onesp, kernel, stride, (1, 1)).sum(axis=(4, 5))
    if (counts == 0).any():
        raise ValueError("pool window without any valid cell (padding too large)")
    out = sums / counts
    _count(kh * kw * out.size)

    def bwd(g):
        gn = g / counts
        _acc(x, _scatter_taps(xp, lambda i, j: gn, kernel, stride, (1, 1), padding))

    return _record(out, (x,), bwd)


def global_avg_pool(x):
    """Mean over the full spatial extent: (n, c, 1, 1)."""
    x = _as_tensor(x)
    _check_4d(x, "pool input")
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)
    _count(x.data.size)

    def bwd(g):
        _acc(x, np.broadcast_to(g / (h * w), x.data.shape).copy())

    return _record(out, (x,), bwd)


def batch_norm(x, gamma, beta, running_mean, running_var, mode, momentum=0.1, eps=1e-5):
    """Channel-wise batch normalization.

    Train mode normalizes with batch moments (biased variance) and updates
    the running arrays in place by exponential moving average; eval mode
    normalizes with the running arrays. `running_mean`/`running_var` are
    plain numpy buffers, not tape tensors.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    _check_4d(x, "batch_norm input")
    n, c, h, w = x.data.shape
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.data.shape != (c,):
            raise ValueError(
                f"batch_norm {name} channel axis mismatch: expected ({c},), got {t.data.shape}"
            )
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")

    if mode == "train":
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
    _count(2 * out.size)

    m = n * h * w

    def bwd(g):
        if beta.requires_grad:
            _acc(beta, g.sum(axis=(0, 2, 3)))
        if gamma.requires_grad:
            _acc(gamma, (g * xhat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gxhat = g * gamma.data[None, :, None, None]
            if mode == "train":
                s1 = gxhat.sum(axis=(0, 2, 3), keepdims=True)
                s2 = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                gx = (inv[None, :, None, None] / m) * (m * gxhat - s1 - xhat * s2)
            else:
                gx = gxhat * inv[None, :, None, None]
            _acc(x, gx)

    return _record(out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _resize_matrix(n_in, n_out):
    """Row-stochastic 1-D bilinear matrix, half-pixel centers, clamped."""
    a = np.zeros((n_out, n_in))
    if n_in == 1:
        a[:, 0] = 1.0
        return a
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    f = src - i0
    rows = np.arange(n_out)
    np.add.at(a, (rows, i0), 1.0 - f)
    np.add.at(a, (rows, i1), f)
    return a


def bilinear_resize(x, out_h, out_w, align_corners=False):
    """Bilinear resampling with half-pixel source centers.

    Separable: a 1-D interpolation matrix per axis. align_corners=True is
    deliberately unsupported; half-pixel is the single convention here.
    """
    if align_corners:
        raise ValueError("align_corners=True is not supported; use half-pixel mode")
    x = _as_tensor(x)
    _check_4d(x, "resize input")
    out_h, out_w = int(out_h), int(out_w)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resize target must be >= 1, got {out_h}x{out_w}")
    n, c, h, w = x.data.shape
    if (out_h, out_w) == (h, w):
        out = x.data.copy()

        def bwd_id(g):
            _acc(x, g)

        return _record(out, (x,), bwd_id)

    ah = _resize_matrix(h, out_h)
    aw = _resize_matrix(w, out_w)
    tmp = np.einsum("oh,nchw->ncow", ah, x.data, optimize=True)
    out = np.einsum("pw,ncow->ncop", aw, tmp, optimize=True)
    _count(8 * out.size)

    def bwd(g):
        t = np.einsum("pw,ncop->ncow", aw, g, optimize=True)
        _acc(x, np.einsum("oh,ncow->nchw", ah, t, optimize=True))

    return _record(out, (x,), bwd)
