"""Minimal reverse-mode tensor engine.

Everything runs on 64-bit floats so gradients can be checked tightly
against central finite differences. Convolution is direct (a blocked
im2col-style contraction, no FFT/Winograd), cross-correlation convention,
zero padding. Convolution and pooling share one geometry: the input is
copied once into a zero-filled buffer of the padded shape (`_pad`), and
every kernel tap is read through one read-only strided view of that
buffer (`_tap_view`). Strided dense and grouped convs, strided depthwise
convs and pooling add each tap's gradient back onto the unpadded input,
one clipped strided slice per tap (`_scatter_taps`); every stride-1 conv
gathers its input gradient instead, as below. No backward keeps the
padded copy of a dense conv or pool: the im2col columns are their own
copy, and the scatter needs only the input's shape.

`conv2d` has two contraction paths. A depthwise conv (groups = c_in =
c_out) sums each output cell's tap products in row-major tap order,
starting from 0.0 (`_tap_sum`). While the product of every live tap fits
in `_DW_BATCH_MAX` elements (2 MiB), it forms all of them with one
multiply on a channels-last buffer, so numpy's inner loop runs over
ow * c elements, and adds them with one reduction over the tap axis; a
larger sum multiplies and accumulates one tap at a time on a
channels-first buffer, so the temporary stays small. Both give the same
bits. A stride-1 depthwise conv takes its input gradient as the same tap
sum over the output gradient, the adjoint correlation (Dumoulin and
Visin, "A guide to convolution arithmetic for deep learning", 2016): tap
(i, j) of input cell (y, x) reads the zero-padded output gradient at
(y + ph - i*dh, x + pw - j*dw), a view with negative tap strides. Each
cell gets the products `_scatter_taps` would add, in the same order and
from +0.0; a read that lands in the padding adds +-0.0, which cannot
change a partial sum started from +0.0, so the bits are the scatter's.
Every other conv is one batched matmul of the per-group weight matrix
against the im2col columns, shaped (n, groups, c_in/groups * kh * kw,
oh * ow); for a 1x1 kernel at stride 1 without padding the columns are
the input itself, reshaped. Its backward's matmul gives the gradient
reaching each tap. At stride 1 each input cell then adds those at
(y + ph - i*dh, x + pw - j*dw) over the live taps, in row-major order from
+0.0 (`_dense_input_grad`), the scatter's sums again: on small maps as one
copy of the reversed-stride view and one reduction over the tap axis,
otherwise through `_scatter_taps` itself. A 1x1 unpadded conv's input
gradient is its gradient columns plus 0.0, the scatter's 0.0 + v in one op.

Taps that read only padding are skipped (`_live_taps`): a dilated strip
on a small map reaches far past its border, and such a tap would add
exact zeros. The live taps are a contiguous block of rows and columns.
Every depthwise tap sum and weight gradient, every dense input gradient
and every `_scatter_taps` loop run over them only, so results are
unchanged apart from the sign of an exact zero. The FLOP meter still
charges every nominal tap.

`select_mix` is the kernel selector's whole mix in one op: the joint
spatial-times-channel logits, the softmax across branches
(`_select_weights`) and the weighted sum of the branches, with one
hand-written backward.

The autodiff graph is a define-by-run tape: every operation that sees a
grad-requiring input records a backward closure on its output.

Finiteness is checked at the boundaries, not on every op output: a
user-built `Tensor` or `Parameter` is scanned when it is constructed, and
the model checks its outputs and the train loop its loss and gradients.
Op outputs are not scanned, so an op may return Inf or NaN. When a
boundary check fails, its caller re-runs the failed computation inside
`op_checks`; while armed, every op output and every gradient a backward
closure produces is scanned, and the first non-finite one raises
`NonFiniteError` naming the op and the module path it ran under.

Conventions fixed here and relied on everywhere else:
  * bilinear resizing uses half-pixel source centers (there is no
    align_corners mode),
  * batch norm uses biased variance and updates running statistics as
    running = (1 - momentum) * running + momentum * batch_stat,
  * the selector softmax subtracts the (detached) max over its branch
    axis before exp.

A FLOP meter can be armed in a thread with `flop_meter()`. Every op
hands its nominal FLOPs, by the conventions documented in
`lka_seg.costs`, to `_record` with its output, and `_record` adds them to
the armed meter (the static model mirrors the same table independently).
`_record` is also where armed `op_checks` see each op.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from scipy.special import erf, expit

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "flop_meter",
    "add",
    "sub",
    "mul",
    "concat",
    "channel_mean",
    "channel_max",
    "relu",
    "gelu",
    "sigmoid",
    "select_mix",
    "conv2d",
    "avg_pool",
    "global_avg_pool",
    "batch_norm",
    "bilinear_resize",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Largest live-tap product (taps * n * c * oh * ow elements) a depthwise
# tap sum forms in one channels-last multiply; above it the tap loop keeps
# the temporary small. Forward, one BLAS thread, batched vs looped: 5x5
# b4 c16 8x8 (0.8 MiB) 153 vs 210 us, b2 c64 8x8 (1.6 MiB) 269 vs 357 us,
# b4 c64 8x8 (3.1 MiB) 611 vs 671 us, b2 c32 16x16 (3.1 MiB) 650 vs 485 us;
# 1x11 strip b2 c32 16x16 (1.4 MiB) 297 vs 239 us. Wider maps favour the
# loop sooner, so no bound splits them cleanly: 2^17 would loop the b2 c64
# 8x8 conv of a 256x256 evaluate, and 2^19 would batch its b2 c32 16x16.
_DW_BATCH_MAX = 1 << 18
# Largest zero-padded block of one tap (n * c * (h + reach) * (w + reach)
# elements) for which a stride-1 dense input gradient copies out every
# tap's block and adds them in one reduction; above it, adding one tap at
# a time onto the input's cells costs less than the copy. One BLAS thread,
# gather vs tap loop, b4: 7x7 c2 4x4 (block 800) 27 vs 112 us, 3x3 c16
# 8x8 (6400) 62 vs 64 us, 5x5 c16 8x8 (9216) 231 vs 187 us, 3x3 c48 8x8
# (19200) 228 vs 166 us.
_DENSE_GATHER_MAX = 1 << 13


class _State(threading.local):
    def __init__(self):
        self.grad_enabled = True
        self.meter = None
        self.checks = None   # an _OpChecks while `op_checks` is armed


_state = _State()


@contextmanager
def _armed(slot, value):
    """Set `_state.<slot>` to `value` for the block, then restore it."""
    prev = getattr(_state, slot)
    setattr(_state, slot, value)
    try:
        yield value
    finally:
        setattr(_state, slot, prev)


def no_grad():
    """Disable tape recording inside the block (inference / oracles)."""
    return _armed("grad_enabled", False)


class FlopMeter:
    """Runtime FLOPs of the ops run while armed; `_record` adds to `total`."""

    def __init__(self):
        self.total = 0


def flop_meter():
    """Arm a runtime FLOP counter; yields the meter."""
    return _armed("meter", FlopMeter())


def _pair(v, name, low=1):
    """`v` (an int or a pair) as an (h, w) pair of ints, each >= `low`."""
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError(f"{name} must be an int or a pair, got {v!r}")
        h, w = int(v[0]), int(v[1])
    else:
        h = w = int(v)
    if h < low or w < low:
        raise ValueError(f"{name} must be >= {low}, got {v!r}")
    return h, w


class NonFiniteError(ValueError):
    """A tensor or loss holds NaN or Inf.

    Not listed in `__all__`: `perfbench/tracer.py` wraps every callable
    named there, apart from its own list of non-ops, as a tensor op.
    """


class Tensor:
    """A numpy-backed value on the autodiff tape.

    Feature maps are 4-D (n, c, h, w); parameters may be lower rank.
    Data is always float64. A tensor built by a caller (inputs, parameters,
    constants) must be finite: non-finite values are rejected with
    `NonFiniteError` at construction. Op outputs skip that scan (`_scan`
    is private to `_record`); see the module docstring for where they are
    checked instead.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd", "_done")

    def __init__(self, data, requires_grad=False, _scan=True):
        arr = np.asarray(data, dtype=np.float64)
        if _scan and not np.isfinite(arr).all():
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def item(self):
        return float(self.data.reshape(-1)[0])

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


class Parameter(Tensor):
    """A trainable leaf tensor."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _as_tensor(v):
    if isinstance(v, Tensor):
        return v
    return Tensor(v)


def _acc(t, g):
    t.grad = g if t.grad is None else t.grad + g


class _OpChecks:
    """State of one armed `op_checks` block in one thread."""

    def __init__(self, names):
        self.names = names   # id(module) -> its module path
        self.stack = []      # modules being called, innermost last

    def where(self, bwd):
        """'<op> at <module path>' of the op whose backward closure is `bwd`."""
        # "conv2d.<locals>.bwd" -> "conv2d"
        op = bwd.__qualname__.rsplit(".<locals>.", 1)[0].rsplit(".", 1)[-1]
        if not self.stack:
            return f"{op} outside any module"
        mod = self.stack[-1]
        return f"{op} at {self.names.get(id(mod)) or type(mod).__name__}"

    def watch(self, data, parents, bwd):
        """Scan an op's output; return its backward closure, made to scan
        the gradients it adds to the op's inputs."""
        where = self.where(bwd)
        if not np.isfinite(data).all():
            raise NonFiniteError(
                f"{where}, the first op to output a non-finite value")

        def checked(g):
            bwd(g)
            for p in parents:
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise NonFiniteError(f"the backward of {where}, the first "
                                         "to make a non-finite gradient")

        return checked


def op_checks(names):
    """Arm per-op finiteness checks in this thread for the block.

    `names` maps `id(module)` to its module path; `Module.__call__` keeps
    the stack of modules being called while armed, so a failing op is
    named with the path of the innermost one. Meant for re-running a
    computation that failed a boundary check (`nn.locate_nonfinite`).
    Not in `__all__`: perfbench's tracer would wrap it as an op.
    """
    return _armed("checks", _OpChecks(names))


def _record(data, parents, bwd, flops=0):
    """The op output `data` as a tape tensor. Charges `flops`, the op's
    nominal cost, to an armed meter before armed checks scan `data`."""
    meter = _state.meter
    if meter is not None:
        meter.total += flops
    checks = _state.checks
    if checks is not None:
        bwd = checks.watch(data, parents, bwd)
    out = Tensor(data, _scan=False)
    if _state.grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._bwd = bwd
    return out


def custom_op(data, parents, bwd):
    """Record a hand-written op (fused losses live outside this module);
    it charges no FLOPs."""
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

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g, b.data.shape))

    return _record(out, (a, b), bwd, out.size)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(-g, b.data.shape))

    return _record(out, (a, b), bwd, out.size)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), bwd, out.size)


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


def channel_mean(x):
    """Mean over the channel axis, keepdims: (n, 1, h, w)."""
    x = _as_tensor(x)
    out = x.data.mean(axis=1, keepdims=True)
    c = x.data.shape[1]

    def bwd(g):
        _acc(x, np.broadcast_to(g / c, x.data.shape).copy())

    return _record(out, (x,), bwd, x.data.size)


def channel_max(x):
    """Max over the channel axis, keepdims; gradient routes to the argmax."""
    x = _as_tensor(x)
    out = x.data.max(axis=1, keepdims=True)

    def bwd(g):
        mask = x.data == out  # ties share the incoming gradient
        counts = mask.sum(axis=1, keepdims=True)
        _acc(x, mask * (g / counts))

    return _record(out, (x,), bwd, x.data.size)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x):
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        _acc(x, g * (x.data > 0))

    return _record(out, (x,), bwd, out.size)


def gelu(x):
    """Exact (erf-based) GELU: x * Phi(x)."""
    x = _as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        _acc(x, g * (phi + x.data * pdf))

    return _record(out, (x,), bwd, out.size)


def sigmoid(x):
    x = _as_tensor(x)
    s = expit(x.data)

    def bwd(g):
        _acc(x, g * s * (1.0 - s))

    return _record(s, (x,), bwd, s.size)


def _select_weights(s, cvec):
    """Softmax across branches of the joint logits s_i * cvec_i (numpy).

    s: (n, k, h, w) spatial logits, one map per branch; cvec: (n, k*c, 1, 1)
    channel logits, branch-major. Returns the weights (n, k, c, h, w); at
    every (n, c, h, w) they are >= 0 and sum to 1 over the k branches.
    """
    n, k = s.shape[:2]
    if cvec.shape[1] % k:
        raise ValueError(
            f"channel logits {cvec.shape[1]} not divisible by {k} branches")
    logits = s[:, :, None] * cvec.reshape(n, k, -1, 1, 1)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def select_mix(s, cvec, branches):
    """Selector mix: sum_i w_i * b_i with w = `_select_weights(s, cvec)`.

    s: (n, k, h, w); cvec: (n, k*c, 1, 1); branches: k tensors (n, c, h, w).
    """
    s, cvec = _as_tensor(s), _as_tensor(cvec)
    bs = [_as_tensor(b) for b in branches]
    _check_4d(s, "selector logits")
    n, k, h, w = s.data.shape
    c = cvec.data.shape[1] // k if cvec.data.ndim == 4 else -1
    if cvec.data.shape != (n, k * c, 1, 1) or len(bs) != k or any(
            b.data.shape != (n, c, h, w) for b in bs):
        raise ValueError(
            f"selector logits {s.data.shape} need channel logits (n, k*c, 1, 1) "
            f"and k branches (n, c, h, w), got {cvec.data.shape} and "
            f"{[b.data.shape for b in bs]}")
    wts = _select_weights(s.data, cvec.data)
    out = wts[:, 0] * bs[0].data
    for i in range(1, k):
        out = out + wts[:, i] * bs[i].data
    # joint logits 1 and softmax 4 per logit; k muls and k - 1 adds per output
    flops = 5 * wts.size + (2 * k - 1) * out.size

    def bwd(g):
        for i, b in enumerate(bs):
            if b.requires_grad:
                _acc(b, g * wts[:, i])
        if s.requires_grad or cvec.requires_grad:
            gw = np.empty_like(wts)
            for i, b in enumerate(bs):
                np.multiply(g, b.data, out=gw[:, i])
            gl = wts * (gw - (gw * wts).sum(axis=1, keepdims=True))
            if s.requires_grad:
                _acc(s, (gl * cvec.data.reshape(n, k, -1, 1, 1)).sum(axis=2))
            if cvec.requires_grad:
                _acc(cvec, (gl * s.data[:, :, None]).sum(axis=(3, 4)).reshape(
                    cvec.data.shape))

    return _record(out, (s, cvec, *bs), bwd, flops)


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


def _pad(arr, padding, last=False):
    """Zero-padded copy of a 4-D array, C-contiguous unless `last`.

    One zero-filled buffer of the padded shape with the input copied into
    its interior, so the values equal constant-mode `np.pad`. Without
    padding an input already in the wanted layout is returned as is; any
    other layout is copied, because the order in which numpy sums the
    window taps follows the memory layout, and results must not depend on
    it. With `last` the buffer is channels-last, as `_embed` lays it out.
    """
    ph, pw = padding
    n, c, h, w = arr.shape
    if last:
        if not (ph or pw) and arr.transpose(0, 2, 3, 1).flags.c_contiguous:
            return arr
        out = np.zeros((n, h + 2 * ph, w + 2 * pw, c)).transpose(0, 3, 1, 2)
    elif ph or pw:
        out = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    else:
        return np.ascontiguousarray(arr)
    out[:, :, ph : ph + h, pw : pw + w] = arr
    return out


def _embed(arr, size, at, last):
    """A zero-filled (..., c, *size) buffer holding `arr` (..., c, h, w).

    `arr`'s cell (0, 0) lands at `at`, which may be negative; what falls
    outside the buffer is cropped. With `last` the memory is channels-last,
    a C-contiguous (..., H, W, c) block, and the result is its view with
    the channel axis moved back; otherwise the result is C-contiguous.
    """
    *lead, c, h, w = arr.shape
    (hb, wb), (y0, x0) = size, at
    if last:
        k = len(lead)
        buf = np.zeros((*lead, hb, wb, c)).transpose(*range(k), k + 2, k, k + 1)
    else:
        buf = np.zeros((*lead, c, hb, wb))
    ys = slice(max(y0, 0), min(y0 + h, hb))
    xs = slice(max(x0, 0), min(x0 + w, wb))
    buf[..., ys, xs] = arr[..., ys.start - y0 : ys.stop - y0,
                           xs.start - x0 : xs.stop - x0]
    return buf


@lru_cache(maxsize=None)
def _live_taps(size, kernel, stride, padding, dilation, out):
    """Kernel tap rows and columns that read at least one input cell.

    Per axis, tap i of output y reads input cell i*d - p + y*s (y < o, the
    output size). The tap is dead when its first read lies past the input
    (i*d - p >= size) or its last before it (i*d - p + (o-1)*s < 0). Both
    tests are monotone in i, so the live taps are one `range` per axis.
    The test is sufficient, not exact: a tap whose reads straddle the
    input but step over every cell (stride > size) is kept.
    """
    spans = []
    for n, k, s, p, d, o in zip(size, kernel, stride, padding, dilation, out):
        lo = max(0, -(((o - 1) * s - p) // d))   # ceil((p - (o-1)*s) / d)
        hi = min(k, -(-(n + p) // d))            # ceil((n + p) / d)
        spans.append(range(lo, max(lo, hi)))
    return tuple(spans)


def _in_bounds(start, count, step, size):
    """Reads start + y*step (y < count) that land in [0, size), per axis.

    Returns (input slice, output slice), or None when every read misses.
    """
    lo = max(0, -(start // step))                # ceil(-start / step)
    hi = min(count, -((start - size) // step))   # ceil((size - start) / step)
    if lo >= hi:
        return None
    return slice(start + lo * step, start + hi * step, step), slice(lo, hi)


def _scatter_taps(shape, tap_grad, kernel, stride, dilation, padding):
    """Input gradient (n, c, h, w) of a tap view, C-contiguous.

    The adjoint of `_tap_view` over `_pad`: `tap_grad(i, j)`, the
    (n, c, oh, ow) gradient reaching tap (i, j), goes back to the input
    cells the tap read. Per axis, output y of tap i read input cell
    i*d - p + y*s. On a zero grid of `shape`, the live taps add, in
    row-major order, the in-bounds part of their gradient through one
    clipped strided slice each, so every cell sums its taps in that order
    from +0.0. Reads of the padding have no cell and are dropped, as is a
    live tap that steps over every cell (stride > size).
    """
    n, c, h, w = shape
    (sh, sw), (dh, dw), (ph, pw) = stride, dilation, padding
    oh, ow = _out_hw(h, w, kernel, stride, padding, dilation)
    rows, cols = _live_taps((h, w), kernel, stride, padding, dilation, (oh, ow))
    xspans = [_in_bounds(j * dw - pw, ow, sw, w) for j in cols]
    out = np.zeros(shape)
    for i in rows:
        ys = _in_bounds(i * dh - ph, oh, sh, h)
        for j, xs in zip(cols, xspans):
            if ys and xs:
                out[:, :, ys[0], xs[0]] += tap_grad(i, j)[:, :, ys[1], xs[1]]
    return out


def _dw_batched(taps, cells):
    """Whether a depthwise tap sum forms all its products in one multiply."""
    # numpy sums a lone cell's taps pairwise, which rounds differently
    return 1 < cells and taps * cells <= _DW_BATCH_MAX


def _tap_view(buf, taps, out, origin, step, stride):
    """Read-only view (th, tw, n, c, oh, ow) of a tap sum's reads.

    Tap (a, b) of cell (y, x) reads `buf` (n, c, H, W) at
    (origin[0] + a*step[0] + y*stride[0], origin[1] + b*step[1] + x*stride[1]);
    a negative step reads the taps backwards. A (th, tw, n, c, H, W) `buf`
    holds one block per tap, and tap (a, b) reads block (a, b). `buf` is
    `_embed`'s or `_pad`'s output: C-contiguous, or a view of a
    C-contiguous channels-last block. The view is built on that block with
    `np.ndarray`, which raises if any read would fall outside it. With
    origin (0, 0), the dilation as `step` and the kernel as `taps`, it is
    every tap of a conv or pool over `_pad`'s buffer: the dense im2col and
    the pool read it transposed to (n, c, th, tw, oh, ow) and
    (n, c, oh, ow, th, tw).
    """
    k = buf.ndim - 4
    mem = buf if buf.flags.c_contiguous else buf.transpose(
        *range(k + 1), k + 2, k + 3, k + 1)
    *block, s0, s1, s2, s3 = buf.strides
    ba, bb = block or (0, 0)
    win = np.ndarray((*taps, *buf.shape[-4:-2], *out), buf.dtype, mem,
                     origin[0] * s2 + origin[1] * s3,
                     (ba + step[0] * s2, bb + step[1] * s3, s0, s1,
                      stride[0] * s2, stride[1] * s3))
    win.flags.writeable = False
    return win


def _adjoint_view(g, size, live, dilation, padding, last):
    """Reversed-stride view (th, tw, n, c, h, w) of a stride-1 input gradient.

    Tap (i, j) of input cell (y, x) reads the output gradient `g` at
    (y + ph - i*dh, x + pw - j*dw), i and j over the `live` tap ranges;
    `g` is zero-padded (`_embed`, channels-last with `last`) to cover
    every such read. `g` is (n, c, oh, ow), shared by every tap, or
    (th, tw, n, c, oh, ow), one block per live tap.
    """
    (rows, cols), (dh, dw), (ph, pw) = live, dilation, padding
    reach = (len(rows) - 1) * dh, (len(cols) - 1) * dw
    gp = _embed(g, (size[0] + reach[0], size[1] + reach[1]),
                ((rows.stop - 1) * dh - ph, (cols.stop - 1) * dw - pw), last)
    return _tap_view(gp, (len(rows), len(cols)), size, reach, (-dh, -dw), (1, 1))


def _tap_sum(view, wt):
    """Depthwise tap sum: (n, c, oh, ow), C-contiguous.

    Sums view[a, b] * wt[:, a, b] (per channel) over the taps of `view`,
    `_tap_view`'s output, in row-major tap order, starting from 0.0, so
    both paths below give the same bits. While the products fit
    `_DW_BATCH_MAX` they are formed in one multiply, channels-last, and
    added with one reduction over the tap axis; over a channels-last
    buffer numpy's inner loop then runs ow * c elements. A larger sum
    multiplies and adds one tap at a time, so the temporary stays small.
    """
    th, tw, n, c, oh, ow = view.shape
    if _dw_batched(th * tw, n * c * oh * ow):
        prod = np.multiply(view.transpose(0, 1, 2, 4, 5, 3),
                           wt.transpose(1, 2, 0)[:, :, None, None, None, :],
                           order="C")
        # reducing the outer axis, numpy adds the taps one after another
        out = np.add.reduce(prod.reshape(th * tw, n, oh, ow, c), axis=0,
                            initial=0.0)
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    out = np.zeros((n, c, oh, ow))
    for a in range(th):
        for b in range(tw):
            out += view[a, b] * wt[None, :, a, b, None, None]
    return out


def _dense_input_grad(taps, size, dilation, padding):
    """Input gradient (n, c, h, w) of a stride-1 dense conv, C-contiguous.

    `taps` (n, c, kh, kw, oh, ow) holds the gradient reaching each tap.
    Input cell (y, x) adds taps[:, :, i, j] at (y + ph - i*dh, x + pw - j*dw)
    over the live taps, in row-major order, from +0.0, as `_scatter_taps`
    does. While one tap's zero-padded block (`_adjoint_view`) fits
    `_DENSE_GATHER_MAX`, every block is copied out in one go and the taps
    are added with one reduction over the tap axis; a read that lands in
    the padding adds +-0.0, which cannot change a sum started from +0.0.
    A larger gradient is `_scatter_taps`'s.
    """
    n, c, kh, kw, oh, ow = taps.shape
    (h, w), (dh, dw) = size, dilation
    live = rows, cols = _live_taps(size, (kh, kw), (1, 1), padding, dilation, (oh, ow))
    th, tw = len(rows), len(cols)
    block = n * c * (h + (th - 1) * dh) * (w + (tw - 1) * dw)
    # numpy sums a lone cell's taps pairwise, which rounds differently
    if 1 < n * c * h * w and block <= _DENSE_GATHER_MAX:
        blocks = taps[:, :, rows.start:rows.stop, cols.start:cols.stop]
        view = _adjoint_view(blocks.transpose(2, 3, 0, 1, 4, 5), size, live,
                             dilation, padding, last=False)
        return np.add.reduce(np.ascontiguousarray(view).reshape(th * tw, n, c, h, w),
                             axis=0, initial=0.0)
    return _scatter_taps((n, c, h, w), lambda i, j: taps[:, :, i, j], (kh, kw),
                         (1, 1), dilation, padding)


def conv2d(x, w, b=None, stride=1, padding=0, dilation=1, groups=1):
    """Direct grouped/strided/dilated 2-D convolution (cross-correlation).

    x: (n, c_in, h, w); w: (c_out, c_in / groups, kh, kw); b: (c_out,) or None.
    Output spatial size follows floor((h + 2p - (k - 1) d - 1) / s) + 1.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    _check_4d(x, "conv input")
    if w.data.ndim != 4:
        raise ValueError(f"conv weight must be 4-D, got shape {w.data.shape}")
    stride, dilation = _pair(stride, "stride"), _pair(dilation, "dilation")
    padding = _pair(padding, "padding", 0)
    g = int(groups)

    n, cin, h, wdt = x.data.shape
    cout, cg = w.data.shape[:2]
    kernel = kh, kw = _pair(w.data.shape[2:], "kernel")
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

    depthwise_path = g == cin == cout

    if depthwise_path:
        # per-channel taps: sum w[c, 0, i, j] * window tap over the live taps
        rows, cols = _live_taps((h, wdt), kernel, stride, padding, dilation, (oh, ow))
        th, tw = len(rows), len(cols)
        dh, dw = dilation
        xp = _pad(x.data, padding, last=_dw_batched(th * tw, n * cout * oh * ow))
        win = _tap_view(xp, (th, tw), (oh, ow), (rows.start * dh, cols.start * dw),
                        dilation, stride)
        out = _tap_sum(win, w.data[:, 0, rows.start:rows.stop, cols.start:cols.stop])
    else:
        # one batched contraction over (n, group): (cout/g, cg*kh*kw) @ cols
        xp = _pad(x.data, padding)
        pointwise = kernel == stride == (1, 1) and padding == (0, 0)
        if pointwise:
            cols = xp.reshape(n, g, cg, h * wdt)  # a 1x1 kernel's columns
        else:
            cols = _tap_view(xp, kernel, (oh, ow), (0, 0), dilation, stride).transpose(
                2, 3, 0, 1, 4, 5).reshape(n, g, cg * kh * kw, oh * ow)
        out = np.matmul(w.data.reshape(g, cout // g, -1), cols).reshape(
            n, cout, oh, ow)
    flops = 2 * kh * kw * (cin // g) * cout * oh * ow * n
    if b is not None:
        out = out + b.data[None, :, None, None]
        flops += cout * oh * ow * n

    parents = (x, w) if b is None else (x, w, b)

    def bwd(g_out):
        if b is not None and b.requires_grad:
            _acc(b, g_out.sum(axis=(0, 2, 3)))
        if depthwise_path:
            if w.requires_grad:
                gw = np.zeros_like(w.data)  # a dead tap's gradient is zero
                for ti, i in enumerate(rows):
                    for tj, j in enumerate(cols):
                        # C order: the sum's bits follow the product's layout
                        gw[:, 0, i, j] = np.multiply(g_out, win[ti, tj], order="C").sum(
                            axis=(0, 2, 3))
                _acc(w, gw)
            if x.requires_grad and stride == (1, 1):
                gwin = _adjoint_view(g_out, (h, wdt), (rows, cols), dilation, padding,
                                     last=_dw_batched(th * tw, x.data.size))
                _acc(x, _tap_sum(
                    gwin, w.data[:, 0, rows.start:rows.stop, cols.start:cols.stop]))
            elif x.requires_grad:
                _acc(x, _scatter_taps(
                    x.shape, lambda i, j: g_out * w.data[None, :, 0, i, j, None, None],
                    kernel, stride, dilation, padding))
            return
        gog = g_out.reshape(n, g, cout // g, oh * ow)
        if w.requires_grad:
            gw = np.matmul(gog, cols.transpose(0, 1, 3, 2)).sum(axis=0)
            _acc(w, gw.reshape(w.data.shape))
        if x.requires_grad:
            # w.data is read here, not captured from the forward: SGD rebinds
            # it, and a captured view would keep the old weights alive
            gcols = np.matmul(w.data.reshape(g, cout // g, -1).transpose(0, 2, 1), gog)
            taps = gcols.reshape(n, cin, kh, kw, oh, ow)
            if pointwise:
                # one tap: the scatter's 0.0 + v as one op
                _acc(x, gcols.reshape(x.data.shape) + 0.0)
            elif stride == (1, 1):
                _acc(x, _dense_input_grad(taps, (h, wdt), dilation, padding))
            else:
                _acc(x, _scatter_taps(x.shape, lambda i, j: taps[:, :, i, j],
                                      kernel, stride, dilation, padding))

    return _record(out, parents, bwd, flops)


def avg_pool(x, kernel, stride=None, padding=0):
    """Average pooling; the divisor counts only valid (non-padding) cells."""
    x = _as_tensor(x)
    _check_4d(x, "pool input")
    kernel = _pair(kernel, "kernel")
    stride = _pair(stride, "stride") if stride is not None else kernel
    padding = _pair(padding, "padding", 0)
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

    def window_sums(arr):
        view = _tap_view(_pad(arr, padding), kernel, (oh, ow), (0, 0), (1, 1), stride)
        return view.transpose(2, 3, 4, 5, 0, 1).sum(axis=(4, 5))

    sums = window_sums(x.data)
    counts = window_sums(np.ones((1, 1, h, w)))
    if (counts == 0).any():
        raise ValueError("pool window without any valid cell (padding too large)")
    out = sums / counts

    def bwd(g):
        gn = g / counts
        _acc(x, _scatter_taps(x.shape, lambda i, j: gn, kernel, stride, (1, 1), padding))

    return _record(out, (x,), bwd, kh * kw * out.size)


def global_avg_pool(x):
    """Mean over the full spatial extent: (n, c, 1, 1)."""
    x = _as_tensor(x)
    _check_4d(x, "pool input")
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def bwd(g):
        _acc(x, np.broadcast_to(g / (h * w), x.data.shape).copy())

    return _record(out, (x,), bwd, x.data.size)


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

    m = n * h * w
    mean = x.data.mean(axis=(0, 2, 3)) if mode == "train" else running_mean
    # x - mean, scaled in place into xhat below. `x.var` sums the same
    # squares over the same axes, so train-mode var is byte-equal to it.
    xhat = x.data - mean[None, :, None, None]
    if mode == "train":
        out = np.multiply(xhat, xhat)
        var = out.sum(axis=(0, 2, 3)) / m
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        out = np.empty_like(xhat)
        var = running_var

    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv[None, :, None, None]
    np.multiply(xhat, gamma.data[None, :, None, None], out=out)
    out += beta.data[None, :, None, None]

    def bwd(g):
        # In place, one elementwise op at a time, each one of
        # (inv / m) * (m * gxhat - s1 - xhat * s2) in its order, so the bits
        # are that expression's; `prod` is the one scratch buffer for the
        # products with xhat.
        prod = None
        if beta.requires_grad:
            _acc(beta, g.sum(axis=(0, 2, 3)))
        if gamma.requires_grad:
            prod = np.multiply(g, xhat)
            _acc(gamma, prod.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gx = g * gamma.data[None, :, None, None]
            if mode == "train":
                s1 = gx.sum(axis=(0, 2, 3), keepdims=True)
                prod = np.multiply(gx, xhat, out=prod)
                s2 = prod.sum(axis=(0, 2, 3), keepdims=True)
                gx *= m
                gx -= s1
                gx -= np.multiply(xhat, s2, out=prod)
                gx *= inv[None, :, None, None] / m
            else:
                gx *= inv[None, :, None, None]
            _acc(x, gx)

    return _record(out, (x, gamma, beta), bwd, 2 * out.size)


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


def bilinear_resize(x, out_h, out_w):
    """Bilinear resampling with half-pixel source centers.

    Separable: a 1-D interpolation matrix per axis, applied forward as two
    matmuls (an einsum would plan its contraction on every call). Half-pixel
    is the only convention here (no align_corners mode). A same-size call
    takes the same path: its matrices are identities.
    """
    x = _as_tensor(x)
    _check_4d(x, "resize input")
    out_h, out_w = int(out_h), int(out_w)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resize target must be >= 1, got {out_h}x{out_w}")
    h, w = x.data.shape[2:]
    ah = _resize_matrix(h, out_h)
    aw = _resize_matrix(w, out_w)
    out = np.matmul(np.matmul(ah, x.data), aw.T)

    def bwd(g):
        t = np.einsum("pw,ncop->ncow", aw, g, optimize=True)
        _acc(x, np.einsum("oh,ncow->nchw", ah, t, optimize=True))

    return _record(out, (x,), bwd, 8 * out.size)
