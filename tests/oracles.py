"""Independent reference implementations used to check the engine.

Everything here is deliberately written the slow, obvious way (scalar
loops, direct formula evaluation) and shares no code with the package
under test.
"""

import math

import numpy as np


def conv2d_naive(x, w, b=None, stride=(1, 1), padding=(0, 0), dilation=(1, 1), groups=1):
    """Six-nested-loop direct cross-correlation."""
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    assert cg == cin // groups
    oh = (h + 2 * ph - (kh - 1) * dh - 1) // sh + 1
    ow = (wd + 2 * pw - (kw - 1) * dw - 1) // sw + 1
    out = np.zeros((n, cout, oh, ow))
    cout_g = cout // groups
    for ni in range(n):
        for co in range(cout):
            grp = co // cout_g
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for ky in range(kh):
                            iy = oy * sh + ky * dh - ph
                            if iy < 0 or iy >= h:
                                continue
                            for kx in range(kw):
                                ix = ox * sw + kx * dw - pw
                                if ix < 0 or ix >= wd:
                                    continue
                                acc += (
                                    x[ni, grp * cg + ci, iy, ix]
                                    * w[co, ci, ky, kx]
                                )
                    if b is not None:
                        acc += b[co]
                    out[ni, co, oy, ox] = acc
    return out


def depthwise_tap_loop(x, w, padding=(0, 0), dilation=(1, 1)):
    """Stride-1 depthwise correlation summed one tap at a time.

    Every tap, in row-major tap order, is added onto a zero array; that
    order fixes the rounding, and the +0.0 start fixes the sign of an
    exact zero. A tap that reads only padding adds exact zeros, which
    leave every bit as it is.
    """
    n, c, h, wd = x.shape
    _, _, kh, kw = w.shape
    (ph, pw), (dh, dw) = padding, dilation
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = h + 2 * ph - (kh - 1) * dh
    ow = wd + 2 * pw - (kw - 1) * dw
    out = np.zeros((n, c, oh, ow))
    for i in range(kh):
        for j in range(kw):
            tap = xp[:, :, i * dh : i * dh + oh, j * dw : j * dw + ow]
            out += tap * w[None, :, 0, i, j, None, None]
    return out


def depthwise_tap_loop_grads(x, w, g, padding=(0, 0), dilation=(1, 1)):
    """Gradients (x, w) of <depthwise_tap_loop(x, w), g>, one tap at a time.

    Only live taps count: a tap is live when it reads at least one input
    cell. Input gradient: every live tap, in row-major order, adds
    g * w[c, 0, i, j] onto a zero grid laid out like the padded input, at
    the cells the tap read; the padding is cropped at the end. Weight
    gradient: per live tap, one reduction over (n, y, x) of g times the
    tap's window; a dead tap's gradient is +0.0.
    """
    n, c, h, wd = x.shape
    _, _, kh, kw = w.shape
    (ph, pw), (dh, dw) = padding, dilation
    _, _, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i in range(kh):
        if not any(0 <= i * dh - ph + y < h for y in range(oh)):
            continue
        for j in range(kw):
            if not any(0 <= j * dw - pw + x_ < wd for x_ in range(ow)):
                continue
            rows = slice(i * dh, i * dh + oh)
            cols = slice(j * dw, j * dw + ow)
            gxp[:, :, rows, cols] += g * w[None, :, 0, i, j, None, None]
            gw[:, 0, i, j] = (g * xp[:, :, rows, cols]).sum(axis=(0, 2, 3))
    return gxp[:, :, ph : ph + h, pw : pw + wd], gw


def conv2d_naive_grads(x, w, gout, stride=(1, 1), padding=(0, 0), dilation=(1, 1),
                       groups=1):
    """Gradients (x, w, b) of <conv2d_naive(x, w, b), gout>, the same six loops."""
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    _, _, oh, ow = gout.shape
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    cout_g = cout // groups
    for ni in range(n):
        for co in range(cout):
            grp = co // cout_g
            for oy in range(oh):
                for ox in range(ow):
                    g = gout[ni, co, oy, ox]
                    for ci in range(cg):
                        for ky in range(kh):
                            iy = oy * sh + ky * dh - ph
                            if iy < 0 or iy >= h:
                                continue
                            for kx in range(kw):
                                ix = ox * sw + kx * dw - pw
                                if ix < 0 or ix >= wd:
                                    continue
                                gx[ni, grp * cg + ci, iy, ix] += g * w[co, ci, ky, kx]
                                gw[co, ci, ky, kx] += g * x[ni, grp * cg + ci, iy, ix]
    return gx, gw, gout.sum(axis=(0, 2, 3))


def dense_input_grad_scatter(w, g, x_shape, padding=(0, 0), dilation=(1, 1),
                             stride=(1, 1)):
    """Input gradient of a dense conv (groups 1), tap by tap.

    The per-tap gradients are the engine's `gcols` matmul, same shapes;
    `scatter_tap_grads` adds them up.
    """
    n = x_shape[0]
    cout, cin, kh, kw = w.shape
    _, _, oh, ow = g.shape
    gcols = np.matmul(w.reshape(1, cout, -1).transpose(0, 2, 1),
                      g.reshape(n, 1, cout, oh * ow))
    return scatter_tap_grads(gcols.reshape(n, cin, kh, kw, oh, ow), x_shape,
                             padding, dilation, stride)


def scatter_tap_grads(taps, x_shape, padding=(0, 0), dilation=(1, 1), stride=(1, 1)):
    """Input gradient from the gradients `taps` (n, c, kh, kw, oh, ow)
    reaching each tap of a conv or pool.

    Every tap, in row-major order, adds its gradient onto a zero grid laid
    out like the padded input, at the cells the tap read (every stride-th
    cell from the tap's offset); the padding is cropped at the end. A tap
    that reads only padding adds only to the cropped border.
    """
    n, cin, h, wd = x_shape
    _, _, kh, kw, oh, ow = taps.shape
    (ph, pw), (dh, dw), (sh, sw) = padding, dilation, stride
    gxp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i * dh : i * dh + sh * oh : sh,
                j * dw : j * dw + sw * ow : sw] += taps[:, :, i, j]
    return gxp[:, :, ph : ph + h, pw : pw + wd]


def batch_norm_grads_plain(x, gamma, g, mode, running_mean=None, running_var=None,
                           eps=1e-5):
    """Gradients (x, gamma, beta) of batch norm, each in one expression.

    `xhat` and `inv` are formed as the forward forms them; the train-mode
    input gradient is (inv / m) * (m * gxhat - s1 - xhat * s2).
    """
    n, c, h, w = x.shape
    m = n * h * w
    if mode == "train":
        mean = x.mean(axis=(0, 2, 3))
        d = x - mean[None, :, None, None]
        var = (d * d).sum(axis=(0, 2, 3)) / m
    else:
        mean, var = running_mean, running_var
        d = x - mean[None, :, None, None]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv[None, :, None, None]
    gxhat = g * gamma[None, :, None, None]
    if mode == "train":
        s1 = gxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        gx = (inv[None, :, None, None] / m) * (m * gxhat - s1 - xhat * s2)
    else:
        gx = gxhat * inv[None, :, None, None]
    return gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def ohem_two_softmax(x, labels, threshold, min_kept, ignore_index=255):
    """Hard-example cross-entropy and its gradient for a unit upstream
    gradient, with the mining softmax and the loss's log-sum-exp each
    computed from scratch. `x` is (n, k, h, w) logits."""
    valid = labels != ignore_index
    n_valid = int(valid.sum())
    keep = valid
    if n_valid and threshold < 1.0:
        z = x - x.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        safe = np.where(valid, labels, 0)[:, None]
        p_true = np.take_along_axis(p, safe, axis=1)[:, 0]
        keep = valid & (p_true < threshold)
        min_kept = min(min_kept, n_valid)
        if int(keep.sum()) < min_kept:
            score = np.where(valid, p_true, np.inf).ravel()
            idx = np.argpartition(score, min_kept - 1)[:min_kept]
            keep = np.zeros(labels.shape, dtype=bool)
            keep.ravel()[idx] = True
    safe = np.where(keep, labels, 0)[:, None]
    z = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = lse[:, 0] - np.take_along_axis(z, safe, axis=1)[:, 0]
    count = max(int(keep.sum()), 1)
    loss = (nll * keep).sum() / count
    p = np.exp(z - lse)
    taken = np.take_along_axis(p, safe, axis=1) - 1.0
    np.put_along_axis(p, safe, taken, axis=1)
    p *= (keep / count)[:, None] * 1.0
    return loss, p


def boundary_target_one_hot(labels, factor):
    """Tile-majority boundary target: per-class counts from a one-hot
    comparison, first maximum wins, then any differing 8-neighbour."""
    n, h, w = labels.shape
    k = int(labels.max()) + 1
    th, tw = h // factor, w // factor
    tiles = labels.reshape(n, th, factor, tw, factor).transpose(0, 1, 3, 2, 4)
    tiles = tiles.reshape(n, th, tw, factor * factor)
    majority = (tiles[..., None] == np.arange(k)).sum(axis=3).argmax(axis=3)
    edge = np.zeros(majority.shape, dtype=bool)
    for y in range(th):
        for x in range(tw):
            for yy in range(max(y - 1, 0), min(y + 2, th)):
                for xx in range(max(x - 1, 0), min(x + 2, tw)):
                    edge[:, y, x] |= majority[:, yy, xx] != majority[:, y, x]
    return edge.astype(np.float64)[:, None]


def avg_pool_naive(x, kernel, stride, padding):
    """Window-enumeration average pooling, divisor = valid cells only."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c, oh, ow))
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    acc, cnt = 0.0, 0
                    for ky in range(kh):
                        iy = oy * sh + ky - ph
                        if iy < 0 or iy >= h:
                            continue
                        for kx in range(kw):
                            ix = ox * sw + kx - pw
                            if ix < 0 or ix >= w:
                                continue
                            acc += x[ni, ci, iy, ix]
                            cnt += 1
                    out[ni, ci, oy, ox] = acc / cnt
    return out


def avg_pool_naive_grad(x_shape, gout, kernel, stride, padding):
    """Gradient of <avg_pool_naive(x), gout> w.r.t. x: each window's share."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    _, _, oh, ow = gout.shape
    gx = np.zeros(x_shape)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    cells = [(oy * sh + ky - ph, ox * sw + kx - pw)
                             for ky in range(kh) for kx in range(kw)]
                    cells = [(iy, ix) for iy, ix in cells if 0 <= iy < h and 0 <= ix < w]
                    for iy, ix in cells:
                        gx[ni, ci, iy, ix] += gout[ni, ci, oy, ox] / len(cells)
    return gx


def bilinear_naive(x, out_h, out_w):
    """Per-pixel half-pixel-center bilinear sampling."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w))
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[:, :, oy, ox] = (
                x[:, :, y0, x0] * (1 - fy) * (1 - fx)
                + x[:, :, y0, x1] * (1 - fy) * fx
                + x[:, :, y1, x0] * fy * (1 - fx)
                + x[:, :, y1, x1] * fy * fx
            )
    return out


def gelu_naive(v):
    """Scalar GELU through math.erf (libm, not scipy)."""
    return v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))


def expand_kernel(w, dilation):
    """Insert d-1 zero rows/cols between taps: dilated kernel as dense."""
    cout, cg, kh, kw = w.shape
    dh, dw = dilation
    eh, ew = (kh - 1) * dh + 1, (kw - 1) * dw + 1
    dense = np.zeros((cout, cg, eh, ew))
    dense[:, :, ::dh, ::dw] = w
    return dense


def softmax_naive(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


def cross_entropy_naive(logits, labels, ignore_index):
    """Per-pixel scalar loop: mean NLL over non-ignored pixels."""
    n, k, h, w = logits.shape
    total, count = 0.0, 0
    for ni in range(n):
        for y in range(h):
            for x in range(w):
                lab = labels[ni, y, x]
                if lab == ignore_index:
                    continue
                p = softmax_naive(logits[ni, :, y, x])
                total += -math.log(p[lab])
                count += 1
    return total / count if count else 0.0


def fd_gradient(f, arr, eps=1e-5):
    """Central-difference gradient of scalar f with respect to `arr` (in place)."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom
