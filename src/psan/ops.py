"""Differentiable building blocks for the recognizer.

Every function takes and returns Tensors, computes forward with numpy, and
registers its backward rule on the active tape. An output takes the dtype
of the op's primary input: its first tensor, the table for `embedding`,
`h_prev` for `gru_cell`. Convolution is one batched
matmul over a column matrix: the input itself for a 1x1 kernel, flat shifted
copies for other same-size stride-1 kernels, strided im2col windows
otherwise. Backward rebuilds the columns from the input instead of keeping
them. The naive direct form lives in the test suite as an oracle.

Two fused nodes round every value as the primitive ops they replace would,
and the composed forms live in the test suite as their references:
`conv_bn`, a conv, its batch norm and an optional relu, which every
conv/BN pair of a model records under a tape (conv2d and batchnorm2d share
its code); and a GRU step.
Input checks format their error message only when they fail, so a passing
check costs one call, not one string per op call.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, accumulate_grad, active_tape, record
from .tensor import add, sub, mul, scale, sum_all  # noqa: F401  (re-exported)


def _require(cond, msg, *args):
    """Raise ValueError(msg.format(*args)) unless cond holds."""
    if not cond:
        raise ValueError(msg.format(*args))


def _channel_sum(a):
    """Per-channel sums of an (N, C, L) array."""
    return a.sum(axis=(0, 2))


_shifts_cache = {}


def _same_shifts(k, p, h, w):
    """Kernel offsets of a stride-1 convolution whose output keeps the input
    size (k = 2p + 1), in (row, column) order, memoised per (k, p, h, w).

    For offset (i, j), output pixel q of the flattened H*W grid reads input
    pixel q + s with s = (i - p) * W + (j - p). Each entry is (s, lo, hi,
    edge): q + s lies inside the grid for q in [lo, hi), and `edge` selects
    the output columns whose read wraps across a row end. Those columns and
    the pixels outside [lo, hi) are exactly the ones that read zero padding.
    """
    key = (k, p, h, w)
    shifts = _shifts_cache.get(key)
    if shifts is None:
        l = h * w
        shifts = []
        for i in range(k):
            for j in range(k):
                s = (i - p) * w + (j - p)
                edge = slice(0, min(w, p - j)) if j < p else slice(max(0, w - (j - p)), w)
                lo = min(l, max(0, -s))
                shifts.append((s, lo, max(lo, min(l, l - s)), edge))
        shifts = tuple(shifts)
        _shifts_cache[key] = shifts
    return shifts


def _conv_geometry(x, weight, bias, stride, padding):
    """Check a convolution's operands and return its output size (h_out, w_out).

    x: (N, C_in, H, W), weight: (C_out, C_in, kh, kw), bias: (C_out,).
    """
    _require(x.ndim == 4, "conv2d: input must be 4-d, got {}", x.shape)
    _require(weight.ndim == 4, "conv2d: weight must be 4-d, got {}", weight.shape)
    _, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    _require(c_in == c_in_w, "conv2d: channel mismatch, input {} vs weight {}", c_in, c_in_w)
    _require(bias.shape == (c_out,), "conv2d: bias shape {} != ({},)", bias.shape, c_out)
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    _require(h_out >= 1 and w_out >= 1,
             "conv2d: degenerate output {}x{} for input {}x{} kernel {}x{}",
             h_out, w_out, h, w, kh, kw)
    return h_out, w_out


def _columns(xd, kh, kw, stride, padding, h_out, w_out):
    """The (N, C_in*kh*kw, L) column matrix of input array xd.

    One row per input channel and kernel offset, so the convolution is a
    single batched matmul. Same-size stride-1 convolutions fill each row
    with one flat shifted copy, and a 1x1 kernel reads the input itself;
    other convolutions gather strided windows of the padded input.
    """
    n, c_in, h, w = xd.shape
    l = h_out * w_out
    if stride == 1 and kh == kw == 2 * padding + 1:
        if kh == 1:
            return xd.reshape(n, c_in, l)  # a view: nothing copied
        xf = xd.reshape(n, c_in, l)
        cols = np.empty((n, c_in, kh * kw, h, w), dtype=xf.dtype)
        flat = cols.reshape(n, c_in, kh * kw, l)
        for t, (s, lo, hi, edge) in enumerate(_same_shifts(kh, padding, h, w)):
            flat[:, :, t, lo:hi] = xf[:, :, lo + s:hi + s]
            flat[:, :, t, :lo] = 0
            flat[:, :, t, hi:] = 0
            cols[:, :, t, :, edge] = 0
        return flat.reshape(n, c_in * kh * kw, l)
    xp = xd
    if padding > 0:
        xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=xd.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = xd
    cols = np.empty((n, c_in, kh, kw, h_out, w_out), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
    return cols.reshape(n, c_in * kh * kw, l)


def _conv_forward(xd, wd, bd, stride, padding, h_out, w_out):
    """Convolution of arrays as an (N, C_out, L) array: one batched matmul
    of the weight over the column matrix, then the bias."""
    c_out, c_in, kh, kw = wd.shape
    cols2 = _columns(xd, kh, kw, stride, padding, h_out, w_out)
    out = np.matmul(wd.reshape(c_out, c_in * kh * kw)[None], cols2)
    out += bd[:, None]
    return out


def _conv_backward(x, weight, bias, g, stride, padding):
    """Hand a convolution's bias, weight and input their gradients, in that
    order, from the (N, C_out, h_out, w_out) output gradient g. Nothing of
    forward is needed but the operands."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    _, _, h_out, w_out = g.shape
    l = h_out * w_out
    gmat = g.reshape(n, c_out, l)
    if bias.requires_grad:
        accumulate_grad(bias, _channel_sum(gmat))
    if weight.requires_grad:
        # the column matrix rebuilt from x: the same copies forward made, so
        # the same bits, and freed before the input gradient is formed
        cols2 = _columns(x.data, kh, kw, stride, padding, h_out, w_out)
        gw = np.matmul(gmat, cols2.transpose(0, 2, 1)).sum(axis=0)
        del cols2
        accumulate_grad(weight, gw.reshape(weight.shape))
    if not x.requires_grad:
        return
    gcols = np.matmul(weight.data.reshape(c_out, c_in * kh * kw).T[None], gmat)
    if stride == 1 and kh == kw == 2 * padding + 1:
        if kh == 1:
            gx = gcols.reshape(x.shape)
        else:
            # add each shifted row back in offset order, the padding pixels
            # zeroed, so every sum rounds as in the strided scatter below
            gflat = gcols.reshape(n, c_in, kh * kw, l)
            ggrid = gcols.reshape(n, c_in, kh * kw, h, w)
            gx = np.zeros((n, c_in, l), dtype=gcols.dtype)
            for t, (s, lo, hi, edge) in enumerate(_same_shifts(kh, padding, h, w)):
                ggrid[:, :, t, :, edge] = 0
                gx[:, :, lo + s:hi + s] += gflat[:, :, t, lo:hi]
            gx = gx.reshape(x.shape)
    else:
        gcols = gcols.reshape(n, c_in, kh, kw, h_out, w_out)
        gx = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=x.data.dtype)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += gcols[:, :, i, j]
        if padding > 0:
            gx = gx[:, :, padding:padding + h, padding:padding + w]
    accumulate_grad(x, gx)


def conv2d(x, weight, bias, stride=1, padding=0):
    """2-d cross-correlation with zero padding.

    x: (N, C_in, H, W), weight: (C_out, C_in, kh, kw), bias: (C_out,).
    Output spatial dims are (H + 2p - kh) // stride + 1 and likewise for W.
    Backward keeps no column matrix: it rebuilds one from x when the weight
    needs a gradient.
    """
    h_out, w_out = _conv_geometry(x, weight, bias, stride, padding)
    out_data = _conv_forward(x.data, weight.data, bias.data, stride, padding, h_out, w_out)
    out = Tensor(out_data.reshape(x.shape[0], weight.shape[0], h_out, w_out), dtype=x.data.dtype)

    def bwd(g):
        _conv_backward(x, weight, bias, g, stride, padding)

    return record("conv2d", (x, weight, bias), out, bwd)


def _bn_forward(xv, gamma, beta, running_mean, running_var, momentum, eps, training,
                out=None):
    """Batch norm of an (N, C, L) array; returns (output, x_hat, invstd).

    The output goes into `out`, a fresh buffer if None. `out` may be xv
    itself: xv is read only before x_hat exists. Train mode folds the batch
    statistics into the running ones in place.
    """
    n, c, l = xv.shape
    _require(gamma.shape == (c,) and beta.shape == (c,),
             "batchnorm2d: gamma/beta must be ({},)", c)
    count = n * l
    if training:
        _require(count >= 2,
                 "batchnorm2d: train mode needs at least 2 values per channel, got {}", count)
        mean = _channel_sum(xv) / count
        xhat = xv - mean[:, None]
        if out is None:
            out = np.empty_like(xhat)
        # squared deviations go into the output buffer, overwritten below
        np.multiply(xhat, xhat, out=out)
        var = _channel_sum(out) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        invstd = 1.0 / np.sqrt(var + eps)
    else:
        invstd = 1.0 / np.sqrt(running_var + eps)
        xhat = xv - running_mean[:, None]
        if out is None:
            out = np.empty_like(xhat)
    xhat *= invstd[:, None]
    np.multiply(xhat, gamma.data[:, None], out=out)
    out += beta.data[:, None]
    return out, xhat, invstd


def _bn_backward(gv, xhat, invstd, gamma, beta, training, need_x):
    """Hand beta and gamma their gradients from the (N, C, L) output gradient
    gv, and return the input gradient (None unless need_x).

    The train-mode input gradient (gxhat - (sum(gxhat) + x_hat *
    sum(gxhat * x_hat)) / cnt) * invstd, with gxhat = gamma * g and cnt =
    N*L, takes two buffers.
    """
    accumulate_grad(beta, _channel_sum(gv))
    if training or gamma.requires_grad:
        buf = gv * xhat
        accumulate_grad(gamma, _channel_sum(buf))
    if not need_x:
        return None
    gx = gv * gamma.data[:, None]
    if training:
        s1 = _channel_sum(gx)
        np.multiply(gx, xhat, out=buf)
        s2 = _channel_sum(buf)
        np.multiply(xhat, s2[:, None], out=buf)
        buf += s1[:, None]
        buf /= gv.shape[0] * gv.shape[2]
        gx -= buf
    gx *= invstd[:, None]
    return gx


def batchnorm2d(x, gamma, beta, running_mean, running_var, momentum=0.1,
                eps=1e-5, training=True):
    """Per-channel batch normalization over the (N, H, W) axes.

    Train mode normalizes with biased batch statistics and folds them into
    the running estimates in place: running <- (1 - momentum) * running +
    momentum * batch. Eval mode normalizes with the running estimates and
    never mutates them.

    Both modes work in place on an (N, C, H*W) view and keep x_hat for
    backward. Each value rounds exactly as in the plain broadcast
    expressions, because float32 training results (and the acceptance
    gates) move with any reassociation.
    """
    _require(x.ndim == 4, "batchnorm2d: input must be 4-d, got {}", x.shape)
    n, c, h, w = x.shape
    out_data, xhat, invstd = _bn_forward(x.data.reshape(n, c, h * w), gamma, beta,
                                         running_mean, running_var, momentum, eps, training)
    out = Tensor(out_data.reshape(n, c, h, w), dtype=x.data.dtype)

    def bwd(g):
        gx = _bn_backward(g.reshape(n, c, h * w), xhat, invstd, gamma, beta, training,
                          x.requires_grad)
        if gx is not None:
            accumulate_grad(x, gx.reshape(x.shape))

    return record("batchnorm2d", (x, gamma, beta), out, bwd)


def conv_bn(x, weight, bias, gamma, beta, running_mean, running_var, stride=1, padding=0,
            momentum=0.1, eps=1e-5, training=True, relu=False):
    """batchnorm2d(conv2d(x)), then relu when asked, as one tape node.

    It runs the conv2d and batchnorm2d code itself, writes the batch norm's
    output into the dead conv output, and clamps that buffer in place for
    the relu; the relu's kink margin goes to `tape.margins` as `relu`
    reports it. So a node keeps only its output and x_hat: no conv output,
    no column matrix (backward rebuilds it from x), no pre-relu values.
    Backward multiplies by the exact 0/1 relu mask, runs batch-norm
    backward from x_hat, then conv backward. Every value rounds as in the
    three-op tape, and the node stands where that tape's last node stood,
    so shared inputs receive their gradient contributions in the same order.
    """
    h_out, w_out = _conv_geometry(x, weight, bias, stride, padding)
    n, c_out = x.shape[0], weight.shape[0]
    z = _conv_forward(x.data, weight.data, bias.data, stride, padding, h_out, w_out)
    y, xhat, invstd = _bn_forward(z, gamma, beta, running_mean, running_var, momentum, eps,
                                  training, out=z)
    if relu:
        tape = active_tape()
        if tape is not None and tape.margins is not None:
            tape.margins.append(float(np.abs(y).min()))
        np.maximum(y, 0, out=y)
    out = Tensor(y.reshape(n, c_out, h_out, w_out), dtype=x.data.dtype)

    def bwd(g):  # shapes come from g and xhat, so the closure keeps few cells
        if relu:
            g = g * (out.data > 0)
        gz = _bn_backward(g.reshape(xhat.shape), xhat, invstd, gamma, beta, training,
                          x.requires_grad or weight.requires_grad or bias.requires_grad)
        if gz is not None:
            _conv_backward(x, weight, bias, gz.reshape(g.shape), stride, padding)

    return record("conv_bn", (x, weight, bias, gamma, beta), out, bwd)


def relu(x):
    tape = active_tape()
    if tape is not None and tape.margins is not None:
        tape.margins.append(float(np.abs(x.data).min()))
    out = Tensor(np.maximum(x.data, 0), dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, g * (out.data > 0))

    return record("relu", (x,), out, bwd)


def _sigmoid(d):
    """Logistic function of an array, without masked gathers and scatters.

    exp() only sees -|d|, so it never overflows. Each value, NaN payloads
    included, rounds exactly as 1 / (1 + exp(-d)) where d >= 0 and as
    exp(d) / (1 + exp(d)) elsewhere.
    """
    pos = d >= 0
    e = np.exp(np.where(pos, -d, d))
    den = 1.0 + e
    return np.where(pos, 1.0 / den, e / den)


def sigmoid(x):
    out = Tensor(_sigmoid(x.data), dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, g * out.data * (1.0 - out.data))

    return record("sigmoid", (x,), out, bwd)


def tanh(x):
    out = Tensor(np.tanh(x.data), dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, g * (1.0 - out.data * out.data))

    return record("tanh", (x,), out, bwd)


def maxpool2d(x, kernel):
    """Non-overlapping kernel x kernel max pooling; kernel must divide H, W.

    The backward pass routes each window's gradient to its argmax, first
    occurrence in row-major window order on ties.
    """
    _require(x.ndim == 4, "maxpool2d: input must be 4-d, got {}", x.shape)
    n, c, h, w = x.shape
    _require(h % kernel == 0 and w % kernel == 0,
             "maxpool2d: {}x{} not divisible by window {}", h, w, kernel)
    ho, wo = h // kernel, w // kernel
    windows = (x.data.reshape(n, c, ho, kernel, wo, kernel)
               .transpose(0, 1, 2, 4, 3, 5)
               .reshape(n, c, ho, wo, kernel * kernel))
    tape = active_tape()
    if tape is not None and tape.margins is not None and windows.shape[-1] >= 2:
        top2 = np.partition(windows, windows.shape[-1] - 2, axis=-1)
        gap = top2[..., -1] - top2[..., -2]
        # a window whose two largest entries are both exactly zero is a tie
        # between relu-clamped values: locally constant, not a kink
        live = ~((top2[..., -1] == 0.0) & (top2[..., -2] == 0.0))
        if live.any():
            tape.margins.append(float(gap[live].min()))
    idx = windows.argmax(axis=-1)
    out = Tensor(np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0],
                 dtype=x.data.dtype)

    def bwd(g):
        if not x.requires_grad:
            return
        gwin = np.zeros_like(windows)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = (gwin.reshape(n, c, ho, wo, kernel, kernel)
              .transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h, w))
        accumulate_grad(x, gx)

    return record("maxpool2d", (x,), out, bwd)


def interp_matrix(n_in, n_out, dtype):
    """Dense 1-d bilinear interpolation matrix (n_out x n_in).

    Sample positions follow the half-pixel convention: the source coordinate
    of output index i is (i + 0.5) * n_in / n_out - 0.5, clamped to the valid
    range. Rows sum to 1 exactly, so constants are preserved.
    """
    m = np.zeros((n_out, n_in), dtype=dtype)
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = src - i0
    rows = np.arange(n_out)
    m[rows, i0] += 1.0 - frac
    m[rows, i1] += frac  # after the first add: i1 == i0 on the clamped edge
    return m


_interp_cache = {}


def _cached_interp(n_in, n_out, dtype):
    key = (n_in, n_out, np.dtype(dtype).name)
    m = _interp_cache.get(key)
    if m is None:
        m = interp_matrix(n_in, n_out, dtype)
        _interp_cache[key] = m
    return m


def bilinear_upsample(x, factor):
    """Bilinear upsampling by an integer factor (2, 4, or 8) on H and W."""
    _require(factor in (2, 4, 8), "bilinear_upsample: unsupported factor {}", factor)
    _require(x.ndim == 4, "bilinear_upsample: input must be 4-d, got {}", x.shape)
    n, c, h, w = x.shape
    mh = _cached_interp(h, h * factor, x.data.dtype)
    mw = _cached_interp(w, w * factor, x.data.dtype)
    out = Tensor(np.matmul(mh, np.matmul(x.data, mw.T)), dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, np.matmul(mh.T, np.matmul(g, mw)))

    return record("bilinear_upsample", (x,), out, bwd)


def concat(xs, axis=1):
    """Concatenate tensors along one axis; all other dims must agree."""
    xs = list(xs)
    _require(len(xs) >= 1, "concat: need at least one tensor")
    nd = xs[0].ndim
    for t in xs[1:]:
        _require(t.ndim == nd, "concat: rank mismatch")
        for ax in range(nd):
            if ax != axis:
                _require(t.shape[ax] == xs[0].shape[ax],
                         "concat: dim {} mismatch {} vs {}", ax, t.shape, xs[0].shape)
    out = Tensor(np.concatenate([t.data for t in xs], axis=axis), dtype=xs[0].data.dtype)
    sizes = [t.shape[axis] for t in xs]

    def bwd(g):
        start = 0
        for t, s in zip(xs, sizes):
            sl = [slice(None)] * nd
            sl[axis] = slice(start, start + s)
            accumulate_grad(t, g[tuple(sl)])
            start += s

    return record("concat", tuple(xs), out, bwd)


def gate_multiply(x, gate):
    """Multiply (N, C, H, W) features by a single-channel (N, 1, H, W) map."""
    _require(x.ndim == 4 and gate.ndim == 4, "gate_multiply: inputs must be 4-d")
    n, c, h, w = x.shape
    _require(gate.shape == (n, 1, h, w),
             "gate_multiply: gate shape {} != ({}, 1, {}, {})", gate.shape, n, h, w)
    out = Tensor(x.data * gate.data, dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, g * gate.data)
        accumulate_grad(gate, (g * x.data).sum(axis=1, keepdims=True))

    return record("gate_multiply", (x, gate), out, bwd)


def matmul(a, b):
    _require(a.ndim == 2 and b.ndim == 2, "matmul: inputs must be 2-d")
    _require(a.shape[1] == b.shape[0], "matmul: inner dims {} x {}", a.shape, b.shape)
    out = Tensor(a.data @ b.data, dtype=a.data.dtype)

    def bwd(g):
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    return record("matmul", (a, b), out, bwd)


def linear(x, weight, bias):
    """Affine map: x (N, D_in) @ weight (D_in, D_out) + bias (D_out,)."""
    _require(x.ndim == 2, "linear: input must be 2-d, got {}", x.shape)
    _require(x.shape[1] == weight.shape[0],
             "linear: dim mismatch {} vs {}", x.shape, weight.shape)
    _require(bias.shape == (weight.shape[1],), "linear: bias shape mismatch")
    out = Tensor(x.data @ weight.data + bias.data, dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, g @ weight.data.T)
        accumulate_grad(weight, x.data.T @ g)
        accumulate_grad(bias, g.sum(axis=0))

    return record("linear", (x, weight, bias), out, bwd)


def softmax(x):
    """Row-wise softmax over the last axis, max-shifted for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = Tensor(e / e.sum(axis=-1, keepdims=True), dtype=x.data.dtype)

    def bwd(g):
        s = out.data
        accumulate_grad(x, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return record("softmax", (x,), out, bwd)


def embedding_lookup(table, idx):
    """Fetch one row of an embedding table as a (E,) tensor."""
    v, _ = table.shape
    _require(0 <= idx < v, "embedding_lookup: index {} out of range for {} rows", idx, v)
    out = Tensor(table.data[idx].copy(), dtype=table.data.dtype)

    def bwd(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            gt[idx] = g
            accumulate_grad(table, gt)

    return record("embedding_lookup", (table,), out, bwd)


def embedding(table, indices):
    """Batched row gather: indices (N,) -> (N, E). Repeats accumulate."""
    indices = np.asarray(indices, dtype=np.int64)
    v, _ = table.shape
    _require(indices.ndim == 1, "embedding: indices must be 1-d")
    _require(np.all((indices >= 0) & (indices < v)),
             "embedding: index out of range for {} rows", v)
    out = Tensor(table.data[indices], dtype=table.data.dtype)

    def bwd(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, indices, g)
            accumulate_grad(table, gt)

    return record("embedding", (table,), out, bwd)


def select_step(x, t):
    """Slice one time step from a (N, T, K) tensor -> (N, K)."""
    _require(x.ndim == 3, "select_step: input must be 3-d, got {}", x.shape)
    _require(0 <= t < x.shape[1], "select_step: step {} out of range {}", t, x.shape[1])
    out = Tensor(x.data[:, t, :], dtype=x.data.dtype)

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[:, t, :] = g
        accumulate_grad(x, gx)

    return record("select_step", (x,), out, bwd)


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape), dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, g.reshape(x.shape))

    return record("reshape", (x,), out, bwd)


@dataclass
class GruWeights:
    """Weight tensors for one GRU cell: per-gate input (w), hidden (u), bias (b)."""
    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor


def gru_cell(x, h_prev, p):
    """One GRU step as a single tape node.

        z = sigmoid(x wz + h uz + bz)        update gate
        r = sigmoid(x wr + h ur + br)        reset gate
        c = tanh(x wh + (r * h) uh + bh)     candidate state
        h' = (1 - z) * h + z * c             written as h + z * (c - h)

    Rounding-order rule: every value rounds exactly as when the step was
    composed from linear, matmul, add, mul, sub, sigmoid and tanh nodes. Each
    gate pre-activation is (x w + b) + h u; backward forms the same products
    and hands every input and parameter its gradient contributions in the
    order that composed tape did (h: the output, the -(g z) of c - h, the
    reset product, then the r and z gates; x: the candidate, r and z gates),
    because float32 training results move with any reassociation.
    """
    _require(x.ndim == 2 and h_prev.ndim == 2, "gru_cell: inputs must be 2-d")
    n, hidden = h_prev.shape
    _require(x.shape[0] == n, "gru_cell: batch mismatch {} vs {}", x.shape, h_prev.shape)
    for w, u, b in ((p.wz, p.uz, p.bz), (p.wr, p.ur, p.br), (p.wh, p.uh, p.bh)):
        _require(w.shape == (x.shape[1], hidden) and u.shape == (hidden, hidden)
                 and b.shape == (hidden,),
                 "gru_cell: weights {}, {}, {} do not fit input {} and hidden {}",
                 w.shape, u.shape, b.shape, x.shape, h_prev.shape)
    xd, h = x.data, h_prev.data
    z = _sigmoid((xd @ p.wz.data + p.bz.data) + h @ p.uz.data)
    r = _sigmoid((xd @ p.wr.data + p.br.data) + h @ p.ur.data)
    rh = r * h
    c = np.tanh((xd @ p.wh.data + p.bh.data) + rh @ p.uh.data)
    d = c - h
    out = Tensor(h + z * d, dtype=h.dtype)

    def bwd(g):
        gz = g * z
        accumulate_grad(h_prev, g)
        accumulate_grad(h_prev, -gz)
        ga = gz * (1.0 - c * c)  # candidate pre-activation
        accumulate_grad(p.uh, rh.T @ ga)
        grh = ga @ p.uh.data.T
        accumulate_grad(h_prev, grh * r)
        accumulate_grad(x, ga @ p.wh.data.T)
        accumulate_grad(p.wh, xd.T @ ga)
        accumulate_grad(p.bh, ga.sum(axis=0))
        for ga, w, u, b in ((grh * h * r * (1.0 - r), p.wr, p.ur, p.br),
                            (g * d * z * (1.0 - z), p.wz, p.uz, p.bz)):
            accumulate_grad(h_prev, ga @ u.data.T)
            accumulate_grad(u, h.T @ ga)
            accumulate_grad(x, ga @ w.data.T)
            accumulate_grad(w, xd.T @ ga)
            accumulate_grad(b, ga.sum(axis=0))

    return record("gru_cell", (x, h_prev) + tuple(vars(p).values()), out, bwd)


def sequence_nll(logits_seq, targets):
    """Mean-over-batch of the per-sample summed negative log-likelihood.

    logits_seq is a list of (N, V) tensors, one per time step. targets is a
    list of N index sequences; sample i is scored at steps 0..len(targets[i])-1
    and contributes nothing at later steps. Each sequence is expected to end
    with the end-of-sequence class, which is supervised like any other step.
    """
    _require(len(logits_seq) >= 1, "sequence_nll: need at least one step")
    n, v = logits_seq[0].shape
    for t, lg in enumerate(logits_seq):
        _require(lg.shape == (n, v), "sequence_nll: step {} shape {} != ({}, {})", t, lg.shape, n, v)
    _require(len(targets) == n, "sequence_nll: {} target rows for batch {}", len(targets), n)
    steps = len(logits_seq)
    for i, seq in enumerate(targets):
        _require(len(seq) <= steps,
                 "sequence_nll: target {} has {} steps but only {} logits", i, len(seq), steps)
        for cls in seq:
            _require(0 <= cls < v, "sequence_nll: class {} out of range {}", cls, v)

    probs = []
    masks = []
    tgt_idx = []
    total = 0.0
    for t, lg in enumerate(logits_seq):
        shifted = lg.data - lg.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        denom = e.sum(axis=-1, keepdims=True)
        p = e / denom
        logp = shifted - np.log(denom)
        active = np.array([len(seq) > t for seq in targets])
        idx = np.array([seq[t] if len(seq) > t else 0 for seq in targets], dtype=np.int64)
        total -= logp[np.arange(n), idx][active].sum()
        probs.append(p)
        masks.append(active)
        tgt_idx.append(idx)
    out = Tensor(total / n, dtype=logits_seq[0].data.dtype)

    def bwd(g):
        gs = np.asarray(g).reshape(-1)[0] / n
        for t, lg in enumerate(logits_seq):
            if not lg.requires_grad:
                continue
            glogits = probs[t].copy()
            glogits[np.arange(n), tgt_idx[t]] -= 1.0
            glogits[~masks[t]] = 0.0
            accumulate_grad(lg, glogits * gs)

    return record("sequence_nll", tuple(logits_seq), out, bwd)
