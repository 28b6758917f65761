"""Differentiable building blocks for the recognizer.

Every function takes and returns Tensors, computes forward with numpy, and
registers its backward rule on the active tape. An output takes the dtype
of the op's primary input: its first tensor, the table for `embedding`,
`h_prev` for `gru_cell`. Convolution is a batched
matmul over a column matrix: the input itself for a 1x1 kernel, otherwise
one strided copy of a window view over a zero-padded copy of the input
(flat for same-size stride-1 kernels on multi-sample slices, 2-d for the
rest). A batch whose columns fit _COLUMN_BYTES, or of one sample, is one
matmul; a larger one builds its columns a few samples at a time, as many
as fit, and runs the matmul on each slice while its columns are still in
cache. Each sample is the same GEMM call on the same values whatever the
slicing, so the bits do not depend on the budget. Backward rebuilds the
columns from the input, slice by slice, for the weight gradient instead of
keeping them. The naive direct form and the per-offset strided windows
live in the test suite as oracles.
Max pooling, taped or not, reads one strided view per window offset and
keeps no indices; the window-copy argmax form is its test reference.

Two fused nodes round every value as the primitive ops they replace would,
and the composed forms live in the test suite as their references:
`conv_bn`, a conv, its batch norm, an optional skip sum and an optional
relu, which every conv/BN pair of a model records under a tape (conv2d and
batchnorm2d share its code); and a GRU step. A `conv_bn` node keeps the
normalized x_hat for backward unless its kernel is 1x1: then backward
rebuilds x_hat from the input it keeps anyway, with one GEMM and the same
roundings. With no tape open `conv_bn` is one `conv2d` with the batch norm
folded in, in either mode, and the skip sum and relu done in place on its
fresh output. No op writes into an array another tensor holds.
Input checks format their error message only when they fail, so a passing
check costs one call, not one string per op call.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .tensor import Tensor, _require, accumulate_grad, active_tape, record
from .tensor import add, sub, mul, scale, sum_all  # noqa: F401  (re-exported)


BN_MOMENTUM = 0.1  # running <- (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch
BN_EPS = 1e-5  # added to the variance before its square root
# bytes of column matrix a conv builds at once: a quarter of a 2 MiB
# per-core L2, so the GEMM reads its columns back from cache
_COLUMN_BYTES = 1 << 19


def _channel_sum(a):
    """Per-channel sums of an (N, C, L) array."""
    return a.sum(axis=(0, 2))


def _same_offsets(k, p, w):
    """Kernel offsets (i, j) of a stride-1 convolution whose output keeps the
    input size (k = 2p + 1), in row-major order, as pairs (s, edge).

    Output pixel q of the flattened H*W grid reads input pixel q + s, with
    s = (i - p) * W + (j - p); `edge` selects the output columns whose read
    wraps across a row end, which read zero padding.
    """
    for i in range(k):
        for j in range(k):
            edge = slice(0, min(w, p - j)) if j < p else slice(max(0, w - (j - p)), w)
            yield (i - p) * w + (j - p), edge


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
    """The (N, C_in*kh*kw, L) column matrix of C-contiguous input array xd.

    One row per input channel and kernel offset, so the convolution is a
    single batched matmul. A 1x1 kernel reads the input itself. Every other
    kernel copies the input once into a zero-padded buffer and then the
    columns once out of a strided window view of that buffer. For a
    same-size stride-1 kernel over more than one sample the buffer is the
    flattened input with p*W + p zeros on each side, so offset (i, j) reads
    the contiguous run starting at i*W + j, and only the columns whose read
    wraps across a row end are zeroed after the copy: that pays for itself
    only on multi-sample slices. Otherwise the buffer is the 2-d padded
    input, and offset (i, j) reads every stride-th pixel from (i, j).
    np.ndarray refuses a view that reaches past its buffer.
    """
    n, c_in, h, w = xd.shape
    l = h_out * w_out
    if stride == 1 and kh == kw == 2 * padding + 1 and (kh == 1 or n > 1):
        if kh == 1:
            return xd.reshape(n, c_in, l)  # a view: nothing copied
        pad = padding * w + padding
        xf = np.zeros((n, c_in, l + 2 * pad), dtype=xd.dtype)
        xf[:, :, pad:pad + l] = xd.reshape(n, c_in, l)
        s0, s1, s = xf.strides
        cols = np.ndarray((n, c_in, kh, kw, l), xd.dtype, buffer=xf,
                          strides=(s0, s1, w * s, s, s)).copy()
        grid = cols.reshape(n, c_in, kh, kw, h, w)
        for j, (_, edge) in enumerate(islice(_same_offsets(kh, padding, w), kw)):
            if j != padding:
                grid[:, :, :, j, :, edge] = 0
        return cols.reshape(n, c_in * kh * kw, l)
    xp = xd
    if padding > 0:
        xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=xd.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = xd
    s0, s1, s2, s3 = xp.strides
    cols = np.ndarray((n, c_in, kh, kw, h_out, w_out), xd.dtype, buffer=xp,
                      strides=(s0, s1, s2, s3, stride * s2, stride * s3)).copy()
    return cols.reshape(n, c_in * kh * kw, l)


def _chunks(n, row_bytes):
    """(start, stop) batch slices whose column matrix, row_bytes per sample,
    fits _COLUMN_BYTES; one sample at a time when even one does not."""
    step = max(1, _COLUMN_BYTES // row_bytes)
    return ((s, min(s + step, n)) for s in range(0, n, step))


def _conv_forward(xd, wd, bd, stride, padding, h_out, w_out):
    """Convolution of arrays as an (N, C_out, L) array.

    A batch whose column matrix fits _COLUMN_BYTES, or of one sample, is one
    matmul into a fresh output. A larger batch runs in slices that fit:
    each slice builds its columns, multiplies the weight over them into its
    rows of the output and adds the bias while those rows are still in
    cache. Every sample is the same GEMM call on the same values whatever
    the slicing, so the output is bit-for-bit that of one whole-batch matmul.
    """
    n = xd.shape[0]
    c_out, c_in, kh, kw = wd.shape
    k, l = c_in * kh * kw, h_out * w_out
    wmat = wd.reshape(c_out, k)[None]
    if n == 1 or n * k * l * xd.itemsize <= _COLUMN_BYTES:  # one slice: no views, no loop
        out = np.matmul(wmat, _columns(xd, kh, kw, stride, padding, h_out, w_out))
        out += bd[:, None]
        return out
    out = np.empty((n, c_out, l), dtype=np.result_type(wd, xd))
    for s, e in _chunks(n, k * l * xd.itemsize):
        np.matmul(wmat, _columns(xd[s:e], kh, kw, stride, padding, h_out, w_out), out=out[s:e])
        out[s:e] += bd[:, None]
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
        # per-sample products over columns rebuilt from x in forward's batch
        # slices (the same copies, so the same bits), summed over the batch
        # at once; no whole-batch column matrix exists at any time
        k = c_in * kh * kw
        gw = np.empty((n, c_out, k), dtype=np.result_type(gmat, x.data))
        for s, e in _chunks(n, k * l * x.data.itemsize):
            cols = _columns(x.data[s:e], kh, kw, stride, padding, h_out, w_out)
            np.matmul(gmat[s:e], cols.transpose(0, 2, 1), out=gw[s:e])
        del cols  # the last slice's columns, freed before the input gradient
        accumulate_grad(weight, gw.sum(axis=0).reshape(weight.shape))
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
            for t, (s, edge) in enumerate(_same_offsets(kh, padding, w)):
                ggrid[:, :, t, :, edge] = 0
                lo = min(l, max(0, -s))  # q + s lies inside the grid for q in [lo, hi)
                hi = max(lo, min(l, l - s))
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
    Backward keeps no column matrix: it rebuilds the columns from x, slice
    by slice, when the weight needs a gradient.
    """
    h_out, w_out = _conv_geometry(x, weight, bias, stride, padding)
    out_data = _conv_forward(x.data, weight.data, bias.data, stride, padding, h_out, w_out)
    out = Tensor(out_data.reshape(x.shape[0], weight.shape[0], h_out, w_out), dtype=x.data.dtype)

    def bwd(g):
        _conv_backward(x, weight, bias, g, stride, padding)

    return record("conv2d", (x, weight, bias), out, bwd)


def _bn_forward(xv, gamma, beta, running_mean, running_var, training, out=None):
    """Batch norm of an (N, C, L) array; returns (output, x_hat, invstd, mean).

    `mean` is the per-channel mean x_hat was normalized with: the batch mean
    in train mode, a copy of the running mean in eval mode, so a later step
    cannot change it. The output goes into `out`, a fresh buffer if None.
    `out` may be xv itself: xv is read only before x_hat exists. Train mode
    folds the batch statistics into the running ones in place.
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
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
        invstd = 1.0 / np.sqrt(var + BN_EPS)
    else:
        invstd = 1.0 / np.sqrt(running_var + BN_EPS)
        mean = running_mean.copy()
        xhat = xv - mean[:, None]
        if out is None:
            out = np.empty_like(xhat)
    xhat *= invstd[:, None]
    np.multiply(xhat, gamma.data[:, None], out=out)
    out += beta.data[:, None]
    return out, xhat, invstd, mean


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


def batchnorm2d(x, gamma, beta, running_mean, running_var, training=True):
    """Per-channel batch normalization over the (N, H, W) axes.

    Train mode normalizes with biased batch statistics and folds them into
    the running estimates in place with momentum BN_MOMENTUM. Eval mode
    normalizes with the running estimates and never mutates them.

    Both modes work in place on an (N, C, H*W) view and keep x_hat for
    backward. Each value rounds exactly as in the plain broadcast
    expressions, because float32 training results (and the acceptance
    gates) move with any reassociation.
    """
    _require(x.ndim == 4, "batchnorm2d: input must be 4-d, got {}", x.shape)
    n, c, h, w = x.shape
    out_data, xhat, invstd, _ = _bn_forward(x.data.reshape(n, c, h * w), gamma, beta,
                                            running_mean, running_var, training)
    out = Tensor(out_data.reshape(n, c, h, w), dtype=x.data.dtype)

    def bwd(g):
        gx = _bn_backward(g.reshape(n, c, h * w), xhat, invstd, gamma, beta, training,
                          x.requires_grad)
        if gx is not None:
            accumulate_grad(x, gx.reshape(x.shape))

    return record("batchnorm2d", (x, gamma, beta), out, bwd)


def conv_bn(x, weight, bias, gamma, beta, running_mean, running_var, stride=1, padding=0,
            training=True, relu=False, skip=None):
    """batchnorm2d(conv2d(x)), plus `skip` when given, then relu when asked:
    one tape node under a tape, one folded conv2d with none. `skip` must
    have the output's shape; the sum rounds as `add` and the relu as `relu`.

    With no tape the pair is inference whatever `training` says and writes
    nothing: batch norm is the per-channel affine map k * (z - mean) + beta
    with k = gamma / sqrt(running_var + BN_EPS), so the pair is one `conv2d`
    with weight W * k and bias (b - mean) * k + beta, rebuilt from the
    current arrays on every call; the skip is added into that conv's fresh
    output and the relu clamps it in place. It rounds differently from the
    taped form (about 1e-6 of the largest feature in float32).

    Under a tape `training` picks batch statistics (folded into the running
    ones in place) or running ones. The node runs the conv2d and batchnorm2d
    code, writes the batch norm's output into the dead conv output, adds the
    skip there and clamps it in place for the relu, whose kink margin goes
    to `tape.margins` as `relu` reports it; it keeps no conv output, column
    matrix or pre-relu values. Besides its output, a 3x3 or strided node
    keeps x_hat; a 1x1, stride-1, unpadded node keeps the per-channel mean
    and invstd instead, and backward rebuilds x_hat from x with the conv's
    one GEMM and forward's two roundings, (z - mean) * invstd. Backward
    applies the exact 0/1 relu mask, hands that gradient to the skip, then
    runs batch-norm and conv backward. Without the relu it never reads the
    output. Every value rounds as in the conv2d, batchnorm2d, add and relu
    tape, and the node stands where that tape's last node stood, so shared
    inputs receive their gradient contributions in the same order.
    """
    if skip is not None:
        shape = _conv_geometry(x, weight, bias, stride, padding)
        shape = (x.shape[0], weight.shape[0]) + shape
        _require(skip.shape == shape, "conv_bn: skip shape {} != output shape {}",
                 skip.shape, shape)
    tape = active_tape()
    if tape is None:
        w = weight.data
        k = gamma.data / np.sqrt(running_var + BN_EPS)
        y = conv2d(x, Tensor(w * k[:, None, None, None], dtype=w.dtype),
                   Tensor((bias.data - running_mean) * k + beta.data, dtype=w.dtype),
                   stride=stride, padding=padding)
        # y is the conv's own fresh output: no other array can see the writes
        if skip is not None:
            np.add(y.data, skip.data, out=y.data)
        if relu:
            np.maximum(y.data, 0, out=y.data)
        return y
    h_out, w_out = _conv_geometry(x, weight, bias, stride, padding)
    n, c_out = x.shape[0], weight.shape[0]
    z = _conv_forward(x.data, weight.data, bias.data, stride, padding, h_out, w_out)
    y, xhat, invstd, mean = _bn_forward(z, gamma, beta, running_mean, running_var, training,
                                        out=z)
    if skip is not None:
        y += skip.data.reshape(y.shape)
    if relu:
        if tape.margins is not None:
            tape.margins.append(float(np.abs(y).min()))
        np.maximum(y, 0, out=y)
    out = Tensor(y.reshape(n, c_out, h_out, w_out), dtype=x.data.dtype)
    # a 1x1 node keeps the 1-d mean, any other the 3-d x_hat: one closure cell
    kept = mean if weight.shape[2:] == (1, 1) and stride == 1 and padding == 0 else xhat

    def bwd(g):  # shapes come from g, so the closure keeps few cells
        xh = kept
        if xh.ndim == 1:
            xh = _conv_forward(x.data, weight.data, bias.data, 1, 0, *g.shape[2:]) - kept[:, None]
            xh *= invstd[:, None]
        if relu:
            g = g * (out.data > 0)
        if skip is not None:
            accumulate_grad(skip, g)
        gz = _bn_backward(g.reshape(xh.shape), xh, invstd, gamma, beta, training,
                          x.requires_grad or weight.requires_grad or bias.requires_grad)
        if gz is not None:
            _conv_backward(x, weight, bias, gz.reshape(g.shape), stride, padding)

    inputs = (x, weight, bias, gamma, beta)
    return record("conv_bn", inputs if skip is None else inputs + (skip,), out, bwd)


def relu(x):
    """max(x, 0). Backward reads only the output: max(x, 0) > 0 is the same
    mask as x > 0."""
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
    return np.where(pos, 1.0, e) / den


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

    One code path, taped or not. Forward takes running maxima over one
    strided view per window offset, in row-major order, as
    `np.maximum(view, running, out=running)`: on a +0.0/-0.0 tie numpy
    returns the second operand, so the first entry's sign is kept.
    Backward routes each window's gradient to its first entry equal to the
    output, reading only the input and the output, so it keeps no indices.
    A window holding a NaN outputs NaN and routes no gradient (`train()`
    raises on a non-finite loss before backward). Under `trace_kinks` a
    running second maximum gives each window's top-two gap.
    """
    _require(x.ndim == 4, "maxpool2d: input must be 4-d, got {}", x.shape)
    h, w = x.shape[2:]
    _require(h % kernel == 0 and w % kernel == 0,
             "maxpool2d: {}x{} not divisible by window {}", h, w, kernel)
    offsets = [(i, j) for i in range(kernel) for j in range(kernel)]
    tape = active_tape()
    top = x.data[..., ::kernel, ::kernel].copy()
    second = (np.full_like(top, -np.inf)
              if tape is not None and tape.margins is not None and kernel > 1 else None)
    for i, j in offsets[1:]:
        view = x.data[..., i::kernel, j::kernel]
        if second is not None:
            np.maximum(np.minimum(view, top), second, out=second)
        np.maximum(view, top, out=top)
    if second is not None:
        # both top values exactly zero: a tie of relu-clamped values, not a kink
        live = ~((top == 0.0) & (second == 0.0))
        if live.any():
            tape.margins.append(float((top - second)[live].min()))
    out = Tensor(top, dtype=x.data.dtype)

    def bwd(g):
        gx = np.zeros_like(x.data)
        free = np.ones(g.shape, dtype=bool)  # windows not yet routed
        for i, j in offsets:
            hit = (x.data[..., i::kernel, j::kernel] == out.data) & free
            free &= ~hit
            np.copyto(gx[..., i::kernel, j::kernel], g, where=hit)
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


def bilinear_upsample(x, factor):
    """Bilinear upsampling by an integer factor (2, 4, or 8) on H and W.

    Each call builds its two interpolation matrices, so a forward writes no
    shared table; the backward rule keeps the two it built.
    """
    _require(factor in (2, 4, 8), "bilinear_upsample: unsupported factor {}", factor)
    _require(x.ndim == 4, "bilinear_upsample: input must be 4-d, got {}", x.shape)
    n, c, h, w = x.shape
    mh = interp_matrix(h, h * factor, x.data.dtype)
    mw = interp_matrix(w, w * factor, x.data.dtype)
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
    """Fetch one row of an embedding table as a (E,) tensor: the one-index
    `embedding` gather, reshaped."""
    return reshape(embedding(table, [idx]), (table.shape[1],))


def embedding(table, indices):
    """Batched row gather: indices (N,) -> (N, E). Repeats accumulate.
    Indices must be integers; floats and bools raise rather than truncate."""
    indices = np.asarray(indices)
    _require(indices.size == 0 or np.issubdtype(indices.dtype, np.integer),
             "embedding: indices must be integers, got {}", indices.dtype)
    indices = indices.astype(np.int64, copy=False)
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
