"""Differentiable building blocks for the recognizer.

Every function takes and returns Tensors, computes forward with numpy, and
registers its backward rule on the active tape. An output takes the dtype
of the op's primary input: its first tensor, the table for `embedding`,
`h_prev` for `gru_cell`. Convolution is one batched
matmul over a column matrix: the input itself for a 1x1 kernel, flat shifted
copies for other same-size stride-1 kernels, strided im2col windows
otherwise. The naive direct form lives in the test suite as an oracle. A
GRU step is one fused node that rounds every value as the primitive ops it
replaces would; the composed form lives in the test suite as its reference.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, accumulate_grad, active_tape, record
from .tensor import add, sub, mul, scale, sum_all  # noqa: F401  (re-exported)


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


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


def conv2d(x, weight, bias, stride=1, padding=0):
    """2-d cross-correlation with zero padding.

    x: (N, C_in, H, W), weight: (C_out, C_in, kh, kw), bias: (C_out,).
    Output spatial dims are (H + 2p - kh) // stride + 1 and likewise for W.
    """
    _require(x.ndim == 4, f"conv2d: input must be 4-d, got {x.shape}")
    _require(weight.ndim == 4, f"conv2d: weight must be 4-d, got {weight.shape}")
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    _require(c_in == c_in_w, f"conv2d: channel mismatch, input {c_in} vs weight {c_in_w}")
    _require(bias.shape == (c_out,), f"conv2d: bias shape {bias.shape} != ({c_out},)")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    _require(h_out >= 1 and w_out >= 1,
             f"conv2d: degenerate output {h_out}x{w_out} for input {h}x{w} kernel {kh}x{kw}")

    # The column matrix is (N, C_in*kh*kw, L): one row per input channel and
    # kernel offset, so the convolution is a single batched matmul. Same-size
    # stride-1 convolutions fill each row with one flat shifted copy, and a
    # 1x1 kernel reads the input itself; other convolutions gather strided
    # windows of the padded input.
    l = h_out * w_out
    same = stride == 1 and kh == kw == 2 * padding + 1
    if same and kh == 1:
        cols2 = x.data.reshape(n, c_in, l)  # a view: nothing copied or retained
    elif same:
        shifts = _same_shifts(kh, padding, h, w)
        xf = x.data.reshape(n, c_in, l)
        cols = np.empty((n, c_in, kh * kw, h, w), dtype=xf.dtype)
        flat = cols.reshape(n, c_in, kh * kw, l)
        for t, (s, lo, hi, edge) in enumerate(shifts):
            flat[:, :, t, lo:hi] = xf[:, :, lo + s:hi + s]
            flat[:, :, t, :lo] = 0
            flat[:, :, t, hi:] = 0
            cols[:, :, t, :, edge] = 0
        cols2 = flat.reshape(n, c_in * kh * kw, l)
    else:
        xp = x.data
        if padding > 0:
            xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        cols = np.empty((n, c_in, kh, kw, h_out, w_out), dtype=xp.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i, j] = xp[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
        cols2 = cols.reshape(n, c_in * kh * kw, l)
    wmat = weight.data.reshape(c_out, c_in * kh * kw)
    out_data = np.matmul(wmat[None], cols2)  # (N, C_out, L)
    out_data += bias.data[:, None]
    out = Tensor(out_data.reshape(n, c_out, h_out, w_out), dtype=x.data.dtype)

    def bwd(g):
        gmat = g.reshape(n, c_out, l)
        if bias.requires_grad:
            accumulate_grad(bias, _channel_sum(gmat))
        if weight.requires_grad:
            gw = np.matmul(gmat, cols2.transpose(0, 2, 1)).sum(axis=0)
            accumulate_grad(weight, gw.reshape(weight.shape))
        if not x.requires_grad:
            return
        gcols = np.matmul(wmat.T[None], gmat)
        if same and kh == 1:
            gx = gcols.reshape(x.shape)
        elif same:
            # add each shifted row back in offset order, the padding pixels
            # zeroed, so every sum rounds as in the strided scatter below
            gflat = gcols.reshape(n, c_in, kh * kw, l)
            ggrid = gcols.reshape(n, c_in, kh * kw, h, w)
            gx = np.zeros((n, c_in, l), dtype=gcols.dtype)
            for t, (s, lo, hi, edge) in enumerate(shifts):
                ggrid[:, :, t, :, edge] = 0
                gx[:, :, lo + s:hi + s] += gflat[:, :, t, lo:hi]
            gx = gx.reshape(x.shape)
        else:
            gcols = gcols.reshape(n, c_in, kh, kw, h_out, w_out)
            gx = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gx[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += gcols[:, :, i, j]
            if padding > 0:
                gx = gx[:, :, padding:padding + h, padding:padding + w]
        accumulate_grad(x, gx)

    return record("conv2d", (x, weight, bias), out, bwd)


def batchnorm2d(x, gamma, beta, running_mean, running_var, momentum=0.1,
                eps=1e-5, training=True):
    """Per-channel batch normalization over the (N, H, W) axes.

    Train mode normalizes with biased batch statistics and folds them into
    the running estimates in place: running <- (1 - momentum) * running +
    momentum * batch. Eval mode normalizes with the running estimates and
    never mutates them.

    Both modes work in place on an (N, C, H*W) view: forward centers once,
    scales and shifts one output buffer, and the train-mode input gradient
    (gxhat - (sum(gxhat) + x_hat * sum(gxhat * x_hat)) / cnt) * invstd, with
    gxhat = gamma * g and cnt = N*H*W, takes two buffers. Each value rounds
    exactly as in the plain broadcast expressions, because float32 training
    results (and the acceptance gates) move with any reassociation. Eval mode
    keeps no x_hat; backward recomputes it when gamma needs a gradient.
    """
    _require(x.ndim == 4, f"batchnorm2d: input must be 4-d, got {x.shape}")
    n, c, h, w = x.shape
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"batchnorm2d: gamma/beta must be ({c},)")
    count = n * h * w
    xv = x.data.reshape(n, c, h * w)
    if training:
        _require(count >= 2,
                 f"batchnorm2d: train mode needs at least 2 values per channel, got {count}")
        mean = _channel_sum(xv) / count
        xhat = xv - mean[:, None]
        # squared deviations go into the output buffer, overwritten below
        out_data = np.multiply(xhat, xhat)
        var = _channel_sum(out_data) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        invstd = 1.0 / np.sqrt(var + eps)
        xhat *= invstd[:, None]
        np.multiply(xhat, gamma.data[:, None], out=out_data)
    else:
        mean = running_mean.copy()  # backward must see this call's statistics
        invstd = 1.0 / np.sqrt(running_var + eps)
        out_data = xv - mean[:, None]
        out_data *= invstd[:, None]
        out_data *= gamma.data[:, None]
    out_data += beta.data[:, None]
    out = Tensor(out_data.reshape(n, c, h, w), dtype=x.data.dtype)

    def bwd(g):
        gv = g.reshape(n, c, h * w)
        accumulate_grad(beta, _channel_sum(gv))
        if training or gamma.requires_grad:
            xh = xhat if training else (xv - mean[:, None]) * invstd[:, None]
            buf = gv * xh
            accumulate_grad(gamma, _channel_sum(buf))
        if not x.requires_grad:
            return
        gx = gv * gamma.data[:, None]
        if training:
            s1 = _channel_sum(gx)
            np.multiply(gx, xhat, out=buf)
            s2 = _channel_sum(buf)
            np.multiply(xhat, s2[:, None], out=buf)
            buf += s1[:, None]
            buf /= count
            gx -= buf
        gx *= invstd[:, None]
        accumulate_grad(x, gx.reshape(x.shape))

    return record("batchnorm2d", (x, gamma, beta), out, bwd)


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


def maxpool2d(x, kernel, stride=None):
    """Non-overlapping max pooling; kernel must equal stride and divide H, W.

    The backward pass routes each window's gradient to its argmax, first
    occurrence in row-major window order on ties.
    """
    stride = kernel if stride is None else stride
    _require(kernel == stride, f"maxpool2d: kernel {kernel} must equal stride {stride}")
    _require(x.ndim == 4, f"maxpool2d: input must be 4-d, got {x.shape}")
    n, c, h, w = x.shape
    _require(h % kernel == 0 and w % kernel == 0,
             f"maxpool2d: {h}x{w} not divisible by window {kernel}")
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
    _require(factor in (2, 4, 8), f"bilinear_upsample: unsupported factor {factor}")
    _require(x.ndim == 4, f"bilinear_upsample: input must be 4-d, got {x.shape}")
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
                         f"concat: dim {ax} mismatch {t.shape} vs {xs[0].shape}")
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
             f"gate_multiply: gate shape {gate.shape} != ({n}, 1, {h}, {w})")
    out = Tensor(x.data * gate.data, dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, g * gate.data)
        accumulate_grad(gate, (g * x.data).sum(axis=1, keepdims=True))

    return record("gate_multiply", (x, gate), out, bwd)


def matmul(a, b):
    _require(a.ndim == 2 and b.ndim == 2, "matmul: inputs must be 2-d")
    _require(a.shape[1] == b.shape[0], f"matmul: inner dims {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data, dtype=a.data.dtype)

    def bwd(g):
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    return record("matmul", (a, b), out, bwd)


def linear(x, weight, bias):
    """Affine map: x (N, D_in) @ weight (D_in, D_out) + bias (D_out,)."""
    _require(x.ndim == 2, f"linear: input must be 2-d, got {x.shape}")
    _require(x.shape[1] == weight.shape[0],
             f"linear: dim mismatch {x.shape} vs {weight.shape}")
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
    _require(0 <= idx < v, f"embedding_lookup: index {idx} out of range for {v} rows")
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
             f"embedding: index out of range for {v} rows")
    out = Tensor(table.data[indices], dtype=table.data.dtype)

    def bwd(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, indices, g)
            accumulate_grad(table, gt)

    return record("embedding", (table,), out, bwd)


def select_step(x, t):
    """Slice one time step from a (N, T, K) tensor -> (N, K)."""
    _require(x.ndim == 3, f"select_step: input must be 3-d, got {x.shape}")
    _require(0 <= t < x.shape[1], f"select_step: step {t} out of range {x.shape[1]}")
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
    _require(x.shape[0] == n, f"gru_cell: batch mismatch {x.shape} vs {h_prev.shape}")
    for w, u, b in ((p.wz, p.uz, p.bz), (p.wr, p.ur, p.br), (p.wh, p.uh, p.bh)):
        _require(w.shape == (x.shape[1], hidden) and u.shape == (hidden, hidden)
                 and b.shape == (hidden,),
                 f"gru_cell: weights {w.shape}, {u.shape}, {b.shape} do not fit "
                 f"input {x.shape} and hidden {h_prev.shape}")
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
        _require(lg.shape == (n, v), f"sequence_nll: step {t} shape {lg.shape} != ({n}, {v})")
    _require(len(targets) == n, f"sequence_nll: {len(targets)} target rows for batch {n}")
    steps = len(logits_seq)
    for i, seq in enumerate(targets):
        _require(len(seq) <= steps,
                 f"sequence_nll: target {i} has {len(seq)} steps but only {steps} logits")
        for cls in seq:
            _require(0 <= cls < v, f"sequence_nll: class {cls} out of range {v}")

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
