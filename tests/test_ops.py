"""Forward-value contracts for the neural ops, checked against naive oracles.

Gradient correctness lives in psan.gradcheck (exercised by the acceptance
suite); these tests pin the forward semantics: hand-computable cases, brute
force convolution and pooling references, and the documented error paths.
Exact-equality cases build float64 inputs, since each op's output takes
the dtype of its primary input.
"""

import numpy as np
import pytest

from psan import ops
from psan.layers import GRUCell
from psan.tensor import Tape, Tensor, backward, sum_all


def naive_conv2d(x, w, b, stride, padding):
    """Direct 6-loop cross-correlation, the independent reference."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for yo in range(ho):
                for xo in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (xp[ni, ci, yo * stride + ky, xo * stride + kx]
                                        * w[co, ci, ky, kx])
                    out[ni, co, yo, xo] = acc + b[co]
    return out


def test_conv2d_pointwise_scale():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.full((1, 1, 1, 1), 2.0))
    b = Tensor(np.zeros(1))
    out = ops.conv2d(x, w, b)
    np.testing.assert_allclose(out.data, np.full((1, 1, 3, 3), 2.0), rtol=1e-6)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 3, 5, 6)))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = ops.conv2d(x, Tensor(w), Tensor(np.zeros(3)), stride=1, padding=1)
    np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


def test_conv2d_matches_naive_oracle():
    rng = np.random.default_rng(2)
    # a strided padded kernel, and unit-stride kernels that keep the size
    for k, stride, padding in ((3, 2, 1), (1, 1, 0), (3, 1, 1), (5, 1, 2)):
        x = rng.standard_normal((2, 3, 5, 7))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = naive_conv2d(x, w, b, stride=stride, padding=padding)
        assert np.abs(out.data - ref).max() < 1e-5


def reference_conv2d(x, w, b, g, stride, padding):
    """Convolution and its gradients through strided im2col windows."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    cols = np.empty((n, cin, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    cols = cols.reshape(n, cin * kh * kw, ho * wo)
    wmat = w.reshape(cout, -1)
    out = np.matmul(wmat[None], cols) + b[:, None]
    gmat = g.reshape(n, cout, ho * wo)
    gw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(wmat.T[None], gmat).reshape(n, cin, kh, kw, ho, wo)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, i, j]
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return out.reshape(n, cout, ho, wo), gx, gw, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("shape,k,stride,padding", [
    ((2, 3, 5, 7), 1, 1, 0), ((2, 3, 5, 7), 3, 1, 1), ((2, 2, 4, 3), 5, 1, 2),
    ((1, 2, 1, 1), 3, 1, 1), ((2, 3, 5, 7), 3, 2, 1), ((2, 3, 4, 6), 1, 1, 1)])
def test_conv2d_rounds_like_strided_im2col(shape, k, stride, padding):
    """Every column-matrix layout rounds each value as the strided windows
    do, so float32 training runs do not depend on which one a shape takes."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal((4, shape[1], k, k)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    with Tape() as tape:
        out = ops.conv2d(tx, tw, tb, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(np.float32)
        backward(sum_all(ops.mul(out, Tensor(g))), tape)
    ref = reference_conv2d(x, w, b, g, stride, padding)
    for got, want in zip((out.data, tx.grad, tw.grad, tb.grad), ref):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def test_conv2d_rejects_channel_mismatch_and_degenerate_output():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    w = Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(ValueError, match="channel"):
        ops.conv2d(x, w, Tensor(np.zeros(1)))
    w2 = Tensor(np.zeros((1, 2, 5, 5)))
    with pytest.raises(ValueError):
        ops.conv2d(x, w2, Tensor(np.zeros(1)))


def test_batchnorm_train_normalizes():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3 + 1, dtype=np.float64)
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    rm, rv = np.zeros(3), np.ones(3)
    out = ops.batchnorm2d(x, gamma, beta, rm, rv, training=True)
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    assert np.abs(mean).max() < 1e-5
    assert np.abs(var - 1).max() < 1e-4
    # running stats moved toward the batch stats by the momentum
    assert np.abs(rm).max() > 0


def test_batchnorm_eval_identity_stats():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype=np.float64)
    out = ops.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                          np.zeros(3), np.ones(3), training=False)
    np.testing.assert_allclose(out.data, x.data, atol=1e-4)


def test_batchnorm_eval_is_the_normalized_affine_map():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 3, 4, 5)) * 2 + 1, dtype=np.float64)
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), dtype=np.float64)
    beta = Tensor(rng.standard_normal(3), dtype=np.float64)
    rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
    out = ops.batchnorm2d(x, gamma, beta, rm, rv, eps=1e-5, training=False)
    c = (slice(None), None, None)
    ref = (x.data - rm[c]) / np.sqrt(rv[c] + 1e-5) * gamma.data[c] + beta.data[c]
    assert out.data.dtype == np.float64
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)


def reference_batchnorm(x, g, gamma, beta, rm, rv, eps, training):
    """Batch norm and its input gradient as plain 4-d broadcast expressions."""
    c = (None, slice(None), None, None)
    mean = x.mean(axis=(0, 2, 3)) if training else rm
    var = x.var(axis=(0, 2, 3)) if training else rv
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[c]) * invstd[c]
    out = gamma[c] * xhat + beta[c]
    gxhat = g * gamma[c]
    if training:
        cnt = x.size // x.shape[1]
        s1 = gxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        gx = (gxhat - (s1 + xhat * s2) / cnt) * invstd[c]
    else:
        gx = gxhat * invstd[c]
    return out, gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_rounds_like_the_broadcast_reference(training):
    """The (N, C, H*W) kernel rounds every value in the same order as the
    broadcast form, so float32 training runs do not depend on its layout."""
    rng = np.random.default_rng(7)
    f32 = lambda *shape: rng.standard_normal(shape).astype(np.float32)
    x, g = f32(4, 5, 6, 7) * 3 + 1, f32(4, 5, 6, 7)
    gamma, beta = rng.uniform(0.5, 1.5, 5).astype(np.float32), f32(5)
    rm, rv = f32(5), rng.uniform(0.5, 2.0, 5).astype(np.float32)
    tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    with Tape() as tape:
        out = ops.batchnorm2d(tx, tg, tb, rm.copy(), rv.copy(), training=training)
        backward(sum_all(ops.mul(out, Tensor(g))), tape)
    ref = reference_batchnorm(x, g, gamma, beta, rm, rv, 1e-5, training)
    for got, want in zip((out.data, tx.grad, tg.grad, tb.grad), ref):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def test_batchnorm_eval_never_mutates_running_stats():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)))
    rm, rv = np.full(3, 0.3), np.full(3, 1.7)
    ops.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, training=False)
    np.testing.assert_array_equal(rm, np.full(3, 0.3))
    np.testing.assert_array_equal(rv, np.full(3, 1.7))


def test_batchnorm_train_needs_two_values():
    x = Tensor(np.zeros((1, 3, 1, 1)))
    with pytest.raises(ValueError, match="at least 2"):
        ops.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                        np.zeros(3), np.ones(3), training=True)


def test_relu_and_sigmoid_values():
    np.testing.assert_array_equal(ops.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    np.testing.assert_allclose(ops.sigmoid(Tensor([0.0])).data, [0.5], atol=1e-7)


def test_maxpool_basic_and_constant():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    np.testing.assert_array_equal(ops.maxpool2d(x, 2).data, [[[[4.0]]]])
    const = Tensor(np.full((1, 2, 4, 4), 0.7))
    np.testing.assert_allclose(ops.maxpool2d(const, 2).data, np.full((1, 2, 2, 2), 0.7),
                               rtol=1e-6)


def test_maxpool_matches_window_scan():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 2, 8, 16))
    out = ops.maxpool2d(Tensor(x, dtype=np.float64), 4)
    ref = np.zeros((1, 2, 2, 4))
    for c in range(2):
        for i in range(2):
            for j in range(4):
                ref[0, c, i, j] = x[0, c, 4 * i:4 * i + 4, 4 * j:4 * j + 4].max()
    np.testing.assert_array_equal(out.data, ref)


def test_maxpool_rejects_nondivisible_dims():
    with pytest.raises(ValueError, match="divisible"):
        ops.maxpool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)


def test_maxpool_backward_routes_to_first_tie():
    x = Tensor(np.array([[2.0, 2.0], [1.0, 0.0]]).reshape(1, 1, 2, 2), requires_grad=True)
    with Tape() as tape:
        backward(sum_all(ops.maxpool2d(x, 2)), tape)
    np.testing.assert_array_equal(x.grad.reshape(2, 2), [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_then_nearest_upsample_dominates_input():
    """The pooled window maximum, broadcast back up, bounds every input cell."""
    rng = np.random.default_rng(7)
    for k in (2, 4):
        x = rng.standard_normal((2, 3, 8, 8))
        pooled = ops.maxpool2d(Tensor(x, dtype=np.float64), k).data
        up = pooled.repeat(k, axis=2).repeat(k, axis=3)
        assert (up >= x - 1e-12).all()


def test_upsample_constant_is_exact():
    const = Tensor(np.full((1, 2, 3, 4), -0.3), dtype=np.float64)
    for factor in (2, 4):
        out = ops.bilinear_upsample(const, factor)
        assert out.shape == (1, 2, 3 * factor, 4 * factor)
        np.testing.assert_allclose(out.data, -0.3, atol=1e-12)


def test_upsample_hand_case():
    # width [0, 1] at factor 2: source coords (i+0.5)/2 - 0.5, edges clamped
    x = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2), dtype=np.float64)
    out = ops.bilinear_upsample(x, 2)
    np.testing.assert_allclose(out.data.reshape(2, 4),
                               [[0.0, 0.25, 0.75, 1.0]] * 2, atol=1e-12)


def loop_interp_matrix(n_in, n_out, dtype):
    """Row-at-a-time reference for ops.interp_matrix."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = src - i0
    for o in range(n_out):
        m[o, i0[o]] += 1.0 - frac[o]
        m[o, i1[o]] += frac[o]
    return m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_interp_matrix_is_byte_identical_to_the_loop(dtype):
    for n_in in range(1, 300):
        for n_out in (1, 2, 3, 7, 16, 32, 64, 128, 256):
            got = ops.interp_matrix(n_in, n_out, dtype)
            want = loop_interp_matrix(n_in, n_out, dtype)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n_in, n_out)


def test_upsample_rejects_bad_factor():
    with pytest.raises(ValueError, match="factor"):
        ops.bilinear_upsample(Tensor(np.zeros((1, 1, 2, 2))), 3)


def test_concat_channels_layout_and_backward():
    rng = np.random.default_rng(8)
    a = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True, dtype=np.float64)
    single = ops.concat([a], axis=1)
    np.testing.assert_array_equal(single.data, a.data)
    out = ops.concat([a, b], axis=1)
    assert out.shape == (1, 5, 4, 4)
    np.testing.assert_array_equal(out.data[:, :2], a.data)
    np.testing.assert_array_equal(out.data[:, 2:], b.data)

    g = rng.standard_normal((1, 5, 4, 4))
    proj = Tensor(g, dtype=np.float64)
    with Tape() as tape:
        backward(sum_all(ops.mul(ops.concat([a, b], axis=1), proj)), tape)
    np.testing.assert_array_equal(a.grad, g[:, :2])
    np.testing.assert_array_equal(b.grad, g[:, 2:])


def test_concat_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        ops.concat([Tensor(np.zeros((1, 2, 4, 4))),
                    Tensor(np.zeros((1, 2, 3, 4)))], axis=1)


def test_gate_multiply_identity_zero_and_bound():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype=np.float64)
    ones = Tensor(np.ones((2, 1, 4, 4)), dtype=np.float64)
    zeros = Tensor(np.zeros((2, 1, 4, 4)), dtype=np.float64)
    np.testing.assert_array_equal(ops.gate_multiply(x, ones).data, x.data)
    np.testing.assert_array_equal(ops.gate_multiply(x, zeros).data,
                                  np.zeros_like(x.data))
    # sigmoid gates lie in (0, 1) so gating can never grow a magnitude
    sm = ops.sigmoid(Tensor(rng.standard_normal((2, 1, 4, 4)), dtype=np.float64))
    gated = ops.gate_multiply(x, sm)
    assert (np.abs(gated.data) <= np.abs(x.data) + 1e-12).all()


def test_linear_identity_and_bias_only():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
    eye, zero = Tensor(np.eye(4), dtype=np.float64), Tensor(np.zeros(4), dtype=np.float64)
    np.testing.assert_allclose(ops.linear(x, eye, zero).data, x.data, rtol=1e-12)
    b = rng.standard_normal(5)
    out = ops.linear(x, Tensor(np.zeros((4, 5)), dtype=np.float64), Tensor(b, dtype=np.float64))
    np.testing.assert_allclose(out.data, np.tile(b, (3, 1)), rtol=1e-12)


def test_softmax_values_and_stability():
    np.testing.assert_allclose(ops.softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]],
                               atol=1e-7)
    rng = np.random.default_rng(11)
    x = rng.uniform(-50, 50, (8, 13))
    out = ops.softmax(Tensor(x, dtype=np.float64)).data
    shifted = ops.softmax(Tensor(x + 3.7, dtype=np.float64)).data
    assert (out > 0).all()
    np.testing.assert_allclose(out.sum(axis=1), np.ones(8), atol=1e-6)
    assert np.abs(out - shifted).max() < 1e-7


def test_embedding_lookup_and_accumulation():
    rng = np.random.default_rng(12)
    table = Tensor(rng.standard_normal((7, 4)), requires_grad=True, dtype=np.float64)
    np.testing.assert_array_equal(ops.embedding_lookup(table, 0).data, table.data[0])
    with pytest.raises(ValueError):
        ops.embedding_lookup(table, 7)
    # two lookups of the same row accumulate both upstream gradients
    with Tape() as tape:
        a = ops.embedding_lookup(table, 2)
        b = ops.embedding_lookup(table, 2)
        backward(sum_all(ops.add(ops.scale(a, 1.0), ops.scale(b, 2.0))), tape)
    np.testing.assert_allclose(table.grad[2], np.full(4, 3.0), rtol=1e-12)
    assert np.abs(table.grad[[0, 1, 3, 4, 5, 6]]).max() == 0


def test_gru_zero_weights_halves_hidden():
    rng = np.random.default_rng(13)
    cell = GRUCell("g", 3, 4, rng)
    for p in cell.params():
        p.value.data[:] = 0
    x = Tensor(rng.standard_normal((2, 3)), dtype=np.float64)
    h = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
    out = cell.forward(x, h)
    np.testing.assert_allclose(out.data, 0.5 * h.data, rtol=1e-6)


def test_gru_zero_hidden_weights_reduction():
    """With h_prev = 0 and zero hidden-to-hidden weights the update collapses
    to sigmoid(x Wz + bz) * tanh(x Wh + bh)."""
    rng = np.random.default_rng(14)
    cell = GRUCell("g", 3, 4, rng)
    for name in ("uz", "ur", "uh"):
        getattr(cell, name).value.data[:] = 0
    x = rng.standard_normal((2, 3))
    out = cell.forward(Tensor(x, dtype=np.float64), Tensor(np.zeros((2, 4)), dtype=np.float64))
    z = 1 / (1 + np.exp(-(x @ cell.wz.value.data + cell.bz.value.data)))
    cand = np.tanh(x @ cell.wh.value.data + cell.bh.value.data)
    np.testing.assert_allclose(out.data, z * cand, rtol=1e-5)


def test_sequence_nll_uniform_and_saturated():
    logits = Tensor(np.zeros((1, 2)), dtype=np.float64)
    loss = ops.sequence_nll([logits], [[0]])
    assert abs(loss.item() - np.log(2)) < 1e-7

    strong = np.zeros((2, 5))
    strong[0, 3] = 50.0
    strong[1, 1] = 50.0
    loss = ops.sequence_nll([Tensor(strong, dtype=np.float64)], [[3], [1]])
    assert loss.item() < 1e-6


def test_sequence_nll_matches_hand_sum():
    """Three steps, ragged targets, against a plain numpy evaluation."""
    rng = np.random.default_rng(15)
    steps = [rng.standard_normal((2, 6)) for _ in range(3)]
    targets = [[1, 2, 5], [0, 5]]
    loss = ops.sequence_nll([Tensor(s, dtype=np.float64) for s in steps], targets)

    total = 0.0
    for i, seq in enumerate(targets):
        for t, cls in enumerate(seq):
            row = steps[t][i]
            logp = row - (np.log(np.exp(row - row.max()).sum()) + row.max())
            total -= logp[cls]
    assert abs(loss.item() - total / 2) < 1e-6


def test_sequence_nll_error_paths():
    steps = [Tensor(np.zeros((2, 4)))]
    with pytest.raises(ValueError, match="target"):
        ops.sequence_nll(steps, [[0]])
    with pytest.raises(ValueError, match="steps"):
        ops.sequence_nll(steps, [[0, 1], [2]])
    with pytest.raises(ValueError, match="range"):
        ops.sequence_nll(steps, [[4], [0]])


def test_same_size_shift_table_is_built_once_per_shape():
    shifts = ops._same_shifts(3, 1, 4, 16)
    assert ops._same_shifts(3, 1, 4, 16) is shifts
    assert ops._same_shifts(3, 1, 4, 8) is not shifts
    assert len(shifts) == 9 and shifts[4][:3] == (0, 0, 64)  # the centre tap reads in place


class _Unprintable:
    """An argument that raises if a check formats it."""

    def _fail(self, *_):
        raise AssertionError("a passing check formatted its message")

    __format__ = __repr__ = __str__ = _fail


def test_checks_format_their_message_only_on_failure():
    ops._require(True, "never built {} {!r}", _Unprintable(), _Unprintable())
    with pytest.raises(ValueError) as err:
        ops._require(False, "conv2d: bias shape {} != ({},)", (3,), 4)
    assert str(err.value) == "conv2d: bias shape (3,) != (4,)"
    with pytest.raises(ValueError) as err:
        ops.gru_cell(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))),
                     GRUCell("gru", 4, 2, np.random.default_rng(0)).weights())
    assert str(err.value) == ("gru_cell: weights (4, 2), (2, 2), (2,) do not fit "
                              "input (1, 3) and hidden (1, 2)")
