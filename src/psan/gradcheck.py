"""Finite-difference verification of every backward rule.

Each check builds a small scalar-valued computation in 64-bit, runs the tape
backward pass, and compares every requested gradient against the central
finite-difference oracle. Composite paths (GRU cell, residual unit,
attention block, merging head, full model) run at a looser tolerance than
single ops.
"""

from dataclasses import replace

import numpy as np

from . import ops
from .config import ModelConfig
from .encoder import ResidualUnit, VisualAttentionBlock
from .layers import GRUCell
from .merging import MergingHead
from .model import TextRecognizer
from .tensor import Tape, Tensor, backward, finite_difference_grad, sum_all

OP_TOL = 1e-5
COMPOSITE_TOL = 1e-4


def relative_error(a, b, atol=1e-8):
    """Max over coordinates of |a - b| / max(|a|, |b|, 1e-8).

    Coordinates agreeing to within atol count as exact. Central differences
    carry rounding noise around 1e-12 regardless of the true value, so a
    mathematically zero gradient (conv bias feeding a batch norm, say) would
    otherwise read as noise divided by the 1e-8 floor.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = np.abs(a - b)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    err = diff / den
    err[diff <= atol] = 0.0
    return float(err.max())


def check_case(forward, wrt, eps=1e-4, margin_floor=1e-3):
    """Compare tape gradients of forward() against finite differences.

    forward is an argument-free callable returning a scalar Tensor that
    depends on the tensors in wrt. Probe evaluations temporarily swap each
    tensor's data in place; no tape is active during probes, so they are
    pure forward passes.

    Central differences are meaningless within eps of a relu zero crossing
    or a pooling argmax tie, so the probe point itself is certified first:
    every kink margin seen during the forward pass must clear margin_floor,
    otherwise the check refuses to run rather than compare garbage.
    """
    for t in wrt:
        t.requires_grad = True
        t.grad = np.zeros_like(t.data)
    with Tape(trace_kinks=True) as tape:
        backward(forward(), tape)
    if tape.margins and min(tape.margins) < margin_floor:
        raise RuntimeError(f"probe point is {min(tape.margins):.2e} from a relu/pool "
                           f"kink (need {margin_floor:.0e}); use a different seed")
    worst = 0.0
    for t in wrt:
        analytic = t.grad.copy()

        def f(x, t=t):
            saved = t.data
            t.data = np.ascontiguousarray(x.data, dtype=saved.dtype)
            try:
                return forward()
            finally:
                t.data = saved

        fd = finite_difference_grad(f, t, eps)
        worst = max(worst, relative_error(analytic, fd.data))
    return worst


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def _projected_sum(y, proj):
    return sum_all(ops.mul(y, proj))


def _check_elementwise(rng):
    x, y = _t(rng, 3, 4), _t(rng, 3, 4)
    fwd = lambda: sum_all(ops.add(ops.scale(ops.mul(x, y), 1.7), ops.sub(x, y)))
    return check_case(fwd, [x, y])


def _check_conv2d(rng):
    x, w, b = _t(rng, 2, 3, 5, 6), _t(rng, 4, 3, 3, 3), _t(rng, 4)
    fwd = lambda: sum_all(ops.conv2d(x, w, b, stride=2, padding=1))
    return check_case(fwd, [x, w, b])


def _check_conv2d_pointwise(rng):
    # 1x1, stride 1, unpadded: the path that multiplies the input directly
    x, w, b = _t(rng, 2, 3, 4, 5), _t(rng, 4, 3, 1, 1), _t(rng, 4)
    proj = _t(rng, 2, 4, 4, 5)
    fwd = lambda: _projected_sum(ops.conv2d(x, w, b), proj)
    return check_case(fwd, [x, w, b])


def _check_conv2d_same(rng):
    # stride 1 with the input size kept: the path built from shifted copies
    x, w, b = _t(rng, 2, 3, 4, 5), _t(rng, 4, 3, 3, 3), _t(rng, 4)
    proj = _t(rng, 2, 4, 4, 5)
    err = check_case(lambda: _projected_sum(ops.conv2d(x, w, b, padding=1), proj), [x, w, b])
    x5, w5, b5 = _t(rng, 1, 2, 3, 2), _t(rng, 2, 2, 5, 5), _t(rng, 2)
    proj5 = _t(rng, 1, 2, 3, 2)
    err5 = check_case(lambda: _projected_sum(ops.conv2d(x5, w5, b5, padding=2), proj5),
                      [x5, w5, b5])
    return max(err, err5)


def _check_batchnorm2d(rng):
    x = _t(rng, 3, 4, 2, 3)
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), dtype=np.float64)
    beta = _t(rng, 4)
    proj = _t(rng, 3, 4, 2, 3)
    rm, rv = np.zeros(4), np.ones(4)
    fwd = lambda: _projected_sum(
        ops.batchnorm2d(x, gamma, beta, rm, rv, training=True), proj)
    return check_case(fwd, [x, gamma, beta])


def _check_batchnorm2d_eval(rng):
    x = _t(rng, 3, 4, 2, 3)
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), dtype=np.float64)
    beta = _t(rng, 4)
    proj = _t(rng, 3, 4, 2, 3)
    rm, rv = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)
    fwd = lambda: _projected_sum(
        ops.batchnorm2d(x, gamma, beta, rm, rv, training=False), proj)
    return check_case(fwd, [x, gamma, beta])


def _check_relu(rng):
    # inputs bounded away from the kink at zero
    mags = rng.uniform(0.2, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    x = Tensor(mags, dtype=np.float64)
    proj = _t(rng, 3, 4)
    return check_case(lambda: _projected_sum(ops.relu(x), proj), [x])


def _check_sigmoid(rng):
    x, proj = _t(rng, 3, 5), _t(rng, 3, 5)
    return check_case(lambda: _projected_sum(ops.sigmoid(x), proj), [x])


def _check_tanh(rng):
    x, proj = _t(rng, 3, 5), _t(rng, 3, 5)
    return check_case(lambda: _projected_sum(ops.tanh(x), proj), [x])


def _check_maxpool2d(rng):
    # distinct, well-separated values keep the argmax stable under probes
    vals = rng.permutation(2 * 3 * 4 * 6).astype(np.float64) * 0.37
    x = Tensor(vals.reshape(2, 3, 4, 6), dtype=np.float64)
    proj = _t(rng, 2, 3, 2, 3)
    return check_case(lambda: _projected_sum(ops.maxpool2d(x, 2), proj), [x])


def _check_bilinear_upsample(rng):
    x, proj = _t(rng, 2, 3, 3, 4), _t(rng, 2, 3, 6, 8)
    err = check_case(lambda: _projected_sum(ops.bilinear_upsample(x, 2), proj), [x])
    x4, proj4 = _t(rng, 1, 2, 2, 3), _t(rng, 1, 2, 8, 12)
    err4 = check_case(lambda: _projected_sum(ops.bilinear_upsample(x4, 4), proj4), [x4])
    return max(err, err4)


def _check_concat(rng):
    a, b, c = _t(rng, 2, 3, 2, 2), _t(rng, 2, 1, 2, 2), _t(rng, 2, 2, 2, 2)
    proj = _t(rng, 2, 6, 2, 2)
    fwd = lambda: _projected_sum(ops.concat([a, b, c], axis=1), proj)
    return check_case(fwd, [a, b, c])


def _check_gate_multiply(rng):
    x, gate = _t(rng, 2, 3, 2, 4), _t(rng, 2, 1, 2, 4)
    return check_case(lambda: sum_all(ops.gate_multiply(x, gate)), [x, gate])


def _check_linear(rng):
    x, w, b = _t(rng, 3, 4), _t(rng, 4, 5), _t(rng, 5)
    proj = _t(rng, 3, 5)
    return check_case(lambda: _projected_sum(ops.linear(x, w, b), proj), [x, w, b])


def _check_matmul(rng):
    a, b = _t(rng, 3, 4), _t(rng, 4, 2)
    proj = _t(rng, 3, 2)
    return check_case(lambda: _projected_sum(ops.matmul(a, b), proj), [a, b])


def _check_softmax(rng):
    # sum of a softmax row is constant, so project before summing
    x, proj = _t(rng, 3, 6), _t(rng, 3, 6)
    return check_case(lambda: _projected_sum(ops.softmax(x), proj), [x])


def _check_embedding(rng):
    table = _t(rng, 7, 4)
    w, b = _t(rng, 4, 3), _t(rng, 3)
    idx = np.array([2, 5, 2, 0])  # repeated row must accumulate both uses
    fwd = lambda: sum_all(ops.linear(ops.embedding(table, idx), w, b))
    err = check_case(fwd, [table, w, b])
    proj = _t(rng, 4)
    fwd_one = lambda: _projected_sum(ops.embedding_lookup(table, 3), proj)
    return max(err, check_case(fwd_one, [table]))


def _check_reshape_select(rng):
    x, proj = _t(rng, 2, 12), _t(rng, 2, 4)
    fwd = lambda: _projected_sum(ops.select_step(ops.reshape(x, (2, 3, 4)), 1), proj)
    return check_case(fwd, [x])


def _check_gru_cell(rng):
    cell = GRUCell("gc", 4, 5, rng).astype(np.float64)
    x, h, proj = _t(rng, 3, 4), _t(rng, 3, 5), _t(rng, 3, 5)
    wrt = [x, h] + [p.value for p in cell.params()]
    return check_case(lambda: _projected_sum(cell(x, h), proj), wrt)


def _check_sequence_nll(rng):
    steps = [_t(rng, 2, 6) for _ in range(3)]
    targets = [[1, 2, 5], [0, 5]]
    return check_case(lambda: ops.sequence_nll(steps, targets), steps)


def _check_residual_unit(rng):
    ru = ResidualUnit("ru", 4, rng).astype(np.float64)
    x, proj = _t(rng, 2, 4, 3, 4), _t(rng, 2, 4, 3, 4)
    wrt = [x] + [p.value for p in ru.params()]
    return check_case(lambda: _projected_sum(ru(x), proj), wrt)


def _check_attention_block(rng):
    vab = VisualAttentionBlock("vab", 3, 2, rng).astype(np.float64)
    x, proj = _t(rng, 2, 3, 3, 4), _t(rng, 2, 3, 3, 4)
    wrt = [x] + [p.value for p in vab.params()]
    return check_case(lambda: _projected_sum(vab(x), proj), wrt)


def _check_merging_head(rng):
    mh = MergingHead("mh", [4, 8], 4, rng).astype(np.float64)
    f1, f2 = _t(rng, 2, 4, 4, 8), _t(rng, 2, 8, 2, 4)
    proj = _t(rng, 2, 4, 8)
    wrt = [f1, f2] + [p.value for p in mh.params()]
    return check_case(lambda: _projected_sum(mh([f1, f2]), proj), wrt)


def tiny_config():
    """Smallest full model that still exercises every component."""
    return ModelConfig(channels=4, num_scales=2, rus_per_rs=1, vab_convs=2,
                       max_length=4, hidden_size=8, embedding_dim=6,
                       label_max_len=3, seed=11)


def _check_full_model(rng):
    model = TextRecognizer(replace(tiny_config(), precision="f64"), input_hw=(8, 16))
    model.train()
    image = Tensor(rng.uniform(-1, 1, (1, 3, 8, 16)), dtype=np.float64)
    fwd = lambda: model.loss(image, ["ab"])
    wrt = [image,
           model.encoder.stem.conv.weight.value,
           model.decoder.gru.bz.value,
           model.decoder.cls.bias.value]
    return check_case(fwd, wrt)


# (name, runner, tolerance, seed). Seeds are fixed per check so the probe
# points are reproducible and known to sit clear of relu/pool kinks; the
# margin certification in check_case turns a bad probe point into an error
# rather than a spurious mismatch.
CHECKS = [
    ("elementwise", _check_elementwise, OP_TOL, 101),
    ("conv2d", _check_conv2d, OP_TOL, 102),
    ("batchnorm2d", _check_batchnorm2d, OP_TOL, 103),
    ("conv2d_pointwise", _check_conv2d_pointwise, OP_TOL, 123),
    ("conv2d_same", _check_conv2d_same, OP_TOL, 125),
    ("batchnorm2d_eval", _check_batchnorm2d_eval, OP_TOL, 124),
    ("relu", _check_relu, OP_TOL, 104),
    ("sigmoid", _check_sigmoid, OP_TOL, 105),
    ("tanh", _check_tanh, OP_TOL, 106),
    ("maxpool2d", _check_maxpool2d, OP_TOL, 107),
    ("bilinear_upsample", _check_bilinear_upsample, OP_TOL, 108),
    ("concat_channels", _check_concat, OP_TOL, 109),
    ("gate_multiply", _check_gate_multiply, OP_TOL, 110),
    ("linear", _check_linear, OP_TOL, 111),
    ("matmul", _check_matmul, OP_TOL, 112),
    ("softmax", _check_softmax, OP_TOL, 113),
    ("embedding", _check_embedding, OP_TOL, 114),
    ("reshape_select", _check_reshape_select, OP_TOL, 115),
    ("gru_cell", _check_gru_cell, COMPOSITE_TOL, 116),
    ("sequence_nll", _check_sequence_nll, OP_TOL, 117),
    ("residual_unit", _check_residual_unit, COMPOSITE_TOL, 118),
    ("attention_block", _check_attention_block, COMPOSITE_TOL, 119),
    ("merging_head", _check_merging_head, COMPOSITE_TOL, 120),
    ("full_model", _check_full_model, COMPOSITE_TOL, 122),
]


def run_all(seed=0):
    """Run every check; returns a list of (name, max_rel_err, tol) tuples.

    seed shifts every per-check seed, so seed=0 reproduces the curated probe
    points and any other value explores fresh ones.
    """
    return [(name, fn(np.random.default_rng(check_seed + seed)), tol)
            for name, fn, tol, check_seed in CHECKS]
