"""The fused GRU step and the shared sigmoid, checked bit for bit against
their composed and two-branch references.

f32 training results (and the acceptance gates) move with the last bit of
any value, so these references pin exact equality, not a tolerance.
"""

import numpy as np
import pytest

from psan import ops
from psan.config import ModelConfig
from psan.layers import GRUCell
from psan.model import TextRecognizer
from psan.tensor import Tape, Tensor, add, backward, mul, sub, sum_all

DTYPES = {"f32": np.float32, "f64": np.float64}


def composed_gru_cell(x, h_prev, p):
    """The GRU step as the tape saw it before fusion: 16 primitive nodes."""
    z = ops.sigmoid(add(ops.linear(x, p.wz, p.bz), ops.matmul(h_prev, p.uz)))
    r = ops.sigmoid(add(ops.linear(x, p.wr, p.br), ops.matmul(h_prev, p.ur)))
    c = ops.tanh(add(ops.linear(x, p.wh, p.bh), ops.matmul(mul(r, h_prev), p.uh)))
    return add(h_prev, mul(z, sub(c, h_prev)))


def masked_sigmoid(d):
    """The two-branch sigmoid: exp() of -d where d >= 0, of d elsewhere."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assert_bits_equal(a, b, what=""):
    assert a.dtype == b.dtype and a.shape == b.shape, what
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8), err_msg=what)


def run_chain(cell_fn, cell, xs, h0, projs, dtype):
    """Chain the cell over the step inputs, score every hidden state, run
    backward; return the hidden states and every gradient."""
    params = [p.value for p in cell.params()]
    for p in params:
        p.grad = None
    xs = [Tensor(x, requires_grad=True, dtype=dtype) for x in xs]
    h = Tensor(h0, requires_grad=True, dtype=dtype)
    leaves = [h] + xs
    states = []
    with Tape() as tape:
        loss = None
        for x, proj in zip(xs, projs):
            h = cell_fn(x, h, cell.weights())
            states.append(h.data)
            term = sum_all(mul(h, Tensor(proj, dtype=dtype)))
            loss = term if loss is None else add(loss, term)
        backward(loss, tape)
    return states, [t.grad for t in leaves + params]


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fused_gru_matches_the_composed_step_bit_for_bit(mode, seed):
    dtype = DTYPES[mode]
    rng = np.random.default_rng(seed)
    n, d_in, hidden, steps = 3, 7, 5, 4
    cell = GRUCell("g", d_in, hidden, rng).astype(dtype)
    for b in (cell.bz, cell.br, cell.bh):  # nonzero biases exercise the bias sums
        b.value.data[:] = rng.standard_normal(hidden)
    xs = [rng.standard_normal((n, d_in)) for _ in range(steps)]
    h0 = rng.standard_normal((n, hidden))
    projs = [rng.standard_normal((n, hidden)) for _ in range(steps)]
    fused = run_chain(ops.gru_cell, cell, xs, h0, projs, dtype)
    composed = run_chain(composed_gru_cell, cell, xs, h0, projs, dtype)
    for t, (a, b) in enumerate(zip(fused[0], composed[0])):
        assert_bits_equal(a, b, f"h at step {t}")
    names = ["h0"] + [f"x{t}" for t in range(steps)] + [p.name for p in cell.params()]
    for name, a, b in zip(names, fused[1], composed[1]):
        assert_bits_equal(a, b, f"grad of {name}")


def test_fused_gru_checks_shapes():
    rng = np.random.default_rng(2)
    cell = GRUCell("g", 3, 4, rng)
    with pytest.raises(ValueError, match="batch"):
        ops.gru_cell(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 4))), cell.weights())
    with pytest.raises(ValueError, match="do not fit"):
        ops.gru_cell(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 4))), cell.weights())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_the_two_branch_form_bit_for_bit(dtype):
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 88.0, -88.0, 100.0, -100.0,
               info.smallest_subnormal, -info.smallest_subnormal,
               info.smallest_normal / 4, -info.smallest_normal / 4, info.max, -info.max]
    rng = np.random.default_rng(3)
    d = np.concatenate([np.array(special), 20 * rng.standard_normal(500)]).astype(dtype)
    got = ops._sigmoid(d)
    want = masked_sigmoid(d)
    assert_bits_equal(got, want)
    assert_bits_equal(ops.sigmoid(Tensor(d, dtype=dtype)).data, want)


def test_teacher_forced_tape_holds_one_gru_node_per_step():
    model = TextRecognizer(ModelConfig(channels=4, num_scales=2, rus_per_rs=1, vab_convs=1,
                                       max_length=5, hidden_size=8, embedding_dim=6,
                                       label_max_len=4, seed=5))
    images = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3, 32, 128)))
    with Tape() as tape:
        model.loss(images, ["abc", "b"])
    gru = model.decoder.gru.name
    assert gru.endswith(".dec.gru")
    assert [n.scope for n in tape.nodes if n.op == "gru_cell"] == [gru] * 4  # "abc" + eos
    composed_ops = {"linear", "matmul", "sigmoid", "tanh", "add", "mul", "sub"}
    assert not [n.op for n in tape.nodes if n.scope == gru and n.op in composed_ops]
