"""Tape semantics, core gradients, ADADELTA, and the finite-difference oracle."""

import math

import numpy as np
import pytest

from psan import ops
from psan.config import ModelConfig
from psan.gradcheck import check_case
from psan.model import TextRecognizer
from psan.tensor import (GradientError, NonFiniteError, Parameter, Tape,
                         Tensor, adadelta_step, backward,
                         finite_difference_grad, sum_all, zero_grad)


def test_square_sum_gradient():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape():
        backward(sum_all(ops.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=0, atol=1e-6)


def test_sigmoid_scalar_gradient():
    x = Tensor([0.0], requires_grad=True, dtype=np.float64)
    with Tape():
        backward(sum_all(ops.sigmoid(x)))
    np.testing.assert_allclose(x.grad, [0.25], rtol=0, atol=1e-12)


def test_three_layer_composite_matches_finite_differences():
    """linear -> tanh -> linear, checked against central differences at 64-bit."""
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
    w1 = Tensor(rng.standard_normal((4, 5)), requires_grad=True, dtype=np.float64)
    b1 = Tensor(rng.standard_normal(5), requires_grad=True, dtype=np.float64)
    w2 = Tensor(rng.standard_normal((5, 2)), requires_grad=True, dtype=np.float64)
    b2 = Tensor(rng.standard_normal(2), requires_grad=True, dtype=np.float64)

    def forward():
        return sum_all(ops.linear(ops.tanh(ops.linear(x, w1, b1)), w2, b2))

    with Tape() as tape:
        backward(forward(), tape)
    for t in (x, w1, b1, w2, b2):
        def probe(v, t=t):
            saved = t.data
            t.data = v.data
            try:
                return forward()
            finally:
                t.data = saved

        fd = finite_difference_grad(probe, t).data
        err = np.abs(t.grad - fd) / np.maximum(np.maximum(np.abs(t.grad), np.abs(fd)), 1e-8)
        assert err.max() < 1e-5


def test_shared_intermediate_accumulates():
    # loss = sum(y*y + y) with y = x*x; d/dx = 4x^3 + 2x
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True, dtype=np.float64)
    with Tape():
        y = ops.mul(x, x)
        backward(sum_all(ops.add(ops.mul(y, y), y)))
    expected = 4 * x.data ** 3 + 2 * x.data
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


def test_shared_gradient_array_is_never_written_through():
    # add hands one gradient array to both inputs; adding a's second
    # contribution in place would also change b's gradient to 2
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([1.0], requires_grad=True)
    with Tape():
        c = ops.add(a, b)
        loss = sum_all(ops.add(c, a))
        backward(loss)
    np.testing.assert_array_equal(a.grad, [2.0])
    np.testing.assert_array_equal(b.grad, [1.0])
    assert c.grad is None and loss.grad is None  # intermediates are dropped


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ops.mul(x, x)
        with pytest.raises(GradientError, match="scalar"):
            backward(y, tape)


def test_item_needs_a_single_element():
    assert Tensor([[2.5]]).item() == 2.5
    with pytest.raises(ValueError) as err:
        Tensor([1.0, 2.0]).item()
    assert str(err.value) == "item() needs a single-element tensor, got shape (2,)"


def test_backward_consumes_tape():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(ops.mul(x, x))
        backward(loss, tape)
        with pytest.raises(GradientError, match="consumed"):
            backward(loss, tape)


def test_backward_drops_each_rule_and_keeps_the_record():
    """Once backward has run, no node holds its rule (nor the arrays the rule
    keeps); each still names its op, scope, inputs and output, and the tape
    refuses a second backward."""
    model = TextRecognizer(ModelConfig(channels=4, num_scales=2, rus_per_rs=1, vab_convs=1,
                                       max_length=4, hidden_size=8, embedding_dim=6,
                                       label_max_len=3, seed=3))
    images = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3, 32, 128)))
    with Tape() as tape:
        loss = model.loss(images, ["ab", "b"])
        before = [(n.op, n.scope, n.inputs, n.output) for n in tape.nodes]
        backward(loss, tape)
        assert [(n.op, n.scope, n.inputs, n.output) for n in tape.nodes] == before
        assert all(n.backward is None for n in tape.nodes)
        assert all(n.scope is not None for n in tape.nodes)
        with pytest.raises(GradientError, match="consumed"):
            backward(loss, tape)


def test_backward_needs_a_tape():
    x = Tensor([1.0], requires_grad=True)
    loss = sum_all(ops.mul(x, x))
    with pytest.raises(GradientError, match="tape"):
        backward(loss)


def test_unreachable_parameter_keeps_zero_grad():
    used = Parameter("used", Tensor([2.0]))
    unused = Parameter("unused", Tensor([3.0]))
    with Tape() as tape:
        backward(sum_all(ops.mul(used.value, used.value)), tape)
    np.testing.assert_allclose(used.value.grad, [4.0], rtol=1e-6)
    np.testing.assert_array_equal(unused.value.grad, [0.0])


def test_backward_linearity():
    """grad(a*f + b*g) == a*grad(f) + b*grad(g) within 1e-10 at 64-bit."""
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(6)
    alpha, beta = 1.7, -0.3

    def grad_of(build):
        x = Tensor(vals, requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            backward(build(x), tape)
        return x.grad

    f = lambda x: sum_all(ops.mul(x, x))
    g = lambda x: sum_all(ops.sigmoid(x))
    combined = grad_of(lambda x: ops.add(ops.scale(f(x), alpha), ops.scale(g(x), beta)))
    separate = alpha * grad_of(f) + beta * grad_of(g)
    assert np.abs(combined - separate).max() < 1e-10


def test_fd_of_sum_is_ones():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3)), dtype=np.float64)
    fd = finite_difference_grad(lambda t: sum_all(t), x)
    np.testing.assert_allclose(fd.data, np.ones((2, 3)), rtol=0, atol=1e-9)


def test_fd_of_quadratic():
    x = Tensor([3.0], dtype=np.float64)
    fd = finite_difference_grad(lambda t: sum_all(ops.mul(t, t)), x, eps=1e-4)
    assert abs(fd.data[0] - 6.0) < 1e-7


def test_fd_rejects_nonfinite_probe():
    x = Tensor([1.0], dtype=np.float64)

    def bad(t):
        return Tensor([np.inf])

    with pytest.raises(NonFiniteError):
        finite_difference_grad(bad, x)


def test_check_case_refuses_a_probe_point_near_a_relu_kink():
    """A relu input 1e-4 from zero is inside the central differences' reach:
    the check refuses the point rather than compare its slopes."""
    x = Tensor([0.5, 1e-4, -1.0], dtype=np.float64)
    with pytest.raises(RuntimeError) as err:
        check_case(lambda: sum_all(ops.relu(x)), [x])
    assert str(err.value) == ("probe point is 1.00e-04 from a relu/pool kink (need 1e-03); "
                              "use a different seed")


def test_tape_first_nonfinite_finds_earliest_bad_node():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        y = ops.mul(x, Tensor([np.inf]))
        z = ops.relu(y)
        sum_all(z)
    node = tape.first_nonfinite()
    assert node is not None and node.op == "mul"


def test_adadelta_first_step_hand_value():
    """One update at g=1 from zero accumulators, evaluated from the closed form."""
    p = Parameter("p", Tensor([0.0], dtype=np.float64))
    p.value.grad = np.array([1.0])
    adadelta_step([p], rho=0.9, eps=1e-6, lr_scale=1.0)
    expected = -math.sqrt(1e-6) / math.sqrt(0.1 + 1e-6)
    assert abs(p.value.data[0] - expected) < 1e-9
    assert abs(expected + 3.162e-3) < 1e-6
    np.testing.assert_allclose(p.accum_grad_sq, [0.1], rtol=1e-12)
    np.testing.assert_allclose(p.accum_update_sq, [0.1 * expected ** 2], rtol=1e-12)
    # grads are the caller's to clear
    np.testing.assert_array_equal(p.value.grad, [1.0])


def test_adadelta_zero_gradient_decays_accumulator():
    p = Parameter("p", Tensor([5.0], dtype=np.float64))
    p.accum_grad_sq[:] = 0.4
    before = p.value.data.copy()
    adadelta_step([p])
    np.testing.assert_array_equal(p.value.data, before)
    np.testing.assert_allclose(p.accum_grad_sq, [0.36], rtol=1e-12)


def test_adadelta_missing_grad_is_an_error():
    p = Parameter("p", Tensor([1.0]))
    p.value.grad = None
    with pytest.raises(GradientError, match="p"):
        adadelta_step([p])


def test_adadelta_scale_free_near_zero_eps():
    """At eps -> 0 the first update magnitude ignores gradient scale."""
    def first_update(g):
        p = Parameter("p", Tensor([0.0], dtype=np.float64))
        p.value.grad = np.array([g])
        adadelta_step([p], eps=1e-12)
        return abs(p.value.data[0])

    a, b = first_update(1.0), first_update(10.0)
    assert abs(a - b) / max(a, b) < 1e-3


def test_adadelta_descends_a_quadratic():
    """100 steps on f(x) = x^2 from x0 = 5: loss strictly decreases."""
    p = Parameter("x", Tensor([5.0], dtype=np.float64))
    losses = []
    for _ in range(100):
        x = p.value.data[0]
        losses.append(x * x)
        p.value.grad = np.array([2.0 * x])
        adadelta_step([p])
    losses.append(p.value.data[0] ** 2)
    diffs = np.diff(losses)
    assert (diffs < 0).all()


def test_zero_grad_clears_and_is_idempotent():
    p = Parameter("p", Tensor([1.0, 2.0]))
    with Tape() as tape:
        backward(sum_all(ops.mul(p.value, p.value)), tape)
    assert np.abs(p.value.grad).max() > 0
    zero_grad([p])
    np.testing.assert_array_equal(p.value.grad, [0.0, 0.0])
    zero_grad([p])
    np.testing.assert_array_equal(p.value.grad, [0.0, 0.0])


def test_zero_grad_on_fresh_params():
    p = Parameter("p", Tensor([1.0]))
    zero_grad([p])
    np.testing.assert_array_equal(p.value.grad, [0.0])


def test_precision_context_switches_dtype():
    assert Tensor([1.0]).data.dtype == np.float32
    assert Tensor(np.array([1.0])).data.dtype == np.float32
    assert Tensor([1.0], dtype=np.float64).data.dtype == np.float64
    with pytest.raises(ValueError, match="precision"):
        ModelConfig(precision="f16").validate()


def test_elementwise_ops_reject_shape_mismatch():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    for op in (ops.add, ops.sub, ops.mul):
        with pytest.raises(ValueError, match="shape"):
            op(a, b)
