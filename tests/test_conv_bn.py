"""Batch norm folded into its conv with no tape: same features, fresh every call.

With no tape open, each conv->BN pair runs as one conv whose weight and bias
absorb the batch norm's running statistics, whatever its mode. Any tape keeps
the two ops, so training rounds exactly as before.
"""

import numpy as np
import pytest

from psan import encoder, layers, merging, ops
from psan.config import ModelConfig
from psan.encoder import ResidualUnit
from psan.layers import Conv2d, ConvBNReLU
from psan.merging import MergingHead
from psan.model import TextRecognizer
from psan.tensor import Tape, Tensor, backward

RTOL = {"f32": 1e-5, "f64": 1e-12}
DTYPES = {"f32": np.float32, "f64": np.float64}


def tiny_model():
    return TextRecognizer(ModelConfig(channels=4, num_scales=2, rus_per_rs=2, vab_convs=1,
                                      max_length=4, hidden_size=8, embedding_dim=6,
                                      label_max_len=3, seed=3))


def perturb(module, rng):
    """Nontrivial running statistics, affine parameters and conv biases."""
    for bn in module.batchnorms:
        c = bn.running_mean.shape[0]
        bn.running_mean[:] = rng.normal(0.0, 0.5, c)
        bn.running_var[:] = rng.uniform(0.3, 2.0, c)
        bn.gamma.value.data[:] = rng.uniform(0.5, 1.5, c)
        bn.beta.value.data[:] = rng.normal(0.0, 0.3, c)
    for m in module.modules():
        if isinstance(m, Conv2d):
            m.bias.value.data[:] = rng.normal(0.0, 0.2, m.bias.value.data.shape)


def unfolded(module, *args):
    """The module's eval forward with every pair run as bn(conv(x)): a tape
    is open, and nothing needs a gradient from it."""
    with Tape():
        return module(*args)


def assert_close(got, want, mode):
    """Elementwise, relative to the largest feature: values near zero carry
    the rounding of the larger terms that cancelled into them."""
    tol = RTOL[mode]
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


BLOCKS = {
    "3x3": lambda rng: (ConvBNReLU("b", 3, 6, 3, rng, padding=1), (2, 3, 8, 12)),
    "3x3 stride 2": lambda rng: (ConvBNReLU("b", 3, 6, 3, rng, stride=2, padding=1), (2, 3, 8, 12)),
    "1x1": lambda rng: (ConvBNReLU("b", 5, 4, 1, rng), (2, 5, 6, 10)),
    "residual unit": lambda rng: (ResidualUnit("ru", 6, rng), (2, 6, 8, 12)),
}


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_folded_block_matches_two_op_form(mode, block):
    rng = np.random.default_rng(0)
    module, shape = BLOCKS[block](rng)
    module.astype(DTYPES[mode])
    perturb(module, rng)
    module.eval()
    x = Tensor(rng.standard_normal(shape), dtype=DTYPES[mode])
    got = module(x).data
    want = unfolded(module, x).data
    assert got.dtype == want.dtype == np.dtype(DTYPES[mode])
    assert_close(got, want, mode)


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_folded_merging_head_matches_two_op_form(mode):
    rng = np.random.default_rng(1)
    mh = MergingHead("mh", [4, 8], 5, rng).astype(DTYPES[mode])
    perturb(mh, rng)
    mh.eval()
    feats = [Tensor(rng.standard_normal(s), dtype=DTYPES[mode])
             for s in [(2, 4, 8, 16), (2, 8, 4, 8)]]
    assert_close(mh(feats).data, unfolded(mh, feats).data, mode)


@pytest.mark.parametrize("mode", ["f32", "f64"])
def test_folded_model_features_match_two_op_form(mode):
    model = tiny_model().astype(DTYPES[mode])
    rng = np.random.default_rng(7)
    perturb(model, rng)
    model.eval()
    images = Tensor(rng.uniform(-1, 1, (2, 3, 32, 128)), dtype=DTYPES[mode])
    got = model.features(images).data
    assert_close(got, unfolded(model.features, images).data, mode)


def test_eval_mode_under_a_tape_keeps_both_ops_and_their_gradients():
    rng = np.random.default_rng(0)
    blk = ConvBNReLU("b", 3, 4, 3, rng, padding=1)
    perturb(blk, rng)
    blk.eval()
    x = Tensor(rng.standard_normal((2, 3, 6, 8)))
    with Tape() as tape:
        y = blk(x)
        loss = ops.sum_all(ops.mul(y, y))
        backward(loss, tape)
    assert [n.op for n in tape.nodes[:3]] == ["conv2d", "batchnorm2d", "relu"]
    assert [n.scope for n in tape.nodes[:3]] == ["b.conv", "b.bn", "b"]
    assert np.any(blk.bn.gamma.value.grad != 0)
    assert np.any(blk.bn.beta.value.grad != 0)


def test_fold_reads_the_current_arrays_on_every_call():
    rng = np.random.default_rng(1)
    blk = ConvBNReLU("b", 3, 4, 3, rng, padding=1)
    perturb(blk, rng)
    blk.eval()
    x = Tensor(rng.standard_normal((2, 3, 6, 8)))
    first = blk(x).data.copy()
    blk.bn.running_var *= 4.0
    second = blk(x).data
    assert not np.array_equal(first, second)
    assert_close(second, ops.relu(blk.bn(blk.conv(x))).data, "f32")
    blk.conv.weight.value.data[0] += 0.5
    third = blk(x).data
    assert not np.array_equal(second, third)
    assert_close(third, ops.relu(blk.bn(blk.conv(x))).data, "f32")


def test_train_mode_tape_is_the_two_op_tape(monkeypatch):
    """The helper changes nothing while training: same nodes, scopes, loss
    bits and gradients as a model calling bn(conv(x)) directly."""
    def run():
        model = tiny_model()
        images = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3, 32, 128)))
        with Tape() as tape:
            loss = model.loss(images, ["ab", "b"])
            backward(loss, tape)
        return ([(n.op, n.scope) for n in tape.nodes], loss.data.tobytes(),
                [p.value.grad.tobytes() for p in model.params()])

    helper = run()
    two_op = lambda conv, bn, x: bn(conv(x))
    for mod in (layers, encoder, merging):
        monkeypatch.setattr(mod, "conv_bn", two_op)
    assert helper == run()
    assert sum(op == "batchnorm2d" for op, _ in helper[0]) == len(tiny_model().batchnorms)
