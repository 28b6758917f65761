"""Conv->BN pairs: one fused node under a tape, one folded conv without.

With no tape open, each conv->BN pair runs as one conv whose weight and bias
absorb the batch norm's running statistics, whatever its mode: same
features, rebuilt fresh every call. Under a tape each pair (and its relu)
records one `conv_bn` node that rounds every value as the separate conv2d,
batchnorm2d, add (of a skip) and relu ops, and keeps only its output and,
for a 3x3 or strided kernel, x_hat.
"""

import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from psan import encoder, layers, merging, ops
from psan.config import ModelConfig
from psan.encoder import ResidualUnit
from psan.layers import BatchNorm2d, Conv2d, ConvBNReLU
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
    """The module's eval forward with every pair run unfolded, as the fused
    node that rounds as bn(conv(x)): a tape is open, and nothing needs a
    gradient from it."""
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
    assert [(n.op, n.scope) for n in tape.nodes] == [("conv_bn", "b"), ("mul", None),
                                                    ("sum_all", None)]
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


def fused_runs(nodes):
    """(op, scope) per node of a two-op tape, each conv2d -> batchnorm2d run
    (and the skip add that reads the batch norm, and the relu that reads
    either) collapsed into the conv_bn node that replaces it, scoped to the
    block that holds the pair."""
    out = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if node.op == "conv2d" and i + 1 < len(nodes) and nodes[i + 1].op == "batchnorm2d":
            last = nodes[i + 1]
            assert last.inputs[0] is node.output
            block = node.scope.rsplit(".", 1)[0]
            i += 2
            for op in ("add", "relu"):
                if i < len(nodes) and nodes[i].op == op and nodes[i].inputs[0] is last.output:
                    assert nodes[i].scope == block
                    last = nodes[i]
                    i += 1
            out.append(("conv_bn", block))
        else:
            out.append((node.op, node.scope))
            i += 1
    return out


def test_train_mode_tape_is_the_two_op_tape(monkeypatch):
    """Fusion changes no bit of training: the same loss, gradients and state
    as a model calling bn(conv(x)), add and relu directly, and each fused
    node stands where a conv2d -> batchnorm2d (-> add) (-> relu) run stood,
    in the block's scope."""
    def run():
        model = tiny_model()
        images = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3, 32, 128)))
        with Tape() as tape:
            loss = model.loss(images, ["ab", "b"])
            backward(loss, tape)
        return (tape.nodes, loss.data.tobytes(),
                [p.value.grad.tobytes() for p in model.params()],
                [(name, a.tobytes()) for name, a in model.state_entries()])

    fused = run()

    def two_op(conv, bn, x, relu=False, skip=None):
        y = bn(conv(x))
        y = y if skip is None else ops.add(y, skip)
        return ops.relu(y) if relu else y

    for mod in (layers, encoder, merging):
        monkeypatch.setattr(mod, "conv_bn", two_op)
    reference = run()
    assert fused[1:] == reference[1:]
    assert [(n.op, n.scope) for n in fused[0]] == fused_runs(reference[0])
    assert sum(n.op == "conv_bn" for n in fused[0]) == len(tiny_model().batchnorms)
    assert not any(n.op == "batchnorm2d" for n in fused[0])


CASES = {  # c_in, c_out, kernel, stride, padding, input shape
    "1x1": (5, 4, 1, 1, 0, (2, 5, 6, 10)),
    "3x3": (4, 6, 3, 1, 1, (2, 4, 8, 12)),
    "3x3 stride 2, stem input": (3, 6, 3, 2, 1, (2, 3, 8, 12)),
}

TAILS = [(True, False), (False, False), (True, True), (False, True)]  # relu, skip
TAIL_IDS = ["relu", "no relu", "skip relu", "skip no relu"]


def fused_and_reference(case, relu, training, dtype, fused, skip=False, scribble=False):
    """One conv->BN(->add skip)(->relu) forward and backward, by the fused op
    or by the separate ops, with x also read by a node recorded before and
    one after: the returned arrays are the output, the running statistics,
    the kink margins and the gradients of x, W, b, gamma and beta (and of
    the skip operand when there is one). With scribble set, the output is
    overwritten with garbage before backward runs."""
    c_in, c_out, k, stride, padding, shape = CASES[case]
    rng = np.random.default_rng(11)
    leaf = lambda a: Tensor(a, requires_grad=True, dtype=dtype)
    x = leaf(rng.standard_normal(shape))
    w = leaf(rng.normal(0.0, 0.4, (c_out, c_in, k, k)))
    b = leaf(rng.normal(0.0, 0.2, c_out))
    gamma = leaf(rng.uniform(0.5, 1.5, c_out))
    beta = leaf(rng.normal(0.0, 0.3, c_out))
    rm = rng.normal(0.0, 0.5, c_out).astype(dtype)
    rv = rng.uniform(0.3, 2.0, c_out).astype(dtype)
    h_out = (shape[2] + 2 * padding - k) // stride + 1
    w_out = (shape[3] + 2 * padding - k) // stride + 1
    proj = Tensor(rng.standard_normal((shape[0], c_out, h_out, w_out)), dtype=dtype)
    s = leaf(rng.normal(0.0, 0.5, proj.shape)) if skip else None
    with Tape(trace_kinks=True) as tape:
        before = ops.scale(x, 0.5)
        if fused:
            y = ops.conv_bn(x, w, b, gamma, beta, rm, rv, stride=stride, padding=padding,
                            training=training, relu=relu, skip=s)
        else:
            y = ops.batchnorm2d(ops.conv2d(x, w, b, stride=stride, padding=padding),
                                gamma, beta, rm, rv, training=training)
            y = ops.add(y, s) if skip else y
            y = ops.relu(y) if relu else y
        after = ops.mul(x, x)
        loss = ops.add(ops.add(ops.sum_all(ops.mul(y, proj)), ops.sum_all(before)),
                       ops.sum_all(after))
        if scribble:
            y.data[...] = rng.uniform(-9.0, 9.0, y.shape)
        backward(loss, tape)
    return ([y.data, rm, rv, np.array(tape.margins)]
            + [t.grad for t in (x, w, b, gamma, beta) + ((s,) if skip else ())])


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("relu,skip", TAILS, ids=TAIL_IDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_op_is_bit_equal_to_the_separate_ops(case, relu, skip, training, mode):
    got = fused_and_reference(case, relu, training, DTYPES[mode], fused=True, skip=skip)
    want = fused_and_reference(case, relu, training, DTYPES[mode], fused=False, skip=skip)
    assert len(got[3]) == int(relu) and len(got) == 9 + skip
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_op_without_relu_never_reads_its_output(case, training):
    """Backward of a relu-free node gives the same gradients after its output
    is overwritten: its rule reads x, x_hat (or the mean) and invstd, never
    the output. No caller writes over an output now; this pins the rule."""
    got = fused_and_reference(case, False, training, np.float64, fused=True, scribble=True)
    want = fused_and_reference(case, False, training, np.float64, fused=True)
    assert got[0].tobytes() != want[0].tobytes()
    for g, w in zip(got[1:], want[1:]):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("relu,skip", TAILS, ids=TAIL_IDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_untaped_fold_is_the_folded_conv_and_writes_nothing_it_reads(case, relu, skip, mode,
                                                                      monkeypatch):
    """With no tape a pair gives the bytes of relu(conv2d(x, W*k, (b-mean)*k
    + beta) + skip), adding and clamping in place with no add or relu op,
    and leaves the input (which a 1x1 conv reads through a view), the skip
    and every array of the pair as they were."""
    c_in, c_out, k, stride, padding, shape = CASES[case]
    dtype = DTYPES[mode]
    rng = np.random.default_rng(5)
    conv = Conv2d("c", c_in, c_out, k, rng, stride=stride, padding=padding).astype(dtype)
    bn = BatchNorm2d("bn", c_out).astype(dtype)
    perturb(conv, rng)
    perturb(bn, rng)
    x = Tensor(rng.standard_normal(shape), dtype=dtype)
    w, b = conv.weight.value.data, conv.bias.value.data
    scale = bn.gamma.value.data / np.sqrt(bn.running_var + ops.BN_EPS)
    want = ops.conv2d(x, Tensor(w * scale[:, None, None, None], dtype=dtype),
                      Tensor((b - bn.running_mean) * scale + bn.beta.value.data, dtype=dtype),
                      stride=stride, padding=padding)
    s = Tensor(rng.standard_normal(want.shape), dtype=dtype) if skip else None
    want = ops.add(want, s) if skip else want
    want = ops.relu(want) if relu else want
    arrays = ([x.data, bn.running_mean, bn.running_var]
              + [p.value.data for p in conv.params() + bn.params()]
              + ([s.data] if skip else []))
    before = [a.tobytes() for a in arrays]
    monkeypatch.setattr(ops, "add", None)
    monkeypatch.setattr(ops, "relu", None)
    got = layers.conv_bn(conv, bn, x, relu=relu, skip=s).data
    assert got.dtype == want.data.dtype and got.shape == want.shape
    assert got.tobytes() == want.data.tobytes()
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("mode", ["f32", "f64"])
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "no relu"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_untaped_op_is_the_fold_even_in_train_mode(case, relu, mode, monkeypatch):
    """With no tape, `ops.conv_bn(..., training=True)` is inference: the bytes
    of the folded conv2d (relu'd when asked), no running statistic or input
    written, and no node of its own, though every input tracks gradients."""
    c_in, c_out, k, stride, padding, shape = CASES[case]
    dtype = DTYPES[mode]
    rng = np.random.default_rng(9)
    leaf = lambda a: Tensor(a, requires_grad=True, dtype=dtype)
    x = leaf(rng.standard_normal(shape))
    w = leaf(rng.normal(0.0, 0.4, (c_out, c_in, k, k)))
    b = leaf(rng.normal(0.0, 0.2, c_out))
    gamma = leaf(rng.uniform(0.5, 1.5, c_out))
    beta = leaf(rng.normal(0.0, 0.3, c_out))
    rm = rng.normal(0.0, 0.5, c_out).astype(dtype)
    rv = rng.uniform(0.3, 2.0, c_out).astype(dtype)
    scale = gamma.data / np.sqrt(rv + ops.BN_EPS)
    want = ops.conv2d(x, Tensor(w.data * scale[:, None, None, None], dtype=dtype),
                      Tensor((b.data - rm) * scale + beta.data, dtype=dtype),
                      stride=stride, padding=padding).data
    want = np.maximum(want, 0) if relu else want
    arrays = [rm, rv] + [t.data for t in (x, w, b, gamma, beta)]
    before = [a.tobytes() for a in arrays]
    recorded = []
    record = ops.record
    monkeypatch.setattr(ops, "record", lambda op, *args: (recorded.append(op), record(op, *args))[1])
    got = ops.conv_bn(x, w, b, gamma, beta, rm, rv, stride=stride, padding=padding,
                      training=True, relu=relu)
    assert got.data.dtype == want.dtype and got.shape == want.shape
    assert got.data.tobytes() == want.tobytes()
    assert [a.tobytes() for a in arrays] == before
    assert recorded == ["conv2d"] and not got.requires_grad


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
def test_a_skip_of_another_shape_is_refused_before_anything_is_written(taped):
    c_in, c_out, k, stride, padding, shape = CASES["3x3 stride 2, stem input"]
    rng = np.random.default_rng(2)
    x, gamma, beta = (Tensor(rng.standard_normal(s), requires_grad=True)
                      for s in (shape, c_out, c_out))
    w = Tensor(rng.standard_normal((c_out, c_in, k, k)), requires_grad=True)
    b = Tensor(np.zeros(c_out), requires_grad=True)
    rm, rv = np.zeros(c_out, np.float32), np.ones(c_out, np.float32)
    skip = Tensor(np.ones((2, c_out, 4, 5)))  # the output is (2, 6, 4, 6)
    arrays = [rm, rv] + [t.data for t in (x, w, b, gamma, beta, skip)]
    before = [a.tobytes() for a in arrays]
    tape = Tape()
    with tape if taped else nullcontext(), pytest.raises(ValueError) as err:
        ops.conv_bn(x, w, b, gamma, beta, rm, rv, stride=stride, padding=padding,
                    training=True, relu=True, skip=skip)
    assert str(err.value) == "conv_bn: skip shape (2, 6, 4, 5) != output shape (2, 6, 4, 6)"
    assert [a.tobytes() for a in arrays] == before and tape.nodes == []


@pytest.mark.parametrize("stride", [1, 2])
def test_a_taped_block_keeps_only_its_output_and_x_hat(stride):
    """After a train-mode forward at a stage-1 shape, no column matrix, conv
    output, pre-relu buffer or padded input copy is still allocated."""
    rng = np.random.default_rng(0)
    blk = ConvBNReLU("b", 4, 4, 3, rng, stride=stride, padding=1)
    x = Tensor(rng.standard_normal((16, 4, 16, 64)))
    with Tape():
        blk(x)  # warm up, so one-time allocations of a first call are not counted
    tape = Tape()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with tape:
            y = blk(x)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept <= 2 * y.data.nbytes * 1.01, (kept, y.data.nbytes)
    assert [n.op for n in tape.nodes] == ["conv_bn"]


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_a_taped_1x1_block_keeps_only_its_output(training):
    """A 1x1 node keeps no x_hat either, only its output and two per-channel
    vectors: backward rebuilds x_hat from the input with one GEMM."""
    rng = np.random.default_rng(0)
    blk = ConvBNReLU("b", 4, 4, 1, rng)
    if not training:
        perturb(blk, rng)
        blk.eval()
    x = Tensor(rng.standard_normal((16, 4, 16, 64)))
    with Tape():
        blk(x)  # warm up, so one-time allocations of a first call are not counted
    tape = Tape()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with tape:
            y = blk(x)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept <= y.data.nbytes * 1.01, (kept, y.data.nbytes)
    assert [n.op for n in tape.nodes] == ["conv_bn"]
