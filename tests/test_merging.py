"""Merging head: pooling alignment, step-vector layout, channel mapping."""

import numpy as np
import pytest

from psan.config import ModelConfig
from psan.layers import ConvBNReLU
from psan.merging import MergingHead
from psan.model import TextRecognizer
from psan.tensor import Tape, Tensor


def rand_feats(rng, shapes, dtype=np.float32):
    return [Tensor(rng.standard_normal(s), dtype=dtype) for s in shapes]


def test_default_scale_stack_shape():
    rng = np.random.default_rng(0)
    mh = MergingHead("mh", [64, 128, 256], 25, rng)
    mh.eval()
    feats = rand_feats(rng, [(1, 64, 16, 64), (1, 128, 8, 32), (1, 256, 4, 16)])
    out = mh.forward(feats)
    assert out.shape == (1, 25, 64)


def test_max_length_choices_set_step_count():
    rng = np.random.default_rng(1)
    feats_shapes = [(2, 4, 8, 16), (2, 8, 4, 8)]
    for ml in (25, 50, 75, 100):
        mh = MergingHead("mh", [4, 8], ml, rng)
        mh.eval()
        out = mh.forward(rand_feats(rng, feats_shapes))
        assert out.shape == (2, ml, 32)


def test_four_scale_pooling_aligns():
    rng = np.random.default_rng(2)
    mh = MergingHead("mh", [8, 16, 32, 64], 10, rng)
    mh.eval()
    feats = rand_feats(rng, [(1, 8, 32, 128), (1, 16, 16, 64),
                             (1, 32, 8, 32), (1, 64, 4, 16)])
    assert mh.forward(feats).shape == (1, 10, 64)


def test_single_scale_needs_no_pooling():
    rng = np.random.default_rng(3)
    mh = MergingHead("mh", [4], 5, rng)
    mh.eval()
    out = mh.forward(rand_feats(rng, [(2, 4, 4, 8)]))
    assert out.shape == (2, 5, 32)


def test_zero_conv_weights_give_constant_step_vectors():
    """With the merge conv's weight zeroed each channel map is the constant
    relu(normalized bias), so every step vector has zero spread."""
    rng = np.random.default_rng(4)
    mh = MergingHead("mh", [4, 8], 6, rng).astype(np.float64)
    mh.conv.weight.value.data[:] = 0
    mh.conv.bias.value.data[:] = rng.standard_normal(6)
    mh.eval()
    out = mh.forward(rand_feats(rng, [(2, 4, 8, 16), (2, 8, 4, 8)], np.float64))
    spread = out.data.max(axis=2) - out.data.min(axis=2)
    assert spread.max() == 0
    assert out.data.max() > 0  # some biases were positive, maps are not all dead


def test_step_vectors_are_rowmajor_flattened_maps():
    rng = np.random.default_rng(5)
    mh = MergingHead("mh", [4, 8], 7, rng)
    mh.eval()
    with Tape() as tape:
        out = mh(rand_feats(rng, [(3, 4, 8, 16), (3, 8, 4, 8)]))
    # the pre-flatten channel maps: the head's own fused conv, bn and relu
    (maps,) = [n.output.data for n in tape.nodes if n.op == "conv_bn" and n.scope == "mh"]
    assert maps.shape == (3, 7, 4, 8)
    np.testing.assert_array_equal(out.data, maps.reshape(3, 7, 32))


def test_rejects_wrong_scale_count_and_misaligned_dims():
    rng = np.random.default_rng(6)
    mh = MergingHead("mh", [4, 8], 5, rng)
    with pytest.raises(ValueError, match="scales"):
        mh.forward(rand_feats(rng, [(1, 4, 8, 16)]))
    with pytest.raises(ValueError, match="pooled"):
        mh.forward(rand_feats(rng, [(1, 4, 8, 8), (1, 8, 2, 4)]))


def test_model_rejects_inputs_its_scales_cannot_halve():
    cfg = ModelConfig(channels=4, num_scales=2, rus_per_rs=1, vab_convs=1, max_length=4,
                      hidden_size=8, embedding_dim=6, label_max_len=3)
    with pytest.raises(ValueError) as err:
        TextRecognizer(cfg, input_hw=(8, 18))
    assert str(err.value) == "input 8x18 must be divisible by 2^2"
    model = TextRecognizer(cfg, input_hw=(8, 16))
    with pytest.raises(ValueError) as err:
        model.features(Tensor(np.zeros((1, 3, 8, 20))))
    assert str(err.value) == "model expects 8x16 images, got 8x20"


def test_rejects_tiny_max_length():
    with pytest.raises(ValueError, match="max_length"):
        MergingHead("mh", [4], 1, np.random.default_rng(7))


def test_merging_head_is_its_conv_bn_relu_block():
    """The head's conv-BN pair is the block itself: paths, parameter names
    and draws are those of a `ConvBNReLU` built with the same generator."""
    mh = MergingHead("mh", [4, 8], 5, np.random.default_rng(3))
    blk = ConvBNReLU("mh", 12, 5, 3, np.random.default_rng(3), padding=1)
    assert isinstance(mh, ConvBNReLU)
    assert [m.name for m in mh.modules()] == ["mh", "mh.conv", "mh.bn"]
    assert [p.name for p in mh.params()] == [p.name for p in blk.params()]
    for p, q in zip(mh.params(), blk.params()):
        assert p.value.data.tobytes() == q.value.data.tobytes()
    assert (mh.conv.stride, mh.conv.padding) == (1, 1)
