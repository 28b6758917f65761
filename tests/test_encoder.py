"""Encoder contracts: stage layout, shapes, gating behavior, fused exchange.

Rigged-weight cases (all-zero convs with identity-stat batch norms) isolate
the skip and pass-through paths so their contributions can be checked
exactly; shape cases pin the resolution and channel schedule.
"""

import numpy as np
import pytest

from psan.encoder import (Encoder, EncoderConfig, FusionBlock, PlainBranch,
                          ResidualStructure, ResidualUnit, Transition, VisualAttentionBlock)
from psan.gradcheck import COMPOSITE_TOL, check_case
from psan.layers import ConvBNReLU
from psan.tensor import Tape, Tensor, backward, sum_all
from psan import encoder, ops


def node_output(tape, op, scope):
    """The output array of the one `op` node that `scope` recorded."""
    (out,) = [n.output.data for n in tape.nodes if n.op == op and n.scope == scope]
    return out


def zero_params(module):
    for p in module.params():
        p.value.data[:] = 0


def test_config_validation():
    EncoderConfig().validate()
    with pytest.raises(ValueError, match="num_scales"):
        EncoderConfig(num_scales=5).validate()
    with pytest.raises(ValueError, match="num_scales"):
        EncoderConfig(num_scales=0).validate()
    with pytest.raises(ValueError, match="rus_per_rs"):
        EncoderConfig(rus_per_rs=7).validate()
    with pytest.raises(ValueError, match="base_channels"):
        EncoderConfig(base_channels=0).validate()
    with pytest.raises(ValueError, match="vab_convs"):
        EncoderConfig(vab_convs=0).validate()


def test_stem_halves_resolution():
    enc = Encoder(EncoderConfig(), np.random.default_rng(0))
    enc.eval()
    out = enc.stem_forward(Tensor(np.zeros((1, 3, 32, 128))))
    assert out.shape == (1, 32, 16, 64)

    small = Encoder(EncoderConfig(base_channels=8, num_scales=1, rus_per_rs=1,
                                  vab_convs=1), np.random.default_rng(0))
    small.eval()
    out = small.stem_forward(Tensor(np.zeros((2, 3, 8, 16))))
    assert out.shape == (2, 8, 4, 8)


def test_stem_rejects_bad_inputs():
    enc = Encoder(EncoderConfig(base_channels=4, num_scales=1, rus_per_rs=1,
                                vab_convs=1), np.random.default_rng(0))
    with pytest.raises(ValueError, match="channels"):
        enc.stem_forward(Tensor(np.zeros((1, 1, 8, 16))))
    with pytest.raises(ValueError, match="even"):
        enc.stem_forward(Tensor(np.zeros((1, 3, 7, 16))))
    with pytest.raises(ValueError, match="even"):
        enc.stem_forward(Tensor(np.zeros((1, 3, 8, 15))))


def test_residual_unit_zero_weights_reduces_to_relu():
    """All-zero convs kill the transform path, leaving relu(0 + x) = relu(x)."""
    ru = ResidualUnit("ru", 4, np.random.default_rng(1))
    zero_params(ru)
    for m in ru.modules():
        if hasattr(m, "gamma"):
            m.gamma.value.data[:] = 1  # restore identity batch norms
    ru.astype(np.float64).eval()
    x = Tensor(np.random.default_rng(2).standard_normal((2, 4, 3, 5)), dtype=np.float64)
    out = ru.forward(x)
    np.testing.assert_array_equal(out.data, np.maximum(x.data, 0))


def residual_unit_run(dtype, taped):
    """One seeded train-mode unit's forward, and under a tape a loss and its
    backward: the output, loss, kink margins, running statistics and every
    gradient, as bytes."""
    rng = np.random.default_rng(4)
    ru = ResidualUnit("ru", 6, rng).astype(dtype)
    for bn in ru.batchnorms:
        bn.beta.value.data[:] = rng.normal(0.0, 0.5, bn.beta.value.data.shape)
    x = Tensor(rng.standard_normal((2, 6, 4, 10)), requires_grad=True, dtype=dtype)
    proj = Tensor(rng.standard_normal(x.shape), dtype=dtype)
    if not taped:
        return [ru(x).data.tobytes()]
    with Tape(trace_kinks=True) as tape:
        out = ru(x)
        loss = sum_all(ops.mul(out, proj))
        backward(loss, tape)
    arrays = ([out.data, loss.data, np.array(tape.margins), x.grad]
              + [p.value.grad for p in ru.params()]
              + [a for bn in ru.batchnorms for a in (bn.running_mean, bn.running_var)])
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_residual_unit_tail_in_place_is_bit_equal(dtype, taped, monkeypatch):
    """The unit's skip sum and relu, added and clamped in place inside conv3's
    `conv_bn`, give the bytes of the relu-free pair followed by out-of-place
    add and relu ops: output, loss, margins, running statistics and every
    gradient."""
    got = residual_unit_run(dtype, taped)
    pair = encoder.conv_bn

    def separate_tail(conv, bn, x, relu=False, skip=None):
        if skip is None:
            return pair(conv, bn, x, relu=relu)
        assert relu
        return ops.relu(ops.add(pair(conv, bn, x), skip))

    monkeypatch.setattr(encoder, "conv_bn", separate_tail)
    assert got == residual_unit_run(dtype, taped)


def test_residual_structure_preserves_shape():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 4, 4, 6)))
    for n in range(1, 7):
        rs = ResidualStructure("rs", 4, n, rng)
        rs.eval()
        assert rs.forward(x).shape == x.shape
        assert len(rs.units) == n


def test_attention_block_shape_and_saliency_range():
    rng = np.random.default_rng(4)
    vab = VisualAttentionBlock("vab", 3, 2, rng)
    vab.eval()
    x = Tensor(rng.standard_normal((2, 3, 4, 6)))
    with Tape() as tape:
        out = vab(x)
    assert out.shape == x.shape
    sm = node_output(tape, "sigmoid", "vab")
    assert sm.shape == (2, 1, 4, 6)
    assert (sm > 0).all() and (sm < 1).all()
    np.testing.assert_allclose(node_output(tape, "gate_multiply", "vab"), x.data * sm, rtol=1e-6)


def test_attention_gate_can_suppress_everything():
    """Forcing the score conv to -50 drives the gate to sigmoid(-50) ~ 2e-22,
    so the gated features all but vanish while staying strictly positive maps."""
    rng = np.random.default_rng(5)
    vab = VisualAttentionBlock("vab", 3, 2, rng).astype(np.float64)
    vab.score.weight.value.data[:] = 0
    vab.score.bias.value.data[:] = -50.0
    vab.eval()
    x = Tensor(rng.standard_normal((2, 3, 4, 6)), dtype=np.float64)
    with Tape() as tape:
        vab(x)
    assert (node_output(tape, "sigmoid", "vab") > 0).all()
    assert np.abs(node_output(tape, "gate_multiply", "vab")).max() <= 1e-20


def test_plain_branch_matches_attention_shape():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 5, 4, 6)))
    plain = PlainBranch("p", 5, rng)
    plain.eval()
    vab = VisualAttentionBlock("v", 5, 3, rng)
    vab.eval()
    assert plain.forward(x).shape == vab.forward(x).shape == x.shape


def test_transition_and_plain_branch_are_their_conv_bn_relu_blocks():
    rng = np.random.default_rng(8)
    for blk, stride, c_out in ((PlainBranch("p", 4, rng), 1, 4), (Transition("t", 4, rng), 2, 8)):
        assert type(blk).forward is ConvBNReLU.forward
        assert [m.name for m in blk.modules()] == [blk.name, f"{blk.name}.conv", f"{blk.name}.bn"]
        assert blk.conv.weight.value.shape == (c_out, 4, 3, 3)
        assert (blk.conv.stride, blk.conv.padding) == (stride, 1)


def test_fusion_hop_structure():
    fb = FusionBlock("f", [4, 8, 16], np.random.default_rng(7))
    assert len(fb.down[(0, 1)]) == 1
    assert len(fb.down[(0, 2)]) == 2  # finest to coarsest is two strided hops
    assert len(fb.down[(1, 2)]) == 1
    assert fb.up[(1, 0)][1] == 2
    assert fb.up[(2, 0)][1] == 4
    assert fb.up[(2, 1)][1] == 2


def test_fusion_zero_weights_passes_targets_through():
    """With every cross-path conv zeroed the exchange adds nothing, so each
    scale's own features come back exactly."""
    rng = np.random.default_rng(8)
    fb = FusionBlock("f", [4, 8], rng).astype(np.float64)
    zero_params(fb)
    fb.eval()
    feats = [Tensor(rng.standard_normal((1, 4, 8, 16)), dtype=np.float64),
             Tensor(rng.standard_normal((1, 8, 4, 8)), dtype=np.float64)]
    fused = fb.forward(feats)
    for before, after in zip(feats, fused):
        np.testing.assert_array_equal(after.data, before.data)


def test_fusion_path_shapes():
    rng = np.random.default_rng(9)
    fb = FusionBlock("f", [4, 8], rng)
    fb.eval()
    feats = [Tensor(rng.standard_normal((2, 4, 16, 64))),
             Tensor(rng.standard_normal((2, 8, 8, 32)))]
    fused = fb.forward(feats)
    assert fused[0].shape == (2, 4, 16, 64)
    assert fused[1].shape == (2, 8, 8, 32)


def test_encoder_default_output_shapes():
    enc = Encoder(EncoderConfig(), np.random.default_rng(10))
    enc.eval()
    outs = enc.forward(Tensor(np.random.default_rng(11).standard_normal((1, 3, 32, 128))))
    assert [o.shape for o in outs] == [(1, 64, 16, 64), (1, 128, 8, 32), (1, 256, 4, 16)]
    assert enc.output_channels() == [64, 128, 256]


def test_encoder_channel_schedule_four_scales():
    enc = Encoder(EncoderConfig(base_channels=8, num_scales=4, rus_per_rs=1,
                                vab_convs=1), np.random.default_rng(12))
    assert enc.output_channels() == [16, 32, 64, 128]


def test_encoder_single_scale():
    enc = Encoder(EncoderConfig(base_channels=4, num_scales=1, rus_per_rs=1,
                                vab_convs=1), np.random.default_rng(13))
    enc.eval()
    outs = enc.forward(Tensor(np.random.default_rng(14).standard_normal((2, 3, 8, 16))))
    assert len(outs) == 1
    assert outs[0].shape == (2, 8, 4, 8)


def test_encoder_seeded_construction_is_deterministic():
    cfg = EncoderConfig(base_channels=4, num_scales=2, rus_per_rs=1, vab_convs=1)
    a = Encoder(cfg, np.random.default_rng(15))
    b = Encoder(cfg, np.random.default_rng(15))
    x = np.random.default_rng(16).standard_normal((1, 3, 8, 16))
    a.eval()
    b.eval()
    for ya, yb in zip(a.forward(Tensor(x.copy())), b.forward(Tensor(x.copy()))):
        np.testing.assert_array_equal(ya.data, yb.data)


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    enc = Encoder(EncoderConfig(base_channels=4, num_scales=2, rus_per_rs=1,
                                vab_convs=1), rng).astype(np.float64)
    # zero-init biases leave padding-dominated conv windows sitting exactly
    # on the relu kink; nudge them so the probe point is certifiable
    for p in enc.params():
        if p.name.endswith(".bias") or p.name.endswith(".beta"):
            p.value.data[:] = (rng.uniform(0.05, 0.3, p.value.data.shape)
                               * rng.choice([-1.0, 1.0], p.value.data.shape))
    enc.eval()
    image = Tensor(rng.uniform(-1, 1, (1, 3, 4, 8)), dtype=np.float64)
    projs = [Tensor(rng.standard_normal((1, 8, 2, 4)), dtype=np.float64),
             Tensor(rng.standard_normal((1, 16, 1, 2)), dtype=np.float64)]

    def fwd():
        outs = enc.forward(image)
        terms = [sum_all(ops.mul(o, p)) for o, p in zip(outs, projs)]
        return ops.add(terms[0], terms[1])

    wrt = [image, enc.stem.conv.weight.value, enc.branch[0].score.bias.value]
    err = check_case(fwd, wrt)
    assert err < COMPOSITE_TOL
    assert np.abs(image.grad).max() > 0  # the comparison was not vacuous
