"""Tape scopes: every node a model records is named after the module that ran it."""

import re
from collections import Counter

import numpy as np

from psan.config import ModelConfig
from psan.encoder import ResidualUnit, VisualAttentionBlock
from psan.layers import ConvBNReLU
from psan.merging import MergingHead
from psan.model import TextRecognizer
from psan.tensor import Tape, Tensor, backward


def traced_loss():
    """A tiny model and the tape of one loss + backward."""
    model = TextRecognizer(ModelConfig(channels=4, num_scales=2, rus_per_rs=2, vab_convs=1,
                                       max_length=4, hidden_size=8, embedding_dim=6,
                                       label_max_len=3, seed=3))
    images = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3, 32, 128)))
    with Tape() as tape:
        backward(model.loss(images, ["ab", "b"]), tape)
    return model, tape


def test_every_node_is_named_after_a_module():
    model, tape = traced_loss()
    names = {m.name for m in model.modules()}
    assert tape.nodes and all(node.scope in names for node in tape.nodes)
    assert tape.scopes == []


def test_scopes_name_the_innermost_module():
    model, tape = traced_loss()
    nodes = tape.nodes
    fused = Counter(n.scope for n in nodes if n.op == "conv_bn")
    relus = Counter(n.scope for n in nodes if n.op == "relu")
    adds = Counter(n.scope for n in nodes if n.op == "add")
    for m in model.modules():
        if isinstance(m, ConvBNReLU):
            assert fused[m.name] == 1 and relus[m.name] == 0, m.name
        if isinstance(m, ResidualUnit):
            assert re.search(r"\.ru\d+$", m.name), m.name
            assert fused[m.name] == 3 and adds[m.name] == 1 and relus[m.name] == 1, m.name
        if isinstance(m, MergingHead):
            assert fused[m.name] == 1, m.name
    assert sum(fused.values()) == len(model.batchnorms)
    for op in ("concat", "select_step", "sequence_nll"):
        scopes = {n.scope for n in nodes if n.op == op and n.scope.startswith("model.dec")}
        assert scopes == {model.decoder.name}, op
    # every conv with a batch norm runs fused: conv2d nodes come only from
    # the bare Conv2d modules, the attention blocks' score convs
    bare = sorted(m.score.name for m in model.modules() if isinstance(m, VisualAttentionBlock))
    assert bare and sorted(n.scope for n in nodes if n.op == "conv2d") == bare
    assert not any(n.op == "batchnorm2d" for n in nodes)
