"""Tape scopes: every node a model records is named after the module that ran it."""

import re
from collections import Counter

import numpy as np

from psan.config import ModelConfig
from psan.encoder import ResidualUnit
from psan.layers import BatchNorm2d, Conv2d, ConvBNReLU
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
    relus = Counter(n.scope for n in nodes if n.op == "relu")
    adds = Counter(n.scope for n in nodes if n.op == "add")
    for m in model.modules():
        if isinstance(m, ConvBNReLU):
            assert relus[m.name] == 1, m.name
        if isinstance(m, ResidualUnit):
            assert re.search(r"\.ru\d+$", m.name) and adds[m.name] == 1, m.name
    for op in ("concat", "select_step", "sequence_nll"):
        scopes = {n.scope for n in nodes if n.op == op and n.scope.startswith("model.dec")}
        assert scopes == {model.decoder.name}, op
    for op, cls in (("conv2d", Conv2d), ("batchnorm2d", BatchNorm2d)):
        assert (sorted(n.scope for n in nodes if n.op == op)
                == sorted(m.name for m in model.modules() if isinstance(m, cls))), op
