"""The benchmark's span tracer still finds and wraps every name it patches.

`perfbench/tracer.py` replaces psan functions and methods by name. A rename
or removal would otherwise only show when the traced benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np

from psan import checkpoint, ops
from psan.config import ModelConfig
from psan.model import stack_images
from psan.tensor import Tensor
from psan.train import train

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_tracer_wraps_every_layer(tmp_path):
    cfg = ModelConfig(channels=4, num_scales=2, rus_per_rs=1, vab_convs=1,
                      max_length=4, hidden_size=8, embedding_dim=6, alphabet="ab",
                      train_samples=2, label_max_len=3, batch_size=2, epochs=1, seed=5)
    tr = tracer.Tracer()
    unused = {"batchnorm2d": ops.batchnorm2d, "relu": ops.relu}
    tr.install()
    try:
        patched = {name for name, fn in unused.items() if getattr(ops, name) is not fn}
        path = tmp_path / "m.ckpt"
        train(cfg, out_path=str(path))
        model, _ = checkpoint.load_checkpoint(path)  # through the patched name
        model.recognize(stack_images([Tensor(np.zeros((3, 32, 128)))]))
    finally:
        tr.restore()
    layers = {s[tracer.LAYER] for s in tr.spans}
    assert {"build", "ops", "ops.bwd", "encoder", "encoder.stem", "encoder.rs",
            "encoder.vab", "encoder.fusion", "encoder.transition", "merging",
            "decoder", "model", "tensor", "checkpoint", "data"} <= layers
    names = lambda layer: {s[tracer.NAME] for s in tr.spans if s[tracer.LAYER] == layer}
    # batchnorm2d and relu have no caller in the model: every conv/BN pair,
    # with its relu, trains through the fused conv_bn node, and recognition
    # folds the pair and clamps in place
    assert patched == set(unused)
    assert all(getattr(ops, name) is fn for name, fn in unused.items())
    assert set(tracer.OPS) - set(unused) <= names("ops")
    assert names("checkpoint") == {"save_checkpoint", "load_checkpoint"}
    assert tr.tape_stats and tr.tape_stats[0][0] > 0
    assert all(s[tracer.END] is not None for s in tr.spans)
    # In eval mode every batch norm is folded into its conv: the per-layer
    # view of recognition shows convolutions and no batch norm.
    (root,) = [i for i, s in enumerate(tr.spans) if s[tracer.NAME] == "model.recognize"]
    under = set()
    for i in range(root + 1, len(tr.spans)):
        if tr.spans[i][tracer.PARENT] == root or tr.spans[i][tracer.PARENT] in under:
            under.add(i)
    ops_under = {tr.spans[i][tracer.NAME] for i in under if tr.spans[i][tracer.LAYER] == "ops"}
    assert "conv2d" in ops_under and "batchnorm2d" not in ops_under

