"""The full recognizer: encoder, merging head, and decoder glued together."""

import numpy as np

from .decoder import DEFAULT_CHARSET, Decoder
from .encoder import Encoder
from .layers import BatchNorm2d, Module
from .merging import MergingHead
from .tensor import Tensor, precision


class TextRecognizer(Module):
    def __init__(self, cfg, seed=None, name="model", input_hw=(32, 128)):
        super().__init__(name)
        cfg.validate()
        self.cfg = cfg
        self.charset = DEFAULT_CHARSET
        h, w = input_hw
        k = cfg.num_scales
        if h % 2 ** k or w % 2 ** k:
            raise ValueError(f"input {h}x{w} must be divisible by 2^{k}")
        self.input_hw = (h, w)
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        self.encoder = self.child(Encoder(cfg.encoder_config(), rng, name=f"{name}.enc"))
        self.merge = self.child(MergingHead(f"{name}.mh", self.encoder.output_channels(),
                                            cfg.max_length, rng))
        # K: flattened spatial extent of the deepest scale.
        self.channel_dim = (h // 2 ** k) * (w // 2 ** k)
        self.decoder = self.child(Decoder(f"{name}.dec", self.charset, self.channel_dim,
                                          rng, hidden_size=cfg.hidden_size,
                                          embedding_dim=cfg.embedding_dim))

    def features(self, images):
        """(N, 3, H, W) images -> (N, max_length, K) per-step channels."""
        if images.shape[2:] != self.input_hw:
            raise ValueError(f"model expects {self.input_hw[0]}x{self.input_hw[1]} "
                             f"images, got {images.shape[2]}x{images.shape[3]}")
        return self.merge(self.encoder(images))

    def loss(self, images, labels):
        loss, _ = self.decoder.teacher_forced(self.features(images), labels)
        return loss

    def recognize(self, images):
        """Greedy-decode a batch at the model's own precision."""
        with precision(self.cfg.precision):
            return self.decoder.greedy(self.features(images))

    def state_entries(self):
        """Ordered (name, array) pairs covering every piece of trainable and
        running state: parameter values, optimizer accumulators, BN stats."""
        entries = []
        for p in self.params():
            entries.append((p.name, p.value.data))
            entries.append((p.name + ".accum_grad_sq", p.accum_grad_sq))
            entries.append((p.name + ".accum_update_sq", p.accum_update_sq))
        for m in self.modules():
            if isinstance(m, BatchNorm2d):
                entries.append((m.name + ".running_mean", m.running_mean))
                entries.append((m.name + ".running_var", m.running_var))
        return entries


def stack_images(tensors):
    """Stack per-sample (3, H, W) tensors into one (N, 3, H, W) batch tensor."""
    return Tensor(np.stack([t.data if isinstance(t, Tensor) else t for t in tensors]))
