"""Merging head: collapse the per-scale features into per-step channel maps.

Every scale is max-pooled down to the deepest scale's resolution, the
results are concatenated channel-wise, and a single 3x3 conv+BN+ReLU maps
them to max_length channels. Each channel map is then flattened row-major
into one K-dimensional vector, yielding an (N, max_length, K) tensor whose
step t row feeds the decoder at step t.
"""

from . import ops
from .layers import BatchNorm2d, Conv2d, Module, conv_bn


class MergingHead(Module):
    def __init__(self, name, in_channels, max_length, rng):
        """in_channels: per-scale channel counts, shallowest first."""
        super().__init__(name)
        if max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {max_length}")
        self.max_length = max_length
        self.num_scales = len(in_channels)
        self.conv = self.child(Conv2d(f"{name}.conv", sum(in_channels), max_length, 3,
                                      rng, padding=1))
        self.bn = self.child(BatchNorm2d(f"{name}.bn", max_length))

    def forward(self, feats):
        if len(feats) != self.num_scales:
            raise ValueError(f"merging head built for {self.num_scales} scales, got {len(feats)}")
        k = self.num_scales
        pooled = []
        for i, f in enumerate(feats):
            factor = 2 ** (k - 1 - i)
            pooled.append(ops.maxpool2d(f, factor) if factor > 1 else f)
        deep_h, deep_w = pooled[-1].shape[2], pooled[-1].shape[3]
        for i, p in enumerate(pooled):
            if p.shape[2] != deep_h or p.shape[3] != deep_w:
                raise ValueError(f"scale {i + 1} pooled to {p.shape[2]}x{p.shape[3]}, "
                                 f"expected {deep_h}x{deep_w}")
        merged = ops.concat(pooled, axis=1)
        y = conv_bn(self.conv, self.bn, merged, relu=True)
        n = y.shape[0]
        # Row-major flatten of each (H, W) channel map into one step vector.
        return ops.reshape(y, (n, self.max_length, deep_h * deep_w))
