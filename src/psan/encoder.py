"""Multi-scale convolutional encoder with parallel attention branches.

The encoder grows one scale per stage. Within a stage every active scale
runs one residual structure in parallel, the newly opened scale feeds its
attention branch, all active scales exchange information through fused
cross-scale paths, and a strided transition opens the next scale. Scale i
(1-indexed) works at 1/2^i of the input resolution with base_channels * 2^(i-1)
internal channels; its final output doubles that by concatenating the stored
attention-branch features.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .layers import BatchNorm2d, Conv2d, ConvBNReLU, Module, conv_bn


@dataclass
class EncoderConfig:
    base_channels: int = 32
    num_scales: int = 3
    rus_per_rs: int = 5
    vab_enabled: bool = True
    vab_convs: int = 4

    def validate(self):
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")
        if not 1 <= self.num_scales <= 4:
            raise ValueError(f"num_scales must be in 1..4, got {self.num_scales}")
        if not 1 <= self.rus_per_rs <= 6:
            raise ValueError(f"rus_per_rs must be in 1..6, got {self.rus_per_rs}")
        if not 1 <= self.vab_convs <= 8:
            raise ValueError(f"vab_convs must be in 1..8, got {self.vab_convs}")


class ResidualUnit(Module):
    """Bottleneck unit: 1x1 down, 3x3, 1x1 up, identity skip before the last ReLU."""

    def __init__(self, name, channels, rng):
        super().__init__(name)
        mid = max(1, channels // 2)
        self.conv1 = self.child(Conv2d(f"{name}.conv1", channels, mid, 1, rng))
        self.bn1 = self.child(BatchNorm2d(f"{name}.bn1", mid))
        self.conv2 = self.child(Conv2d(f"{name}.conv2", mid, mid, 3, rng, padding=1))
        self.bn2 = self.child(BatchNorm2d(f"{name}.bn2", mid))
        self.conv3 = self.child(Conv2d(f"{name}.conv3", mid, channels, 1, rng))
        self.bn3 = self.child(BatchNorm2d(f"{name}.bn3", channels))

    def forward(self, x):
        y = conv_bn(self.conv1, self.bn1, x, relu=True)
        y = conv_bn(self.conv2, self.bn2, y, relu=True)
        return conv_bn(self.conv3, self.bn3, y, relu=True, skip=x)


class ResidualStructure(Module):
    """A fixed-length chain of residual units at one scale."""

    def __init__(self, name, channels, n_units, rng):
        super().__init__(name)
        self.units = [self.child(ResidualUnit(f"{name}.ru{i + 1}", channels, rng))
                      for i in range(n_units)]

    def forward(self, x):
        for u in self.units:
            x = u(x)
        return x


class VisualAttentionBlock(Module):
    """Self-gating branch: conv stack -> single-channel sigmoid map -> gate.

    A stack of channel-preserving 3x3 conv+BN+ReLU layers feeds a bare 1x1
    single-filter conv whose sigmoid becomes the saliency map. The map gates
    the block's *input*, and a final 3x3 conv+BN+ReLU keeps the channel count
    unchanged. Forward keeps nothing on the instance: under a tape the
    saliency map and the gated tensor are the outputs of the `sigmoid` and
    `gate_multiply` nodes stamped with this block's scope.
    """

    def __init__(self, name, channels, n_convs, rng):
        super().__init__(name)
        self.stack = [self.child(ConvBNReLU(f"{name}.conv{i + 1}", channels, channels, 3, rng, padding=1))
                      for i in range(n_convs)]
        self.score = self.child(Conv2d(f"{name}.score", channels, 1, 1, rng))
        self.out = self.child(ConvBNReLU(f"{name}.out", channels, channels, 3, rng, padding=1))

    def forward(self, x):
        y = x
        for blk in self.stack:
            y = blk(y)
        sm = ops.sigmoid(self.score(y))  # (N, 1, H, W) in (0, 1)
        return self.out(ops.gate_multiply(x, sm))


class PlainBranch(ConvBNReLU):
    """Attention-free substitute branch: the same-size 3x3 conv+BN+ReLU block itself."""

    def __init__(self, name, channels, rng):
        super().__init__(name, channels, channels, 3, rng, padding=1)


class Transition(ConvBNReLU):
    """Opens the next scale: the stride-2 3x3 conv+BN+ReLU block itself, doubling channels."""

    def __init__(self, name, c_in, rng):
        super().__init__(name, c_in, 2 * c_in, 3, rng, stride=2, padding=1)


class FusionBlock(Module):
    """All-pairs exchange among the active scales, summed into each target.

    A source above the target (coarser target) goes through one stride-2
    3x3 conv+BN+ReLU per scale gap, doubling channels each hop so the last
    hop lands on the target's channel count. A source below the target goes
    through a 1x1 conv+BN+ReLU to the target's channels and is bilinearly
    upsampled by the matching power of two. The target's own features pass
    through unchanged and everything is added.
    """

    def __init__(self, name, channel_list, rng):
        super().__init__(name)
        m = len(channel_list)
        self.m = m
        self.down = {}  # (src, tgt) -> list of strided conv blocks
        self.up = {}    # (src, tgt) -> (1x1 conv block, upsample factor)
        for tgt in range(m):
            for src in range(m):
                if src == tgt:
                    continue
                if src < tgt:
                    hops = []
                    c = channel_list[src]
                    for h in range(tgt - src):
                        hops.append(self.child(ConvBNReLU(
                            f"{name}.d{src + 1}to{tgt + 1}.hop{h + 1}",
                            c, 2 * c, 3, rng, stride=2, padding=1)))
                        c *= 2
                    self.down[(src, tgt)] = hops
                else:
                    blk = self.child(ConvBNReLU(
                        f"{name}.u{src + 1}to{tgt + 1}",
                        channel_list[src], channel_list[tgt], 1, rng))
                    self.up[(src, tgt)] = (blk, 2 ** (src - tgt))

    def forward(self, feats):
        fused = []
        for tgt in range(self.m):
            total = feats[tgt]
            for src in range(self.m):
                if src == tgt:
                    continue
                if src < tgt:
                    y = feats[src]
                    for hop in self.down[(src, tgt)]:
                        y = hop(y)
                else:
                    blk, factor = self.up[(src, tgt)]
                    y = ops.bilinear_upsample(blk(feats[src]), factor)
                total = ops.add(total, y)
            fused.append(total)
        return fused


class Encoder(Module):
    def __init__(self, cfg: EncoderConfig, rng, name="enc"):
        super().__init__(name)
        cfg.validate()
        self.cfg = cfg
        c = cfg.base_channels
        k = cfg.num_scales
        self.stem = self.child(ConvBNReLU(f"{name}.stem", 3, c, 3, rng, stride=2, padding=1))
        chans = [c * 2 ** i for i in range(k)]
        # rs[i][j] is the j-th residual structure of scale i+1; scale i+1 runs
        # one structure in each of stages i+1..k.
        self.rs = [[self.child(ResidualStructure(f"{name}.s{i + 1}.rs{j + 1}",
                                                 chans[i], cfg.rus_per_rs, rng))
                    for j in range(k - i)]
                   for i in range(k)]
        if cfg.vab_enabled:
            self.branch = [self.child(VisualAttentionBlock(f"{name}.vab{i + 1}",
                                                           chans[i], cfg.vab_convs, rng))
                           for i in range(k)]
        else:
            self.branch = [self.child(PlainBranch(f"{name}.plain{i + 1}", chans[i], rng))
                           for i in range(k)]
        self.transitions = [self.child(Transition(f"{name}.trans{i + 1}", chans[i], rng))
                            for i in range(k - 1)]
        self.fusions = [self.child(FusionBlock(f"{name}.fuse{s}", chans[:s], rng))
                        for s in range(2, k + 1)]

    def output_channels(self):
        """Channel count of each scale's final output (branch concat doubles it)."""
        c = self.cfg.base_channels
        return [2 * c * 2 ** i for i in range(self.cfg.num_scales)]

    def stem_forward(self, images):
        n, c, h, w = images.shape
        if c != 3:
            raise ValueError(f"stem: expected 3 input channels, got {c}")
        if h % 2 != 0 or w % 2 != 0:
            raise ValueError(f"stem: input dims must be even, got {h}x{w}")
        return self.stem(images)

    def forward(self, images):
        """Run the stem, then the staged pipeline; returns one tensor per scale."""
        k = self.cfg.num_scales
        feats = [None] * k
        branch_out = [None] * k
        feats[0] = self.stem_forward(images)
        for stage in range(1, k + 1):
            for i in range(stage):
                feats[i] = self.rs[i][stage - 1 - i](feats[i])
            branch_out[stage - 1] = self.branch[stage - 1](feats[stage - 1])
            if stage >= 2:
                feats[:stage] = self.fusions[stage - 2](feats[:stage])
            if stage < k:
                feats[stage] = self.transitions[stage - 1](feats[stage - 1])
        return tuple(ops.concat([feats[i], branch_out[i]], axis=1)
                     for i in range(k))
