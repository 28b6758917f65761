"""Parameter-holding layers that compose the functional ops.

Layers register their parameters and sub-layers explicitly, in construction
order, so parameter lists, checkpoints, and seeded initialization are all
deterministic. A sub-layer is attached fully built, so each module can keep
the list of batch norms below it from construction on.
"""

from contextlib import contextmanager

import numpy as np

from . import ops
from .tensor import Parameter, Tensor, active_tape


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Zero-mean float32 uniform init with bound sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Module:
    """Minimal composite: tracks own parameters and child modules. Call a
    module, not its `forward`: the call names the tape nodes it records."""

    def __init__(self, name):
        self.name = name
        self._params = []
        self._children = []
        self.batchnorms = []  # every BatchNorm2d in this subtree, in modules() order

    def __call__(self, *args):
        if active_tape() is None:  # inference: skip the scope's generator
            return self.forward(*args)
        with self.scope():
            return self.forward(*args)

    @contextmanager
    def scope(self):
        """Stamp this module's dotted name on the tape nodes recorded inside."""
        tape = active_tape()
        scopes = tape.scopes if tape is not None else []  # no tape, no nodes
        scopes.append(self.name)
        try:
            yield
        finally:
            scopes.pop()

    def param(self, leaf_name, value):
        p = Parameter(f"{self.name}.{leaf_name}", value)
        self._params.append(p)
        return p

    def child(self, module):
        self._children.append(module)
        self.batchnorms.extend(module.batchnorms)
        return module

    def params(self):
        out = list(self._params)
        for c in self._children:
            out.extend(c.params())
        return out

    def modules(self):
        yield self
        for c in self._children:
            yield from c.modules()

    def astype(self, dtype):
        """Convert every value of the subtree in place to dtype: parameters,
        their gradients and ADADELTA accumulators, and batch-norm running
        statistics. Layers build in float32; a float64 model is that model
        widened, so both widths of one seed start from the same weights."""
        for p in self.params():
            v = p.value
            v.data = v.data.astype(dtype)
            if v.grad is not None:
                v.grad = v.grad.astype(dtype)
            p.accum_grad_sq = p.accum_grad_sq.astype(dtype)
            p.accum_update_sq = p.accum_update_sq.astype(dtype)
        for m in self.batchnorms:
            m.running_mean = m.running_mean.astype(dtype)
            m.running_var = m.running_var.astype(dtype)
        return self

    def set_training(self, flag):
        for m in self.batchnorms:
            m.training = flag

    def train(self):
        self.set_training(True)

    def eval(self):
        self.set_training(False)

    @contextmanager
    def evaluating(self):
        """Eval mode for the block; each batch norm's own mode is restored after."""
        bns = self.batchnorms
        saved = [m.training for m in bns]
        self.set_training(False)
        try:
            yield self
        finally:
            for m, flag in zip(bns, saved):
                m.training = flag


class Conv2d(Module):
    def __init__(self, name, c_in, c_out, kernel, rng, stride=1, padding=0):
        super().__init__(name)
        self.stride = stride
        self.padding = padding
        fan_in = c_in * kernel * kernel
        fan_out = c_out * kernel * kernel
        self.weight = self.param("weight", glorot_uniform(rng, (c_out, c_in, kernel, kernel), fan_in, fan_out))
        self.bias = self.param("bias", np.zeros(c_out, dtype=np.float32))

    def forward(self, x):
        return ops.conv2d(x, self.weight.value, self.bias.value,
                          stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    def __init__(self, name, channels, momentum=0.1, eps=1e-5):
        super().__init__(name)
        self.momentum = momentum
        self.eps = eps
        self.training = True
        self.batchnorms = [self]
        self.gamma = self.param("gamma", np.ones(channels, dtype=np.float32))
        self.beta = self.param("beta", np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x):
        return ops.batchnorm2d(x, self.gamma.value, self.beta.value,
                               self.running_mean, self.running_var,
                               momentum=self.momentum, eps=self.eps,
                               training=self.training)


def conv_bn(conv, bn, x):
    """bn(conv(x)), with the batch norm folded into the convolution when it
    runs in eval mode and no tape records.

    Eval-mode batch norm is the per-channel affine map y = k * (z - mean) +
    beta with k = gamma / sqrt(running_var + eps), so the pair is one conv
    with weight W * k and bias (b - mean) * k + beta. The fold is rebuilt
    from the current arrays on every call, so it never goes stale. It rounds
    differently from the two-op form (about 1e-6 of the largest feature in
    float32), so training and any taped forward keep the two ops.
    """
    if bn.training or active_tape() is not None:
        return bn(conv(x))
    w = conv.weight.value.data
    k = bn.gamma.value.data / np.sqrt(bn.running_var + bn.eps)
    bias = (conv.bias.value.data - bn.running_mean) * k + bn.beta.value.data
    return ops.conv2d(x, Tensor(w * k[:, None, None, None], dtype=w.dtype),
                      Tensor(bias, dtype=w.dtype), stride=conv.stride, padding=conv.padding)


class ConvBNReLU(Module):
    """3x3-or-other conv followed by batch norm and ReLU, the default block."""

    def __init__(self, name, c_in, c_out, kernel, rng, stride=1, padding=0):
        super().__init__(name)
        self.conv = self.child(Conv2d(f"{name}.conv", c_in, c_out, kernel, rng,
                                      stride=stride, padding=padding))
        self.bn = self.child(BatchNorm2d(f"{name}.bn", c_out))

    def forward(self, x):
        return ops.relu(conv_bn(self.conv, self.bn, x))


class Linear(Module):
    def __init__(self, name, d_in, d_out, rng):
        super().__init__(name)
        self.weight = self.param("weight", glorot_uniform(rng, (d_in, d_out), d_in, d_out))
        self.bias = self.param("bias", np.zeros(d_out, dtype=np.float32))

    def forward(self, x):
        return ops.linear(x, self.weight.value, self.bias.value)


class Embedding(Module):
    def __init__(self, name, rows, dim, rng):
        super().__init__(name)
        self.table = self.param("table", glorot_uniform(rng, (rows, dim), rows, dim))

    def forward(self, indices):
        return ops.embedding(self.table.value, indices)


class GRUCell(Module):
    """Gated recurrent cell with separate per-gate matrices, biases zero-initialized."""

    def __init__(self, name, d_in, d_hidden, rng):
        super().__init__(name)
        z = np.zeros(d_hidden, dtype=np.float32)
        mk_w = lambda leaf: self.param(leaf, glorot_uniform(rng, (d_in, d_hidden), d_in, d_hidden))
        mk_u = lambda leaf: self.param(leaf, glorot_uniform(rng, (d_hidden, d_hidden), d_hidden, d_hidden))
        self.wz, self.uz, self.bz = mk_w("wz"), mk_u("uz"), self.param("bz", z.copy())
        self.wr, self.ur, self.br = mk_w("wr"), mk_u("ur"), self.param("br", z.copy())
        self.wh, self.uh, self.bh = mk_w("wh"), mk_u("uh"), self.param("bh", z.copy())

    def weights(self):
        return ops.GruWeights(*(p.value for p in (self.wz, self.uz, self.bz,
                                                  self.wr, self.ur, self.br,
                                                  self.wh, self.uh, self.bh)))

    def forward(self, x, h_prev):
        return ops.gru_cell(x, h_prev, self.weights())
