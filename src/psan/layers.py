"""Parameter-holding layers that compose the functional ops.

Layers register their parameters and sub-layers explicitly, in construction
order, so parameter lists, checkpoints, and seeded initialization are all
deterministic. Their forwards hand their arrays to the ops and compute
nothing themselves: a conv/BN pair calls `ops.conv_bn`, which decides
between the taped node and the inference fold.
"""

from contextlib import contextmanager

import numpy as np

from . import ops
from .tensor import Parameter, active_tape


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Zero-mean float32 uniform init with bound sqrt(6 / (fan_in + fan_out)).
    With no rng it draws nothing and returns zeros, for a model whose every
    weight is about to be overwritten (a checkpoint load)."""
    if rng is None:
        return np.zeros(shape, dtype=np.float32)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Module:
    """Minimal composite: tracks own parameters and child modules. Call a
    module, not its `forward`: the call names the tape nodes it records."""

    def __init__(self, name):
        self.name = name
        self._params = []
        self._children = []

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
        return module

    def params(self):
        return [p for m in self.modules() for p in m._params]

    def modules(self):
        yield self
        for c in self._children:
            yield from c.modules()

    @property
    def batchnorms(self):
        """Every BatchNorm2d in this subtree, in modules() order."""
        return [m for m in self.modules() if isinstance(m, BatchNorm2d)]

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
    def __init__(self, name, channels):
        super().__init__(name)
        self.training = True
        self.gamma = self.param("gamma", np.ones(channels, dtype=np.float32))
        self.beta = self.param("beta", np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x):
        return ops.batchnorm2d(x, self.gamma.value, self.beta.value,
                               self.running_mean, self.running_var, training=self.training)


def conv_bn(conv, bn, x, relu=False, skip=None):
    """`ops.conv_bn` over a conv's and its batch norm's arrays, in the batch
    norm's mode: the op decides between the taped node and the fold."""
    return ops.conv_bn(x, conv.weight.value, conv.bias.value, bn.gamma.value, bn.beta.value,
                       bn.running_mean, bn.running_var, stride=conv.stride,
                       padding=conv.padding, training=bn.training, relu=relu, skip=skip)


class ConvBNReLU(Module):
    """3x3-or-other conv followed by batch norm and ReLU, the default block."""

    def __init__(self, name, c_in, c_out, kernel, rng, stride=1, padding=0):
        super().__init__(name)
        self.conv = self.child(Conv2d(f"{name}.conv", c_in, c_out, kernel, rng,
                                      stride=stride, padding=padding))
        self.bn = self.child(BatchNorm2d(f"{name}.bn", c_out))

    def forward(self, x):
        return conv_bn(self.conv, self.bn, x, relu=True)


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
