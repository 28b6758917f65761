"""Dense tensors, a reverse-mode differentiation tape, and the ADADELTA update.

Values are numpy arrays. A new tensor is float32 unless an explicit dtype
says otherwise, and each op's output takes the dtype of its primary input,
so a float64 model (float32 layers widened by `Module.astype`) computes in
float64 from the data alone, with no process-wide switch. Operations record
backward rules onto an explicitly opened Tape; with no active tape nothing
is recorded and tensors behave as plain immutable values.

Each thread has its own stack of open tapes, so a tape opened in one thread
records nothing that another thread runs, a forward stores nothing on its
modules, and no op keeps a module-level table. What threads share is a
model's own arrays and modes. A taped train-mode batch norm updates its
running statistics in place and an optimizer step writes parameters, so
separate models run in parallel threads freely, but one model trains in one
thread at a time. Recognition runs untaped and writes nothing to the model,
so any number of threads recognize with one model at once.
"""

import threading

import numpy as np


class GradientError(RuntimeError):
    """Misuse of the tape: double backward, non-scalar loss, missing grad."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared where the numerics require finite values."""


class Tensor:
    """A dense row-major array plus an optional accumulated gradient.

    `data` is always a C-contiguous numpy array, float32 unless an explicit
    dtype is given. `grad`, set by backward passes, matches `data` in shape
    and dtype and may be shared, so it is replaced, never written.
    Tensors are write-once values except for optimizer updates on parameters.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False, dtype=np.float32):
        self.data = np.ascontiguousarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded operation: inputs, output, the backward rule, and the
    dotted name of the innermost module that was running (None outside any)."""

    __slots__ = ("op", "inputs", "output", "backward", "scope")

    def __init__(self, op, inputs, output, backward, scope):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward
        self.scope = scope


class _ThreadTapes(threading.local):
    def __init__(self):
        self.stack = []  # the open tapes of the calling thread, innermost last


_tapes = _ThreadTapes()


class Tape:
    """Ordered record of operations for one forward pass.

    Nodes are appended in execution order, which is by construction a valid
    topological order. A tape can be consumed by backward() exactly once.
    `scopes` is the stack of entered module names; nodes get the innermost.
    With trace_kinks set, `margins` collects for every relu/maxpool run
    under the tape the distance to its nearest non-differentiable point
    (zero crossing, argmax tie); otherwise it is None and nothing is paid.
    """

    def __init__(self, trace_kinks=False):
        self.nodes = []
        self.scopes = []
        self.consumed = False
        self.margins = [] if trace_kinks else None

    def __enter__(self):
        _tapes.stack.append(self)
        return self

    def __exit__(self, *exc):
        _tapes.stack.pop()
        return False

    def first_nonfinite(self):
        """Return the earliest node whose output is non-finite, or None."""
        for node in self.nodes:
            if not np.all(np.isfinite(node.output.data)):
                return node
        return None


def active_tape():
    """The innermost tape the calling thread has open, or None."""
    stack = _tapes.stack
    return stack[-1] if stack else None


def record(op, inputs, out, backward):
    """Attach a node to the active tape if any input tracks gradients."""
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        scope = tape.scopes[-1] if tape.scopes else None
        tape.nodes.append(_Node(op, inputs, out, backward, scope))
    return out


def accumulate_grad(t, g):
    """Add g into t.grad; no-op for frozen tensors. The first g is adopted
    (cast only to change dtype) and later ones are added out of place, so
    an array handed to several tensors (by add, say) is never written through."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if g.dtype == t.data.dtype else g.astype(t.data.dtype)
    else:
        t.grad = t.grad + g


def backward(loss, tape=None):
    """Run reverse-mode accumulation for a scalar loss over a tape.

    Visits nodes in exact reverse recording order, so every consumer of a
    tensor is processed before its producer and gradients of shared inputs
    accumulate by summation. A node's output gradient and its rule, with
    the arrays the rule's closure keeps, are dropped once the rule has run,
    so only leaf tensors keep `.grad`, and memory falls as backward goes.
    The tape is single-use; its nodes keep op, scope, inputs and output.
    """
    tape = tape or active_tape()
    if tape is None:
        raise GradientError("backward() needs an active tape")
    if tape.consumed:
        raise GradientError("tape already consumed by a previous backward()")
    if loss.data.size != 1:
        raise GradientError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.consumed = True
    if not loss.requires_grad:
        return
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward(g)
        node.output.grad = None
        node.backward = None


class Parameter:
    """A named trainable tensor plus its ADADELTA accumulators.

    `name` is a unique dotted path ("enc.s1.rs1.ru1.conv2.weight").
    `accum_grad_sq` tracks the decayed mean of squared gradients and
    `accum_update_sq` the decayed mean of squared updates. The gradient is
    allocated as zeros up front so parameters untouched by a backward pass
    simply keep a zero gradient. All three come from `np.zeros`, whose large
    arrays are fresh zero pages from the OS: a buffer nothing writes, such as
    the gradient of a model that only recognizes, is never touched, where
    `np.zeros_like` would write every byte.
    """

    __slots__ = ("name", "value", "accum_grad_sq", "accum_update_sq")

    def __init__(self, name, value):
        if not isinstance(value, Tensor):
            value = Tensor(value)
        value.requires_grad = True
        shape, dtype = value.data.shape, value.data.dtype
        value.grad = np.zeros(shape, dtype)
        self.name = name
        self.value = value
        self.accum_grad_sq = np.zeros(shape, dtype)
        self.accum_update_sq = np.zeros(shape, dtype)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.data.shape})"


def zero_grad(params):
    """Give every parameter a fresh zero gradient."""
    for p in params:
        p.value.grad = np.zeros_like(p.value.data)


def adadelta_step(params, rho=0.9, eps=1e-6, lr_scale=1.0):
    """Apply one ADADELTA update to every parameter.

        E[g^2]  <- rho E[g^2] + (1 - rho) g^2
        dx       = -sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps) * g
        E[dx^2] <- rho E[dx^2] + (1 - rho) dx^2
        value  += lr_scale * dx

    The update magnitude adapts per coordinate with no global learning rate;
    lr_scale is an external multiplier applied after dx is formed, so the
    accumulators always see the raw dx.
    """
    for p in params:
        g = p.value.grad
        if g is None:
            raise GradientError(f"parameter {p.name!r} has no gradient")
        p.accum_grad_sq *= rho
        p.accum_grad_sq += (1.0 - rho) * g * g
        dx = -np.sqrt(p.accum_update_sq + eps) / np.sqrt(p.accum_grad_sq + eps) * g
        p.accum_update_sq *= rho
        p.accum_update_sq += (1.0 - rho) * dx * dx
        p.value.data += lr_scale * dx


def finite_difference_grad(f, x, eps=1e-4):
    """Central-difference gradient of a scalar function at x, in 64-bit.

    f takes a Tensor shaped like x and returns a scalar (Tensor or float).
    Each coordinate is perturbed by +/- eps and the slope (f+ - f-) / (2 eps)
    is taken. This is the independent oracle backward passes are checked
    against; it never touches the tape machinery.
    """

    def evaluate(arr):
        out = f(Tensor(arr, dtype=np.float64))
        val = out.item() if isinstance(out, Tensor) else float(out)
        if not np.isfinite(val):
            raise NonFiniteError("finite-difference probe produced a non-finite value")
        return val

    base = np.asarray(x.data, dtype=np.float64)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        fp = evaluate(base)
        flat[i] = saved - eps
        fm = evaluate(base)
        flat[i] = saved
        gflat[i] = (fp - fm) / (2.0 * eps)
    return Tensor(grad, dtype=np.float64)


def _require(cond, msg, *args):
    """Raise ValueError(msg.format(*args)) unless cond holds."""
    if not cond:
        raise ValueError(msg.format(*args))


def _check_same_shape(a, b, op):
    _require(a.data.shape == b.data.shape, "{}: shape mismatch {} vs {}",
             op, a.data.shape, b.data.shape)


# Core elementwise arithmetic. Broadcasting is deliberately not supported
# here; the few shapes the network needs to mix are handled inside the
# dedicated ops (batch norm, bias add, attention gating).

def add(a, b):
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data, dtype=a.data.dtype)

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return record("add", (a, b), out, bwd)


def sub(a, b):
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data, dtype=a.data.dtype)

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, -g)

    return record("sub", (a, b), out, bwd)


def mul(a, b):
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data, dtype=a.data.dtype)

    def bwd(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return record("mul", (a, b), out, bwd)


def scale(x, alpha):
    out = Tensor(x.data * alpha, dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, g * alpha)

    return record("scale", (x,), out, bwd)


def sum_all(x):
    """Sum every element into a scalar tensor."""
    out = Tensor(np.sum(x.data), dtype=x.data.dtype)

    def bwd(g):
        accumulate_grad(x, np.broadcast_to(g, x.data.shape))

    return record("sum_all", (x,), out, bwd)
