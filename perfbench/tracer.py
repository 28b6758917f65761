"""Span recorder that times psan's layers from outside the package.

The tracer replaces public functions and methods of the psan modules with
thin wrappers that record one span per call: name, layer, start, end,
parent span and request id. Nothing under ``src/`` changes; ``restore()``
puts every original back. Spans stay in memory until the run writes them.

Layers, named after the psan modules:

- ``ops``: the op functions in ``psan.ops``. Only the outermost op call gets
  a span, so the linear/sigmoid/add calls inside ``gru_cell`` count as part
  of ``gru_cell``. Tape nodes created during an op call are attributed to
  that op, and on ``train-b16`` each node's backward rule is wrapped so
  backward time splits the same way (layer ``ops.bwd``).
- ``encoder.*``, ``merging``, ``decoder``, ``model``: module forward methods,
  named by their dotted module path (``model.enc.vab2``).
- ``tensor``: ``backward``, ``adadelta_step`` and ``zero_grad`` as the
  training loop calls them.
- ``data``, ``checkpoint``, ``build``: rendering and preprocessing, checkpoint
  save/load, and model construction.
- ``setup``, ``request``: phases and roots that the benchmark opens itself.
- ``trace``: the tracer's own bookkeeping that does not fit in a span of the
  program (wrapping backward rules).
"""

import sys
from time import perf_counter

# The ops with per-op metrics. The model calls a few more (select_step,
# reshape); their forward time stays in the calling module's self time.
OPS = ("conv2d", "batchnorm2d", "relu", "add", "sigmoid", "gate_multiply",
       "maxpool2d", "bilinear_upsample", "concat", "gru_cell", "linear",
       "embedding", "sequence_nll")

NAME, LAYER, START, END, PARENT, REQUEST = range(6)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, layer, start, end, parent, request]
        self.request = None    # request id stamped on every new span
        self.tape_stats = []   # (nodes, output bytes) per backward call
        self.last_built = None  # last model constructed under the build wrapper
        self._stack = []
        self._patches = []
        self._in_op = False
        self._node_op = {}     # id(tape node) -> op that created it

    # -- recording -----------------------------------------------------------

    def begin(self, name, layer):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, perf_counter(), None, parent, self.request])
        self._stack.append(i)
        return i

    def end(self, i):
        self.spans[i][END] = perf_counter()
        self._stack.pop()

    def add_root(self, name, start, end, request):
        """Add a finished root span and adopt the parentless spans of `request`."""
        root = len(self.spans)
        for s in self.spans:
            if s[PARENT] is None and s[REQUEST] == request:
                s[PARENT] = root
        self.spans.append([name, "request", start, end, None, request])
        return root

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def timed(self, layer, name=None, suffix=""):
        """Wrapper factory: one span per call, named `name` or `self.name`."""
        def wrap(fn):
            def wrapper(*args, **kwargs):
                i = self.begin(name or args[0].name + suffix, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(i)
            return wrapper
        return wrap

    def build(self, fn):
        def wrapper(*args, **kwargs):
            i = self.begin("model.build", "build")
            try:
                model = fn(*args, **kwargs)
            finally:
                self.end(i)
            self.last_built = model
            return model
        return wrapper

    def op(self, name, active_tape):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                if self._in_op:
                    return fn(*args, **kwargs)
                tape = active_tape()
                first = len(tape.nodes) if tape is not None else 0
                self._in_op = True
                i = self.begin(name, "ops")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(i)
                    self._in_op = False
                    if tape is not None:
                        for node in tape.nodes[first:]:
                            self._node_op[id(node)] = name
            return wrapper
        return wrap

    def backward(self, active_tape):
        def wrap(fn):
            def wrapper(loss, tape=None):
                tape = tape or active_tape()
                if tape is not None:
                    w = self.begin("wrap_backward", "trace")
                    self.tape_stats.append(
                        (len(tape.nodes), sum(n.output.data.nbytes for n in tape.nodes)))
                    for node in tape.nodes:
                        op = self._node_op.get(id(node), node.op)
                        node.backward = self._node_backward(node.backward, op)
                    self._node_op.clear()
                    self.end(w)
                i = self.begin("backward", "tensor")
                try:
                    return fn(loss, tape)
                finally:
                    self.end(i)
            return wrapper
        return wrap

    def _node_backward(self, fn, op):
        def wrapper(g):
            i = self.begin(op, "ops.bwd")
            try:
                return fn(g)
            finally:
                self.end(i)
        return wrapper

    def install_build(self):
        """Time model construction inside train() and load_checkpoint()."""
        for module in ("psan.train", "psan.checkpoint"):
            self.patch(sys.modules[module], "TextRecognizer", self.build)

    def install(self):
        """Wrap every layer. ``psan.train`` is reached through sys.modules
        because the package rebinds the name ``psan.train`` to the function."""
        from psan import checkpoint, data, ops, tensor
        from psan.data import SyntheticDataset
        from psan.decoder import Decoder
        from psan.encoder import (Encoder, FusionBlock, PlainBranch,
                                  ResidualStructure, Transition,
                                  VisualAttentionBlock)
        from psan.merging import MergingHead
        from psan.model import TextRecognizer
        train_mod = sys.modules["psan.train"]

        self.install_build()
        for name in OPS:
            self.patch(ops, name, self.op(name, tensor.active_tape))
        self.patch(Encoder, "forward", self.timed("encoder"))
        self.patch(Encoder, "stem_forward", self.timed("encoder.stem", suffix=".stem"))
        self.patch(ResidualStructure, "forward", self.timed("encoder.rs"))
        self.patch(VisualAttentionBlock, "forward", self.timed("encoder.vab"))
        self.patch(PlainBranch, "forward", self.timed("encoder.vab"))
        self.patch(FusionBlock, "forward", self.timed("encoder.fusion"))
        self.patch(Transition, "forward", self.timed("encoder.transition"))
        self.patch(MergingHead, "forward", self.timed("merging"))
        self.patch(Decoder, "teacher_forced", self.timed("decoder", suffix=".teacher_forced"))
        self.patch(Decoder, "greedy", self.timed("decoder", suffix=".greedy"))
        self.patch(TextRecognizer, "loss", self.timed("model", suffix=".loss"))
        self.patch(TextRecognizer, "recognize", self.timed("model", suffix=".recognize"))
        self.patch(train_mod, "backward", self.backward(tensor.active_tape))
        self.patch(train_mod, "adadelta_step", self.timed("tensor", "adadelta_step"))
        self.patch(train_mod, "zero_grad", self.timed("tensor", "zero_grad"))
        self.patch(train_mod, "save_checkpoint", self.timed("checkpoint", "save_checkpoint"))
        self.patch(checkpoint, "load_checkpoint", self.timed("checkpoint", "load_checkpoint"))
        self.patch(data, "render_word", self.timed("data", "render_word"))
        self.patch(data, "preprocess", self.timed("data", "preprocess"))
        self.patch(SyntheticDataset, "image", self.timed("data", "dataset.image"))


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and merged, so a child that
    leaks outside its parent, or siblings that overlap, make the self times
    of a tree stop summing to the root's duration; `check_sums` reports that.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s[START]
        for c in sorted(kids, key=lambda k: spans[k][START]):
            lo = max(spans[c][START], cursor)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s[END] - s[START] - covered)
    return out


def root_of(spans):
    """Index of each span's root span."""
    roots = [None] * len(spans)
    for i in range(len(spans)):
        path = []
        j = i
        while roots[j] is None and spans[j][PARENT] is not None:
            path.append(j)
            j = spans[j][PARENT]
        r = j if roots[j] is None else roots[j]
        for k in path + [j]:
            roots[k] = r
    return roots


def layer_self_times(spans, selfs, roots, root_ids):
    """{root: {top-level layer: self seconds}} for the given roots."""
    wanted = set(root_ids)
    out = {r: {} for r in root_ids}
    for s, t, r in zip(spans, selfs, roots):
        if r in wanted:
            layer = s[LAYER].split(".")[0]
            out[r][layer] = out[r].get(layer, 0.0) + t
    return out


def check_sums(spans, by_root):
    """Largest |sum of layer self times - root wall| / root wall."""
    worst = 0.0
    for r, layers in by_root.items():
        wall = spans[r][END] - spans[r][START]
        worst = max(worst, abs(sum(layers.values()) - wall) / wall)
    return worst
