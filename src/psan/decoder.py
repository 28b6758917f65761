"""Character set and the recurrent sequence decoder.

The decoder consumes one merged channel vector per step: at step t it embeds
the previous symbol (start-of-sequence at t=0, ground truth when teacher
forcing, its own argmax when decoding greedily), concatenates the step-t
channel vector, advances a GRU, and classifies the new hidden state over the
character classes plus end-of-sequence.
"""

import string

import numpy as np

from . import ops
from .layers import Embedding, GRUCell, Linear, Module
from .tensor import Tensor


class Charset:
    """The 94 recognizable characters plus the two control indices.

    Order: lowercase a-z, uppercase A-Z, digits 0-9, then the 32 ASCII
    punctuation marks in ASCII order. End-of-sequence sits at index 94 and is
    a real output class; start-of-sequence at 95 exists only as an embedding
    row and can never be predicted.
    """

    def __init__(self):
        self.chars = (string.ascii_lowercase + string.ascii_uppercase
                      + string.digits + string.punctuation)
        assert len(self.chars) == 94
        self._index = {ch: i for i, ch in enumerate(self.chars)}
        self.eos = len(self.chars)        # 94
        self.sos = len(self.chars) + 1    # 95
        self.num_classes = len(self.chars) + 1    # predictable symbols incl. eos
        self.num_embeddings = len(self.chars) + 2  # plus the sos row

    def encode(self, text):
        try:
            return [self._index[ch] for ch in text]
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} not in charset") from None

    def decode(self, indices):
        out = []
        for i in indices:
            if not 0 <= i < len(self.chars):
                raise ValueError(f"index {i} is not a printable character class")
            out.append(self.chars[i])
        return "".join(out)


DEFAULT_CHARSET = Charset()


class Decoder(Module):
    def __init__(self, name, charset, channel_dim, rng, hidden_size=256, embedding_dim=256):
        super().__init__(name)
        self.charset = charset
        self.channel_dim = channel_dim
        self.hidden_size = hidden_size
        self.embed = self.child(Embedding(f"{name}.embed", charset.num_embeddings,
                                          embedding_dim, rng))
        self.gru = self.child(GRUCell(f"{name}.gru", embedding_dim + channel_dim,
                                      hidden_size, rng))
        self.cls = self.child(Linear(f"{name}.cls", hidden_size, charset.num_classes, rng))

    def _check_channels(self, channels):
        n, t, k = channels.shape
        if k != self.channel_dim:
            raise ValueError(f"decoder built for {self.channel_dim} channel dims, got {k}")
        return n, t

    def _step(self, channels, t, prev_indices, h):
        emb = self.embed(prev_indices)
        inp = ops.concat([emb, ops.select_step(channels, t)], axis=1)
        h = self.gru(inp, h)
        return h, self.cls(h)

    def targets(self, labels, t_total):
        """Each label's class indices followed by eos. Raises ValueError for a
        character outside the charset or a label that needs more than
        `t_total` steps."""
        targets = []
        for lab in labels:
            seq = self.charset.encode(lab)
            if len(seq) + 1 > t_total:
                raise ValueError(f"label {lab!r} needs {len(seq) + 1} steps, "
                                 f"decoder has {t_total}")
            targets.append(seq + [self.charset.eos])
        return targets

    def teacher_forced(self, channels, labels):
        """Teacher-forced pass; returns (mean nll loss, per-step logits list).

        Each label is scored over len(label)+1 steps, the final step
        supervising end-of-sequence. Steps past a sample's own eos feed the
        eos embedding forward but are masked out of the loss.
        """
        n, t_total = self._check_channels(channels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for batch of {n}")
        targets = self.targets(labels, t_total)
        steps = max(len(seq) for seq in targets)
        h = Tensor(np.zeros((n, self.hidden_size)), dtype=channels.data.dtype)
        logits_seq = []
        with self.scope():
            for t in range(steps):
                if t == 0:
                    prev = np.full(n, self.charset.sos, dtype=np.int64)
                else:
                    prev = np.array([seq[t - 1] if t - 1 < len(seq) else self.charset.eos
                                     for seq in targets], dtype=np.int64)
                h, logits = self._step(channels, t, prev, h)
                logits_seq.append(logits)
            loss = ops.sequence_nll(logits_seq, targets)
        return loss, logits_seq

    def greedy(self, channels):
        """Greedy decode: argmax each step (ties to the lowest index), until
        every row has emitted eos or after max_length steps. Each row's text
        is then decoded once, by `Charset.decode`, from its argmaxes before
        its first eos.

        Nothing here is differentiated, so around the GRU a step is plain
        numpy: the embedding-row gather, the step slice, the concatenation
        and the classifier `h @ W + b` compute exactly what the embedding,
        select_step, concat and linear ops of `_step` would. The state still
        advances through one fused `gru_cell` node per step, so the decode is
        bit-identical to the taped step.
        """
        n, t_total = self._check_channels(channels)
        eos = self.charset.eos
        table = self.embed.table.value.data
        cls_w, cls_b = self.cls.weight.value.data, self.cls.bias.value.data
        ch = channels.data
        h = Tensor(np.zeros((n, self.hidden_size)), dtype=ch.dtype)
        prev = np.full(n, self.charset.sos, dtype=np.int64)
        done = np.zeros(n, dtype=bool)
        # one argmax per step; the spare last column ends every row with eos
        preds = np.full((n, t_total + 1), eos, dtype=np.int64)
        for t in range(t_total):
            x = np.concatenate([table[prev], ch[:, t, :]], axis=1)
            h = self.gru(Tensor(x, dtype=table.dtype), h)
            preds[:, t] = prev = (h.data @ cls_w + cls_b).argmax(axis=1)
            done |= prev == eos
            if done.all():
                break
        return [self.charset.decode(row[:row.index(eos)]) for row in preds.tolist()]
