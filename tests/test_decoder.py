"""Decoder contracts: charset bijection, teacher forcing against a plain
numpy reference, greedy decoding against the taped step it replaces, greedy
stopping rules, and causality of the step inputs."""

import numpy as np
import pytest

from psan import ops
from psan.decoder import Charset, Decoder
from psan.tensor import Tape, Tensor


def make_decoder(rng, channel_dim=4, hidden=5, embed=3):
    return Decoder("dec", Charset(), channel_dim, rng,
                   hidden_size=hidden, embedding_dim=embed)


def test_charset_layout():
    cs = Charset()
    assert len(cs.chars) == 94
    assert cs.eos == 94 and cs.sos == 95
    assert cs.num_classes == 95 and cs.num_embeddings == 96
    assert cs.decode(cs.encode(cs.chars)) == cs.chars
    assert cs.encode("aZ0!") == [0, 51, 52, 62]


def test_charset_rejects_unknown_and_control():
    cs = Charset()
    with pytest.raises(ValueError, match="not in charset"):
        cs.encode("a b")
    with pytest.raises(ValueError, match="not in charset"):
        cs.encode("é")
    with pytest.raises(ValueError, match="printable"):
        cs.decode([94])
    with pytest.raises(ValueError, match="printable"):
        cs.decode([-1])


def numpy_gru(x, h, w):
    sig = lambda v: 1 / (1 + np.exp(-v))
    z = sig(x @ w["wz"] + h @ w["uz"] + w["bz"])
    r = sig(x @ w["wr"] + h @ w["ur"] + w["br"])
    c = np.tanh(x @ w["wh"] + (r * h) @ w["uh"] + w["bh"])
    return (1 - z) * h + z * c


def test_teacher_forcing_matches_numpy_reference():
    """Replay the whole teacher-forced pass with plain numpy: embed the
    previous symbol, concatenate the step vector, advance the gated
    recurrence, classify, and average the summed per-step NLL."""
    rng = np.random.default_rng(20)
    dec = make_decoder(rng).astype(np.float64)
    channels = Tensor(rng.standard_normal((1, 4, 4)), dtype=np.float64)
    loss, logits_seq = dec.teacher_forced(channels, ["ab"])

    w = {leaf: getattr(dec.gru, leaf).value.data
         for leaf in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")}
    table = dec.embed.table.value.data
    cw, cb = dec.cls.weight.value.data, dec.cls.bias.value.data
    cs = dec.charset

    h = np.zeros((1, 5))
    total = 0.0
    prevs = [cs.sos, 0, 1]   # sos, then the ground-truth "a", "b"
    targets = [0, 1, cs.eos]
    for t in range(3):
        inp = np.concatenate([table[prevs[t]][None, :], channels.data[:, t, :]], axis=1)
        h = numpy_gru(inp, h, w)
        logits = h @ cw + cb
        np.testing.assert_allclose(logits_seq[t].data, logits, atol=1e-6)
        logp = logits[0] - (np.log(np.exp(logits[0] - logits[0].max()).sum())
                            + logits[0].max())
        total -= logp[targets[t]]
    assert len(logits_seq) == 3
    assert abs(loss.item() - total) < 1e-6


def test_empty_label_scores_only_eos():
    rng = np.random.default_rng(21)
    dec = make_decoder(rng)
    channels = Tensor(rng.standard_normal((1, 4, 4)))
    loss, logits_seq = dec.teacher_forced(channels, [""])
    assert len(logits_seq) == 1
    assert np.isfinite(loss.item())


def test_teacher_forcing_error_paths():
    rng = np.random.default_rng(22)
    dec = make_decoder(rng)
    channels = Tensor(rng.standard_normal((1, 3, 4)))
    with pytest.raises(ValueError, match="steps"):
        dec.teacher_forced(channels, ["abcd"])
    with pytest.raises(ValueError, match="labels"):
        dec.teacher_forced(channels, ["a", "b"])
    with pytest.raises(ValueError, match="channel dims"):
        dec.teacher_forced(Tensor(np.zeros((1, 3, 5))), ["a"])


def composed_greedy(dec, channels):
    """Greedy decoding composed from taped modules and ops, one step as
    embed -> select_step -> concat -> gru -> cls. Returns the texts and the
    hidden state of every step."""
    n, t_total = channels.shape[:2]
    cs = dec.charset
    h = Tensor(np.zeros((n, dec.hidden_size)), dtype=channels.data.dtype)
    prev = np.full(n, cs.sos, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    texts = [[] for _ in range(n)]
    hs = []
    for t in range(t_total):
        inp = ops.concat([dec.embed(prev), ops.select_step(channels, t)], axis=1)
        h = dec.gru(inp, h)
        hs.append(h.data)
        pred = dec.cls(h).data.argmax(axis=1)
        for i in range(n):
            if not done[i]:
                done[i] = pred[i] == cs.eos
                if not done[i]:
                    texts[i].append(cs.chars[pred[i]])
        if done.all():
            break
        prev = pred
    return ["".join(t) for t in texts], hs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_greedy_decodes_bit_identically_to_the_taped_step(dtype):
    """Greedy runs plain numpy around one fused gru_cell node per step; every
    hidden state and every text equal the composed taped loop's."""
    rng = np.random.default_rng(30)
    dec = make_decoder(rng, channel_dim=12, hidden=16, embed=8).astype(dtype)
    dec.cls.bias.value.data[dec.charset.eos] = -1e4  # decode every step
    channels = Tensor(rng.standard_normal((3, 6, 12)), dtype=dtype)
    want, hs = composed_greedy(dec, channels)
    assert len(hs) == 6 and len(set(want)) == 3
    with Tape() as tape:
        got = dec.greedy(channels)
    assert got == want
    assert [node.op for node in tape.nodes] == ["gru_cell"] * len(hs)
    assert {node.scope for node in tape.nodes} == {dec.gru.name}
    for node, h in zip(tape.nodes, hs):
        assert node.output.data.dtype == dtype
        assert node.output.data.tobytes() == h.tobytes()
    assert dec.greedy(channels) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_greedy_cuts_each_row_at_its_own_first_eos(dtype):
    """Rows of one batch stop at different steps, and one never emits eos:
    each text ends at that row's first eos, whatever the other rows do
    afterwards, as in the composed per-step loop."""
    rng = np.random.default_rng(31)
    dec = make_decoder(rng, channel_dim=12, hidden=16, embed=8).astype(dtype)
    dec.cls.bias.value.data[dec.charset.eos] = 0.3
    channels = Tensor(rng.standard_normal((8, 6, 12)), dtype=dtype)
    want, _ = composed_greedy(dec, channels)
    lengths = sorted(len(t) for t in want)
    assert len(set(lengths)) >= 3 and lengths[-1] == 6, lengths
    assert dec.greedy(channels) == want
    assert dec.greedy(Tensor(np.zeros((2, 0, 12)), dtype=dtype)) == ["", ""]


def test_greedy_stops_on_rigged_eos():
    rng = np.random.default_rng(23)
    dec = make_decoder(rng)
    for p in dec.cls.params():
        p.value.data[:] = 0
    dec.cls.bias.value.data[dec.charset.eos] = 5.0
    out = dec.greedy(Tensor(rng.standard_normal((3, 4, 4))))
    assert out == ["", "", ""]


def test_greedy_without_eos_fills_every_step():
    rng = np.random.default_rng(24)
    dec = make_decoder(rng)
    for p in dec.cls.params():
        p.value.data[:] = 0
    dec.cls.bias.value.data[0] = 5.0  # always predict the first character
    out = dec.greedy(Tensor(rng.standard_normal((2, 4, 4))))
    assert out == ["aaaa", "aaaa"]


def test_greedy_breaks_ties_to_lowest_class():
    rng = np.random.default_rng(25)
    dec = make_decoder(rng)
    for p in dec.cls.params():
        p.value.data[:] = 0  # every class equally likely at every step
    out = dec.greedy(Tensor(rng.standard_normal((1, 4, 4))))
    assert out == ["aaaa"]


def test_greedy_length_is_bounded():
    rng = np.random.default_rng(26)
    for trial in range(5):
        dec = make_decoder(np.random.default_rng(trial))
        out = dec.greedy(Tensor(rng.standard_normal((2, 6, 4))))
        assert all(len(t) <= 6 for t in out)


def test_step_logits_ignore_future_channels():
    rng = np.random.default_rng(27)
    dec = make_decoder(rng)
    base = rng.standard_normal((1, 4, 4))
    _, logits_a = dec.teacher_forced(Tensor(base.copy()), ["ab"])
    bumped = base.copy()
    bumped[:, 2, :] += 100.0  # last supervised step
    _, logits_b = dec.teacher_forced(Tensor(bumped), ["ab"])
    for t in range(2):
        np.testing.assert_array_equal(logits_a[t].data, logits_b[t].data)
    assert np.abs(logits_a[2].data - logits_b[2].data).max() > 0


def test_seeded_decoder_is_deterministic():
    channels = np.random.default_rng(28).standard_normal((2, 4, 4))
    losses = []
    for _ in range(2):
        dec = make_decoder(np.random.default_rng(29))
        loss, _ = dec.teacher_forced(Tensor(channels.copy()), ["ab", "c"])
        losses.append(loss.item())
    assert losses[0] == losses[1]
