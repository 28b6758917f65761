"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(written through the capture so it always reaches the terminal) and then
asserts. The two training runs (overfit, ablation) dominate the runtime;
the overfit run is a module-scoped fixture shared by the robustness and
checkpoint tests.
"""

import string
import time
from dataclasses import replace

import numpy as np
import pytest

from psan import gradcheck, ops
from psan.checkpoint import load_checkpoint, save_checkpoint
from psan.config import ModelConfig
from psan.data import apply_transform
from psan.decoder import DEFAULT_CHARSET, Decoder
from psan.encoder import Encoder, EncoderConfig, VisualAttentionBlock
from psan.merging import MergingHead
from psan.model import TextRecognizer
from psan.tensor import Parameter, Tape, Tensor, adadelta_step
from psan.train import dataset_from_config, evaluate, train


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- gradients


def test_gradient_suite(capsys):
    """Every differentiable op matches central finite differences."""
    t0 = time.perf_counter()
    results = gradcheck.run_all(seed=0)
    elapsed = time.perf_counter() - t0
    bad = [(name, err, tol) for name, err, tol in results if not err < tol]
    worst_name, worst_err, worst_tol = max(results, key=lambda r: r[1] / r[2])
    ok = not bad and elapsed < 120.0
    _report(capsys, "gradient suite", ok,
            f"{len(results)} checks, worst {worst_name} "
            f"err {worst_err:.2e} (tol {worst_tol:.0e}), {elapsed:.1f}s")


def _naive_conv2d(x, w, b, stride, padding):
    # direct six-loop convolution in float64; deliberately simple
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for ni in range(n):
        for co in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    acc = b[co]
                    for ci in range(cin):
                        patch = xp[ni, ci, oi * stride:oi * stride + kh,
                                   oj * stride:oj * stride + kw]
                        acc += float((patch * w[co, ci]).sum())
                    out[ni, co, oi, oj] = acc
    return out


def test_convolution_oracle(capsys):
    """100 randomized conv cases agree with the direct-sum oracle at 32-bit."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 3))
        h = int(rng.integers(k, k + 8))
        w = int(rng.integers(k, k + 8))
        x = rng.standard_normal((n, cin, h, w))
        wgt = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        y = ops.conv2d(Tensor(x), Tensor(wgt), Tensor(b),
                       stride=stride, padding=padding)
        assert y.data.dtype == np.float32
        ref = _naive_conv2d(x, wgt, b, stride, padding)
        scaled = np.abs(y.data - ref).max() / max(1.0, np.abs(ref).max())
        worst = max(worst, scaled)
    ok = worst < 1e-4
    _report(capsys, "convolution oracle", ok,
            f"100 cases, worst scaled abs diff {worst:.2e} (tol 1e-4)")


# ------------------------------------------------------------------- shapes


def test_shape_grid(capsys):
    """Per-scale and merged shapes hold across the full architecture grid.

    Scale i of a base-C encoder on 3x32x128 input must come out as
    (1, 2C*2^(i-1), 32/2^i, 128/2^i); a max-length-L merging head on top
    must come out as (1, L, K) with K the flattened deepest grid.
    """
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 32, 128)))
    combos = 0
    for c in (8, 32):
        for scales in (1, 2, 3, 4):
            for rus in range(1, 7):
                for vab in (False, True):
                    enc = Encoder(EncoderConfig(base_channels=c, num_scales=scales,
                                                rus_per_rs=rus, vab_enabled=vab),
                                  np.random.default_rng(7))
                    enc.eval()
                    feats = enc.forward(x)
                    assert len(feats) == scales
                    for i, f in enumerate(feats, start=1):
                        expect = (1, 2 * c * 2 ** (i - 1), 32 // 2 ** i, 128 // 2 ** i)
                        assert f.shape == expect, (c, scales, rus, vab, i, f.shape)
                    k = (32 // 2 ** scales) * (128 // 2 ** scales)
                    for ml in (25, 50, 75, 100):
                        mh = MergingHead("mh", enc.output_channels(), ml,
                                         np.random.default_rng(8))
                        mh.eval()
                        assert mh.forward(feats).shape == (1, ml, k)
                    combos += 1
    ok = combos == 96
    _report(capsys, "shape grid", ok,
            f"{combos} encoder combos x 4 merge lengths, all shapes exact")


def _node_output(tape, op, scope):
    """The output array of the one `op` node that `scope` recorded."""
    (out,) = [n.output.data for n in tape.nodes if n.op == op and n.scope == scope]
    return out


def test_attention_gate_invariants(capsys):
    """Saliency map strictly inside (0,1); gating preserves shape; a map
    forced to zero kills the gated signal."""
    rng = np.random.default_rng(23)
    vab = VisualAttentionBlock("gate", 10, 3, rng).astype(np.float64)
    vab.eval()
    x = Tensor(rng.standard_normal((2, 10, 8, 20)), dtype=np.float64)
    with Tape() as tape:
        y = vab(x)
    sm = _node_output(tape, "sigmoid", "gate")
    shape_ok = y.shape == x.shape and sm.shape == (2, 1, 8, 20)
    open_ok = sm.min() > 0.0 and sm.max() < 1.0
    # zero weight + large negative bias drives every sigmoid toward 0
    vab.score.weight.value.data[:] = 0.0
    vab.score.bias.value.data[:] = -50.0
    with Tape() as tape:
        vab(x)
    residue = np.abs(_node_output(tape, "gate_multiply", "gate")).max()
    ok = shape_ok and open_ok and residue < 1e-20
    _report(capsys, "attention gate invariants", ok,
            f"map in ({sm.min():.2e}, {1 - sm.max():.2e} below 1), "
            f"suppressed residue {residue:.2e} (tol 1e-20)")


# ---------------------------------------------------------------- optimizer


def test_adadelta_steps(capsys):
    """First update matches the hand-evaluated accumulator formula to 1e-9;
    100 steps on a quadratic decrease the loss monotonically."""
    p = Parameter("w", Tensor(np.array([2.0]), dtype=np.float64))
    p.value.grad = np.array([1.0])
    adadelta_step([p])
    # E[g^2]=0.1, E[dx^2]=0: dx = -sqrt(1e-6)/sqrt(0.1+1e-6)
    expected = 2.0 - np.sqrt(1e-6) / np.sqrt(0.1 + 1e-6)
    first_err = abs(float(p.value.data[0]) - expected)

    q = Parameter("x", Tensor(np.array([1.0]), dtype=np.float64))
    losses = [1.0]
    for _ in range(100):
        q.value.grad = 2.0 * q.value.data.copy()
        adadelta_step([q])
        losses.append(float(q.value.data[0] ** 2))
    monotone = all(b < a for a, b in zip(losses, losses[1:]))
    ok = first_err < 1e-9 and monotone
    _report(capsys, "adadelta", ok,
            f"first-step err {first_err:.2e} (tol 1e-9), "
            f"quadratic loss {losses[0]:.3f} -> {losses[-1]:.3f} monotone={monotone}")


# ------------------------------------------------------------------ decoder


def _np_gru_step(x, h, g):
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = sig(x @ g["wz"] + h @ g["uz"] + g["bz"])
    r = sig(x @ g["wr"] + h @ g["ur"] + g["br"])
    c = np.tanh(x @ g["wh"] + (r * h) @ g["uh"] + g["bh"])
    return h + z * (c - h)


def test_decoder_contracts(capsys):
    """Greedy length bound, stepwise causality, and a plain-numpy replay of
    the teacher-forced loss on a fixed tiny decoder."""
    rng = np.random.default_rng(31)
    dec = Decoder("dec", DEFAULT_CHARSET, 4, rng, hidden_size=5,
                  embedding_dim=3).astype(np.float64)
    cs = DEFAULT_CHARSET

    # length bound: never-ending argmax still stops at the step budget
    length_ok = True
    for trial in range(5):
        ch = Tensor(rng.standard_normal((2, 4, 4)), dtype=np.float64)
        length_ok &= all(len(t) <= 4 for t in dec.greedy(ch))
    rig = Decoder("rig", cs, 4, np.random.default_rng(32), hidden_size=5,
                  embedding_dim=3).astype(np.float64)
    rig.cls.bias.value.data[:] = 0.0
    rig.cls.bias.value.data[0] = 50.0  # class 0 always wins, eos never fires
    rigged = rig.greedy(Tensor(rng.standard_normal((1, 4, 4)), dtype=np.float64))
    length_ok &= rigged == ["aaaa"]

    # causality: perturbing the step-2 channel leaves steps 0 and 1 alone
    base = rng.standard_normal((1, 4, 4))
    bumped = base.copy()
    bumped[:, 2, :] += 1.0
    _, lg_a = dec.teacher_forced(Tensor(base, dtype=np.float64), ["aaa"])
    _, lg_b = dec.teacher_forced(Tensor(bumped, dtype=np.float64), ["aaa"])
    causal_ok = (np.array_equal(lg_a[0].data, lg_b[0].data)
                 and np.array_equal(lg_a[1].data, lg_b[1].data)
                 and np.abs(lg_a[2].data - lg_b[2].data).max() > 0)

    # independent replay: embeddings, GRU chain, logits, summed nll
    channels = Tensor(rng.standard_normal((1, 4, 4)), dtype=np.float64)
    loss, logits_seq = dec.teacher_forced(channels, ["ab"])
    table = dec.embed.table.value.data
    g = {leaf: getattr(dec.gru, leaf).value.data
         for leaf in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")}
    cw, cb = dec.cls.weight.value.data, dec.cls.bias.value.data
    targets = cs.encode("ab") + [cs.eos]
    prevs = [cs.sos] + cs.encode("ab")
    h = np.zeros((1, 5))
    total = 0.0
    logit_diff = 0.0
    for t in range(3):
        xin = np.concatenate([table[prevs[t]][None, :], channels.data[:, t, :]],
                             axis=1)
        h = _np_gru_step(xin, h, g)
        logit = h @ cw + cb
        logit_diff = max(logit_diff, np.abs(logit - logits_seq[t].data).max())
        m = logit.max()
        total += (m + np.log(np.exp(logit - m).sum())) - logit[0, targets[t]]
    loss_err = abs(loss.item() - total)  # batch of one: mean == sum
    ok = length_ok and causal_ok and loss_err < 1e-6
    _report(capsys, "decoder contracts", ok,
            f"length bound {length_ok}, causality {causal_ok}, "
            f"replay loss err {loss_err:.2e} (tol 1e-6), "
            f"logit err {logit_diff:.2e}")


# ------------------------------------------------------------ training runs


@pytest.fixture(scope="module")
def overfit_run():
    cfg = ModelConfig(epochs=250, max_steps=500, seed=0)
    ds = dataset_from_config(cfg)
    t0 = time.perf_counter()
    result = train(cfg, dataset=ds, target_loss=0.05)
    wall = time.perf_counter() - t0
    return cfg, ds, result, wall


def test_overfit_small_corpus(overfit_run, capsys):
    """Default-size model memorizes its 32-word corpus inside the step and
    wall-clock budget, and the run replays bit-for-bit."""
    cfg, ds, result, wall = overfit_run
    steps = len(result.metrics)
    final_loss = result.metrics[-1]["loss"]
    acc = evaluate(result.model, ds).accuracy
    replay = train(replace(cfg, max_steps=5), dataset=dataset_from_config(cfg))
    exact = replay.metrics == result.metrics[:5]
    ok = (steps <= 500 and final_loss < 0.05 and acc >= 0.95
          and wall <= 600.0 and exact)
    _report(capsys, "overfit", ok,
            f"loss {final_loss:.4f} (<0.05) in {steps} steps, "
            f"train acc {acc:.3f} (>=0.95), {wall:.0f}s (<=600), "
            f"5-step replay identical={exact}")


def test_robustness_transforms(overfit_run, capsys):
    """Padding transforms have exact geometry and never help accuracy."""
    cfg, ds, result, _ = overfit_run
    img = ds.raw(0)
    _, h, w = img.shape

    pad = apply_transform(img, "padded")
    geom_ok = pad.shape == (3, 2 * h, 2 * w)
    geom_ok &= np.array_equal(pad[:, h // 2:h // 2 + h, w // 2:w // 2 + w], img)
    geom_ok &= bool((pad[:, :h // 2, :w // 2] == img[:, :1, :1]).all())  # corner replication

    exp = apply_transform(img, "expanded")
    grow_h = int(np.floor(0.1 * h + 0.5))
    grow_w = int(np.floor(0.1 * w + 0.5))
    geom_ok &= exp.shape == (3, h + grow_h, w + grow_w)

    r1 = apply_transform(img, "r_padded", seed=7)
    r2 = apply_transform(img, "r_padded", seed=7)
    r3 = apply_transform(img, "r_padded", seed=8)
    det_ok = np.array_equal(r1, r2)
    det_ok &= (r1.shape != r3.shape) or not np.array_equal(r1, r3)

    acc_none = evaluate(result.model, ds, transform="none").accuracy
    acc_pad = evaluate(result.model, ds, transform="padded").accuracy
    drop_ok = acc_pad <= acc_none
    ok = geom_ok and det_ok and drop_ok
    _report(capsys, "robustness transforms", ok,
            f"geometry exact={geom_ok}, seeded determinism={det_ok}, "
            f"accuracy padded {acc_pad:.3f} <= none {acc_none:.3f}")


def test_checkpoint_round_trip(overfit_run, tmp_path, capsys):
    """save -> load -> save is byte-identical and predictions survive."""
    cfg, ds, result, _ = overfit_run
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, result.model)
    model2, cfg2 = load_checkpoint(p1)
    save_checkpoint(p2, model2)
    byte_ok = p1.read_bytes() == p2.read_bytes()
    pred1 = evaluate(result.model, ds).predictions
    pred2 = evaluate(model2, ds).predictions
    ok = byte_ok and pred1 == pred2 and cfg2 == cfg
    _report(capsys, "checkpoint round trip", ok,
            f"bytes identical={byte_ok}, {len(pred1)} predictions identical="
            f"{pred1 == pred2}, config preserved={cfg2 == cfg}")


# The streaming regime: 3 epochs of a 2668-word corpus at batch 4 is 2000
# steps with every sample seen ~3 times, so the comparison measures learning
# efficiency rather than memorization. Arms share the per-seed dataset and
# the held-out set; only the attention branch differs.
_ABLATION = dict(channels=6, num_scales=2, rus_per_rs=1, vab_convs=2,
                 hidden_size=48, embedding_dim=24, max_length=8,
                 alphabet=string.ascii_lowercase, label_max_len=4,
                 train_samples=2668, batch_size=4, epochs=3, max_steps=2000,
                 noise=0.1, shear_deg=12.0)


def test_attention_ablation(capsys):
    """With a fixed 2000-step budget, the gated model beats its ungated twin
    on held-out words in at least 4 of 5 seeds."""
    pairs = []
    for seed in range(5):
        cfg_v = ModelConfig(seed=seed, vab_enabled=True, **_ABLATION)
        cfg_p = ModelConfig(seed=seed, vab_enabled=False, **_ABLATION)
        ds = dataset_from_config(cfg_v)  # same data stream for both arms
        held = dataset_from_config(cfg_v, count=64, seed_stream=2)
        acc_v = evaluate(train(cfg_v, dataset=ds).model, held).accuracy
        acc_p = evaluate(train(cfg_p, dataset=ds).model, held).accuracy
        pairs.append((acc_v, acc_p))
    wins = sum(v >= p for v, p in pairs)
    ok = wins >= 4
    detail = ", ".join(f"s{i} {v:.3f}v{p:.3f}" for i, (v, p) in enumerate(pairs))
    _report(capsys, "attention ablation", ok, f"{detail} -> {wins}/5 wins (need 4)")
