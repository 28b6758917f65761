"""Training loop and evaluation: determinism, schedule, abort diagnostics,
checkpoint cadence, and the scoring rules."""

import sys
import tracemalloc

import numpy as np
import pytest

from psan.config import ModelConfig
from psan.data import SyntheticDataset
from psan.layers import BatchNorm2d
from psan.model import TextRecognizer
from psan.tensor import NonFiniteError, Parameter, Tape, Tensor, adadelta_step
from psan.train import (dataset_from_config, evaluate, lr_scale_for_epoch,
                        train)

# the package root re-exports a `train` function that shadows the submodule
train_mod = sys.modules["psan.train"]


def tiny_cfg(**kw):
    base = dict(channels=4, num_scales=2, rus_per_rs=1, vab_convs=1,
                max_length=4, hidden_size=8, embedding_dim=6,
                alphabet="ab", train_samples=4, label_max_len=3,
                batch_size=4, epochs=1, seed=5)
    base.update(kw)
    return ModelConfig(**base)


def test_lr_schedule_values():
    assert [lr_scale_for_epoch(e) for e in (1, 2, 3)] == [1.0, 1.0, 1.0]
    assert [lr_scale_for_epoch(e) for e in (4, 5, 100)] == [0.1, 0.1, 0.1]


def test_adadelta_lr_scale_multiplies_update():
    full = Parameter("a", Tensor([0.0], dtype=np.float64))
    tenth = Parameter("b", Tensor([0.0], dtype=np.float64))
    for p in (full, tenth):
        p.value.grad = np.array([1.0])
    adadelta_step([full], lr_scale=1.0)
    adadelta_step([tenth], lr_scale=0.1)
    np.testing.assert_allclose(tenth.value.data, 0.1 * full.value.data, rtol=1e-12)


def test_training_runs_are_bit_identical():
    results = [train(tiny_cfg(epochs=2)) for _ in range(2)]
    m1, m2 = results[0].metrics, results[1].metrics
    assert len(m1) == len(m2) == 2
    assert m1 == m2  # exact float equality, step 1 included
    for (n1, a1), (n2, a2) in zip(results[0].model.state_entries(),
                                  results[1].model.state_entries()):
        assert n1 == n2
        np.testing.assert_array_equal(a1, a2)


def test_training_runs_replay_the_optimizer_bit_for_bit():
    """Checkpoints hold no ADADELTA state, so the replay of the optimizer is
    checked on the live models: both accumulators match byte for byte."""
    m1, m2 = (train(tiny_cfg(epochs=2)).model for _ in range(2))
    for p, q in zip(m1.params(), m2.params()):
        assert p.name == q.name
        assert p.accum_grad_sq.tobytes() == q.accum_grad_sq.tobytes(), p.name
        assert p.accum_update_sq.tobytes() == q.accum_update_sq.tobytes(), p.name


def accumulator_dtypes(model):
    return {a.dtype for p in model.params() for a in (p.accum_grad_sq, p.accum_update_sq)}


def test_f64_training_keeps_both_accumulators_f64():
    """An in-place `+=` keeps its target's width, so an f64 model must be built
    with f64 accumulators and keep them f64 through a training step."""
    assert accumulator_dtypes(TextRecognizer(tiny_cfg(precision="f64"))) == {np.dtype(np.float64)}
    model = train(tiny_cfg(precision="f64")).model
    assert accumulator_dtypes(model) == {np.dtype(np.float64)}
    assert all(p.accum_grad_sq.any() or p.accum_update_sq.any() for p in model.params())


def test_recognize_and_evaluate_leave_the_accumulators():
    cfg = tiny_cfg(epochs=2)
    model = train(cfg).model
    before = [(p.accum_grad_sq.tobytes(), p.accum_update_sq.tobytes())
              for p in model.params()]
    model.recognize(Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 3, 32, 128))))
    evaluate(model, dataset_from_config(cfg, count=4), transform="r_padded")
    after = [(p.accum_grad_sq.tobytes(), p.accum_update_sq.tobytes())
             for p in model.params()]
    assert after == before


def test_metrics_carry_the_schedule():
    res = train(tiny_cfg(epochs=5))
    assert [m["step"] for m in res.metrics] == [1, 2, 3, 4, 5]
    assert [m["epoch"] for m in res.metrics] == [1, 2, 3, 4, 5]
    assert [m["lr_scale"] for m in res.metrics] == [1.0, 1.0, 1.0, 0.1, 0.1]
    assert all(np.isfinite(m["loss"]) for m in res.metrics)


def test_max_steps_and_target_loss_stop_early():
    res = train(tiny_cfg(train_samples=8, batch_size=4, epochs=3, max_steps=3))
    assert len(res.metrics) == 3
    # an unreachable-low bar never stops; a trivially-high one stops at step 3
    res = train(tiny_cfg(epochs=2), target_loss=1e9)
    assert len(res.metrics) == 2  # only 2 steps exist, 3 consecutive never seen
    res = train(tiny_cfg(epochs=5), target_loss=1e9)
    assert len(res.metrics) == 3


def test_log_fn_sees_every_metrics_line():
    seen = []
    res = train(tiny_cfg(epochs=2), log_fn=seen.append)
    assert seen == res.metrics


class NaNDataset:
    def __len__(self):
        return 4

    def image(self, i):
        return Tensor(np.full((3, 32, 128), np.nan))

    def label(self, i):
        return "a"


def test_non_finite_loss_aborts_with_source():
    with pytest.raises(NonFiniteError, match="non-finite loss at step 1"):
        train(tiny_cfg(), dataset=NaNDataset())


def test_non_finite_loss_names_the_module_scope():
    with pytest.raises(NonFiniteError, match="conv_bn in 'model.enc.stem'"):
        train(tiny_cfg(), dataset=NaNDataset())


def test_training_restores_the_callers_precision():
    res = train(tiny_cfg(precision="f64"))
    assert res.model.decoder.cls.weight.value.data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32
    with pytest.raises(NonFiniteError):
        train(tiny_cfg(precision="f64"), dataset=NaNDataset())
    assert Tensor([1.0]).data.dtype == np.float32


def test_default_batch_16_train_step_peak_memory():
    """The tracemalloc peak of the second step of a default-config train():
    model state plus the tape and what its backward rules keep at their
    highest. The corpus is rendered first, as the benchmark's probe does."""
    cfg = ModelConfig(max_steps=2)
    dataset = dataset_from_config(cfg)
    for i in range(len(dataset)):
        dataset.image(i)
    peaks = []

    def log_fn(line):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        train(cfg, dataset=dataset, log_fn=log_fn)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 and peaks[-1] <= 72 * 2 ** 20, peaks


def test_default_model_structure_counts():
    """Modules, parameter arrays and values of the default model, and the tape
    nodes of a taped batch-16 loss: 152 + 5*L for a longest label L (the
    decoder runs L + 1 teacher-forced steps of five nodes each). A change to
    any of these counts updates this test and says so."""
    model = TextRecognizer(ModelConfig())
    params = model.params()
    assert (len(list(model.modules())), len(params)) == (314, 490)
    assert sum(p.value.data.size for p in params) == 629_797
    images = Tensor(np.zeros((16, 3, 32, 128)))
    for longest in (1, 9):
        with Tape() as tape:
            model.loss(images, ["a" * longest] + ["a"] * 15)
        assert len(tape.nodes) == 152 + 5 * longest
    assert len(tape.nodes) == 197


def test_checkpoint_written_each_epoch_and_on_completion(tmp_path, monkeypatch):
    calls = []
    real = train_mod.save_checkpoint
    monkeypatch.setattr(train_mod, "save_checkpoint",
                        lambda path, model: (calls.append(str(path)), real(path, model))[1])
    out = tmp_path / "model.ckpt"
    train(tiny_cfg(epochs=2), out_path=str(out))
    assert len(calls) == 3  # two epoch boundaries plus the final save
    assert out.exists()

    calls.clear()
    train(tiny_cfg(epochs=2, max_steps=1), out_path=str(out))
    assert len(calls) == 1  # early stop skips straight to the final save


def test_dataset_streams_are_separated():
    cfg = tiny_cfg(train_samples=16, label_max_len=3)
    a = dataset_from_config(cfg, seed_stream=1)
    b = dataset_from_config(cfg, seed_stream=1)
    c = dataset_from_config(cfg, seed_stream=2)
    assert a.records == b.records
    assert a.records != c.records


def test_dataset_count_zero_is_refused_not_replaced_by_the_config():
    with pytest.raises(ValueError, match="count must be >= 1"):
        dataset_from_config(tiny_cfg(), count=0)


class EchoUpper:
    """Fake recognizer replaying the dataset's own labels uppercased."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.cursor = 0
        self.batches = []

    def recognize(self, images):
        n = images.shape[0]
        self.batches.append(images.data.copy())
        out = [self.dataset.label(self.cursor + j).upper() for j in range(n)]
        self.cursor += n
        return out


def test_evaluate_matches_case_insensitively():
    ds = SyntheticDataset(4, seed=2, alphabet="ab", max_len=2)
    stub = EchoUpper(ds)
    res = evaluate(stub, ds, batch_size=2)
    assert res.accuracy == 1.0
    assert res.labels == [ds.label(i) for i in range(4)]
    assert len(stub.batches) == 2


def test_evaluate_applies_the_requested_transform():
    ds = SyntheticDataset(2, seed=3, alphabet="ab", max_len=2)
    plain = EchoUpper(ds)
    evaluate(plain, ds, transform="none")
    padded = EchoUpper(ds)
    evaluate(padded, ds, transform="padded")
    assert plain.batches[0].shape == padded.batches[0].shape == (2, 3, 32, 128)
    assert np.abs(plain.batches[0] - padded.batches[0]).max() > 0


def test_evaluate_real_model_rigged_to_silence_scores_zero():
    cfg = tiny_cfg()
    model = TextRecognizer(cfg)
    model.decoder.cls.weight.value.data[:] = 0
    model.decoder.cls.bias.value.data[:] = 0
    model.decoder.cls.bias.value.data[model.charset.eos] = 50.0
    ds = dataset_from_config(cfg, count=4)
    res = evaluate(model, ds)
    assert res.predictions == ["", "", "", ""]
    assert res.accuracy == 0.0


def test_evaluate_touches_no_state():
    cfg = tiny_cfg()
    model = TextRecognizer(cfg)
    ds = dataset_from_config(cfg, count=4)
    before = [(name, arr.copy()) for name, arr in model.state_entries()]
    evaluate(model, ds, transform="r_padded")
    for (name, old), (name2, new) in zip(before, model.state_entries()):
        assert name == name2
        np.testing.assert_array_equal(old, new, err_msg=name)


def test_evaluate_restores_each_batch_norm_mode():
    """Whatever the modes, evaluate predicts with the running statistics:
    exactly what the same model predicts in eval mode."""
    cfg = tiny_cfg()
    model = TextRecognizer(cfg)
    rng = np.random.default_rng(0)
    for name, arr in model.state_entries():
        if "running" in name:  # visibly non-default statistics
            arr[...] = rng.uniform(0.1, 0.9, arr.shape)
    model.decoder.cls.bias.value.data[model.charset.eos] = -1e4  # full-length texts
    bns = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    bns[0].training = False  # a mixed state must come back exactly
    before = [m.training for m in bns]
    ds = dataset_from_config(cfg, count=4)
    predictions = evaluate(model, ds).predictions
    assert [m.training for m in bns] == before
    model.eval()
    assert evaluate(model, ds).predictions == predictions


def test_recognize_on_a_training_model_leaves_state_and_modes():
    res = train(tiny_cfg())
    model = res.model
    bns = model.batchnorms
    assert bns == [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    bns[0].training = False  # a mixed state must come back exactly
    flags = [m.training for m in bns]
    before = [(name, arr.tobytes()) for name, arr in model.state_entries()]
    images = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 3, 32, 128)))
    texts = model.recognize(images)
    assert [(name, arr.tobytes()) for name, arr in model.state_entries()] == before
    assert [m.training for m in bns] == flags
    model.eval()
    assert model.recognize(images) == texts
