"""Precision lives on the model, and a call leaves no state behind.

Every tensor's width comes from its data or its model, never from a process
setting; each thread has its own tape stack; and no forward, taped or not,
rebinds an attribute of any module.
"""

import ast
import sys
import threading
from pathlib import Path

import numpy as np

import psan
from psan.checkpoint import load_checkpoint, save_checkpoint
from psan.config import ModelConfig
from psan.model import TextRecognizer
from psan.tensor import Tape, Tensor, backward


def tiny_cfg(**kw):
    base = dict(channels=4, num_scales=2, rus_per_rs=1, vab_convs=1,
                max_length=4, hidden_size=8, embedding_dim=6,
                label_max_len=3, seed=9)
    base.update(kw)
    return ModelConfig(**base)


def pixels(seed, n=2):
    """Float32 images, as preprocess makes them."""
    return Tensor(np.random.default_rng(seed).uniform(-1, 1, (n, 3, 32, 128)))


def test_f64_model_computes_in_f64_with_nothing_around_it():
    model = TextRecognizer(tiny_cfg(precision="f64"))
    images = pixels(0)
    assert images.data.dtype == np.float32
    assert model.features(images).data.dtype == np.float64
    assert model.loss(images, ["ab", "b"]).data.dtype == np.float64
    with Tape() as tape:
        loss = model.loss(images, ["ab", "b"])
        backward(loss, tape)
    assert loss.data.dtype == np.float64
    assert {n.output.data.dtype for n in tape.nodes} == {np.dtype(np.float64)}
    assert {p.value.grad.dtype for p in model.params()} == {np.dtype(np.float64)}


def test_both_widths_of_one_seed_start_from_the_same_weights():
    narrow = TextRecognizer(tiny_cfg())
    wide = TextRecognizer(tiny_cfg(precision="f64"))
    for (n1, a1), (n2, a2) in zip(narrow.state_entries(), wide.state_entries()):
        assert n1 == n2 and a1.dtype == np.float32 and a2.dtype == np.float64
        np.testing.assert_array_equal(a1.astype(np.float64), a2, err_msg=n1)


def run_threads(fns, timeout=60):
    """Run each function in its own thread, all released at once; return
    their results in order."""
    start = threading.Barrier(len(fns))
    out = [None] * len(fns)

    def work(i):
        start.wait()
        out[i] = fns[i]()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)
    return out


def test_a_tape_records_only_its_own_thread():
    model = TextRecognizer(tiny_cfg())
    images = pixels(1)
    serial = model.recognize(images)
    with Tape() as tape:
        (texts,) = run_threads([lambda: model.recognize(images)])
    assert tape.nodes == []
    assert texts == serial


def test_f32_and_f64_models_recognize_at_once_in_parallel_threads():
    """Four models, two of each width, each in its own thread, with the
    interpreter switching threads as often as it can."""
    models = [TextRecognizer(tiny_cfg(seed=s, precision=p))
              for s, p in ((3, "f32"), (4, "f64"), (5, "f32"), (6, "f64"))]
    for m in models:  # decode every step, so each output is a full-length string
        m.decoder.cls.bias.value.data[m.charset.eos] = -1e4
    batches = [pixels(s) for s in range(6)]
    serial = [[m.recognize(b) for b in batches] for m in models]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_threads([lambda m=m: [m.recognize(b) for b in batches] for m in models])
    finally:
        sys.setswitchinterval(switch)
    assert got == serial
    assert len({str(s) for s in serial}) == len(models)


def test_threads_recognizing_with_one_train_mode_model_leave_its_modes_alone():
    """Two threads recognize with each of 20 train-mode models at once.
    Recognition is untaped and writes nothing to the model, not even a mode,
    so the threads need not take turns: every mode stays as it was and every
    text matches the serial run."""
    models = [TextRecognizer(tiny_cfg(seed=s)) for s in range(20)]
    images = pixels(7, n=1)
    serial = [m.recognize(images) for m in models]
    work = lambda: [[m.recognize(images) for _ in range(3)] for m in models]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_threads([work, work])
    finally:
        sys.setswitchinterval(switch)
    assert all(bn.training for m in models for bn in m.batchnorms)
    assert got == [[[texts] * 3 for texts in serial]] * 2


def test_untaped_features_of_a_train_mode_model_are_inference_and_write_nothing(tmp_path):
    """A model as `load_checkpoint` returns it, in train mode, computes the
    eval-mode features bit for bit with no tape open, and every state array
    stays byte-identical."""
    model = TextRecognizer(tiny_cfg())
    rng = np.random.default_rng(0)
    for name, arr in model.state_entries():
        if "running" in name:  # visibly non-default statistics
            arr[...] = rng.uniform(0.1, 0.9, arr.shape)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    assert all(bn.training for bn in loaded.batchnorms)
    images = pixels(3)
    before = [(name, arr.tobytes()) for name, arr in loaded.state_entries()]
    got = loaded.features(images).data
    assert [(name, arr.tobytes()) for name, arr in loaded.state_entries()] == before
    loaded.eval()
    want = loaded.features(images).data
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def bindings(model):
    return {(m.name, k): v for m in model.modules() for k, v in vars(m).items()}


def assert_same_bindings(before, after):
    assert before.keys() == after.keys()
    rebound = [key for key in before if before[key] is not after[key]]
    assert rebound == []


def test_forward_rebinds_no_module_attribute():
    model = TextRecognizer(tiny_cfg())
    images = pixels(2)
    before = bindings(model)
    with Tape() as tape:
        backward(model.loss(images, ["ab", "b"]), tape)
    model.recognize(images)
    assert_same_bindings(before, bindings(model))
    model.eval()
    before = bindings(model)
    model.features(images)
    with Tape():
        model.features(images)
    assert_same_bindings(before, bindings(model))


def test_the_package_has_no_global_statement():
    src = Path(psan.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


def module_tables():
    """Every module-level dict, list and set in the package, as the identity
    of each entry, so a table that gains, loses or rebinds one shows."""
    def entries(value):
        if isinstance(value, dict):
            return [(id(k), id(v)) for k, v in value.items()]
        return sorted(map(id, value)) if isinstance(value, set) else list(map(id, value))

    return {f"{name}.{attr}": entries(value)
            for name, module in list(sys.modules.items())
            if name == "psan" or name.startswith("psan.")
            for attr, value in vars(module).items()
            if isinstance(value, (dict, list, set))}


def test_a_forward_grows_no_process_global_table():
    """Training and recognition at an input size nothing else uses leave
    every module-level table as it was."""
    model = TextRecognizer(tiny_cfg(), input_hw=(12, 44))
    images = Tensor(np.random.default_rng(4).uniform(-1, 1, (2, 3, 12, 44)))
    before = module_tables()
    with Tape() as tape:
        backward(model.loss(images, ["ab", "b"]), tape)
    model.recognize(images)
    after = module_tables()
    assert after == before
