"""Checkpoint format: byte-stable round trips and corruption diagnostics."""

import json
import os
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

from psan.checkpoint import (MAGIC, VERSION, CheckpointError, load_checkpoint,
                             save_checkpoint)
from psan.config import ModelConfig
from psan.model import TextRecognizer, stack_images
from psan.tensor import Tensor
from psan.train import train


def tiny_cfg(**kw):
    base = dict(channels=4, num_scales=2, rus_per_rs=1, vab_convs=1,
                max_length=4, hidden_size=8, embedding_dim=6,
                alphabet="ab", train_samples=4, label_max_len=3,
                batch_size=4, epochs=1, seed=7)
    base.update(kw)
    return ModelConfig(**base)


def messy_model(**kw):
    """A model whose optimizer and batch-norm state is visibly non-default."""
    model = TextRecognizer(tiny_cfg(**kw))
    rng = np.random.default_rng(0)
    for name, arr in model.state_entries():
        if "accum" in name or "running" in name:
            arr[...] = rng.uniform(0.1, 0.9, arr.shape)
    return model


def test_save_load_save_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(first, messy_model())
    loaded, cfg = load_checkpoint(first)
    assert cfg == tiny_cfg()
    save_checkpoint(second, loaded)
    assert first.read_bytes() == second.read_bytes()


def test_f64_checkpoint_round_trips_byte_identically_under_f32(tmp_path):
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(first, messy_model(precision="f64"))
    loaded, cfg = load_checkpoint(first)
    assert Tensor([1.0]).data.dtype == np.float32  # no width left behind
    assert cfg.precision == "f64"
    assert {arr.dtype for _, arr in loaded.state_entries()} == {np.dtype(np.float64)}
    save_checkpoint(second, loaded)
    assert first.read_bytes() == second.read_bytes()


def test_f64_model_decodes_alike_under_either_precision():
    model = TextRecognizer(tiny_cfg(precision="f64"))
    model.eval()
    model.decoder.cls.bias.value.data[model.charset.eos] = -1e4  # decode every step
    # float32 pixels, so both input widths carry the same values
    pixels = np.random.default_rng(3).uniform(-1, 1, (3, 3, 32, 128)).astype(np.float32)
    texts = model.recognize(Tensor(pixels))
    assert Tensor([1.0]).data.dtype == np.float32
    assert all(len(t) == model.cfg.max_length for t in texts)
    assert model.recognize(Tensor(pixels, dtype=np.float64)) == texts


def test_round_trip_preserves_state_and_predictions(tmp_path):
    path = tmp_path / "m.ckpt"
    res = train(tiny_cfg(epochs=2), out_path=str(path))
    loaded, _ = load_checkpoint(path)

    for (n1, a1), (n2, a2) in zip(res.model.state_entries(), loaded.state_entries()):
        assert n1 == n2
        np.testing.assert_array_equal(a1, a2, err_msg=n1)

    images = stack_images([Tensor(np.random.default_rng(3).uniform(-1, 1, (3, 32, 128)))
                           for _ in range(3)])
    res.model.eval()
    loaded.eval()
    assert res.model.recognize(images) == loaded.recognize(images)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)
    empty = tmp_path / "empty.ckpt"
    empty.write_bytes(b"")
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(empty)


def test_rejects_wrong_version(tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, messy_model())
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="version 9"):
        load_checkpoint(path)


def test_rejects_truncation(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, messy_model())
    data = path.read_bytes()

    cut_manifest = tmp_path / "cm.ckpt"
    cut_manifest.write_bytes(data[:12])
    with pytest.raises(CheckpointError, match="truncated manifest"):
        load_checkpoint(cut_manifest)

    cut_payload = tmp_path / "cp.ckpt"
    cut_payload.write_bytes(data[:-5])
    with pytest.raises(CheckpointError, match="truncated payload"):
        load_checkpoint(cut_payload)


def rewrite_manifest(path, out, mutate):
    data = path.read_bytes()
    (mlen,) = struct.unpack("<I", data[5:9])
    manifest = json.loads(data[9:9 + mlen].decode("utf-8"))
    mutate(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + mlen:])


def test_rejects_manifest_mismatches(tmp_path):
    path = tmp_path / "base.ckpt"
    save_checkpoint(path, messy_model())

    shaped = tmp_path / "shape.ckpt"
    rewrite_manifest(path, shaped, lambda m: m["tensors"][0].update(shape=[1]))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(shaped)

    renamed = tmp_path / "name.ckpt"
    rewrite_manifest(path, renamed, lambda m: m["tensors"][0].update(name="bogus"))
    with pytest.raises(CheckpointError, match="unknown tensor"):
        load_checkpoint(renamed)

    typed = tmp_path / "dtype.ckpt"
    rewrite_manifest(path, typed, lambda m: m["tensors"][0].update(dtype="f16"))
    with pytest.raises(CheckpointError, match="unknown dtype"):
        load_checkpoint(typed)

    for key in ("name", "dtype"):  # unhashable, so they must not reach a lookup
        listed = tmp_path / f"{key}-list.ckpt"
        rewrite_manifest(path, listed, lambda m: m["tensors"][0].update({key: ["f32"]}))
        with pytest.raises(CheckpointError, match="malformed tensor entry"):
            load_checkpoint(listed)

    dropped = tmp_path / "drop.ckpt"
    rewrite_manifest(path, dropped, lambda m: m["tensors"].pop())
    with pytest.raises(CheckpointError, match="expects"):
        load_checkpoint(dropped)


def test_rejects_payload_that_tensors_do_not_tile(tmp_path):
    path = tmp_path / "base.ckpt"
    save_checkpoint(path, messy_model())

    appended = tmp_path / "tail.ckpt"
    appended.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="1 bytes follow the last tensor"):
        load_checkpoint(appended)

    overlap = tmp_path / "overlap.ckpt"
    rewrite_manifest(path, overlap, lambda m: m["tensors"][1].update(offset=4))
    with pytest.raises(CheckpointError, match="starts at byte 4"):
        load_checkpoint(overlap)


def test_rejects_corrupt_manifest_json(tmp_path):
    path = tmp_path / "cj.ckpt"
    save_checkpoint(path, messy_model())
    data = bytearray(path.read_bytes())
    data[9] = 0xFF  # stomp the first manifest byte
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="corrupt manifest"):
        load_checkpoint(path)


def write_raw_manifest(path, manifest):
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MAGIC + bytes([VERSION]) + struct.pack("<I", len(blob)) + blob)


def test_rejects_manifest_without_config_or_tensors(tmp_path):
    path = tmp_path / "m.ckpt"
    for manifest in ([], "x", {"tensors": []}, {"config": {}}, {"config": [], "tensors": []},
                     {"config": {}, "tensors": {}}):
        write_raw_manifest(path, manifest)
        with pytest.raises(CheckpointError, match="manifest must be an object"):
            load_checkpoint(path)

    base = tmp_path / "base.ckpt"
    save_checkpoint(base, messy_model())
    for bad_entry in (lambda m: m["tensors"][0].pop("offset"),
                      lambda m: m["tensors"].__setitem__(0, [1, 2]),
                      lambda m: m["tensors"][0].update(offset="a"),
                      lambda m: m["tensors"][0].update(offset=-4),
                      lambda m: m["tensors"][0].update(shape=5),
                      lambda m: m["tensors"][0].update(offset=False),
                      lambda m: m["tensors"][0]["shape"].__setitem__(0, True)):
        rewrite_manifest(base, path, bad_entry)
        with pytest.raises(CheckpointError, match="malformed tensor entry"):
            load_checkpoint(path)


def test_failed_save_keeps_the_old_file(tmp_path):
    """A save cut short by the file-size limit raises, leaves the previous
    checkpoint byte-for-byte intact and leaves no temporary file behind."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, TextRecognizer(tiny_cfg(seed=1)))
    old = path.read_bytes()
    limit = len(old) // 2
    script = textwrap.dedent(f"""
        import resource, signal
        from psan.checkpoint import save_checkpoint
        from psan.config import ModelConfig
        from psan.model import TextRecognizer
        model = TextRecognizer(ModelConfig(**{tiny_cfg(seed=2).to_dict()!r}))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))
        try:
            save_checkpoint({str(path)!r}, model)
        except OSError as exc:
            print("failed", exc.errno)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("failed"), proc.stdout
    assert path.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt"]


def test_concurrent_saves_to_one_path_leave_one_whole_checkpoint(tmp_path):
    """Threads saving to the same path never share a temporary file: no save
    raises, and the file left is exactly one of the models' checkpoints."""
    models = [TextRecognizer(tiny_cfg(seed=s)) for s in range(4)]
    expected = set()
    for i, model in enumerate(models):
        save_checkpoint(tmp_path / f"ref{i}.ckpt", model)
        expected.add((tmp_path / f"ref{i}.ckpt").read_bytes())
    path = tmp_path / "shared.ckpt"
    start = threading.Barrier(len(models))
    errors = []

    def saver(model):
        start.wait()
        for _ in range(20):
            try:
                save_checkpoint(path, model)
            except Exception as exc:  # collected, so the main thread can fail on it
                errors.append(exc)

    threads = [threading.Thread(target=saver, args=(m,)) for m in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_bytes() in expected
    assert sorted(os.listdir(tmp_path)) == sorted(["shared.ckpt"] + [f"ref{i}.ckpt" for i in range(4)])


def test_checkpoint_io_holds_no_copy_of_the_payload(tmp_path):
    """Saving streams the model's arrays to the file, and loading reads each
    tensor into the model, so neither call's transient peak (the traced peak
    minus what the call leaves held) nears the file size. The default config,
    because a tiny model's JSON manifest outweighs its payload."""
    path = tmp_path / "default.ckpt"
    model = TextRecognizer(ModelConfig())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        save_checkpoint(path, model)
        held, peak = tracemalloc.get_traced_memory()
        save_transient = peak - held
        tracemalloc.reset_peak()
        loaded, _ = load_checkpoint(path)
        held, peak = tracemalloc.get_traced_memory()
        load_transient = peak - held
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert save_transient < size / 2, (save_transient, size)
    assert load_transient < size / 2, (load_transient, size)
    assert len(loaded.state_entries()) == len(model.state_entries())
