"""Run-configuration loading, validation, and JSON round trips."""

import os

import pytest

from psan.config import ModelConfig


def test_defaults_validate():
    cfg = ModelConfig().validate()
    assert cfg.channels == 8 and cfg.num_scales == 3 and cfg.max_length == 25


def test_float_fields_accept_ints():
    cfg = ModelConfig.from_dict({"noise": 0, "shear_deg": 8, "max_steps": None})
    assert cfg.noise == 0 and cfg.shear_deg == 8


def test_json_round_trip(tmp_path):
    cfg = ModelConfig(channels=16, epochs=2, alphabet="abc", precision="f64")
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert ModelConfig.load(path) == cfg


def test_failed_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "cfg.json"
    ModelConfig(channels=16).save(path)
    old = path.read_bytes()
    cfg = ModelConfig()
    cfg.seed = object()  # json cannot encode it, and fails mid-way through the dump
    with pytest.raises(TypeError, match="not JSON serializable"):
        cfg.save(path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_negative_seed_rejected():
    with pytest.raises(ValueError) as err:
        ModelConfig(seed=-1).validate()
    assert str(err.value) == "seed must be >= 0, got -1"


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys: channles"):
        ModelConfig.from_dict({"channles": 8})


def test_invalid_json_and_non_object(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="invalid JSON"):
        ModelConfig.load(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        ModelConfig.load(arr)


def test_validation_errors():
    cases = [
        (dict(max_length=1), "max_length"),
        (dict(label_min_len=0), "length range"),
        (dict(label_max_len=25), "max_length >= 26"),  # needs the +1 step for eos
        (dict(precision="f16"), "precision"),
        (dict(alphabet="a\t"), "outside the charset"),
        (dict(epochs=0), "epochs"),
        (dict(batch_size=0), "batch_size"),
        (dict(num_scales=9), "num_scales"),
        (dict(vab_convs=9), "vab_convs"),
        (dict(train_samples=0), "train_samples"),
        (dict(max_steps=0), "max_steps"),
        (dict(channels=0), "^channels must be >= 1"),
        (dict(hidden_size=0), "^hidden_size must be >= 1, got 0$"),
        (dict(embedding_dim=0), "^embedding_dim must be >= 1, got 0$"),
        (dict(channels="8"), "channels must be int"),
        (dict(channels=8.0), "channels must be int"),
        (dict(epochs=True), "epochs must be int"),
        (dict(max_steps=1.5), "max_steps must be int or None"),
        (dict(vab_enabled=1), "vab_enabled must be bool"),
        (dict(noise="0.05"), "noise must be float"),
        (dict(alphabet=["a"]), "alphabet must be str"),
        (dict(noise=0.5), "noise amplitude must be in"),
        (dict(shear_deg=-1.0), "shear must be in"),
        (dict(shear_deg=20), "shear must be in"),
    ]
    for kw, msg in cases:
        with pytest.raises(ValueError, match=msg):
            ModelConfig(**kw).validate()


def test_size_bounds_admit_their_own_value_and_refuse_the_next():
    at_bounds = dict(channels=64, max_length=128, hidden_size=1024, embedding_dim=1024)
    ModelConfig(**at_bounds).validate()
    for name, bound in at_bounds.items():
        with pytest.raises(ValueError) as err:
            ModelConfig(**{name: bound + 1}).validate()
        assert str(err.value) == f"{name} must be at most {bound}, got {bound + 1}"
