"""Command-line surface: happy paths, wiring of flags, and exit codes."""

import json
import struct

import numpy as np
import pytest

from psan import cli
from psan.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from psan.cli import main
from psan.config import ModelConfig
from psan.data import (RenderOptions, SyntheticDataset, preprocess, render_word,
                       write_pgm)
from psan.model import TextRecognizer
from psan.tensor import Tensor
from psan.train import dataset_from_config


TINY = dict(channels=4, num_scales=2, rus_per_rs=1, vab_convs=1,
            max_length=4, hidden_size=8, embedding_dim=6,
            alphabet="ab", train_samples=4, label_max_len=3,
            batch_size=4, epochs=2, seed=5)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A config file and a trained checkpoint shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    ModelConfig(**TINY).save(cfg_path)
    ckpt = root / "model.ckpt"
    code = main(["train", "--config", str(cfg_path), "--out", str(ckpt)])
    assert code == 0 and ckpt.exists()
    return {"root": root, "cfg": str(cfg_path), "ckpt": str(ckpt)}


def test_gen_data_writes_manifest(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(out), "--count", "5", "--seed", "3"]) == 0
    lines = (out / "manifest.tsv").read_text().splitlines()
    assert len(lines) == 5
    assert all(len(l.split("\t")) == 3 for l in lines)
    assert "wrote 5 samples" in capsys.readouterr().out


def test_gen_data_exports_pgm(tmp_path):
    out = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(out), "--count", "2", "--seed", "3",
                 "--export-pgm"]) == 0
    assert (out / "000000.pgm").exists() and (out / "000001.pgm").exists()


def test_train_logs_metrics_and_checkpoint(workdir, tmp_path, capsys):
    log = tmp_path / "metrics.jsonl"
    ckpt = tmp_path / "m.ckpt"
    code = main(["train", "--config", workdir["cfg"], "--out", str(ckpt),
                 "--log", str(log)])
    assert code == 0
    records = [json.loads(l) for l in log.read_text().splitlines()]
    assert [r["step"] for r in records] == [1, 2]
    assert all(set(r) == {"step", "epoch", "loss", "lr_scale"} for r in records)
    out = capsys.readouterr().out
    assert f"checkpoint written to {ckpt}" in out
    assert json.dumps(records[0], sort_keys=True) in out


def test_train_override_flags_reach_the_config(tmp_path):
    ckpt = tmp_path / "o.ckpt"
    code = main(["train", "--config", str(tmp_path / "absent.json")])
    assert code == 1  # config path must exist when given

    cfg_path = tmp_path / "cfg.json"
    ModelConfig(**TINY).save(cfg_path)
    code = main(["train", "--config", str(cfg_path), "--out", str(ckpt),
                 "--channels", "4", "--no-vab", "--max-length", "5"])
    assert code == 0
    _, cfg = load_checkpoint(ckpt)
    assert cfg.channels == 4 and cfg.vab_enabled is False and cfg.max_length == 5


def test_eval_reports_accuracy(workdir, capsys):
    assert main(["eval", "--checkpoint", workdir["ckpt"], "--count", "4"]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["transform"] == "none" and report["samples"] == 4
    assert 0.0 <= report["accuracy"] <= 1.0


def test_eval_transform_flag_is_wired(workdir, capsys):
    assert main(["eval", "--checkpoint", workdir["ckpt"], "--count", "4",
                 "--transform", "padded"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["transform"] == "padded"


def test_eval_on_manifest(workdir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    main(["gen-data", "--out", str(corpus), "--count", "3", "--seed", "8"])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", workdir["ckpt"],
                 "--manifest", str(corpus / "manifest.tsv")]) == 0
    assert json.loads(capsys.readouterr().out.strip())["samples"] == 3


def test_infer_from_pgm_prints_one_line(workdir, tmp_path, capsys):
    pgm = tmp_path / "word.pgm"
    write_pgm(pgm, np.random.default_rng(0).uniform(0, 1, (16, 40)))
    assert main(["infer", "--checkpoint", workdir["ckpt"], "--image", str(pgm)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1


def test_infer_from_manifest(workdir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    main(["gen-data", "--out", str(corpus), "--count", "2", "--seed", "4"])
    capsys.readouterr()
    manifest = str(corpus / "manifest.tsv")
    assert main(["infer", "--checkpoint", workdir["ckpt"],
                 "--manifest", manifest, "--index", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 1

    assert main(["infer", "--checkpoint", workdir["ckpt"],
                 "--manifest", manifest, "--index", "9"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_infer_on_an_empty_pgm_is_one_error_line(workdir, tmp_path, capsys):
    pgm = tmp_path / "empty.pgm"
    pgm.write_bytes(b"P5\n4 0\n255\n")
    assert main(["infer", "--checkpoint", workdir["ckpt"], "--image", str(pgm)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_manifests_render_with_the_config_options(tmp_path, monkeypatch):
    """gen-data exports, and every command reading a manifest, render with
    the config's noise and shear, not the RenderOptions defaults."""
    cfg = ModelConfig(**{**TINY, "noise": 0.0, "shear_deg": 0.0})
    clean = cfg.render_options()
    assert (clean.noise, clean.shear_deg) == (0.0, 0.0)
    assert dataset_from_config(cfg).opts == clean
    cfg_path = tmp_path / "clean.json"
    cfg.save(cfg_path)
    corpus = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(corpus), "--count", "2", "--seed", "3",
                 "--config", str(cfg_path), "--export-pgm"]) == 0
    manifest = str(corpus / "manifest.tsv")
    ds = SyntheticDataset.from_manifest(manifest)
    for i in range(2):
        for name, opts in (("clean", clean), ("default", RenderOptions())):
            write_pgm(tmp_path / f"{name}.pgm", render_word(ds.label(i), ds.seed(i), opts)[0])
        exported = (corpus / f"{i:06d}.pgm").read_bytes()
        assert exported == (tmp_path / "clean.pgm").read_bytes()
        assert exported != (tmp_path / "default.pgm").read_bytes()

    seen = []
    monkeypatch.setattr(cli, "train", lambda cfg, dataset, **kw: seen.append(dataset.opts))
    assert main(["train", "--config", str(cfg_path), "--manifest", manifest]) == 0
    ckpt = tmp_path / "clean.ckpt"
    save_checkpoint(ckpt, TextRecognizer(cfg))
    for command in ("eval", "robustness"):
        args = cli._make_parser().parse_args([command, "--checkpoint", str(ckpt),
                                              "--manifest", manifest])
        seen.append(cli._eval_dataset(args, cfg).opts)
    raws = []
    monkeypatch.setattr(cli, "preprocess", lambda raw: (raws.append(raw), preprocess(raw))[1])
    assert main(["infer", "--checkpoint", str(ckpt), "--manifest", manifest,
                 "--index", "1"]) == 0
    assert seen == [clean] * 3
    np.testing.assert_array_equal(raws[0], render_word(ds.label(1), ds.seed(1), clean))


def test_infer_needs_exactly_one_source(workdir, tmp_path, capsys):
    assert main(["infer", "--checkpoint", workdir["ckpt"]]) == 2
    assert "exactly one" in capsys.readouterr().err
    pgm = tmp_path / "w.pgm"
    write_pgm(pgm, np.zeros((8, 8)))
    assert main(["infer", "--checkpoint", workdir["ckpt"], "--image", str(pgm),
                 "--manifest", str(pgm)]) == 2


def test_robustness_covers_every_transform(workdir, capsys):
    assert main(["robustness", "--checkpoint", workdir["ckpt"], "--count", "4"]) == 0
    reports = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["transform"] for r in reports] == ["none", "padded", "r_padded",
                                                 "expanded", "r_expanded"]
    assert reports[0]["delta_vs_none"] == 0.0


def test_gradcheck_passes_curated_seeds(capsys):
    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 24
    assert all(l.endswith("OK") for l in lines)


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_checkpoint_is_runtime_error(capsys):
    assert main(["eval", "--checkpoint", "/nonexistent/m.ckpt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def one_error_line(capsys):
    out, err = capsys.readouterr()
    return out == "" and err.startswith("error:") and "count" in err and err.count("\n") == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_eval_rejects_an_empty_dataset(workdir, capsys, count):
    assert main(["eval", "--checkpoint", workdir["ckpt"], "--count", count]) == 1
    assert one_error_line(capsys)


def test_robustness_rejects_an_empty_dataset(workdir, capsys):
    assert main(["robustness", "--checkpoint", workdir["ckpt"], "--count", "0"]) == 1
    assert one_error_line(capsys)


def test_gen_data_rejects_an_empty_dataset(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(out), "--count", "-2"]) == 1
    assert one_error_line(capsys)
    assert not out.exists()


def test_malformed_manifest_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    blob = json.dumps({"config": ModelConfig(**TINY).to_dict()}).encode("utf-8")
    path.write_bytes(MAGIC + bytes([VERSION]) + struct.pack("<I", len(blob)) + blob)
    assert main(["infer", "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "manifest" in err and err.count("\n") == 1


def test_precision_env_is_validated(monkeypatch, capsys):
    monkeypatch.setenv("PSAN_PRECISION", "f16")
    assert main(["gradcheck"]) == 2
    assert "PSAN_PRECISION" in capsys.readouterr().err


def test_precision_env_applies_to_the_one_command(monkeypatch, tmp_path):
    monkeypatch.setenv("PSAN_PRECISION", "f64")
    assert main(["gen-data", "--out", str(tmp_path), "--count", "2"]) == 0
    assert Tensor([1.0]).data.dtype == np.float32  # no width left behind


def test_precision_env_overrides_the_train_config(monkeypatch, workdir, tmp_path):
    ckpt = tmp_path / "f64.ckpt"
    monkeypatch.setenv("PSAN_PRECISION", "f64")
    assert main(["train", "--config", workdir["cfg"], "--out", str(ckpt)]) == 0
    model, cfg = load_checkpoint(ckpt)
    assert cfg.precision == "f64"
    assert {arr.dtype for _, arr in model.state_entries()} == {np.dtype(np.float64)}
    monkeypatch.setenv("PSAN_PRECISION", "f32")
    cfg64 = tmp_path / "f64.json"
    ModelConfig(**TINY, precision="f64").save(cfg64)
    assert main(["train", "--config", str(cfg64), "--out", str(ckpt)]) == 0
    assert load_checkpoint(ckpt)[1].precision == "f32"
