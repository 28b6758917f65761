"""Command-line interface.

Subcommands: gen-data, train, eval, infer, gradcheck, robustness. Errors
come back as a single machine-parsable line on stderr ("error: <message>")
with a nonzero exit code. The PSAN_PRECISION environment variable (f32 or
f64) is checked for every command and, when set, overrides the precision
of the config that `train` builds, like the override flags.
"""

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import gradcheck as gradcheck_mod
from .checkpoint import load_checkpoint
from .config import ModelConfig
from .data import TRANSFORMS, SyntheticDataset, preprocess, read_pgm
from .model import stack_images
from .tensor import NonFiniteError
from .train import evaluate, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


class CliError(Exception):
    pass


def _add_override_flags(p):
    p.add_argument("--channels", type=int, help="encoder base channel count")
    p.add_argument("--num-scales", type=int, help="number of encoder scales")
    p.add_argument("--rus-per-rs", type=int, help="residual units per structure")
    p.add_argument("--vab-convs", type=int, help="convs in each attention block")
    p.add_argument("--no-vab", action="store_true", help="replace attention blocks with plain convs")
    p.add_argument("--max-length", type=int, help="decoder step budget")


def _build_config(args):
    cfg = ModelConfig.load(args.config) if getattr(args, "config", None) else ModelConfig()
    overrides = {key: getattr(args, key, None) for key in
                 ("channels", "num_scales", "rus_per_rs", "vab_convs", "max_length", "seed")}
    overrides["precision"] = os.environ.get("PSAN_PRECISION")
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "no_vab", False):
        cfg.vab_enabled = False
    return cfg.validate()


def _make_parser():
    parser = _Parser(prog="psan", description="scene-text recognizer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="config JSON for alphabet/length/render knobs")
    p.add_argument("--export-pgm", action="store_true", help="also write one PGM per sample")

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="config JSON path")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--log", help="metrics JSONL output path")
    p.add_argument("--manifest", help="train on an existing manifest instead of fresh draws")
    _add_override_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--transform", default="none", choices=TRANSFORMS)
    p.add_argument("--manifest", help="evaluate a manifest instead of fresh draws")
    p.add_argument("--count", type=int, default=64, help="synthetic eval set size")
    p.add_argument("--seed", type=int, default=1, help="synthetic eval set seed")

    p = sub.add_parser("infer", help="decode one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", help="binary PGM (P5) file")
    p.add_argument("--manifest", help="dataset manifest to draw the sample from")
    p.add_argument("--index", type=int, default=0, help="sample index within the manifest")

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0,
                   help="probe-point shift; 0 is the curated default")

    p = sub.add_parser("robustness", help="evaluate a checkpoint under every transform")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest")
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--seed", type=int, default=1)
    return parser


def _eval_dataset(args, cfg):
    if getattr(args, "manifest", None):
        return SyntheticDataset.from_manifest(args.manifest, opts=cfg.render_options())
    return SyntheticDataset(args.count, [args.seed, 2], cfg.alphabet,
                            min_len=cfg.label_min_len, max_len=cfg.label_max_len,
                            opts=cfg.render_options())


def _cmd_gen_data(args):
    cfg = ModelConfig.load(args.config) if args.config else ModelConfig()
    ds = SyntheticDataset(args.count, args.seed, cfg.alphabet,
                          min_len=cfg.label_min_len, max_len=cfg.label_max_len,
                          opts=cfg.render_options())
    os.makedirs(args.out, exist_ok=True)
    manifest = os.path.join(args.out, "manifest.tsv")
    ds.write_manifest(manifest)
    if args.export_pgm:
        ds.export_pgm(args.out)
    print(f"wrote {len(ds)} samples to {manifest}")
    return 0


def _cmd_train(args):
    cfg = _build_config(args)
    dataset = (SyntheticDataset.from_manifest(args.manifest, opts=cfg.render_options())
               if args.manifest else None)
    with open(args.log, "w", encoding="utf-8") if args.log else nullcontext() as log_file:
        def log_fn(line):
            text = json.dumps(line, sort_keys=True)
            print(text)
            if log_file:
                log_file.write(text + "\n")

        train(cfg, dataset=dataset, out_path=args.out, log_fn=log_fn)
    if args.out:
        print(f"checkpoint written to {args.out}")
    return 0


def _cmd_eval(args):
    model, cfg = load_checkpoint(args.checkpoint)
    res = evaluate(model, _eval_dataset(args, cfg), transform=args.transform)
    print(json.dumps({"transform": args.transform, "accuracy": res.accuracy,
                      "samples": len(res.labels)}, sort_keys=True))
    return 0


def _cmd_infer(args):
    model, cfg = load_checkpoint(args.checkpoint)
    if bool(args.image) == bool(args.manifest):
        raise CliError("infer needs exactly one of --image or --manifest")
    if args.image:
        raw = read_pgm(args.image)
    else:
        ds = SyntheticDataset.from_manifest(args.manifest, opts=cfg.render_options())
        if not 0 <= args.index < len(ds):
            raise CliError(f"index {args.index} out of range for {len(ds)} samples")
        raw = ds.raw(args.index)
    text = model.recognize(stack_images([preprocess(raw)]))[0]
    print(text)
    return 0


def _cmd_gradcheck(args):
    results = gradcheck_mod.run_all(seed=args.seed)
    failed = 0
    for name, err, tol in results:
        ok = err < tol
        failed += 0 if ok else 1
        print(f"{name:20s} max_rel_err={err:.3e} tol={tol:.0e} {'OK' if ok else 'FAIL'}")
    return 0 if failed == 0 else 1


def _cmd_robustness(args):
    model, cfg = load_checkpoint(args.checkpoint)
    dataset = _eval_dataset(args, cfg)
    base = None
    for name in TRANSFORMS:
        res = evaluate(model, dataset, transform=name)
        if name == "none":
            base = res.accuracy
        print(json.dumps({"transform": name, "accuracy": res.accuracy,
                          "delta_vs_none": res.accuracy - base}, sort_keys=True))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "gradcheck": _cmd_gradcheck,
    "robustness": _cmd_robustness,
}


def main(argv=None):
    mode = os.environ.get("PSAN_PRECISION", "f32")
    if mode not in ("f32", "f64"):
        print(f"error: PSAN_PRECISION must be f32 or f64, got {mode!r}", file=sys.stderr)
        return 2
    try:
        args = _make_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
