"""One benchmark process: set a workload up, run it as a closed loop, report.

run.py starts this file once per process it needs:

    worker.py WORKLOAD --seed N --mode MODE --seconds S --tmp DIR --t0 T [--spans FILE]

MODE is ``prepare`` (write the infer checkpoint), ``setup`` (set up, print
READY and exit), ``timed`` (set up, then run untraced units for S seconds)
or ``trace`` (set up with every layer wrapped, then alternate untraced and
traced units, and write the spans to FILE). DIR holds the checkpoints. T is
the wall-clock time at which run.py started the process, so the import phase
includes interpreter start-up. The last stdout line is ``RESULT <json>``.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import tracemalloc
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import psan
from psan import checkpoint, data
from psan.config import ModelConfig
from psan.data import RenderOptions, SyntheticDataset
from psan.model import stack_images

import tracer as tr

TRAIN = sys.modules["psan.train"]  # `psan.train` itself names the function
SRC = Path(psan.__file__).resolve().parent
HELD_OUT = 64         # held-out words an infer run cycles through
MAX_TRACED = 64       # traced units per trace run, bounding the span file
EOS_BIAS = -1e4       # see Infer.prepare


@dataclass
class Unit:
    """What one unit of work did: a train() call or one infer request."""
    k: int                     # unit index; traced spans carry it in their request id
    wall: float
    latencies: list            # seconds per call: train step or infer request
    images: int
    attempted: int
    failed: int
    steps: list                # decoder GRU steps per call
    stamps: list = field(default_factory=list)  # train: perf_counter at each step end
    start: float = 0.0


def log_failure(what):
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


class Train:
    """train() on the default ModelConfig, with checkpoints in a temporary directory."""

    units_per_pass = 1  # a pass is one whole train() call

    def __init__(self, seed, tmp):
        self.cfg = ModelConfig(seed=seed)
        self.ckpt = os.path.join(tmp, "train.ckpt")
        self.reference = None      # losses of the first timed call
        self.checks = {"loss_finite": 0, "loss_decreased": 0, "replay": 0}

    def setup_data(self):
        self.dataset = TRAIN.dataset_from_config(self.cfg)
        for i in range(len(self.dataset)):
            self.dataset.image(i)
        # (images, decoder steps) of every step, in train()'s batch order
        order_rng = np.random.default_rng([self.cfg.seed, 17])
        n, bs = len(self.dataset), self.cfg.batch_size
        self.shapes = []
        for _ in range(self.cfg.epochs):
            order = order_rng.permutation(n)
            for s in range(0, n, bs):
                labels = [self.dataset.label(int(i)) for i in order[s:s + bs]]
                self.shapes.append((len(labels), max(len(l) for l in labels) + 1))

    def first_call(self):
        TRAIN.train(replace(self.cfg, max_steps=1), dataset=self.dataset,
                    out_path=self.ckpt)

    def unit(self, k, tracer=None):
        stamps, losses = [], []

        def log(line):
            stamps.append(perf_counter())
            losses.append(line["loss"])
            if tracer is not None:
                tracer.request = (k, line["step"])

        if tracer is not None:
            tracer.request = (k, 0)
        start = perf_counter()
        try:
            TRAIN.train(self.cfg, dataset=self.dataset, out_path=self.ckpt, log_fn=log)
            raised = False
        except Exception:
            log_failure("train()")
            raised = True
        end = perf_counter()
        finite = [math.isfinite(v) for v in losses]
        self.checks["loss_finite"] += sum(finite)
        decreased = len(losses) >= 2 and losses[-1] < losses[0]
        self.checks["loss_decreased"] += decreased
        if self.reference is None and not raised:
            self.reference = losses
        replayed = losses == self.reference
        self.checks["replay"] += replayed
        bad_call = raised or not decreased or not replayed
        failed = sum(bad_call or not f for f in finite) + raised
        shapes = self.shapes[:len(losses)]
        return Unit(k=k, wall=end - start, latencies=np.diff([start] + stamps).tolist(),
                    images=sum(s[0] for s in shapes), attempted=len(losses) + raised,
                    failed=failed,
                    steps=[s[1] for s in shapes], stamps=stamps, start=start)

    def peak_mb(self):
        """tracemalloc peak within the second step of a train() call: memory
        the call holds then (model state, the tape, the arrays its backward
        closures keep) at its highest."""
        peaks = []

        def log(line):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            TRAIN.train(replace(self.cfg, max_steps=2), dataset=self.dataset,
                        out_path=self.ckpt, log_fn=log)
        finally:
            tracemalloc.stop()
        return peaks[-1] / 2 ** 20

    def record(self):
        return {"final_loss": self.reference[-1] if self.reference else None}


class Infer:
    """Render held-out words, preprocess them and recognize them in batches."""

    def __init__(self, seed, batch, tmp):
        self.cfg = ModelConfig(seed=seed)
        self.batch = batch
        self.ckpt = os.path.join(tmp, f"infer-seed{seed}.ckpt")
        self.decoded = {}          # pool index -> text of its first decode
        self.checks = {"charset": 0, "length": 0, "stable": 0}
        self.units_per_pass = HELD_OUT // batch  # a pass decodes every held-out word once

    def prepare(self):
        """Save the seeded model. Its end-of-sequence bias is pushed far down
        so greedy decoding runs the full max_length steps on every image.
        Left untrained, the seeded model stops after 2 steps on some seeds
        and runs all 25 on others, which would make the work of a request
        depend on the seed."""
        model = psan.TextRecognizer(self.cfg)
        dict(model.state_entries())["model.dec.cls.bias"][model.charset.eos] = EOS_BIAS
        checkpoint.save_checkpoint(self.ckpt, model)

    def load(self):
        self.model, _ = checkpoint.load_checkpoint(self.ckpt)
        self.model.eval()

    def setup_data(self):
        opts = RenderOptions(noise=self.cfg.noise, shear_deg=self.cfg.shear_deg)
        pool = SyntheticDataset(HELD_OUT, [self.cfg.seed, 2], self.cfg.alphabet,
                                min_len=self.cfg.label_min_len,
                                max_len=self.cfg.label_max_len, opts=opts)
        self.opts = opts
        self.pool = [(label, seed) for _, label, seed in pool.records]

    def first_call(self):
        self.unit(0)

    def unit(self, k, tracer=None):
        idxs = [(k * self.batch + j) % len(self.pool) for j in range(self.batch)]
        if tracer is not None:
            tracer.request = (k,)
            root = tracer.begin("infer.request", "request")
        start = perf_counter()
        try:
            imgs = [data.preprocess(data.render_word(*self.pool[i], self.opts)) for i in idxs]
            texts = self.model.recognize(stack_images(imgs))
        except Exception:
            log_failure("recognize")
            texts = None
        end = perf_counter()
        if tracer is not None:
            tracer.end(root)
        failed = texts is None or not self._check(idxs, texts)
        steps = 0 if texts is None else min(self.cfg.max_length,
                                            max(len(t) + 1 for t in texts))
        return Unit(k=k, wall=end - start, latencies=[end - start], images=len(idxs),
                    attempted=1, failed=int(failed), steps=[steps], start=start)

    def _check(self, idxs, texts):
        ok = len(texts) == len(idxs)
        chars = set(self.model.charset.chars)
        for i, text in zip(idxs, texts):
            in_charset = set(text) <= chars
            short = len(text) <= self.cfg.max_length
            self.checks["charset"] += in_charset
            self.checks["length"] += short
            if i in self.decoded:
                stable = self.decoded[i] == text
                self.checks["stable"] += stable
            else:
                self.decoded[i] = text
                stable = True
            ok = ok and in_charset and short and stable
        return ok

    def peak_mb(self):
        tracemalloc.start()
        try:
            self.unit(0)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def record(self):
        texts = "\n".join(self.decoded[i] for i in sorted(self.decoded))
        return {"outputs_sha256": hashlib.sha256(texts.encode()).hexdigest()}


def make_workload(name, seed, tmp):
    if name == "train-b16":
        return Train(seed, tmp)
    if name == "infer-b1":
        return Infer(seed, 1, tmp)
    if name == "infer-b16":
        return Infer(seed, 16, tmp)
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def setup(workload, tracer, t0):
    """Set the workload up inside spans of layer 'setup'; return the breakdown."""
    now = perf_counter()
    imported = now - (time.time() - t0)
    tracer.request = "setup"
    tracer.spans.append(["setup.import", "setup", imported, now, None, "setup"])
    phases = [("setup.data", workload.setup_data),
              ("setup.first_call", workload.first_call)]
    if isinstance(workload, Infer):
        phases.insert(0, ("setup.load", workload.load))
    for name, fn in phases:
        i = tracer.begin(name, "setup")
        fn()
        tracer.end(i)
    tracer.add_root("setup", imported, perf_counter(), "setup")

    spans = tracer.spans
    dur = {s[tr.NAME]: s[tr.END] - s[tr.START] for s in spans if s[tr.LAYER] == "setup"}
    builds = {}  # setup phase -> build time inside it
    for s in spans:
        if s[tr.LAYER] == "build":
            p = s[tr.PARENT]
            while spans[p][tr.LAYER] != "setup":
                p = spans[p][tr.PARENT]
            builds[spans[p][tr.NAME]] = builds.get(spans[p][tr.NAME], 0.0) + s[tr.END] - s[tr.START]
    out = {"setup.import_s": dur["setup.import"],
           "setup.build_s": sum(builds.values()),
           "setup.data_s": dur["setup.data"],
           "setup.first_call_s": dur["setup.first_call"] - builds.get("setup.first_call", 0.0)}
    if "setup.load" in dur:
        out["checkpoint.load_ms"] = 1e3 * (dur["setup.load"] - builds.get("setup.load", 0.0))
    return out


def reference_s():
    """Host speed probe: best of three runs of a fixed kernel of small GEMMs,
    elementwise numpy and plain Python that calls no psan code. On a shared
    host, other tenants slow it about as much as they slow the workloads."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 256)).astype(np.float32)
    w = rng.standard_normal((256, 256)).astype(np.float32)
    x = rng.standard_normal((16, 8, 32, 64)).astype(np.float32)
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        for _ in range(5):
            h = a
            for _ in range(4):
                h = np.maximum(h @ w * 0.05, 0)
            (x - x.mean(axis=(0, 2, 3), keepdims=True)) * 1.1
            d = {}
            for i in range(200):
                d[i] = i * 2
        best = min(best, perf_counter() - start)
    return best


def run_timed(workload, seconds):
    """Run whole passes until `seconds` have passed, probing host speed at
    every pass boundary. Returns one dict per pass."""
    n = workload.units_per_pass
    units, refs = [], [reference_s()]
    deadline = perf_counter() + seconds
    while not units or perf_counter() < deadline or len(units) % n:
        units.append(workload.unit(len(units) + 1))
        if len(units) % n == 0:
            refs.append(reference_s())
    return [{"latencies_s": [x for u in units[i:i + n] for x in u.latencies],
             "wall_s": sum(u.wall for u in units[i:i + n]),
             "images": sum(u.images for u in units[i:i + n]),
             "ref_s": (refs[i // n] + refs[i // n + 1]) / 2}
            for i in range(0, len(units), n)], units


def run_traced(workload, tracer, seconds):
    """Alternate untraced and traced units on the same input. Returns the
    untraced and the traced units."""
    half = perf_counter() + seconds / 2
    plain, traced = [], []
    k = 1
    while not traced or (perf_counter() < half and len(traced) < MAX_TRACED):
        tracer.restore()
        plain.append(workload.unit(k))
        tracer.install()
        traced.append(workload.unit(k, tracer))
        k += 1
    tracer.restore()
    return plain, traced


def layer_metrics(workload, tracer, traced):
    """Per-call averages of every per-layer metric from the traced units."""
    spans = tracer.spans
    if isinstance(workload, Train):
        for u in traced:  # step 1 starts at train() entry, as in untraced runs
            ends = u.stamps
            for step, (lo, hi) in enumerate(zip([u.start] + ends[:-1], ends)):
                tracer.add_root("train.step", lo, hi, (u.k, step))
            tracer.add_root("train.tail", ends[-1], u.start + u.wall, (u.k, len(ends)))
    spans = tracer.spans
    selfs = tr.self_times(spans)
    roots = tr.root_of(spans)
    calls = [i for i, s in enumerate(spans)
             if s[tr.LAYER] == "request" and s[tr.NAME] != "train.tail" and s[tr.REQUEST] != "setup"]
    all_roots = [i for i, s in enumerate(spans) if s[tr.PARENT] is None]
    n = len(calls)
    in_calls = set(calls)
    dur, cnt, by_layer, steps = Counter(), Counter(), Counter(), Counter()
    for s, r in zip(spans, roots):
        if r in in_calls:
            key = (s[tr.LAYER], s[tr.NAME])
            dur[key] += s[tr.END] - s[tr.START]
            cnt[key] += 1
            by_layer[s[tr.LAYER]] += s[tr.END] - s[tr.START]
            if key == ("ops", "gru_cell"):
                steps[r] += 1

    def ms(seconds):
        return 1e3 * seconds / n

    m = {}
    for op in tr.OPS:
        m[f"ops.{op}.fwd_ms"] = ms(dur["ops", op])
        m[f"ops.{op}.bwd_ms"] = ms(dur["ops.bwd", op])
        m[f"ops.{op}.calls"] = cnt["ops", op] / n
    m["tensor.backward_ms"] = ms(dur["tensor", "backward"])
    m["tensor.optimizer_ms"] = ms(dur["tensor", "adadelta_step"] + dur["tensor", "zero_grad"])
    stats = tracer.tape_stats or [(0, 0)]
    m["tensor.tape_nodes"] = sum(s[0] for s in stats) / len(stats)
    m["tensor.tape_output_mb"] = sum(s[1] for s in stats) / len(stats) / 2 ** 20
    for layer in ("stem", "rs", "vab", "fusion", "transition"):
        m[f"encoder.{layer}_ms"] = ms(by_layer[f"encoder.{layer}"])
    m["encoder.fwd_ms"] = ms(by_layer["encoder"])
    m["merging.fwd_ms"] = ms(by_layer["merging"])
    m["decoder.fwd_ms"] = ms(by_layer["decoder"])
    m["decoder.steps"] = cnt["ops", "gru_cell"] / n
    m["data.render_ms"] = ms(dur["data", "render_word"])
    m["data.preprocess_ms"] = ms(dur["data", "preprocess"])
    # data.wait_ms: the part of a call outside the model and its build,
    # backward, the optimizer, checkpoint writes, rendering, preprocessing
    # and the tracer.
    work = sum(s[tr.END] - s[tr.START] for s in spans
               if s[tr.PARENT] in in_calls
               and (s[tr.LAYER] in ("model", "build", "tensor", "checkpoint", "trace")
                    or s[tr.NAME] in ("render_word", "preprocess")))
    wall = sum(spans[c][tr.END] - spans[c][tr.START] for c in calls)
    m["data.wait_ms"] = ms(wall - work)
    saves = [s[tr.END] - s[tr.START] for s in spans
             if s[tr.NAME] == "save_checkpoint" and s[tr.REQUEST] != "setup"]
    m["checkpoint.save_ms"] = 1e3 * sum(saves) / len(saves) if saves else 0.0

    by_root = tr.layer_self_times(spans, selfs, roots, all_roots)
    per_layer = Counter()
    for r in calls:
        for layer, t in by_root[r].items():
            per_layer[layer] += t / n
    setup_root = next(i for i in all_roots if spans[i][tr.REQUEST] == "setup")
    return m, {
        "self_sum_error": tr.check_sums(spans, by_root),
        "layer_self_s": per_layer,
        "call_wall_s": wall / n,
        "setup_layer_self_s": by_root[setup_root],
        "steps_match": [steps[r] for r in calls] == [s for u in traced for s in u.steps],
    }


def write_spans(path, spans):
    t0 = min(s[tr.START] for s in spans)
    with open(path, "w", encoding="utf-8") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({"id": i, "name": s[tr.NAME], "layer": s[tr.LAYER],
                                "start_ms": round(1e3 * (s[tr.START] - t0), 4),
                                "end_ms": round(1e3 * (s[tr.END] - t0), 4),
                                "parent": s[tr.PARENT], "request": s[tr.REQUEST]}) + "\n")


def print_table(title, layers, wall):
    print(f"{title} (self time by layer, total {1e3 * wall:.2f} ms)")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {1e3 * t:10.3f} ms {100 * t / wall:6.1f}%")


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("prepare", "setup", "timed", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--t0", type=float, default=time.time())
    args = ap.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.tmp)
    if args.mode == "prepare":
        workload.prepare()
        return
    tracer = tr.Tracer()
    if args.mode == "trace":
        tracer.install()
    else:
        tracer.install_build()
    breakdown = setup(workload, tracer, args.t0)
    print("READY", flush=True)
    if args.mode == "setup":
        print("RESULT " + json.dumps({"ref_s": reference_s()}), flush=True)
        return
    model = tracer.last_built
    result = {"setup": breakdown,
              "model.params": sum(p.value.data.size for p in model.params()),
              "repo.src_lines": src_lines(),
              "numpy": np.__version__,
              "python": sys.version.split()[0]}

    if args.mode == "timed":
        tracer.restore()
        result["passes"], units = run_timed(workload, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer.tape_stats.clear()
        plain, traced = run_traced(workload, tracer, args.seconds)
        units = plain + traced
        metrics, extra = layer_metrics(workload, tracer, traced)
        metrics.update(breakdown)
        metrics.setdefault("checkpoint.load_ms", 0.0)
        metrics["checkpoint.mb"] = os.path.getsize(workload.ckpt) / 2 ** 20
        metrics["tensor.traced_peak_mb"] = workload.peak_mb()
        metrics["model.params"] = result["model.params"]
        metrics["repo.src_lines"] = result["repo.src_lines"]
        metrics["trace.overhead_ratio"] = (sum(u.wall for u in traced)
                                           / sum(u.wall for u in plain))
        metrics["trace.self_sum_error"] = extra["self_sum_error"]
        result["layers"] = metrics
        result["steps_match"] = extra["steps_match"]
        print_table(f"{args.workload}: mean traced call", extra["layer_self_s"],
                    extra["call_wall_s"])
        setup_layers = extra["setup_layer_self_s"]
        print_table(f"{args.workload}: cold start, process start to READY", setup_layers,
                    sum(setup_layers.values()))
        write_spans(args.spans, tracer.spans)

    result.update({
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "decoder_steps": sum(s for u in units for s in u.steps) / sum(len(u.steps) for u in units),
        "checks": workload.checks,
        **workload.record(),
    })
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
