"""psan benchmark: one workload per invocation, run as a closed loop.

    python3 perfbench/run.py --workload W|all --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see README.md for why each):

    train-b16   train() on the default ModelConfig, checkpoints written
    infer-b1    render, preprocess and recognize one held-out word per call
    infer-b16   the same with 16 words per call

A single client in one worker process sends its next call when the last one
returns. BLAS runs on BLAS_THREADS threads. The seed sets ModelConfig.seed
(model init and corpus) and picks the held-out words.

--trace 0 prints the end-to-end metrics, measured with tracing off and
scaled to a nominal host speed (see end_to_end): setup_s (median over
SETUP_SAMPLES process starts), images_per_s, latency_ms_p50, latency_ms_tail
and peak_rss_mb, plus failed_ratio.
--trace 1 runs the workload with every layer wrapped by tracer.py and prints
the per-layer metrics; the spans go to perfbench/out/.

Every run writes its run record (machine, versions, seed, metrics) to
perfbench/out/<workload>-seed<N>-trace<T>.json. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("train-b16", "infer-b1", "infer-b16")
BLAS_THREADS = 1        # one core, as the paper trains; fixed so runs compare
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170      # the whole run, every worker included
MAX_SELF_SUM_ERROR = 0.01
TAIL_BEYOND = 10        # samples beyond the tail percentile
REF_S = 0.004           # nominal time of worker.reference_s(); see end_to_end

UNITS = (("_ms", "ms"), ("_s", "s"), ("mb", "MB"), ("_ratio", "ratio"),
         ("_error", "ratio"))


class BenchError(Exception):
    pass


def unit_of(name):
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args, deadline):
    """Run one worker; return (seconds from start to READY, RESULT or None)."""
    t0 = time.time()
    started = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args, "--t0", repr(t0)],
                            stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line == "READY\n":
                ready = perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="")
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:3])} exited with code {proc.returncode}")
    return ready, result


def tail(sorted_vals):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    and that percentile. Short runs fall back to the median."""
    n = len(sorted_vals)
    i = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return sorted_vals[i], 100.0 * (i + 1) / n


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def timings(passes, setup_samples, scale):
    """setup_s, images_per_s and the latency percentiles, each pass and each
    process start scaled by scale(its reference time)."""
    lat = sorted(1e3 * x * scale(p["ref_s"]) for p in passes for x in p["latencies_s"])
    wall = sum(p["wall_s"] * scale(p["ref_s"]) for p in passes)
    return {"setup_s": statistics.median(t * scale(r) for t, r in setup_samples),
            "images_per_s": sum(p["images"] for p in passes) / wall,
            "latency_ms_p50": statistics.median(lat),
            "latency_ms_tail": tail(lat)[0]}, lat


def end_to_end(res, setup_samples):
    """Timings scaled to a host on which worker.reference_s() takes REF_S.

    Other tenants of a shared host slow whole seconds of a run, by up to 1.7x
    on the host this was written on, and runs minutes apart see different
    slowdowns. Each pass and each process start is therefore scaled by REF_S
    over the reference time measured next to it. The raw values are printed
    and kept in the run record."""
    corrected, lat = timings(res["passes"], setup_samples, lambda r: REF_S / r)
    raw, _ = timings(res["passes"], setup_samples, lambda r: 1.0)
    units = {"setup_s": "s", "images_per_s": "1/s", "latency_ms_p50": "ms",
             "latency_ms_tail": "ms"}
    metrics = {name: (value, units[name]) for name, value in corrected.items()}
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    _, tail_pct = tail(lat)
    refs = [p["ref_s"] for p in res["passes"]]
    notes = {name: f"raw {value:.4f}" for name, value in raw.items()}
    notes["setup_s"] += f"; median of {len(setup_samples)} process starts"
    notes["images_per_s"] += f"; {sum(p['images'] for p in res['passes'])} images"
    notes["latency_ms_p50"] += f"; {len(lat)} calls, reference {1e3 * min(refs):.2f}-" \
                               f"{1e3 * max(refs):.2f} ms against {1e3 * REF_S:.2f}"
    beyond = len(lat) - round(tail_pct * len(lat) / 100)
    notes["latency_ms_tail"] += f"; p{tail_pct:.1f}, {beyond} of {len(lat)} calls beyond"
    notes["peak_rss_mb"] = "ru_maxrss of the worker"
    return metrics, notes, {"raw": raw, "pass_ref_s": refs, "pass_wall_s": [p["wall_s"] for p in res["passes"]],
                            "setup_samples_s": setup_samples}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "psan" / "__init__.py").is_file():
        print(f"perfbench: no psan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run(argparse.Namespace(**{**vars(args), "workload": workload}))
    return 0


def run(args):
    """Run one workload and print its metrics, run record and result line."""
    deadline = perf_counter() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        base += ["--tmp", tmp]
        if args.workload.startswith("infer"):
            spawn(base + ["--mode", "prepare"], deadline)
        if args.trace:
            spans = OUT / f"{tag}.spans.jsonl"
            _, res = spawn(base + ["--mode", "trace", "--spans", str(spans)], deadline)
        else:
            setup_samples = []
            for _ in range(SETUP_SAMPLES - 1):
                ready, probe = spawn(base + ["--mode", "setup"], deadline)
                setup_samples.append((ready, probe["ref_s"]))
            ready, res = spawn(base + ["--mode", "timed"], deadline)
            setup_samples.append((ready, res["passes"][0]["ref_s"]))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "numpy": res["numpy"], "python": res["python"], "platform": platform.platform(),
        "machine": platform.machine(), "processor": platform.processor(),
        "git_commit": git_commit(), "checks": res["checks"],
        "decoder_steps_per_call": res["decoder_steps"],
        "setup_breakdown": res["setup"],
    }
    record.update({k: res[k] for k in ("final_loss", "outputs_sha256") if k in res})
    correct = res["failed"] == 0 and res["attempted"] >= 1
    if args.trace:
        layers = res["layers"]
        correct = (correct and res["steps_match"]
                   and layers["trace.self_sum_error"] <= MAX_SELF_SUM_ERROR)
        metrics = {k: (v, unit_of(k)) for k, v in sorted(layers.items())}
        notes = {"trace.self_sum_error": f"largest |sum of layer self times - wall| / wall "
                                         f"over traced calls; must stay <= {MAX_SELF_SUM_ERROR}",
                 "decoder.steps": f"traced GRU steps match the outputs: {res['steps_match']}"}
        record["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics, notes, detail = end_to_end(res, setup_samples)
        record.update(detail)
    failed_ratio = res["failed"] / max(1, res["attempted"])

    print(f"{args.workload} seed {args.seed}: {res['attempted']} calls, {res['failed']} failed, "
          f"BLAS threads {BLAS_THREADS}, nproc {record['nproc']}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<32} {value:14.4f} {unit:<6} {note}")
    print(f"  {'failed_ratio':<32} {failed_ratio:14.4f} {'ratio':<6} "
          f"{res['failed']}/{res['attempted']}; checks passed: {res['checks']}")
    print("setup breakdown: " + ", ".join(f"{k} {v:.4f}" for k, v in res["setup"].items()))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failed_ratio"] = failed_ratio
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"run record: {(OUT / f'{tag}.json').relative_to(ROOT)} "
          + json.dumps({k: v for k, v in record.items() if not isinstance(v, (list, dict))}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
