"""Smoke pass over the benchmark itself.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes one short untraced run and
one short traced run, and asserts that the last stdout line is the result
object, that every declared metric appears with its declared unit, that
no call failed, and that each output check ran. It then copies only
BENCHMARK.json and perfbench/ into perfbench/out/ and asserts that the
benchmark fails there without printing a result. Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 3  # long enough for infer runs to revisit a held-out word
RECORD_KEYS = ("nproc", "blas_threads", "numpy", "python", "git_commit", "seed")


def run(cwd, workload, trace, seconds=SECONDS):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(bench, workload, trace):
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, f"{workload} trace {trace} exited {out.returncode}:\n{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    assert "failed_ratio" in out.stdout

    record = json.loads((HERE / "out" / f"{workload}-seed7-trace{trace}.json").read_text())
    missing = [k for k in RECORD_KEYS if k not in record]
    assert not missing, f"run record lacks {missing}"
    assert record["checks"] and all(n > 0 for n in record["checks"].values()), record["checks"]
    if trace:
        assert (ROOT / record["spans"]).is_file()
    print(f"ok  {workload:<10} trace {trace}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} calls, checks {record['checks']}")


def check_without_program(bench):
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = run(bare, bench["workloads"][0]["name"], 0, seconds=1)
        assert out.returncode != 0, "benchmark succeeded without the program"
        last = (out.stdout.strip().splitlines() or [""])[-1]
        assert not last.startswith("{"), "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare)
    print("ok  without src/: exit code", out.returncode)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_without_program(bench)
    print("selftest passed")


if __name__ == "__main__":
    main()
