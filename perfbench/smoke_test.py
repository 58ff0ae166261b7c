"""Smoke test of the benchmark itself, at tiny sizes, in a few seconds.

    python3 perfbench/smoke_test.py

For every workload it checks that:

* untraced and traced runs pass every oracle and print exactly the metric
  names listed in BENCHMARK.json;
* the traced run's self times, ``other.self_s`` included, add up to its
  traced wall time;
* a corrupted expected value (for ``laws``, a monomial outside the
  component where the inverse laws hold) is reported as a failure.

It also checks that the benchmark refuses to run, with a nonzero exit and
no result line, in a directory holding only the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

# n = 4, i = 2: f acts through A(2,11)^-1 but e then acts through A(2,10)
OUTSIDE_COMPONENT = [[2, -2, 1], [2, 10, 3], [2, 11, -2], [2, 12, -3]]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def corrupt(spec: dict) -> None:
    """Make one expected value (or one law input) wrong."""
    job = spec["jobs"][0]
    if spec["workload"] == "laws":
        job = next(case for case in spec["jobs"] if case["n"] == 4)
        job.update(i=2, reachable=OUTSIDE_COMPONENT)
    elif spec["workload"] == "graph-export":
        job["expect"]["vertices"] += 1
    else:
        job["expect"]["stdout"] = "0 " + job["expect"]["stdout"]


def check_workload(name: str, bench: dict) -> None:
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]

    out = run.measure(name, 1, 0.2, trace=False, tiny=True)
    check(out["attempted"] > 0 and out["failed"] == 0,
          f"{name}: untraced run failed: {out['failures']}")
    check(list(out["metrics"]) == end_to_end, f"{name}: end-to-end metric names")

    out = run.measure(name, 1, 0.2, trace=True, tiny=True)
    check(out["failed"] == 0, f"{name}: traced run failed: {out['failures']}")
    check(list(out["metrics"]) == per_layer, f"{name}: per-layer metric names")
    metrics = {k: v for k, (v, _) in out["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    check(abs(self_total - metrics["trace.wall_s"]) <= 1e-9 * max(1.0, self_total),
          f"{name}: self times add to {self_total}, traced wall is {metrics['trace.wall_s']}")

    spec = workloads.make_spec(name, 1, tiny=True)
    corrupt(spec)
    out = run.measure(name, 1, 0.2, trace=False, spec=spec)
    check(out["failed"] > 0, f"{name}: corrupted expectation went unnoticed")
    print(f"ok {name}: {out['failures'][0][:100]}")


def check_bare_directory() -> None:
    bare = os.path.join(run.HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "count", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("ok bare directory: " + proc.stderr.strip().splitlines()[-1])


def main() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads")
    for name in workloads.WORKLOADS:
        check_workload(name, bench)
    check_bare_directory()
    print("smoke test passed")


if __name__ == "__main__":
    main()
