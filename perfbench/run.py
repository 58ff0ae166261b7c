"""Layered benchmark of affinecrystal's four user-facing workloads.

    python3 perfbench/run.py                      # every workload, end to end
    python3 perfbench/run.py --workload compare-psi --seed 3 --seconds 15 --trace 1

Run from the root of a source checkout; the package is imported from
``src/``, so nothing needs installing.  Each workload runs in fresh
interpreters, one at a time, single-threaded:

* ``--trace 0``: a few set-up-only interpreters (import plus warm-up job)
  give ``setup_s`` (their median); one more runs passes over the
  workload's jobs for ``--seconds`` and gives ``wall_s`` (mean pass time)
  and ``peak_rss_mb``.  Every interpreter also times a fixed reference
  task, and both times are scaled towards the host speed at which that
  task takes ``workloads.REFERENCE_S``; the measured values are printed
  too.
* ``--trace 1``: one interpreter times untraced passes, then traced passes
  with every layer boundary wrapped, and writes the spans of its first
  traced pass to ``perfbench/out/spans-<workload>.tsv``; a second one
  repeats a traced pass so the span call counts can be compared.

Every job's output is checked against an oracle (closed-form counts,
JSON reload, DOT line counts, crystal laws).  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every check passed, 1 when one failed, 2 when the
benchmark could not run (for one, when the checkout holds no package).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import SPANS
from workloads import REFERENCE_S, SPEED_EXPONENT, WORKLOADS, make_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# a run, all of its interpreters together, ends within this many seconds
RUN_TIMEOUT_S = 170
# shares of --seconds for the untraced and traced passes of a traced run
TRACE_SPLIT = (0.35, 0.45)


class BenchError(Exception):
    """The benchmark itself could not run (not a failed oracle)."""


def run_worker(spec: dict, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON result.

    The interpreter is killed, and waited for, if it runs past ``deadline``
    (a ``time.monotonic()`` value).
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout)
    if os.path.realpath(result["package"]) != os.path.realpath(os.path.join(SRC, "affinecrystal")):
        raise BenchError(f"measured the package at {result['package']}, not the one in {SRC}")
    return result


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                fields = line.split()
                if len(fields) == 2 and fields[1] == ref:
                    return fields[0]
    except OSError:
        pass
    return None


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


LAYER_METRICS = (
    [f"{span}.{kind}" for span in SPANS for kind in ("calls", "self_s")]
    + ["partition_crystal.op.null_ratio", "monomial_crystal.op.null_ratio",
       "graphs.new_ratio", "graphs.export.bytes", "partitions.enum.yielded",
       "other.self_s", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, spec: dict | None = None) -> dict:
    """Run one workload; returns failures, metrics, unit counts and run facts."""
    spec = spec or make_spec(workload, seed, tiny)
    base = {"src": SRC, "warmup": spec["warmup"], "jobs": spec["jobs"]}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workers = []
    out = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        # set-up samples before and after the measuring interpreter, so they
        # span the run rather than one moment of the host's load
        before = (spec["setup_samples"] - 1) // 2
        for _ in range(before):
            workers.append(run_worker({**base, "mode": "setup"}, deadline))
        main = run_worker({**base, "mode": "measure", "budget_s": seconds}, deadline)
        workers.append(main)
        for _ in range(spec["setup_samples"] - 1 - before):
            workers.append(run_worker({**base, "mode": "setup"}, deadline))
        # each set-up sample is scaled by the reference timed right after it
        setups = [w["setup_s"] for w in workers]
        scaled_setups = [w["setup_s"] * (REFERENCE_S / w["reference"][0]) ** SPEED_EXPONENT
                         for w in workers]
        wall, setup = statistics.fmean(main["passes"]), statistics.median(setups)
        speed = REFERENCE_S / statistics.fmean(main["reference"][1:])
        out["metrics"] = {
            "wall_s": (wall * speed ** SPEED_EXPONENT, "s"),
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (main["rss_mb"], "MB"),
        }
        out["samples"] = {"passes": len(main["passes"]), "setups": len(setups),
                          "references": len(main["reference"]) - 1,
                          "measured_wall_s": wall, "measured_setup_s": setup,
                          "host_speed": speed,
                          "pass_min_s": min(main["passes"]),
                          "pass_max_s": max(main["passes"])}
    else:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"spans-{workload}.tsv")
        untraced_s, traced_s = (share * seconds for share in TRACE_SPLIT)
        main = run_worker({**base, "mode": "trace", "budget_s": untraced_s,
                           "trace_budget_s": traced_s, "spans_path": spans_path},
                          deadline)
        again = run_worker({**base, "mode": "trace", "budget_s": 0, "trace_budget_s": 0},
                           deadline)
        workers += [main, again]
        if main["calls"] != again["calls"]:
            main["failed"] += 1
            diff = sorted(k for k in main["calls"] if main["calls"][k] != again["calls"][k])
            main["failures"].append(f"span call counts differ between two traced runs: {diff}")
        layers = dict(main["layers"])
        layers["trace.wall_s"] = statistics.fmean(main["traced_passes"])
        layers["trace.untraced_wall_s"] = statistics.fmean(main["passes"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        out["metrics"] = {name: (layers[name], layer_unit(name)) for name in LAYER_METRICS}
        out["samples"] = {"untraced_passes": len(main["passes"]),
                          "traced_passes": len(main["traced_passes"])}
        out["spans"] = {"path": os.path.relpath(spans_path, ROOT),
                        "count": main["spans_written"]}
    out["attempted"] = sum(w["attempted"] for w in workers)
    out["failed"] = sum(w["failed"] for w in workers)
    out["failures"] = [msg for w in workers for msg in w["failures"]][:10]
    out["units"] = main.get("units", {})
    backends = {w["backend"] for w in workers}
    out["facts"] = {
        "backend": backends.pop() if len(backends) == 1 else sorted(backends),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }
    return out


def report(out: dict) -> None:
    """Human-readable lines, then the run's record as one JSON line."""
    facts = out["facts"]
    print(f"workload {out['workload']}  seed {out['seed']}  seconds {out['seconds']}  "
          f"backend {facts['backend']}  python {facts['python']}  "
          f"nproc {facts['nproc']}  commit {facts['commit']}")
    s = out["samples"]
    notes = {}
    if not out["trace"]:
        notes = {
            "wall_s": f"mean of {s['passes']} passes, measured {s['measured_wall_s']:.4f} s, "
                      f"min {s['pass_min_s']:.4f}, max {s['pass_max_s']:.4f}",
            "setup_s": f"median of {s['setups']} fresh interpreters, "
                       f"measured {s['measured_setup_s']:.4f} s",
        }
        print(f"  host speed {s['host_speed']:.4f}: the reference task took "
              f"{REFERENCE_S / s['host_speed']:.4f} s (mean of {s['references']}); "
              f"times below are scaled by speed ** {SPEED_EXPONENT}")
    else:
        print(f"  traced passes {s['traced_passes']}, untraced passes {s['untraced_passes']}, "
              f"{out['spans']['count']} spans of the first traced pass in {out['spans']['path']}")
    for name, (value, unit) in out["metrics"].items():
        if out["trace"] and value == 0:
            continue
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {unit:<6}{note}")
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"  {'fail_ratio':<34} {ratio:>14.6g} ratio  "
          f"({out['failed']} of {out['attempted']} jobs failed)")
    if out["trace"]:
        total = sum(v for k, (v, _) in out["metrics"].items()
                    if k.endswith(".self_s"))
        print(f"  sum of self_s {total:.6f} s, traced wall {out['metrics']['trace.wall_s'][0]:.6f} s")
    print("  units: " + " ".join(f"{k}={v}" for k, v in sorted(out["units"].items())))
    for message in out["failures"]:
        print(f"  FAILED: {message}")
    record = {k: out[k] for k in ("workload", "seed", "trace", "facts", "units",
                                  "samples", "attempted", "failed")}
    print(json.dumps({"record": record}))


def result_line(outs: list[dict]) -> dict:
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    prefix = len(outs) > 1
    metrics = {
        (f"{o['workload']}/{name}" if prefix else name): {"value": value, "unit": unit}
        for o in outs for name, (value, unit) in o["metrics"].items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affinecrystal", "__init__.py")):
        print(f"error: no affinecrystal package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    outs = []
    try:
        for name in names:
            out = measure(name, args.seed, args.seconds, bool(args.trace))
            report(out)
            outs.append(out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = result_line(outs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
