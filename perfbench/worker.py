"""One workload in a fresh interpreter: import, warm up, then timed passes.

Reads a spec (see ``workloads.make_spec`` and ``run.worker_spec``) as JSON
on stdin and writes one JSON result on stdout.  Modes:

* ``setup``: import the package and run the warm-up jobs, nothing more;
* ``measure``: then run passes over all jobs until the time budget is spent;
* ``trace``: measure untraced passes, then traced passes with every layer
  boundary wrapped (see ``tracing``), recording spans of the first one.

A pass is every job of the workload, in order; its wall time runs from the
first job's start to the last job's end.  Outputs are checked after the
pass, outside the timed region.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

from jobs import Runner
from workloads import reference_task

MAX_FAILURE_MESSAGES = 5


class Pass:
    """Outcome of one pass: wall time, failures, unit counts."""

    def __init__(self, runner: Runner, jobs: list[dict], job_offset: int = 0,
                 tracer=None):
        runner.start_pass()
        gc.collect()
        outputs = []
        clock = time.perf_counter
        start = clock()
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job_offset + k
            outputs.append(runner.run(job))
        self.wall_s = clock() - start
        self.failures = []
        self.units: dict[str, int] = {}
        for job, output in zip(jobs, outputs):
            message, units = runner.check(job, output)
            if message is not None:
                self.failures.append(message)
            for key, value in units.items():
                self.units[key] = self.units.get(key, 0) + value


def _time_reference(result) -> None:
    start = time.perf_counter()
    reference_task()
    result.setdefault("reference", []).append(time.perf_counter() - start)


def _run_passes(runner, jobs, budget_s, result, tracer=None, reference=False):
    """Passes until the next one would overrun ``budget_s``; with
    ``reference``, the reference task is timed after each pass."""
    deadline = time.perf_counter() + budget_s
    walls = []
    while True:
        if tracer is not None:
            tracer.recording = not walls and result.get("spans_path") is not None
        p = Pass(runner, jobs, len(walls) * len(jobs), tracer)
        walls.append(p.wall_s)
        result["attempted"] += len(jobs)
        result["failed"] += len(p.failures)
        result["failures"].extend(p.failures[:MAX_FAILURE_MESSAGES - len(result["failures"])])
        result.setdefault("units", p.units)
        if result["units"] != p.units:
            result["failed"] += 1
            result["failures"].append(f"unit counts changed between passes: {p.units}")
        if tracer is not None:
            result.setdefault("pass_calls", []).append(dict(tracer.calls))
            tracer.recording = False
        if reference:
            _time_reference(result)
        if time.perf_counter() + statistics.median(walls) > deadline:
            return walls


def main() -> None:
    spec = json.load(sys.stdin)
    result = {"attempted": 0, "failed": 0, "failures": [],
              "spans_path": spec.get("spans_path")}

    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import affinecrystal as ac
    from affinecrystal import cli

    runner = Runner(ac, cli)
    runner.prepare(spec["warmup"])
    for job in spec["warmup"]:
        result["attempted"] += 1
        message, _ = runner.check(job, runner.run(job))
        if message is not None:
            result["failed"] += 1
            result["failures"].append(f"warm-up: {message}")
    result["setup_s"] = time.perf_counter() - start
    # record before tracing swaps _backend.kernel for a wrapper
    result["backend"] = ac.backend_name()
    result["package"] = os.path.dirname(ac.__file__)

    mode = spec["mode"]
    jobs = spec["jobs"]
    if mode != "trace":
        # the host's speed right after set-up, to scale setup_s with
        _time_reference(result)
    if mode != "setup":
        runner.prepare(jobs)
    if mode == "measure" or (mode == "trace" and spec["budget_s"] > 0):
        result["passes"] = _run_passes(runner, jobs, spec["budget_s"], result,
                                       reference=mode == "measure")
    if mode == "trace":
        from tracing import Tracer, installed, layer_metrics

        tracer = Tracer()
        with installed(tracer, ac):
            traced = _run_passes(runner, jobs, spec["trace_budget_s"], result,
                                 tracer=tracer)
        # pass_calls holds cumulative counts; turn them into per-pass counts
        cumulative = result.pop("pass_calls")
        per_pass = [{k: c[k] - (cumulative[j - 1][k] if j else 0) for k in c}
                    for j, c in enumerate(cumulative)]
        if any(calls != per_pass[0] for calls in per_pass):
            result["failed"] += 1
            result["failures"].append("span call counts differ between traced passes")
        traced_wall = statistics.fmean(traced)
        result["traced_passes"] = traced
        result["calls"] = per_pass[0]
        result["layers"] = layer_metrics(tracer, len(traced), traced_wall)
        # work seen at the graphs.generate boundary, per pass
        result["units"]["generated_vertices"] = tracer.counts["vertices"] // len(traced)
        result["units"]["generated_edges"] = tracer.counts["edges"] // len(traced)
        if result["spans_path"]:
            result["spans_written"] = tracer.write_spans(result["spans_path"])

    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
