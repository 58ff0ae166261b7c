"""Run one benchmark job through the package's public entry points and check it.

CLI jobs call ``cli.main(argv)`` with stdout and stderr captured; law jobs
call public library functions.  Every call goes through a module attribute
looked up at call time, so a traced run can wrap those attributes.  The
package modules are passed in, which keeps importing this file free of
package imports and so out of the measured set-up time.
"""

from __future__ import annotations

import contextlib
import io

from workloads import LAW_ARM_HORIZON


class Runner:
    """Executes jobs of one workload and checks their outputs."""

    def __init__(self, ac, cli):
        self.ac = ac
        self.cli = cli
        self.refs = {}
        self.arms = {}

    def prepare(self, jobs: list[dict]) -> None:
        """Untimed: convert inputs to their final form, build reference graphs."""
        ac = self.ac
        for job in jobs:
            if job["kind"] == "law":
                job["parts"] = tuple(job["parts"])
                job["regular"] = tuple(job["regular"])
                job["reachable"] = {(i, k): u for i, k, u in job["reachable"]}
                job["arbitrary"] = {(i, k): u for i, k, u in job["arbitrary"]}
            elif job["expect"].get("format") == "json":
                e = job["expect"]
                key = (e["model"], e["n"], e["depth"], e["arm"])
                if key not in self.refs:
                    a = (ac.arm_from_descriptor(e["n"], e["arm"])
                         if e["model"] == "partition" else None)
                    self.refs[key] = ac.generate_graph(e["model"], e["n"], e["depth"], a)

    def start_pass(self) -> None:
        self.arms = {}

    def run(self, job: dict):
        if job["kind"] == "law":
            return self._run_law(job)
        out, err = io.StringIO(), io.StringIO()
        reloaded = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(job["argv"])
            if job["expect"].get("format") == "json" and code == 0:
                reloaded = self.ac.graph_from_json(out.getvalue())
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is a failed job, not a dead run
            code = repr(exc)
        return code, out.getvalue(), err.getvalue(), reloaded

    def _arm(self, n: int, seed: int | None):
        key = (n, seed)
        a = self.arms.get(key)
        if a is None:
            a = (self.ac.horizontal_arm(n) if seed is None
                 else self.ac.random_arm(n, LAW_ARM_HORIZON, seed))
            self.arms[key] = a
        return a

    def _run_law(self, case: dict):
        """Evaluate every law of one case; returns (checks made, laws broken)."""
        ac = self.ac
        n, i = case["n"], case["i"]
        broken = []
        checks = 0
        try:
            a = self._arm(n, case["arm_seed"])
            lam = ac.Partition(case["parts"])
            down = ac.f_down(lam, i, a)
            if down is not None:
                checks += 1
                if ac.e_up(down, i, a) != lam:
                    broken.append("partition e(f(x)) = x")
            up = ac.e_up(lam, i, a)
            if up is not None:
                checks += 1
                if ac.f_down(up, i, a) != lam:
                    broken.append("partition f(e(x)) = x")

            m = ac.Monomial(n, case["reachable"])
            down = ac.f_m(m, i)
            if down is not None:
                checks += 1
                if ac.e_m(down, i) != m:
                    broken.append("monomial e(f(x)) = x")
            up = ac.e_m(m, i)
            if up is not None:
                checks += 1
                if ac.f_m(up, i) != m:
                    broken.append("monomial f(e(x)) = x")

            x = ac.Monomial(n, case["arbitrary"])
            checks += 2
            if ac.f_m(x, i) != ac.f_m(x, i, "bracket"):
                broken.append("f analytic = bracket")
            if ac.e_m(x, i) != ac.e_m(x, i, "bracket"):
                broken.append("e analytic = bracket")

            checks += 1
            if not ac.check_intertwining(ac.Partition(case["regular"]), i, n).ok:
                broken.append("intertwining")
        except Exception as exc:  # a crash is a broken law, not a dead run
            broken.append(repr(exc))
        return checks, broken

    def check(self, job: dict, output) -> tuple[str | None, dict]:
        """Untimed oracle: (failure message or None, unit counts of the job)."""
        if job["kind"] == "law":
            checks, broken = output
            if broken:
                return f"n={job['n']} i={job['i']}: {', '.join(broken)}", {"law_checks": checks}
            return None, {"law_checks": checks, "cases": 1}
        code, stdout, stderr, reloaded = output
        e = job["expect"]
        where = " ".join(job["argv"])
        if code != 0:
            return f"{where}: exit {code}: {stderr.strip()[-200:]}", {}
        fmt = e.get("format")
        if fmt is None:
            if stdout != e["stdout"]:
                return f"{where}: got {stdout.strip()[:80]!r}, expected {e['stdout'].strip()[:80]!r}", {}
            if "vertices" in e:
                return None, {"vertices": e["vertices"]}
            return None, {"partitions_tested": e["tested"], "regular": e["regular"]}
        units = {"bytes": len(stdout)}
        if fmt == "json":
            ref = self.refs[(e["model"], e["n"], e["depth"], e["arm"])]
            if reloaded != ref:
                return f"{where}: JSON does not reload to the generated graph", units
            vertices, edges = len(reloaded.vertices), len(reloaded.edges)
        else:
            lines = stdout.splitlines()
            edges = sum(1 for line in lines if " -> " in line)
            vertices = sum(1 for line in lines if line.startswith("  v") and " -> " not in line)
        # both models and every arm carry the same crystal, so all graphs
        # of one rank and depth have the same vertex and edge counts
        shapes = {(len(g.vertices), len(g.edges))
                  for key, g in self.refs.items() if key[1:3] == (e["n"], e["depth"])}
        if shapes and shapes != {(vertices, edges)}:
            return f"{where}: {vertices} vertices and {edges} edges, reference graphs have {sorted(shapes)}", units
        if vertices != e["vertices"]:
            return f"{where}: {vertices} vertices, closed form gives {e['vertices']}", units
        units.update(vertices=vertices, edges=edges)
        return None, units
