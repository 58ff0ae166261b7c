"""Spans around the package's layer boundaries, installed from outside.

A traced run replaces module attributes (``graphs.f_down``,
``cli.partition_to_monomial``, ``_backend.kernel``, the ``Partition`` and
``Monomial`` constructors, ...) with wrappers that time each call, and puts
the originals back afterwards.  Untraced runs never import this module.

A layer's self time is its span's duration minus the time covered by its
child spans, so over one pass the self times of all layers plus the
untraced remainder (``other``) add up to the pass's wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import time
import types
from array import array

# every span name, one per layer boundary; metrics use these names
SPANS = (
    "cli",
    "graphs.generate",
    "graphs.compare",
    "graphs.label",
    "graphs.count",
    "graphs.export",
    "graphs.from_json",
    "partition_crystal.op",
    "kernel.step",
    "kernel.hook",
    "partitions.construct",
    "partitions.parse",
    "partitions.enum",
    "arms.is_regular",
    "monomial_crystal.op",
    "monomial_crystal.stats",
    "monomial_crystal.mult_a",
    "monomial_crystal.construct",
    "monomial_crystal.format",
    "isomorphism.psi",
    "brackets.build",
)


class Tracer:
    """Aggregates spans per name; optionally keeps every span in memory."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.nulls = dict.fromkeys(SPANS, 0)
        self.counts = {"vertices": 0, "edges": 0, "bytes": 0, "yielded": 0}
        self.top_s = 0.0  # summed duration of spans with no parent
        self.job = 0
        self.recording = False
        self._stack: list[list] = []  # open spans: [child seconds, span id]
        self._ids = itertools.count()
        self._index = {name: k for k, name in enumerate(SPANS)}
        self.span_id = array("q")
        self.span_name = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("q")

    def _record(self, name, span_id, start, end):
        stack = self._stack
        self.span_id.append(span_id)
        self.span_name.append(self._index[name])
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(stack[-1][1] if stack else -1)
        self.span_job.append(self.job)

    def wrap(self, name, fn, after=None):
        """``fn`` timed as a span called ``name``; ``after(result)`` counts."""
        stack = self._stack
        clock = time.perf_counter
        ids = self._ids
        calls = self.calls
        self_s = self.self_s
        record = self._record

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_s += duration
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if self.recording:
                    record(name, frame[1], start, end)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """Each resumption of the generator ``fn`` returns is one span."""
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                self.counts["yielded"] += 1
                yield item

        return traced

    def count_null(self, name):
        nulls = self.nulls

        def after(result):
            if result is None:
                nulls[name] += 1

        return after

    def write_spans(self, path: str) -> int:
        """Recorded spans as tab-separated text, times relative to the first."""
        origin = min(self.span_start, default=0.0)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tjob\n")
            for k in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[k]}\t{SPANS[self.span_name[k]]}\t"
                    f"{self.span_start[k] - origin:.9f}\t{self.span_end[k] - origin:.9f}\t"
                    f"{self.span_parent[k]}\t{self.span_job[k]}\n"
                )
        return len(self.span_id)


def _patches(tracer: Tracer, ac) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every layer boundary."""
    import affinecrystal._backend as backend
    import affinecrystal.brackets as brackets
    import affinecrystal.cli as cli
    import affinecrystal.graphs as graphs
    import affinecrystal.isomorphism as isomorphism
    import affinecrystal.monomial_crystal as monomial_crystal
    import affinecrystal.partitions as partitions

    w = tracer.wrap
    counts = tracer.counts

    def after_generate(g):
        counts["vertices"] += len(g.vertices) - 1
        counts["edges"] += len(g.edges)

    def after_export(text):
        counts["bytes"] += len(text)

    def compare(fn):
        def with_traced_labels(g1, g2, label_map=None):
            if label_map is not None:
                label_map = w("graphs.label", label_map)
            return fn(g1, g2, label_map)
        return w("graphs.compare", with_traced_labels)

    p_op = ("partition_crystal.op", tracer.count_null("partition_crystal.op"))
    m_op = ("monomial_crystal.op", tracer.count_null("monomial_crystal.op"))
    plan = [
        (cli, "main", "cli", None),
        (cli, "generate_graph", "graphs.generate", after_generate),
        (cli, "count_regular", "graphs.count", None),
        (cli, "export_json", "graphs.export", after_export),
        (cli, "export_dot", "graphs.export", after_export),
        (ac, "graph_from_json", "graphs.from_json", None),
        (cli, "parse_partition", "partitions.parse", None),
        (cli, "partition_to_monomial", "isomorphism.psi", None),
        (isomorphism, "partition_to_monomial", "isomorphism.psi", None),
        (cli, "format_monomial", "monomial_crystal.format", None),
        (graphs, "format_monomial", "monomial_crystal.format", None),
        (graphs, "is_regular", "arms.is_regular", None),
        (isomorphism, "is_regular", "arms.is_regular", None),
        (monomial_crystal, "stats", "monomial_crystal.stats", None),
        (monomial_crystal, "mult_a", "monomial_crystal.mult_a", None),
    ]
    for owner in (graphs, isomorphism, ac):
        plan.append((owner, "f_down") + p_op)
        plan.append((owner, "f_m") + m_op)
    for owner in (isomorphism, ac):
        plan.append((owner, "e_up") + p_op)
        plan.append((owner, "e_m") + m_op)

    patches = [(owner, attr, w(name, getattr(owner, attr), after))
               for owner, attr, name, after in plan]
    patches.append((cli, "compare_graphs", compare(cli.compare_graphs)))
    patches.append((graphs, "partitions_of_size",
                    tracer.wrap_generator("partitions.enum", graphs.partitions_of_size)))

    kernel = backend.kernel
    proxy = types.SimpleNamespace(**{k: getattr(kernel, k) for k in dir(kernel)
                                     if not k.startswith("__")})
    for attr in ("f_step", "e_step", "unmatched_counts"):
        setattr(proxy, attr, w("kernel.step", getattr(kernel, attr)))
    proxy.is_regular = w("kernel.hook", kernel.is_regular)
    patches.append((backend, "kernel", proxy))

    patches.append((partitions.Partition, "__init__",
                    w("partitions.construct", partitions.Partition.__init__)))
    patches.append((monomial_crystal.Monomial, "__init__",
                    w("monomial_crystal.construct", monomial_crystal.Monomial.__init__)))
    build = brackets.BracketString.__dict__["build"].__func__
    patches.append((brackets.BracketString, "build",
                    classmethod(w("brackets.build", build))))
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer, ac):
    """Wrap every layer boundary for the duration of the block."""
    patches = _patches(tracer, ac)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int, wall_s: float) -> dict[str, float]:
    """Per-pass per-layer metrics from aggregates summed over ``passes``."""
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = tracer.calls[name] / passes
        out[f"{name}.self_s"] = tracer.self_s[name] / passes
    for name in ("partition_crystal.op", "monomial_crystal.op"):
        calls = tracer.calls[name]
        out[f"{name}.null_ratio"] = tracer.nulls[name] / calls if calls else 0.0
    edges = tracer.counts["edges"]
    out["graphs.new_ratio"] = tracer.counts["vertices"] / edges if edges else 0.0
    out["graphs.export.bytes"] = tracer.counts["bytes"] / passes
    out["partitions.enum.yielded"] = tracer.counts["yielded"] / passes
    out["other.self_s"] = wall_s - tracer.top_s / passes
    return out
