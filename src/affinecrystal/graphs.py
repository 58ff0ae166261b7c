"""Depth-bounded crystal graphs: generation, comparison, counting, export.

Graphs are generated by repeated lowering from a highest-weight root (the
empty partition, or the monomial Y(0,0)).  Every lowering step adds one box
worth of depth, so breadth-first levels are well defined and vertex ids are
canonical: root is 0, children are explored by ascending color, and a
vertex keeps the id it got on first discovery.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable

from . import _backend
from .arms import ArmSequence, horizontal_arm
from .errors import (
    BoundOutOfRange,
    DepthMismatch,
    ParseError,
    RankMismatch,
    UnknownChoice,
)
from .monomial_crystal import (
    _canonical,
    _FactorTexts,
    _format_key,
    _key,
    _mult_a_exp,
    _phi_q,
)
from .partitions import _format_parts, _trusted, check_rank

# unused here; perfbench/tracing.py patches these five names on this module
from .arms import is_regular  # noqa: F401 (patched by the tracer)
from .monomial_crystal import f_m  # noqa: F401 (patched by the tracer)
from .monomial_crystal import format_monomial  # noqa: F401 (patched by the tracer)
from .partition_crystal import f_down  # noqa: F401 (patched by the tracer)
from .partitions import partitions_of_size  # noqa: F401 (patched by the tracer)

PARTITION_MODEL = "partition"
MONOMIAL_MODEL = "monomial"

# largest size count_regular accepts.  The work grows about 6-7x per 10
# sizes: on a 2-core x86 host n = 3 takes 0.6 s and n = 6 2.2 s at size 50,
# so size 100 is hours of work, while the lists stay small
MAX_COUNT_SIZE = 100


@dataclass
class CrystalGraph:
    """Rooted digraph with residue-colored edges and canonical text labels."""

    model: str
    n: int
    depth: int
    arm: str | None
    vertices: list[str]
    edges: list[tuple[int, int, int]]
    root: int = 0

    def out_edges(self) -> list[dict[int, int]]:
        """Per-vertex map color -> destination id."""
        out: list[dict[int, int]] = [{} for _ in self.vertices]
        for src, dst, color in self.edges:
            out[src][color] = dst
        return out


def generate_graph(
    model: str,
    n: int,
    depth: int,
    a: ArmSequence | None = None,
    objects: list | None = None,
) -> CrystalGraph:
    """All vertices within ``depth`` lowering steps of the root, with every
    lowering edge among them.

    When ``objects`` is given, the vertex objects (partitions or monomials)
    are appended to it in id order.

    The partition BFS runs on raw part tuples and builds a ``Partition``
    only for ``objects``.  The monomial BFS keys its vertices on flat
    ``(-k, i, u, ...)`` tuples in canonical factor order, carries each
    one's exponent dict alongside, and wraps that dict as a ``Monomial``
    only for ``objects``.
    """
    check_rank(n)
    if type(depth) is not int or depth < 0:
        raise BoundOutOfRange(f"depth must be an integer >= 0, got {depth!r}")
    if model == PARTITION_MODEL:
        if a is None:
            a = horizontal_arm(n)
        elif a.n != n:
            raise RankMismatch(f"arm sequence has rank {a.n}, graph has rank {n}")
        vertices, edges = _partition_bfs(n, depth, a.values, objects)
        arm_descriptor = a.descriptor
    elif model == MONOMIAL_MODEL:
        vertices, edges = _monomial_bfs(n, depth, objects)
        arm_descriptor = None
    else:
        raise UnknownChoice(f"unknown model {model!r}")
    return CrystalGraph(
        model=model,
        n=n,
        depth=depth,
        arm=arm_descriptor,
        vertices=vertices,
        edges=edges,
    )


def _partition_bfs(n, depth, table, objects):
    """``f_step`` on raw part tuples."""
    f_step = _backend.kernel.f_step
    vertices = [_format_parts(())]
    ids = {(): 0}
    edges: list[tuple[int, int, int]] = []
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            src = ids[v]
            for i in range(n):
                w = f_step(v, i, n, table)
                if w is None:
                    continue
                dst = ids.get(w)
                if dst is None:
                    dst = ids[w] = len(vertices)
                    vertices.append(_format_parts(w))
                    nxt.append(w)
                edges.append((src, dst, i))
        frontier = nxt
    if objects is not None:
        # ids holds the vertices in id order
        objects.extend(map(_trusted, ids))
    return vertices, edges


def _monomial_bfs(n, depth, objects):
    """Analytic-mode f_m on (key, exponent dict) pairs; see ``_key``.

    f_i multiplies by some A(i,k)^-1, which lowers sum(u k^2) over the
    factors by 2, so a monomial's depth is -sum(u k^2) / 2.  A child can
    therefore only meet a vertex of its own level, and ``ids`` holds one
    level's keys at a time.
    """
    root = {(0, 0): 1}
    key = _key(root)
    texts = _FactorTexts()
    vertices = [_format_key(key, texts)]
    edges: list[tuple[int, int, int]] = []
    if objects is not None:
        objects.append(_canonical(n, root))
    frontier = [(key, root)]
    first = 0  # id of frontier[0]; each level's ids are consecutive
    colors = range(n)
    for _ in range(depth):
        nxt = []
        ids = {}
        for src, (key, exp) in enumerate(frontier, first):
            # one grouping by residue serves every color; the key runs by
            # decreasing k, so read backwards it gives _phi_q increasing k
            terms = [[] for _ in colors]
            for nk, i, u in zip(key[-3::-3], key[-2::-3], key[-1::-3]):
                terms[i].append((-nk, u))
            for i in colors:
                q = _phi_q(terms[i])[1]
                if q is None:
                    continue
                # dict() sizes the table to the entries; exp.copy() would
                # clone exp's grown table into every vertex object
                child = dict(exp)
                _mult_a_exp(child, n, i, q + 1, -1)
                ckey = _key(child)
                dst = ids.get(ckey)
                if dst is None:
                    dst = ids[ckey] = len(vertices)
                    vertices.append(_format_key(ckey, texts))
                    nxt.append((ckey, child))
                    if objects is not None:
                        # no copy: _canonical asks for the only reference,
                        # and the frontier keeps another, but the BFS never
                        # mutates a stored dict (children start as copies)
                        objects.append(_canonical(n, child))
                edges.append((src, dst, i))
        first += len(frontier)
        frontier = nxt
    return vertices, edges


@dataclass
class GraphMismatch:
    """First divergence found by the synchronized traversal."""

    kind: str
    vertex1: int | None = None
    vertex2: int | None = None
    color: int | None = None
    detail: str = ""

    def __str__(self):
        where = f" at v{self.vertex1}/v{self.vertex2}" if self.vertex1 is not None else ""
        color = f" color {self.color}" if self.color is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.kind}{where}{color}{tail}"


@dataclass
class GraphComparison:
    """Either a total vertex bijection or a mismatch witness."""

    bijection: dict[int, int] | None = None
    mismatch: GraphMismatch | None = None

    @property
    def isomorphic(self) -> bool:
        return self.mismatch is None


def compare_graphs(
    g1: CrystalGraph,
    g2: CrystalGraph,
    agree: Callable[[int, int], bool] | None = None,
) -> GraphComparison:
    """Synchronized traversal from the roots following equal-colored edges.

    Returns the vertex bijection when it is total and consistent, else the
    first divergence.  When ``agree`` is given, every paired vertex, root
    included, must also satisfy agree(id1, id2).
    """
    if g1.n != g2.n:
        raise RankMismatch(f"ranks differ: {g1.n} vs {g2.n}")
    if g1.depth != g2.depth:
        raise DepthMismatch(f"depths differ: {g1.depth} vs {g2.depth}")

    out1, out2 = g1.out_edges(), g2.out_edges()
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}

    def fail(kind, v1=None, v2=None, color=None, detail=""):
        return GraphComparison(
            mismatch=GraphMismatch(kind, v1, v2, color, detail)
        )

    def disagreement(v1, v2):
        return f"{g1.vertices[v1]!r} does not correspond to {g2.vertices[v2]!r}"

    def pair(v1, v2):
        if fwd.get(v1, v2) != v2 or bwd.get(v2, v1) != v1:
            return False
        fresh = v1 not in fwd
        fwd[v1], bwd[v2] = v2, v1
        return True if fresh else None

    state = pair(g1.root, g2.root)
    if state is False:
        return fail("root-pairing", g1.root, g2.root)
    if agree is not None and not agree(g1.root, g2.root):
        return fail(
            "label-mismatch", g1.root, g2.root,
            detail=disagreement(g1.root, g2.root),
        )
    queue = deque([(g1.root, g2.root)])
    while queue:
        v1, v2 = queue.popleft()
        colors = set(out1[v1]) | set(out2[v2])
        for color in sorted(colors):
            w1 = out1[v1].get(color)
            w2 = out2[v2].get(color)
            if (w1 is None) != (w2 is None):
                side = "first" if w2 is None else "second"
                return fail(
                    "edge-presence", v1, v2, color,
                    detail=f"only the {side} graph lowers here",
                )
            state = pair(w1, w2)
            if state is False:
                return fail(
                    "inconsistent-pairing", w1, w2, color,
                    detail="conflicts with an earlier pairing",
                )
            if state is True:
                if agree is not None and not agree(w1, w2):
                    return fail(
                        "label-mismatch", w1, w2, color,
                        detail=disagreement(w1, w2),
                    )
                queue.append((w1, w2))
    if len(fwd) != len(g1.vertices) or len(bwd) != len(g2.vertices):
        return fail(
            "unreached-vertices",
            detail=f"paired {len(fwd)} of {len(g1.vertices)}/{len(g2.vertices)}",
        )
    return GraphComparison(bijection=fwd)


def count_regular(n: int, a: ArmSequence, max_size: int) -> list[int]:
    """Number of regular partitions of each size 0..max_size.

    A box's hook (arm + leg + 1) depends only on its own row and the rows
    below it, so removing the first row of a regular partition leaves a
    regular partition.  The count therefore grows partitions from the last
    row upward and checks only the boxes of each new first row; a row with
    an illegal box is pruned together with every partition above it.

    A table-backed ``a`` of horizon H covers every hook below n (H + 1).
    For max_size >= n (H + 1) the one-row partition (n (H + 1)) needs
    A_(H+1), so HorizonExceedsTable(H + 1, H) is raised before any
    counting.

    ``max_size`` must be an int in 0..MAX_COUNT_SIZE (else BoundOutOfRange),
    so a huge bound fails at once instead of allocating lists of its length.
    """
    check_rank(n)
    if a.n != n:
        raise RankMismatch(f"arm sequence has rank {a.n}, count has rank {n}")
    if type(max_size) is not int or not 0 <= max_size <= MAX_COUNT_SIZE:
        raise BoundOutOfRange(
            f"max_size must be an int in 0..{MAX_COUNT_SIZE}, got {max_size!r}"
        )
    return _backend.kernel.regular_counts(n, a.values, max_size)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: CrystalGraph) -> str:
    """GraphViz text; node names v<id>, node label the canonical text,
    edge label the color."""
    lines = ["digraph crystal {"]
    for vid, label in enumerate(g.vertices):
        lines.append(f"  v{vid} [label={_dot_quote(label)}];")
    for src, dst, color in g.edges:
        lines.append(f'  v{src} -> v{dst} [label="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: CrystalGraph) -> str:
    """Schema-stable JSON, byte-deterministic for a given graph.

    Writes the layout of ``json.dumps(doc, indent=2)`` directly; only the
    scalars go through :func:`json.dumps`.
    """
    dumps = json.dumps
    vertices = ",\n".join([
        f'    {{\n      "id": {vid},\n      "label": {dumps(label)}\n    }}'
        for vid, label in enumerate(g.vertices)
    ])
    edges = ",\n".join([
        f'    {{\n      "src": {s},\n      "dst": {d},\n      "color": {c}\n    }}'
        for s, d, c in g.edges
    ])
    return (
        f'{{\n  "model": {dumps(g.model)},\n  "n": {dumps(g.n)},\n'
        f'  "arm": {dumps(g.arm)},\n  "depth": {dumps(g.depth)},\n'
        f'  "root": {dumps(g.root)},\n'
        f'  "vertices": {_json_list(vertices)},\n'
        f'  "edges": {_json_list(edges)}\n}}\n'
    )


def _json_list(body: str) -> str:
    return f"[\n{body}\n  ]" if body else "[]"


def _is_index(value, size: int) -> bool:
    return type(value) is int and 0 <= value < size


def graph_from_json(text: str) -> CrystalGraph:
    """Inverse of :func:`export_json`.

    Raises ParseError unless the model is a string, the depth an integer
    >= 0 and the arm a string or null, vertex ids are exactly 0..V-1,
    labels are strings, the root and every edge endpoint are vertex ids,
    every color lies in 0..n-1, and no vertex has two out-edges of one
    color.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad graph JSON: {exc}") from None
    try:
        n = doc["n"]
        if type(n) is not int or n < 3:
            raise ParseError(f"graph rank must be an integer >= 3, got {n!r}")
        model, depth, arm = doc["model"], doc["depth"], doc["arm"]
        if type(model) is not str:
            raise ParseError(f"graph model must be a string, got {model!r}")
        if type(depth) is not int or depth < 0:
            raise ParseError(f"graph depth must be an integer >= 0, got {depth!r}")
        if arm is not None and type(arm) is not str:
            raise ParseError(f"graph arm must be a string or null, got {arm!r}")
        vertices_field = doc["vertices"]
        count = len(vertices_field)
        vertices = [""] * count
        seen = [False] * count
        for entry in vertices_field:
            vid = entry["id"]
            if not _is_index(vid, count) or seen[vid]:
                raise ParseError(
                    f"vertex ids must be exactly 0..{count - 1}, got {vid!r}"
                )
            label = entry["label"]
            if type(label) is not str:
                raise ParseError(f"vertex {vid} label is not a string: {label!r}")
            seen[vid] = True
            vertices[vid] = label
        root = doc["root"]
        if not _is_index(root, count):
            raise ParseError(f"root {root!r} is not a vertex id")
        edges = []
        out_colors = set()
        for e in doc["edges"]:
            src, dst, color = e["src"], e["dst"], e["color"]
            if not (_is_index(src, count) and _is_index(dst, count)):
                raise ParseError(
                    f"edge {src!r} -> {dst!r} has an endpoint that is not a vertex id"
                )
            if not _is_index(color, n):
                raise ParseError(f"edge color {color!r} outside 0..{n - 1}")
            if (src, color) in out_colors:
                raise ParseError(f"vertex {src} has two out-edges of color {color}")
            out_colors.add((src, color))
            edges.append((src, dst, color))
        return CrystalGraph(
            model=model,
            n=n,
            depth=depth,
            arm=arm,
            vertices=vertices,
            edges=edges,
            root=root,
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ParseError(f"graph JSON missing fields: {exc!r}") from None
