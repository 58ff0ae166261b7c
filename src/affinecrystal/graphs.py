"""Depth-bounded crystal graphs: generation, comparison, export.

Graphs are generated by repeated lowering from a highest-weight root (the
empty partition, or the monomial Y(0,0)), through the model's side
``(root, children, label)`` from ``arms`` or ``monomial_crystal``; no
vertex is looked inside here.  Every lowering step adds one box worth of
depth, so breadth-first levels are well defined and vertex ids are
canonical: root is 0, children are explored by ascending color, and a
vertex keeps the id it got on first discovery.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, NoReturn

from .arms import _partition_side
from .errors import (
    BoundOutOfRange,
    DepthMismatch,
    ParseError,
    RankMismatch,
    UnknownChoice,
)
from .isomorphism import _corner_check
from .monomial_crystal import _monomial_side
from .partitions import MAX_RANK, check_rank

# unused here; perfbench/tracing.py patches these five names on this module
from .arms import f_down  # noqa: F401 (patched by the tracer)
from .arms import is_regular  # noqa: F401 (patched by the tracer)
from .monomial_crystal import f_m  # noqa: F401 (patched by the tracer)
from .monomial_crystal import format_monomial  # noqa: F401 (patched by the tracer)
from .partitions import partitions_of_size  # noqa: F401 (patched by the tracer)

PARTITION_MODEL = "partition"
MONOMIAL_MODEL = "monomial"

# most vertices a graph or a walk may reach.  On a 2-core x86 host the
# n = 4, depth-41 monomial graph (89,037 vertices) took 4 s and peaked at
# 160 MB as JSON export, so the ceiling allows about a minute and 1 GB.
# The model walk holds two levels: compare_models(3, 40, ...) with the
# corner-map check (39,636 pairs) peaks at 11.6 MB under tracemalloc,
# 9.5 MB of it the monomial side's memos
MAX_GRAPH_VERTICES = 500_000
# a partition with no part repeated n times has none repeated n + 1 times,
# so n = 3 has the fewest vertices at every depth; it passes the ceiling at
# depth 58, and the vertex count never needs more terms
_CEILING_DEPTH = 58


class CrystalGraph(NamedTuple):
    """Rooted digraph with residue-colored edges and canonical text labels."""

    model: str
    n: int
    depth: int
    arm: str | None
    vertices: list[str]
    edges: list[tuple[int, int, int]]
    root: int = 0

    def out_edges(self) -> list[dict[int, int]]:
        """Per-vertex map color -> destination id.

        A hand-built graph that :func:`graph_from_json` would refuse for its
        root or an edge raises ParseError: an edge that is not a triple, a
        root or an endpoint that is not a vertex id, a color outside
        0..n-1, or a second out-edge of one color."""
        count, n, root = len(self.vertices), self.n, self.root
        if type(root) is not int or not 0 <= root < count:
            raise ParseError(f"root {root!r} is not a vertex id")
        out: list[dict[int, int]] = [{} for _ in range(count)]
        for edge in self.edges:
            try:
                src, dst, color = edge
            except (TypeError, ValueError):
                raise ParseError(f"edge {edge!r} is not a (src, dst, color) triple") from None
            if not (type(src) is type(dst) is int and 0 <= src < count and 0 <= dst < count):
                raise ParseError(
                    f"edge {src!r} -> {dst!r} has an endpoint that is not a vertex id"
                )
            if type(color) is not int or not 0 <= color < n:
                raise ParseError(f"edge color {color!r} outside 0..{n - 1}")
            if color in out[src]:
                raise ParseError(f"vertex {src} has two out-edges of color {color}")
            out[src][color] = dst
        return out


def _check_graph_size(n: int, depth: int) -> None:
    """BoundOutOfRange unless ``depth`` is an int >= 0 whose graph has at
    most MAX_GRAPH_VERTICES vertices.

    Both models, under every valid arm, have
    sum_{m <= depth} [q^m] prod_{n does not divide k} 1/(1 - q^k) vertices.
    """
    if type(depth) is not int or depth < 0:
        raise BoundOutOfRange(f"depth must be an integer >= 0, got {depth!r}")
    terms = min(depth, _CEILING_DEPTH)
    counts = [1] + [0] * terms
    for k in range(1, terms + 1):
        if k % n:
            for m in range(k, terms + 1):
                counts[m] += counts[m - k]
    if sum(counts) > MAX_GRAPH_VERTICES:
        more = "more than " if depth > terms else ""
        raise BoundOutOfRange(
            f"depth {depth} at rank {n} gives {more}{sum(counts)} vertices; "
            f"the ceiling is {MAX_GRAPH_VERTICES}"
        )


def _check_level(vertices: int, level: int) -> None:
    """Once per level: a table that breaks the arm axioms can stray from
    the count :func:`_check_graph_size` bounds."""
    if vertices > MAX_GRAPH_VERTICES:
        raise BoundOutOfRange(
            f"{vertices} vertices by depth {level}; the ceiling is {MAX_GRAPH_VERTICES}"
        )


def generate_graph(model: str, n: int, depth: int, a=None) -> CrystalGraph:
    """All vertices within ``depth`` lowering steps of the root, with every
    lowering edge among them; ``a`` is a partition model's arm sequence,
    the horizontal one when None."""
    check_rank(n)
    _check_graph_size(n, depth)
    vertices, edges = _bfs(*_model_side(model, n, a), depth)
    return CrystalGraph(
        model=model,
        n=n,
        depth=depth,
        arm=("horizontal" if a is None else a.descriptor) if model == PARTITION_MODEL else None,
        vertices=vertices,
        edges=edges,
    )


def _bfs(root, children, label, depth):
    """Labels and edges of the vertices within ``depth`` levels of ``root``.

    A partition f adds one box under any table, and a monomial f lowers
    sum(u k^2) over the factors by 2, so a child can only meet a vertex of
    its own level: ``ids`` holds one level's new vertices, in id order, and
    they are labelled once, when the level is done.
    """
    vertices = [label(root)]
    edges: list[tuple[int, int, int]] = []
    frontier = [root]
    for level in range(1, depth + 1):
        ids = {}
        start = len(vertices)  # each level's ids are consecutive, after the frontier's
        for src, v in enumerate(frontier, start - len(frontier)):
            for i, w in enumerate(children(v)):
                if w is None:
                    continue
                dst = ids.get(w)
                if dst is None:
                    dst = ids[w] = start + len(ids)
                edges.append((src, dst, i))
        vertices += map(label, ids)
        _check_level(len(vertices), level)
        frontier = list(ids)
    return vertices, edges


class GraphMismatch(NamedTuple):
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


# every mismatch either walk reports is worded here
def _lowers_once(v1, v2, color, w2) -> GraphMismatch:
    side = "first" if w2 is None else "second"
    return GraphMismatch("edge-presence", v1, v2, color, f"only the {side} graph lowers here")


def _disagrees(vertex, color, detail) -> GraphMismatch:
    return GraphMismatch("label-mismatch", vertex, vertex, color, detail)


def _conflict(w1, w2, color) -> GraphMismatch:
    return GraphMismatch("inconsistent-pairing", w1, w2, color, "conflicts with an earlier pairing")


def _unreached(pairs, count1, count2) -> GraphMismatch:
    return GraphMismatch("unreached-vertices", detail=f"paired {pairs} of {count1}/{count2}")


class GraphComparison(NamedTuple):
    """Either a total vertex bijection or a mismatch witness."""

    bijection: dict[int, int] | None = None
    mismatch: GraphMismatch | None = None

    @property
    def isomorphic(self) -> bool:
        return self.mismatch is None


def _walk(side1, side2, levels, check=None):
    """Pair two crystals level by level from their roots along equal colors.

    A side is ``(root, children)``; ``children(v)`` lists v's child of each
    color, None where that color does not lower v.  ``check(v1, v2)`` runs
    on each new pair, root first, and returns None or why they disagree.
    Returns the number of pairs and the first mismatch or None, naming each
    vertex by its pair index (discovery order); a vertex not yet paired is
    the next one its side would discover.

    As in :func:`_bfs`, a child can only meet a vertex of its own level, so
    ``ids1`` and ``ids2`` map one level's new vertices to their pair index,
    in pairing order, and the next level walks them as its frontier: the
    walk holds two levels at a time.
    """
    (root1, children1), (root2, children2) = side1, side2
    detail = check and check(root1, root2)
    if detail:
        return 1, _disagrees(0, None, detail)
    ids1, ids2 = {root1: 0}, {root2: 0}
    pairs = 1
    for level in range(1, levels + 1):
        # a level's pair indices are consecutive, ending at ``pairs``
        frontier = enumerate(zip(ids1, ids2), pairs - len(ids1))
        ids1, ids2 = {}, {}
        for src, (v1, v2) in frontier:
            for color, (w1, w2) in enumerate(zip(children1(v1), children2(v2))):
                if w1 is None or w2 is None:
                    if w1 is not w2:
                        return pairs, _lowers_once(src, src, color, w2)
                    continue
                id1, id2 = ids1.get(w1), ids2.get(w2)
                if id1 is None and id2 is None:
                    ids1[w1] = ids2[w2] = pairs
                    pairs += 1
                    detail = check and check(w1, w2)
                    if detail:
                        return pairs, _disagrees(pairs - 1, color, detail)
                elif id1 != id2:
                    return pairs, _conflict(pairs if id1 is None else id1,
                                            pairs if id2 is None else id2, color)
        _check_level(pairs, level)
    return pairs, None


def _model_side(model, n, a):
    """``(root, children, label)`` of a model's crystal; ``label(v)`` is
    v's canonical text."""
    if model == PARTITION_MODEL:
        return _partition_side(n, a)
    if model == MONOMIAL_MODEL:
        return _monomial_side(n)
    raise UnknownChoice(f"unknown model {model!r}")


def compare_models(n, depth, model1, model2, a1=None, a2=None, use_psi=False):
    """Walk two models' crystals to ``depth`` in lockstep, building no graph
    and holding two levels of vertices at a time.

    ``a1`` and ``a2`` are the arm sequences of partition models.  With
    ``use_psi`` (the partition model first, the monomial one second) every
    pair must also agree through ``isomorphism.partition_to_monomial``.
    Returns the number of pairs and the first mismatch or None, with the
    ids :func:`generate_graph` gives, as :func:`compare_graphs` reports it
    on the two generated graphs.
    """
    check_rank(n)
    _check_graph_size(n, depth)
    if use_psi and (model1, model2) != (PARTITION_MODEL, MONOMIAL_MODEL):
        raise UnknownChoice(
            "the corner-map check needs the partition model first and the monomial "
            "one second (--model partition --model2 monomial; model1, model2)")
    (root1, children1, label1), (root2, children2, label2) = (
        _model_side(model1, n, a1), _model_side(model2, n, a2))
    check = _corner_check(n, label1, label2) if use_psi else None
    return _walk((root1, children1), (root2, children2), depth, check)


def _pair_graphs(g1: CrystalGraph, g2: CrystalGraph):
    """compare_graphs' walk: the pairs of vertex ids in pairing order, and
    the first mismatch, naming the graphs' own ids, or None.

    A hand-built or reloaded graph may have an edge back to an earlier
    level or past the next one, so ``index1`` and ``index2`` map every
    vertex id of their graph to its pair index, None until it is paired.
    """
    out1, out2 = g1.out_edges(), g2.out_edges()
    index1, index2 = [None] * len(out1), [None] * len(out2)
    index1[g1.root] = index2[g2.root] = 0
    pairs = [(g1.root, g2.root)]
    colors = range(g1.n)
    level = done = 0
    while done < len(pairs):
        level += 1
        start, done = done, len(pairs)
        for v1, v2 in pairs[start:done]:
            edges1, edges2 = out1[v1], out2[v2]
            for color in colors:
                w1, w2 = edges1.get(color), edges2.get(color)
                if w1 is None or w2 is None:
                    if w1 is not w2:
                        return pairs, _lowers_once(v1, v2, color, w2)
                    continue
                id1, id2 = index1[w1], index2[w2]
                if id1 is None and id2 is None:
                    index1[w1] = index2[w2] = len(pairs)
                    pairs.append((w1, w2))
                elif id1 != id2:
                    return pairs, _conflict(w1, w2, color)
        _check_level(len(pairs), level)
    return pairs, None


def compare_graphs(g1: CrystalGraph, g2: CrystalGraph) -> GraphComparison:
    """Synchronized walk from the roots following equal-colored edges.

    Returns the vertex bijection when it is total and consistent, else the
    first divergence.  Unlike :func:`compare_models`, it pairs along every
    edge, one that skips a level or returns to an earlier one included.
    Like every walk, it raises BoundOutOfRange for a rank above MAX_RANK and
    once it pairs more than MAX_GRAPH_VERTICES vertices.
    """
    if g1.n != g2.n:
        raise RankMismatch(f"ranks differ: {g1.n} vs {g2.n}")
    if g1.depth != g2.depth:
        raise DepthMismatch(f"depths differ: {g1.depth} vs {g2.depth}")
    check_rank(g1.n)  # the walk tries every color at each vertex
    pairs, mismatch = _pair_graphs(g1, g2)
    count1, count2 = len(g1.vertices), len(g2.vertices)
    if mismatch is None and not len(pairs) == count1 == count2:
        mismatch = _unreached(len(pairs), count1, count2)
    if mismatch is not None:
        return GraphComparison(mismatch=mismatch)
    return GraphComparison(bijection=dict(pairs))


def _refuse_label(g: CrystalGraph) -> NoReturn:
    """ParseError naming the first vertex whose label is not a string."""
    vid, label = next((v, x) for v, x in enumerate(g.vertices) if not isinstance(x, str))
    raise ParseError(f"vertex {vid} label is not a string: {label!r}") from None


def export_dot(g: CrystalGraph) -> str:
    """GraphViz text; node names v<id>, node label the canonical text with
    each backslash and double quote escaped, edge label the color.  A
    hand-built label that is not a string raises ``ParseError``."""
    try:
        nodes = "".join([
            '  v%d [label="%s"];\n' % (vid, label.replace("\\", "\\\\").replace('"', '\\"'))
            for vid, label in enumerate(g.vertices)
        ])
    except (AttributeError, TypeError):
        _refuse_label(g)
    edges = "".join([f'  v{src} -> v{dst} [label="{color}"];\n' for src, dst, color in g.edges])
    return f"digraph crystal {{\n{nodes}{edges}}}\n"


def export_json(g: CrystalGraph) -> str:
    """Schema-stable JSON, byte-deterministic for a given graph.

    Writes the layout of ``json.dumps(doc, indent=2)`` directly.  Labels go
    through ``encode_basestring_ascii``, which json.dumps calls for a string,
    and a hand-built label that is not one raises ``ParseError``; the other
    scalars go through json.dumps.
    """
    dumps = json.dumps
    try:
        labels = list(map(encode_basestring_ascii, g.vertices))
    except TypeError:
        _refuse_label(g)
    vertices = ",\n".join([
        f'    {{\n      "id": {vid},\n      "label": {label}\n    }}'
        for vid, label in enumerate(labels)
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


def graph_from_json(text: str) -> CrystalGraph:
    """Inverse of :func:`export_json`.

    Raises ParseError for text the JSON decoder refuses, and unless the
    rank is an integer in 3..MAX_RANK, the model a string, the depth an
    integer >= 0 and the arm a string or null, vertex ids are exactly
    0..V-1, labels are strings, the root and every edge endpoint are
    vertex ids, every color lies in 0..n-1, and no vertex has two
    out-edges of one color.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # an int too long, nesting too deep
        raise ParseError(f"bad graph JSON: {exc}") from None
    try:
        n = doc["n"]
        if type(n) is not int or not 3 <= n <= MAX_RANK:
            raise ParseError(f"graph rank must be an integer in 3..{MAX_RANK}, got {n!r}")
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
            if type(vid) is not int or not 0 <= vid < count or seen[vid]:
                raise ParseError(
                    f"vertex ids must be exactly 0..{count - 1}, got {vid!r}"
                )
            label = entry["label"]
            if type(label) is not str:
                raise ParseError(f"vertex {vid} label is not a string: {label!r}")
            seen[vid] = True
            vertices[vid] = label
        root = doc["root"]
        if type(root) is not int or not 0 <= root < count:
            raise ParseError(f"root {root!r} is not a vertex id")
        edges = []
        out_colors = set()  # src * n + color of each edge read
        for e in doc["edges"]:
            src, dst, color = e["src"], e["dst"], e["color"]
            if not (type(src) is type(dst) is int and 0 <= src < count and 0 <= dst < count):
                raise ParseError(
                    f"edge {src!r} -> {dst!r} has an endpoint that is not a vertex id"
                )
            if type(color) is not int or not 0 <= color < n:
                raise ParseError(f"edge color {color!r} outside 0..{n - 1}")
            key = src * n + color
            if key in out_colors:
                raise ParseError(f"vertex {src} has two out-edges of color {color}")
            out_colors.add(key)
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
        raise ParseError(f"graph JSON missing or malformed field: {exc!r}") from None
