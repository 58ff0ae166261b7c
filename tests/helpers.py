"""Independent oracles and random generators shared by the test suite.

Everything here recomputes quantities from first principles (cell-by-cell
counting, definition-literal scans) on purpose: these functions deliberately
do not reuse the library's formulas, so they can serve as cross-checks.
"""

from __future__ import annotations

import copy
import json
import random
from typing import NamedTuple

from affinecrystal import (
    Box,
    Partition,
    content,
    f_down,
    f_m,
    height,
    horizontal_arm,
    is_regular,
    partitions_of_size,
    residue,
)
from affinecrystal.errors import NotRegular
from affinecrystal.monomial_crystal import Monomial
from affinecrystal.partitions import MAX_RANK


def y(n: int, i: int, k: int, power: int = 1) -> Monomial:
    """The single-variable monomial Y(i,k)^power."""
    return Monomial(n, {(i, k): power})


def oracle_partitions(m, max_part=None):
    """All partitions of m as tuples; recursive, largest part first."""
    max_part = m if max_part is None else min(max_part, m)
    if m == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in oracle_partitions(m - first, first):
            yield (first,) + rest


def oracle_cells(parts):
    return [(r, c) for r, p in enumerate(parts, 1) for c in range(1, p + 1)]


def oracle_arm(parts, row, col):
    """Count cells strictly to the right of (row, col) in its row."""
    return sum(1 for (r, c) in oracle_cells(parts) if r == row and c > col)


def oracle_leg(parts, row, col):
    return sum(1 for (r, c) in oracle_cells(parts) if c == col and r > row)


def oracle_hook(parts, row, col):
    return oracle_arm(parts, row, col) + oracle_leg(parts, row, col) + 1


def oracle_is_regular(parts, n, arm_value):
    """No cell with hook n*t and arm A_t; ``arm_value`` maps t >= 1 to A_t.

    Column lengths are counted from the rows once per partition, and a
    cell's hook is arm + leg + 1.  Cells are read as :func:`oracle_cells`
    lists them, top row first, left to right.
    """
    columns = [sum(1 for p in parts if p >= c) for c in range(1, max(parts, default=0) + 1)]
    for r, p in enumerate(parts, 1):
        for c in range(1, p + 1):
            arm = p - c
            h = arm + columns[c - 1] - r + 1
            if h % n == 0 and arm == arm_value(h // n):
                return False
    return True


def oracle_regular_counts(n, max_size):
    """Coefficients of prod over k with n not dividing k of 1/(1 - q^k).

    Glaisher: these count partitions with no part divisible by n, which
    are as many as the n-regular partitions of each size.
    """
    coeffs = [1] + [0] * max_size
    for k in range(1, max_size + 1):
        if k % n:
            for m in range(k, max_size + 1):
                coeffs[m] += coeffs[m - k]
    return coeffs


def oracle_monomial_stats(m: Monomial, i: int):
    """(eps, phi, p, q) by literally scanning L over a wide window."""
    exps = {k: u for (j, k), u in m.factors() if j == i}
    lo = min(exps, default=0) - 2
    hi = max(exps, default=0) + 2
    eps_at = {
        L: -sum(exps.get(l, 0) for l in range(L, hi + 1)) for L in range(lo, hi + 1)
    }
    phi_at = {
        L: sum(exps.get(l, 0) for l in range(lo, L + 1)) for L in range(lo, hi + 1)
    }
    eps = max(0, max(eps_at.values()))
    phi = max(0, max(phi_at.values()))
    p = max((L for L, v in eps_at.items() if v == eps), default=None) if eps > 0 else None
    q = min((L for L, v in phi_at.items() if v == phi), default=None) if phi > 0 else None
    return eps, phi, p, q


def oracle_mult_a(m: Monomial, i: int, k: int, sign: int = 1) -> Monomial:
    """The definition: the four exponents of A(i,k)^sign added to m's
    factors in a plain dict, which the constructor reduces and sorts."""
    n = m.n
    exp = dict(m.factors())
    for key, u in (
        ((i % n, k - 1), sign),
        ((i % n, k + 1), sign),
        (((i + 1) % n, k), -sign),
        (((i - 1) % n, k), -sign),
    ):
        exp[key] = exp.get(key, 0) + u
    return Monomial(n, exp)


def oracle_corners(parts):
    """(addable, removable) cells of ``parts``, each a list sorted by row.

    From the definition, cell by cell: a cell is addable when adding it,
    and removable when removing it, leaves a partition, that is, a set
    of cells closed under stepping up and stepping left."""
    cells = set(oracle_cells(parts))

    def is_diagram(cs):
        return all((r == 1 or (r - 1, c) in cs) and (c == 1 or (r, c - 1) in cs)
                   for r, c in cs)

    width = max((c for _, c in cells), default=0)
    outside = [(r, c) for r in range(1, len(parts) + 2)
               for c in range(1, width + 2) if (r, c) not in cells]
    addable = [b for b in outside if is_diagram(cells | {b})]
    removable = [b for b in sorted(cells) if is_diagram(cells - {b})]
    return addable, removable


def oracle_corner_monomial(lam: Partition, n: int) -> Monomial:
    """The corner map from the corner cells of :func:`oracle_corners`:
    Y(c,h-1) per addable corner, Y(c,h+1)^-1 per removable corner."""
    exp: dict[tuple[int, int], int] = {}
    addable, removable = oracle_corners(lam.parts)
    for r, c in addable:
        key = ((c - r) % n, r + c - 2)
        exp[key] = exp.get(key, 0) + 1
    for r, c in removable:
        key = ((c - r) % n, r + c)
        exp[key] = exp.get(key, 0) - 1
    return Monomial(n, exp)


def oracle_monomial_graph(n: int, depth: int, mode: str):
    """(vertex monomials, edges) by a plain BFS over the public ``f_m``.

    Ids follow the same convention as ``generate_graph``: the root Y(0,0)
    is 0, colors are tried in ascending order, and a vertex keeps the id of
    its first discovery."""
    vertices = [y(n, 0, 0)]
    ids = {vertices[0]: 0}
    edges = []
    level = [vertices[0]]
    for _ in range(depth):
        nxt = []
        for m in level:
            for i in range(n):
                w = f_m(m, i, mode)
                if w is None:
                    continue
                if w not in ids:
                    ids[w] = len(vertices)
                    vertices.append(w)
                    nxt.append(w)
                edges.append((ids[m], ids[w], i))
        level = nxt
    return vertices, edges


def oracle_partition_graph(n: int, depth: int, a):
    """(vertex partitions, edges) by a plain BFS over the public ``f_down``.

    Ids follow the convention of ``generate_graph``: the empty partition is
    0, colors are tried in ascending order, and a vertex keeps the id of
    its first discovery."""
    vertices = [Partition()]
    ids = {vertices[0]: 0}
    edges = []
    level = [vertices[0]]
    for _ in range(depth):
        nxt = []
        for lam in level:
            for i in range(n):
                mu = f_down(lam, i, a)
                if mu is None:
                    continue
                if mu not in ids:
                    ids[mu] = len(vertices)
                    vertices.append(mu)
                    nxt.append(mu)
                edges.append((ids[lam], ids[mu], i))
        level = nxt
    return vertices, edges


def oracle_multipartition_counts(k: int, max_size: int) -> list[int]:
    """Number of k-multipartitions (k-tuples of partitions) of each size:
    the coefficients of prod over j >= 1 of 1/(1 - q^j)^k."""
    c = [1] + [0] * max_size
    for _ in range(k):
        for j in range(1, max_size + 1):
            for m in range(j, max_size + 1):
                c[m] += c[m - j]
    return c


def oracle_weight_multiplicities(g) -> list[tuple]:
    """Frenkel-Kac check of a crystal graph of the basic representation.

    Every edge of color i adds one f_i, so a vertex reached from the root
    has a content vector c, with c_i the f_i's on any path to it.  The
    number of vertices with content c must be the number of
    (n-1)-multipartitions of w = c_0 - (1/2) sum_i (c_i - c_(i+1))^2,
    indices mod n (Kac, Infinite-dimensional Lie algebras, 12.13).  Reads
    only the edge list, from the root.

    Returns the disagreements: (content, vertices, expected) per class, and
    ("unreached", count) when some vertex has no path from the root.
    """
    n = g.n
    children = {}
    for src, dst, color in g.edges:
        children.setdefault(src, []).append((dst, color))
    content = {g.root: (0,) * n}
    queue = [g.root]
    for v in queue:
        for w, color in children.get(v, ()):
            if w not in content:
                c = list(content[v])
                c[color] += 1
                content[w] = tuple(c)
                queue.append(w)
    classes = {}
    for c in content.values():
        classes[c] = classes.get(c, 0) + 1
    # the differences sum to 0, so their squares sum to an even number
    w = {c: c[0] - sum((c[i] - c[(i + 1) % n]) ** 2 for i in range(n)) // 2
         for c in classes}
    counts = oracle_multipartition_counts(n - 1, max(w.values()))
    bad = [(c, count, counts[w[c]] if w[c] >= 0 else 0)
           for c, count in sorted(classes.items())
           if w[c] < 0 or count != counts[w[c]]]
    if len(content) != len(g.vertices):
        bad.append(("unreached", len(g.vertices) - len(content)))
    return bad


def oracle_export_json(g) -> str:
    """The graph document through ``json.dumps(doc, indent=2)``."""
    doc = {
        "model": g.model,
        "n": g.n,
        "arm": g.arm,
        "depth": g.depth,
        "root": g.root,
        "vertices": [{"id": vid, "label": label} for vid, label in enumerate(g.vertices)],
        "edges": [{"src": s, "dst": d, "color": c} for s, d, c in g.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def oracle_export_dot(g) -> str:
    """The GraphViz text, each label escaped one character at a time:
    a backslash or a double quote gets a backslash before it."""
    out = "digraph crystal {\n"
    for vid, label in enumerate(g.vertices):
        escaped = "".join("\\" + ch if ch in '\\"' else ch for ch in label)
        out += '  v' + str(vid) + ' [label="' + escaped + '"];\n'
    for src, dst, color in g.edges:
        out += '  v' + str(src) + ' -> v' + str(dst) + ' [label="' + str(color) + '"];\n'
    return out + "}\n"


class GraphEdit(NamedTuple):
    """Set ``doc[path...][key] = value``, or delete the key when ``value`` is
    DROP.  ``kept``: graph_from_json reads the edited document as the
    unedited graph; otherwise it must raise ParseError."""

    path: tuple
    key: object
    value: object
    kept: bool = False


DROP = object()
# one value of each JSON type; an edit never puts a value where one of its
# type already stands
_TYPE_SWAPS = (None, True, False, 0.5, -3, "7", [1], {"id": 0})


def graph_json_edits(doc: dict) -> list[GraphEdit]:
    """Single edits of a parsed graph export ``doc``: a dropped key, a value
    of another type (bools included), an out-of-range or huge integer, a
    repeated vertex id, a second out-edge of one color; and, kept, the
    vertex entries reversed or an unknown key added."""
    count, n = len(doc["vertices"]), doc["n"]
    huge = 10**30
    out_of_range = {
        "n": [2, MAX_RANK + 1, huge, -huge],
        "depth": [-1, -huge],
        "root": [-1, count, huge],
        "id": [-1, count, huge],
        "src": [-1, count, huge],
        "dst": [-1, count, huge],
        "color": [-1, n, huge],
    }

    def field(path, key, value):
        swaps = [v for v in _TYPE_SWAPS if type(v) is not type(value)]
        if key == "arm":  # null and any string are both arms
            swaps = [v for v in swaps if v is not None and type(v) is not str]
        edits = [GraphEdit(path, key, v) for v in swaps + out_of_range.get(key, [])]
        if key == "id" and count > 1:
            edits.append(GraphEdit(path, key, (value + 1) % count))
        return edits + [GraphEdit(path, key, DROP)]

    edits = [GraphEdit((), "comment", "x", True),
             GraphEdit((), "vertices", doc["vertices"][::-1], True)]
    for key, value in doc.items():
        edits += field((), key, value)
    for part in ("vertices", "edges"):
        for j, entry in enumerate(doc[part]):
            edits += field((part,), j, entry)[:-1]  # an entry is not dropped
            for key, value in entry.items():
                edits += field((part, j), key, value)
        if doc[part]:
            edits.append(GraphEdit((part, 0), "note", [], True))
    for e in doc["edges"]:
        twin = dict(e, dst=(e["dst"] + 1) % count)
        edits.append(GraphEdit((), "edges", doc["edges"] + [twin]))
    return edits


def apply_graph_edit(doc: dict, edit: GraphEdit) -> dict:
    """An edited deep copy of ``doc``."""
    doc = copy.deepcopy(doc)
    target = doc
    for step in edit.path:
        target = target[step]
    if edit.value is DROP:
        del target[edit.key]
    else:
        target[edit.key] = edit.value
    return doc


def oracle_scan(sides):
    """(eps, phi, rightmost unmatched ')', leftmost unmatched '(') by reduction.

    Tags each token with its index and deletes an adjacent '(' ')' pair
    until none is left.  Missing indices are None.
    """
    rest = list(enumerate(sides))
    reduced = True
    while reduced:
        reduced = False
        for x in range(len(rest) - 1):
            if rest[x][1] == "(" and rest[x + 1][1] == ")":
                del rest[x: x + 2]
                reduced = True
                break
    closes = [idx for idx, side in rest if side == ")"]
    opens = [idx for idx, side in rest if side == "("]
    return (
        len(closes),
        len(opens),
        closes[-1] if closes else None,
        opens[0] if opens else None,
    )


def oracle_precedes(b, b_prime, a) -> bool:
    """Whether box ``b_prime`` comes before box ``b`` in the order of ``a``.

    The definition: of two boxes of equal residue, the one whose content
    is larger by n t beats the other exactly when it lies more than A_t
    columns to its right.
    """
    lower, upper = sorted((b, b_prime), key=lambda box: box.col - box.row)
    t = ((upper.col - upper.row) - (lower.col - lower.row)) // a.n
    upper_first = upper.col - lower.col > a.value(t)
    return upper_first == (b_prime == upper)


class CornerRuleReport(NamedTuple):
    """Violations of the five corner-separation rules; empty means pass."""

    lam: Partition
    i: int
    violations: list[tuple[str, Box, Box, Box | None]]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_corner_order_rules(lam: Partition, i: int, n: int) -> CornerRuleReport:
    """Height/content constraints between same-color addable and removable
    corners of a partition regular for the horizontal sequence:

      (i)   never h(add) = h(rem) + 1;
      (ii)  equal heights force c(rem) > c(add);
      (iii) add precedes rem in the order iff h(add) - 1 >= h(rem) + 1;
      (iv)  when h(add) - 1 = h(rem) + 1, any addable corner strictly
            between them in the order has the height of the addable one;
      (v)   same with a removable corner and the removable height.

    Regularity is read off :func:`oracle_is_regular` and the order off
    :func:`oracle_precedes`, the definitions, not the kernel.
    """
    a = horizontal_arm(n)
    if not oracle_is_regular(lam.parts, n, a.value):
        raise NotRegular(f"{lam} has an illegal box for the horizontal sequence")
    i %= n
    adds = [b for b in lam.addable_boxes() if residue(b, n) == i]
    rems = [b for b in lam.removable_boxes() if residue(b, n) == i]
    report = CornerRuleReport(lam, i, [])

    def between(c: Box, b: Box, bp: Box) -> bool:
        return oracle_precedes(c, b, a) and oracle_precedes(bp, c, a)

    for b in adds:
        for bp in rems:
            if height(b) == height(bp) + 1:
                report.violations.append(("i", b, bp, None))
            if height(b) == height(bp) and not content(bp) > content(b):
                report.violations.append(("ii", b, bp, None))
            precedes = oracle_precedes(bp, b, a)
            if precedes != (height(b) - 1 >= height(bp) + 1):
                report.violations.append(("iii", b, bp, None))
            if height(b) - 1 == height(bp) + 1:
                for c in adds:
                    if c != b and between(c, b, bp) and height(c) != height(b):
                        report.violations.append(("iv", b, bp, c))
                for c in rems:
                    if c != bp and between(c, b, bp) and height(c) != height(bp):
                        report.violations.append(("v", b, bp, c))
    return report


def regular_partitions(n: int, max_size: int):
    """Every partition of size at most ``max_size`` that is regular under
    the horizontal arm, by increasing size."""
    a = horizontal_arm(n)
    for m in range(max_size + 1):
        for lam in partitions_of_size(m):
            if is_regular(lam, a):
                yield lam


def random_partition(rng: random.Random, steps: int) -> Partition:
    """Random upward walk: adjoin a random addable corner ``steps`` times."""
    lam = Partition()
    for _ in range(rng.randint(0, steps)):
        lam = lam.add_box(rng.choice(lam.addable_boxes()))
    return lam


def random_monomial(rng: random.Random, n: int, max_terms: int = 12) -> Monomial:
    m = Monomial(n)
    for _ in range(rng.randint(0, max_terms)):
        i = rng.randrange(n)
        k = rng.randint(-8, 15)
        u = rng.choice([-3, -2, -1, 1, 2, 3])
        m = m * y(n, i, k, u)
    return m


def random_reachable_monomial(rng: random.Random, n: int, steps: int) -> Monomial:
    """Random operator walk from Y(0,0); stays inside the generated component.

    Crystal laws such as the partial-inverse identities are only claimed on
    this component, not on arbitrary monomials."""
    from affinecrystal.monomial_crystal import e_m, f_m

    m = y(n, 0, 0)
    for _ in range(rng.randint(0, steps)):
        op = f_m if rng.random() < 0.8 else e_m
        nxt = op(m, rng.randrange(n))
        if nxt is not None:
            m = nxt
    return m


def max_multiplicity(parts) -> int:
    return max((parts.count(p) for p in set(parts)), default=0)


def box_tokens_as_slots(s):
    """Partition-side bracket string -> (side, k) tokens.

    '(' over a box of height h stands for the variable slot k = h - 1 and
    ')' for k = h + 1, mirroring how the corner map builds its monomial.
    """
    from affinecrystal import OPEN, height

    return [
        (side, height(b) - 1 if side == OPEN else height(b) + 1)
        for side, b in zip(s.sides, s.payloads)
    ]


def monomial_tokens_as_slots(s):
    """Monomial-side bracket string -> (side, k) tokens."""
    return [(side, k) for side, (_, k) in zip(s.sides, s.payloads)]


def cancel_matching_slot_pairs(tokens):
    """Remove adjacent ('(', k), (')', k) pairs until none remain.

    Returns the reduced token list and how many pairs went away."""
    out = list(tokens)
    removed = 0
    changed = True
    while changed:
        changed = False
        for idx in range(len(out) - 1):
            (s1, k1), (s2, k2) = out[idx], out[idx + 1]
            if s1 == "(" and s2 == ")" and k1 == k2:
                del out[idx: idx + 2]
                removed += 1
                changed = True
                break
    return out, removed


def oracle_valid_tables(n: int, horizon: int) -> list[tuple[int, ...]]:
    """Every table A_1..A_horizon obeying both arm axioms, in lexicographic order.

    Built from the axioms alone: A_t lies in [t - 1, (n - 1) t] and, for
    each split t = s + (t - s), in [A_s + A_(t-s), A_s + A_(t-s) + 1].
    Axiom (ii) only relates values up to t, so every valid table extends
    a valid table one shorter.
    """
    tables = [()]
    for t in range(1, horizon + 1):
        tables = [
            table + (value,)
            for table in tables
            for value in range(t - 1, (n - 1) * t + 1)
            if all(value - table[s - 1] - table[t - s - 1] in (0, 1) for s in range(1, t))
        ]
    return tables


def oracle_random_arm(n: int, horizon: int, seed: int) -> tuple[int, ...]:
    """The table ``random_arm(n, horizon, seed)`` draws, over every window.

    Each A_t is drawn by ``random.Random(seed).randint`` from axiom (i)'s
    range cut by the window [A_s + A_(t-s), A_s + A_(t-s) + 1] of every
    split s = 1..t - 1, both halves of each pair included.
    """
    rng = random.Random(seed)
    table: list[int] = []
    for t in range(1, horizon + 1):
        sums = [table[s - 1] + table[t - s - 1] for s in range(1, t)]
        lo = max([t - 1] + sums)
        hi = min([(n - 1) * t] + [v + 1 for v in sums])
        table.append(rng.randint(lo, hi))
    return tuple(table)


def oracle_good_node(parts, i, n, increasing):
    """Kleshchev's good-node rule, the Misra-Miwa crystal and its conjugate.

    Lists the addable (+) and removable (-) nodes of residue i by content,
    increasing for A_t = t - 1 and decreasing for A_t = (n - 1) t, and
    cancels each adjacent "- +" pair until none is left.  Returns (f, e):
    ``parts`` with the last uncancelled + added and with the first
    uncancelled - removed, each None when there is no such node.
    """
    rows = list(parts)
    nodes = []  # (content, sign, 0-based row)
    for r in range(len(rows) + 1):
        p = rows[r] if r < len(rows) else 0
        if r == 0 or rows[r - 1] > p:
            nodes.append((p - r, "+", r))
        if p and (r + 1 == len(rows) or rows[r + 1] < p):
            nodes.append((p - r - 1, "-", r))
    nodes = sorted(node for node in nodes if node[0] % n == i)
    if not increasing:
        nodes.reverse()
    kept = []
    for node in nodes:
        if node[1] == "+" and kept and kept[-1][1] == "-":
            kept.pop()
        else:
            kept.append(node)
    pluses = [r for _, sign, r in kept if sign == "+"]
    minuses = [r for _, sign, r in kept if sign == "-"]
    f = e = None
    if pluses:
        r = pluses[-1]
        f = tuple(rows[:r] + [rows[r] + 1 if r < len(rows) else 1] + rows[r + 1:])
    if minuses:
        r = minuses[0]
        e = tuple(p for p in rows[:r] + [rows[r] - 1] + rows[r + 1:] if p)
    return f, e
