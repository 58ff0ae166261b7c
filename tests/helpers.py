"""Independent oracles and random generators shared by the test suite.

Everything here recomputes quantities from first principles (cell-by-cell
counting, definition-literal scans) on purpose: these functions deliberately
do not reuse the library's formulas, so they can serve as cross-checks.
"""

from __future__ import annotations

import json
import random

from affinecrystal import Partition, f_m, height, residue, y
from affinecrystal.monomial_crystal import Monomial


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
    """Brute-force scan: no cell with hook n*t and arm A_t.

    ``arm_value`` maps t >= 1 to A_t.
    """
    for (r, c) in oracle_cells(parts):
        h = oracle_hook(parts, r, c)
        if h % n == 0 and oracle_arm(parts, r, c) == arm_value(h // n):
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
    ks = m.support(i)
    lo = (min(ks) if ks else 0) - 2
    hi = (max(ks) if ks else 0) + 2
    eps_at = {
        L: -sum(m.exponent(i, l) for l in range(L, hi + 1)) for L in range(lo, hi + 1)
    }
    phi_at = {
        L: sum(m.exponent(i, l) for l in range(lo, L + 1)) for L in range(lo, hi + 1)
    }
    eps = max(0, max(eps_at.values()))
    phi = max(0, max(phi_at.values()))
    p = max((L for L, v in eps_at.items() if v == eps), default=None) if eps > 0 else None
    q = min((L for L, v in phi_at.items() if v == phi), default=None) if phi > 0 else None
    return eps, phi, p, q


def oracle_mult_a(m: Monomial, i: int, k: int, sign: int = 1) -> Monomial:
    """The definition: m times A(i,k)^sign built as a monomial of its own."""
    factor = {
        (i, k - 1): sign,
        (i, k + 1): sign,
        (i + 1, k): -sign,
        (i - 1, k): -sign,
    }
    return m * Monomial(m.n, factor)


def oracle_corner_monomial(lam: Partition, n: int) -> Monomial:
    """The corner map from the corner boxes: Y(c,h-1) per addable corner,
    Y(c,h+1)^-1 per removable corner."""
    exp: dict[tuple[int, int], int] = {}
    for b in lam.addable_boxes():
        key = (residue(b, n), height(b) - 1)
        exp[key] = exp.get(key, 0) + 1
    for b in lam.removable_boxes():
        key = (residue(b, n), height(b) + 1)
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


def oracle_scan(sides):
    """(eps, phi, rightmost unmatched ')', leftmost unmatched '(') by reduction.

    Tags each token with its index and deletes an adjacent '(' ')' pair
    until none is left.  Missing indices are -1.
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
        closes[-1] if closes else -1,
        opens[0] if opens else -1,
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
