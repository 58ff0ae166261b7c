"""The corner map from partitions to monomials, and its intertwining check.

A partition goes to the product of Y(color, height-1) over its addable
corners times Y(color, height+1)^-1 over its removable corners.  On
partitions that are regular for the horizontal arm sequence this map
intertwines the two families of crystal operators; :func:`check_intertwining`
computes both sides of that statement, one through each model, and reports
them as witnesses, and :func:`_corner_check` checks it on every pair of
a synchronized walk.
"""

from __future__ import annotations

from typing import NamedTuple

from .arms import e_up, f_down, horizontal_arm, is_regular
from .errors import NotRegular
from .monomial_crystal import Monomial, _built, _canonical, e_m, f_m
from .partitions import Partition, _trusted, check_rank


def partition_to_monomial(lam: Partition, n: int) -> Monomial:
    """Product over addable corners of Y(c,h-1), removable of Y(c,h+1)^-1.

    Reads the corners off the parts: row r of length p has an addable
    corner (content p+1-r, height r+p) when the row above is longer, and a
    removable one (content p-r, height r+p-1) when the row below is
    shorter; the new-row corner below the last row r has content -r and
    height r+1.  Each corner appends its (k, +-1) term to its residue's
    list, and ``monomial_crystal``'s builder sorts the lists and sums two
    terms at one (residue, k).
    """
    check_rank(n)
    res = [[] for _ in range(n)]
    parts = lam.parts
    rows = len(parts)
    # its own row loop: reading the kernel's corners buckets took 37% longer
    above = None  # the row above r, None for the first row
    for r, p in enumerate(parts, 1):
        if above is None or above > p:
            res[(p + 1 - r) % n].append((r + p - 1, 1))
        if r == rows or p > parts[r]:
            res[(p - r) % n].append((r + p, -1))
        above = p
    res[-rows % n].append((rows, 1))
    return _canonical(_built(res))


class IntertwineReport(NamedTuple):
    """Both equalities image(op(lam)) == op(image(lam)), with witnesses."""

    lam: Partition
    i: int
    n: int
    e_partition_side: Monomial | None
    e_monomial_side: Monomial | None
    f_partition_side: Monomial | None
    f_monomial_side: Monomial | None

    @property
    def ok(self) -> bool:
        return (self.e_partition_side, self.f_partition_side) == (
            self.e_monomial_side, self.f_monomial_side)


def check_intertwining(lam: Partition, i: int, n: int) -> IntertwineReport:
    """Compare raising/lowering through both models, mapping null to null.

    Requires ``lam`` regular for the horizontal arm sequence; outside that
    set the statement is not claimed, so the check refuses to run.
    """
    a = horizontal_arm(n)
    if not is_regular(lam, a):
        raise NotRegular(f"{lam} has an illegal box for the horizontal sequence")
    image = partition_to_monomial(lam, n)

    up = e_up(lam, i, a)
    down = f_down(lam, i, a)
    return IntertwineReport(
        lam=lam,
        i=i % n,
        n=n,
        e_partition_side=None if up is None else partition_to_monomial(up, n),
        e_monomial_side=e_m(image, i),
        f_partition_side=None if down is None else partition_to_monomial(down, n),
        f_monomial_side=f_m(image, i),
    )


def _corner_check(n: int, label1, label2):
    """``check(parts, v)`` for a walk that pairs partition vertices (part
    tuples) with monomial ones (per-residue tuples): None when the corner
    map sends ``parts`` to ``v``, else why not, in the sides' labels."""
    def check(parts, v):
        # looked up at call time, so a profiler or a test can wrap it
        if partition_to_monomial(_trusted(parts), n)._res == v:
            return None
        return f"{label1(parts)!r} does not correspond to {label2(v)!r}"

    return check
