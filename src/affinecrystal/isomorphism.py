"""The corner map from partitions to monomials and its verification oracles.

A partition goes to the product of Y(color, height-1) over its addable
corners times Y(color, height+1)^-1 over its removable corners.  On
partitions that are regular for the horizontal arm sequence this map
intertwines the two families of crystal operators; the checkers here
recompute both sides of that statement through independent code paths and
report witnesses on any failure.
"""

from __future__ import annotations

from typing import NamedTuple

from .arms import horizontal_arm, is_regular
from .errors import NotAddable, NotRegular
from .monomial_crystal import Monomial, _built, _canonical, e_m, f_m, mult_a
from .partition_crystal import box_order_gt, e_up, f_down
from .partitions import Box, Partition, _color, check_rank, content, height, residue


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


def check_add_box_factor(lam: Partition, b: Box, n: int) -> bool:
    """Adding box b must multiply the image by A(color, height)^-1.

    Both sides are computed independently (one through the corner map of
    the grown partition, one through the lattice factor); holds for every
    partition and every addable box, and exists here as a test oracle.
    """
    if b not in lam.addable_boxes():
        raise NotAddable(f"{b} is not addable to {lam}")
    grown = partition_to_monomial(lam.add_box(b), n)
    factored = mult_a(partition_to_monomial(lam, n), residue(b, n), height(b), -1)
    return grown == factored


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
    def e_ok(self) -> bool:
        return self.e_partition_side == self.e_monomial_side

    @property
    def f_ok(self) -> bool:
        return self.f_partition_side == self.f_monomial_side

    @property
    def ok(self) -> bool:
        return self.e_ok and self.f_ok


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
    """
    a = horizontal_arm(n)
    if not is_regular(lam, a):
        raise NotRegular(f"{lam} has an illegal box for the horizontal sequence")
    i = _color(a, i)
    adds = [b for b in lam.addable_boxes() if residue(b, n) == i]
    rems = [b for b in lam.removable_boxes() if residue(b, n) == i]
    report = CornerRuleReport(lam, i, [])

    def between(c: Box, b: Box, bp: Box) -> bool:
        return box_order_gt(c, b, a) and box_order_gt(bp, c, a)

    for b in adds:
        for bp in rems:
            if height(b) == height(bp) + 1:
                report.violations.append(("i", b, bp, None))
            if height(b) == height(bp) and not content(bp) > content(b):
                report.violations.append(("ii", b, bp, None))
            precedes = box_order_gt(bp, b, a)
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
