"""Integer partitions, box coordinates, and their combinatorial statistics.

Diagrams live in "Russian" orientation: the box in row ``r``, column ``c``
(both 1-based) has center ``(x, y) = (r - 1/2, c - 1/2)``.  Storing the
integer pair ``(row, col)`` keeps every statistic in exact integer
arithmetic:

* content  ``c(b) = y - x = col - row``
* height   ``h(b) = x + y = row + col - 1``

Partitions are immutable; adding or removing a box returns a fresh value.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .errors import (
    BoxOutside,
    NonPositivePart,
    NotAddable,
    NotDecreasing,
    NotRemovable,
    ParseError,
    RankTooSmall,
)


class Box(NamedTuple):
    """A cell address inside (or adjacent to) a diagram, 1-based."""

    row: int
    col: int


def content(b: Box) -> int:
    """Diagonal coordinate of ``b``; constant along northeast diagonals."""
    return b.col - b.row


def height(b: Box) -> int:
    """Vertical coordinate of the box center in Russian orientation."""
    return b.row + b.col - 1


def check_rank(n: int) -> None:
    if type(n) is not int or n < 3:
        raise RankTooSmall(f"rank must be an int >= 3, got {n!r}")


def residue(b: Box, n: int) -> int:
    """Content of ``b`` reduced modulo ``n`` into [0, n); the box color."""
    check_rank(n)
    return content(b) % n


class Partition:
    """A weakly decreasing sequence of positive integers.

    Instances are immutable and hashable, so they can be shared freely and
    used as dictionary keys during graph generation.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool):
                raise NonPositivePart(f"parts must be integers, got {p!r}")
            if p <= 0:
                raise NonPositivePart(f"parts must be positive, got {p}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise NotDecreasing(f"parts increase: {a} < {b}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)!r})"

    def __str__(self):
        return format_partition(self)

    def __len__(self):
        return len(self.parts)

    def __bool__(self):
        return bool(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, row: int) -> int:
        """Length of the given 1-based row, zero past the last row."""
        return self.parts[row - 1] if 1 <= row <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        parts = self.parts
        if not parts:
            return Partition()
        conj = [0] * parts[0]
        for p in parts:
            for c in range(p):
                conj[c] += 1
        return Partition(conj)

    def contains(self, b: Box) -> bool:
        return 1 <= b.row <= len(self.parts) and 1 <= b.col <= self.parts[b.row - 1]

    def boxes(self) -> Iterator[Box]:
        for r, p in enumerate(self.parts, 1):
            for c in range(1, p + 1):
                yield Box(r, c)

    def addable_boxes(self) -> list[Box]:
        """Corners where a box may be adjoined, sorted by row.

        One box per row that can grow, plus the new-row box below the
        diagram.  Always one more entry than :meth:`removable_boxes`.
        """
        parts = self.parts
        out = []
        for r, p in enumerate(parts, 1):
            if r == 1 or parts[r - 2] > p:
                out.append(Box(r, p + 1))
        out.append(Box(len(parts) + 1, 1))
        return out

    def removable_boxes(self) -> list[Box]:
        """Last box of each row strictly longer than the next, by row."""
        parts = self.parts
        out = []
        for r, p in enumerate(parts, 1):
            nxt = parts[r] if r < len(parts) else 0
            if p > nxt:
                out.append(Box(r, p))
        return out

    def add_box(self, b: Box) -> "Partition":
        if b not in self.addable_boxes():
            raise NotAddable(f"{b} is not addable to {self}")
        parts = list(self.parts)
        if b.row == len(parts) + 1:
            parts.append(1)
        else:
            parts[b.row - 1] += 1
        return Partition(parts)

    def remove_box(self, b: Box) -> "Partition":
        if b not in self.removable_boxes():
            raise NotRemovable(f"{b} is not removable from {self}")
        parts = list(self.parts)
        parts[b.row - 1] -= 1
        if parts and parts[-1] == 0:
            parts.pop()
        return Partition(parts)


_set_parts = Partition.parts.__set__


def _trusted(parts: tuple) -> Partition:
    """Wrap ``parts`` without copying or checking it.

    Callers guarantee a tuple of positive, weakly decreasing ints, such as
    a kernel result."""
    lam = object.__new__(Partition)
    _set_parts(lam, parts)
    return lam


def arm(lam: Partition, b: Box) -> int:
    """Number of boxes strictly to the right of ``b`` in its row."""
    if not lam.contains(b):
        raise BoxOutside(f"{b} not inside {lam}")
    return lam.parts[b.row - 1] - b.col


def hook(lam: Partition, b: Box) -> int:
    """Arm plus leg plus one: the boxes of the hook through ``b``."""
    if not lam.contains(b):
        raise BoxOutside(f"{b} not inside {lam}")
    conj = 0
    for p in lam.parts:
        if p >= b.col:
            conj += 1
    return (lam.parts[b.row - 1] - b.col) + (conj - b.row) + 1


_PARTITION_RE = re.compile(r"\[(\d+(?:,\d+)*)?\]\Z")


def parse_partition(text: str) -> Partition:
    """Parse bracket-list text like ``[4,2,1]``; ``[]`` is the empty partition."""
    m = _PARTITION_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a partition: {text!r}")
    body = m.group(1)
    parts = tuple(int(tok) for tok in body.split(",")) if body else ()
    return Partition(parts)


def format_partition(lam: Partition) -> str:
    """Canonical text form, no spaces; inverse of :func:`parse_partition`."""
    return _format_parts(lam.parts)


def _format_parts(parts: tuple) -> str:
    """:func:`format_partition` of a raw part tuple."""
    return "[" + ",".join(map(str, parts)) + "]"


def partitions_of_size(m: int) -> Iterator[Partition]:
    """All partitions of ``m`` in lexicographically decreasing part order."""

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    if m < 0:
        return
    for parts in rec(m, m if m else 1, []):
        yield Partition(parts)
