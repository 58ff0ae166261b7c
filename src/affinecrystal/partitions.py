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

from ._kernel_py import _add, _remove, columns, corners
from .brackets import CLOSE, OPEN
from .errors import BoundOutOfRange, BoxOutside, ParseError


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


# largest rank n accepted.  Every vertex holds or scans one entry per
# residue, so work grows with n times the vertices: on a 2-core x86 host
# `compare --use-psi` at n = 100, depth 33 (53,963 pairs) took 4.3 s and
# peaked at 73 MB, and the monomial JSON graph 2.1 s and 121 MB, so at
# MAX_GRAPH_VERTICES the ceiling allows about a minute and 1 GB
MAX_RANK = 100


def check_rank(n: int) -> None:
    """BoundOutOfRange unless n is an int in 3..MAX_RANK."""
    if type(n) is not int or n < 3:
        raise BoundOutOfRange(f"rank must be an int >= 3, got {n!r}")
    if n > MAX_RANK:
        raise BoundOutOfRange(f"rank {n} is above the ceiling of {MAX_RANK}")


def _color(owner, i) -> int:
    """i mod owner.n, for a Monomial or an ArmSequence; ParseError unless
    i is an int (bools included)."""
    if type(i) is not int:
        raise ParseError(f"residue {i!r} is not an int")
    return i % owner.n


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
                raise ParseError(f"parts must be integers, got {p!r}")
            if p <= 0:
                raise ParseError(f"parts must be positive, got {p}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ParseError(f"parts increase: {a} < {b}")
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

    def conjugate(self) -> "Partition":
        return _trusted(tuple(columns(self.parts)))

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
        return [Box(-nr, h + 1 + nr) for h, nr, side in corners(self.parts, 1)[0]
                if side == OPEN]

    def removable_boxes(self) -> list[Box]:
        """Last box of each row strictly longer than the next, by row."""
        return [Box(-nr, h + 1 + nr) for h, nr, side in corners(self.parts, 1)[0]
                if side == CLOSE]

    def add_box(self, b: Box) -> "Partition":
        if b not in self.addable_boxes():
            raise BoxOutside(f"{b} is not addable to {self}")
        return _trusted(_add(self.parts, b.row))

    def remove_box(self, b: Box) -> "Partition":
        if b not in self.removable_boxes():
            raise BoxOutside(f"{b} is not removable from {self}")
        return _trusted(_remove(self.parts, b.row))


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
    leg = columns(lam.parts)[b.col - 1] - b.row
    return (lam.parts[b.row - 1] - b.col) + leg + 1


# largest partition size parse_partition accepts.  On a 2-core x86 host
# `check "[1000000]"` takes 0.5 s and peaks at 49 MB, as its columns list
# has one entry per box of the first row
MAX_PARTITION_SIZE = 1_000_000

_PARTITION_RE = re.compile(r"\[(\d+(?:,\d+)*)?\]\Z")


def parse_partition(text: str) -> Partition:
    """Parse bracket-list text like ``[4,2,1]``; ``[]`` is the empty partition.

    A size above MAX_PARTITION_SIZE raises BoundOutOfRange before any
    operator sees the partition.
    """
    m = _PARTITION_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a partition: {text!r}")
    body = m.group(1)
    try:
        parts = tuple(int(tok) for tok in body.split(",")) if body else ()
    except ValueError:
        # the tokens are digits, so int() refused one for its length
        raise BoundOutOfRange(
            f"a part has too many digits; the size ceiling is {MAX_PARTITION_SIZE}"
        ) from None
    size = sum(parts)
    if size > MAX_PARTITION_SIZE:
        raise BoundOutOfRange(
            f"partition size {size} is above the ceiling of {MAX_PARTITION_SIZE}"
        )
    return Partition(parts)


def format_partition(lam: Partition) -> str:
    """Canonical text form, no spaces; inverse of :func:`parse_partition`."""
    return _format_parts(lam.parts)


def _format_parts(parts: tuple) -> str:
    """:func:`format_partition` of a raw part tuple of ints."""
    return repr(list(parts)).replace(" ", "")


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
