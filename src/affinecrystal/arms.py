"""Arm sequences and the partition crystal they determine.

The arm sequence is the whole input of the partition crystal, and this is
the one module that looks up the partition kernel: ``_backend.kernel``,
read at call time so a profiler can swap it.

An arm sequence over rank ``n`` is an integer sequence ``A_1, A_2, ...``
subject to two conditions:

  (i)  t - 1 <= A_t <= (n - 1) t          for every t >= 1,
  (ii) A_(t+u) is A_t + A_u or A_t + A_u + 1   for every t, u >= 1.

Condition (ii) up to a table's length H has a linear form: it holds
exactly when

  max_t A_t / t  <  min_t (A_t + 1) / t          (t = 1..H, exact fractions),

that is, when A_t = floor(t alpha) for t <= H and some real slope alpha,
the slope that makes Fayers' family uncountable.  This is the finite
almost-additive theorem (USAMO 1997, Problem 6).  :func:`_valid_prefix`
applies it one value at a time: after a valid A_1..A_(t-1), with L and U
the max and the min above, the values of A_t that keep the prefix valid
are the integers in [max(t - 1, floor(t L)), min((n - 1) t, ceil(t U) - 1)].

A box ``b`` of a partition is illegal for ``A`` when ``hook(b) = n t`` for
some positive ``t`` and ``arm(b) = A_t``; a partition with no illegal box
is regular.  Sequences are either formula-backed (the "horizontal" choice
``A_t = ceil(n t / 2) - 1``) or table-backed; queries past a table's end
raise rather than extrapolate, since a silent guess could break (ii).

The color-i corners of a partition, addable as ``(`` and removable as
``)``, are sorted strictly decreasing in the order A induces (for the
horizontal sequence: higher box first, then larger content) and matched
by the usual rule.  Lowering adds the box of the leftmost unmatched
``(``; raising removes the box of the rightmost unmatched ``)``.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator

from . import _backend
from ._kernel_py import arm_value, horizontal_value  # noqa: F401 (public here)
from .brackets import BracketString
from .errors import (
    ArmAxiomViolation,
    BoundOutOfRange,
    HorizonExceedsTable,
    ParseError,
    RankMismatch,
)
from .partitions import Box, Partition, _color, _format_parts, _trusted, check_rank

# largest arm horizon.  Drawing and loading a table are linear in it, and
# only validate_arm's listing of every (t, u) is quadratic.  At 1000 on a
# 2-core x86 host a random table takes 0.002 s, loading a valid one
# 0.001 s and listing a table's violations 0.17 s, while no workload needs
# more than 100
MAX_ARM_HORIZON = 1000
# longest arm file read: 32 bytes per value, room for a sign, any value a
# valid table holds at MAX_RANK and loose whitespace
_ARM_FILE_BYTES = 32 * MAX_ARM_HORIZON

# largest size count_regular accepts.  The work grows 3-5x per 10 sizes and
# faster at larger n, while the lists stay small.  On a 2-core x86 host,
# sizes 70, 80, 90 and 100 took 1.1, 4.2, 13 and 37 s at n = 3, and 3.3,
# 10, 57 and 132 s at n = 6
MAX_COUNT_SIZE = 100


def _check_horizon(horizon) -> None:
    if type(horizon) is not int or not 1 <= horizon <= MAX_ARM_HORIZON:
        raise BoundOutOfRange(
            f"horizon must be an int in 1..{MAX_ARM_HORIZON}, got {horizon!r}"
        )


class ArmSequence:
    """Rank ``n`` plus a provider for the values ``A_t``.

    ``values is None`` means the horizontal formula; otherwise a table of
    1..MAX_ARM_HORIZON ints (ParseError for any other type, bools
    included) defined for ``1 <= t <= len(values)``, not checked against
    the axioms.  ``descriptor`` records how the sequence was obtained
    ("horizontal", "file:PATH", "random:SEED:T") for exported graphs.
    """

    __slots__ = ("n", "values", "descriptor")

    def __init__(self, n: int, values: Iterable[int] | None = None,
                 descriptor: str | None = None):
        check_rank(n)
        if values is not None:
            values = tuple(values)
            if not values:
                raise BoundOutOfRange("arm table must be nonempty")
            _check_horizon(len(values))
            for t, v in enumerate(values, 1):
                if type(v) is not int:  # bools included
                    raise ParseError(f"arm value A_{t} = {v!r} is not an int")
        self.n = n
        self.values = values
        self.descriptor = descriptor

    @property
    def horizon(self) -> int | None:
        """Largest queryable t, or None when formula-backed."""
        return None if self.values is None else len(self.values)

    def value(self, t: int) -> int:
        """A_t; ParseError unless t is an int (bools included)."""
        if type(t) is not int:
            raise ParseError(f"arm index t = {t!r} is not an int")
        if t < 1:
            raise BoundOutOfRange(f"arm sequences start at t = 1, got {t}")
        return arm_value(t, self.n, self.values)

    def __repr__(self):
        if self.descriptor:
            return f"ArmSequence(n={self.n}, {self.descriptor!r})"
        return f"ArmSequence(n={self.n}, table of length {self.horizon})"


def horizontal_arm(n: int) -> ArmSequence:
    return ArmSequence(n, None, "horizontal")


def validate_arm(a: ArmSequence, horizon: int) -> Iterator[ArmAxiomViolation]:
    """Yields one ArmAxiomViolation per failed condition with t (and t + u)
    up to ``horizon``: axiom (i) for all t, then axiom (ii) for all pairs
    t <= u with t + u <= horizon.  The pairwise sweep is quadratic, which
    is fine at the scales these tables see.  A ``horizon`` above
    MAX_ARM_HORIZON or past the table's end raises here, before any
    record is made; the records are made one at a time, as they are read.
    """
    _check_horizon(horizon)
    if a.horizon is not None and horizon > a.horizon:
        raise HorizonExceedsTable(horizon, a.horizon)
    return _violations(a, horizon)


def _violations(a: ArmSequence, horizon: int) -> Iterator[ArmAxiomViolation]:
    """validate_arm's records, unchecked, for a caller that needs the first."""
    for t in range(1, horizon + 1):
        if not (t - 1 <= a.value(t) <= (a.n - 1) * t):
            yield ArmAxiomViolation(a, t)
    for t in range(1, horizon):
        for u in range(t, horizon - t + 1):
            lo = a.value(t) + a.value(u)
            if a.value(t + u) not in (lo, lo + 1):
                yield ArmAxiomViolation(a, t, u)


def _valid_prefix(n: int, horizon: int,
                  pick: Callable[[int, int, int], int]) -> list[int]:
    """The longest valid prefix of A_1..A_horizon, with A_t = pick(t, lo, hi).

    [lo, hi] holds exactly the values of A_t that keep the prefix valid
    under both axioms: the slope rule in the module docstring, with
    L = lp / lq and U = up / uq kept as integer pairs.  The first value
    outside it ends the prefix and is not read again.
    """
    values: list[int] = []
    lp, lq, up, uq = 0, 1, n, 1
    for t in range(1, horizon + 1):
        # floor(t L) and ceil(t U) - 1, in integers
        lo = max(t - 1, t * lp // lq)
        hi = min((n - 1) * t, (t * up - 1) // uq)
        v = pick(t, lo, hi)
        if not lo <= v <= hi:
            break
        values.append(v)
        if v * lq > lp * t:
            lp, lq = v, t
        if (v + 1) * uq < up * t:
            up, uq = v + 1, t
    return values


def arm_from_values(n: int, values: Iterable[int],
                    descriptor: str | None = None) -> ArmSequence:
    """Table-backed sequence; raises its first axiom violation, if any.

    Each value is tested against the range its prefix admits, in linear
    time.  Only a table that leaves the range runs the quadratic
    :func:`validate_arm` sweep, to raise the record it lists first.
    """
    a = ArmSequence(n, values, descriptor)
    table = a.values
    if len(_valid_prefix(n, a.horizon, lambda t, lo, hi: table[t - 1])) < a.horizon:
        raise next(_violations(a, a.horizon))
    return a


def arm_from_file(n: int, path: str) -> ArmSequence:
    """Load whitespace-separated integers A_1 A_2 ... from a text file.

    A file over 32 bytes per value of the longest table raises
    BoundOutOfRange unparsed; the table is validated as by
    :func:`arm_from_values`, and the violation's ``a`` holds it."""
    with open(path, "rb") as fh:
        data = fh.read(_ARM_FILE_BYTES + 1)
    if len(data) > _ARM_FILE_BYTES:
        raise BoundOutOfRange(f"arm file {path} is longer than {_ARM_FILE_BYTES} bytes")
    try:
        values = [int(tok) for tok in data.decode("utf-8").split()]
    except ValueError as exc:  # UnicodeDecodeError included
        raise ParseError(f"bad arm table in {path}: {exc}") from None
    return arm_from_values(n, values, f"file:{path}")


def random_arm(n: int, horizon: int, seed: int) -> ArmSequence:
    """A uniformly-extended valid table of length ``horizon``.

    Each A_t is drawn (reproducibly, from ``seed``) by ``randint`` over
    the range its prefix admits: the slope rule in the module docstring,
    which is the axiom (i) range cut by every window [A_s + A_(t-s),
    A_s + A_(t-s) + 1].  By the theorem that range is never empty, and
    drawing costs linear time.  ``horizon`` must be at most
    MAX_ARM_HORIZON.  ``seed`` must be an int (ParseError otherwise,
    bools included): it is written into the descriptor, which
    :func:`arm_from_descriptor` must rebuild the same table from.
    """
    check_rank(n)
    _check_horizon(horizon)
    if type(seed) is not int:
        raise ParseError(f"random arm seed {seed!r} is not an int")
    rng = random.Random(seed)
    values = _valid_prefix(n, horizon, lambda t, lo, hi: rng.randint(lo, hi))
    return ArmSequence(n, values, f"random:{seed}:{horizon}")


def arm_from_descriptor(n: int, text: str) -> ArmSequence:
    """Build from CLI-style text: horizontal | file:PATH | random:SEED:T.

    Only a file can break the axioms; :func:`arm_from_file` refuses it."""
    if text == "horizontal":
        return horizontal_arm(n)
    if text.startswith("file:"):
        return arm_from_file(n, text[len("file:"):])
    if text.startswith("random:"):
        fields = text.split(":")
        if len(fields) != 3:
            raise ParseError(f"expected random:SEED:T, got {text!r}")
        try:
            seed, horizon = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"expected random:SEED:T, got {text!r}") from None
        return random_arm(n, horizon, seed)
    raise ParseError(f"unknown arm sequence {text!r}")


def illegal_boxes(lam: Partition, a: ArmSequence) -> list[tuple[Box, int, int]]:
    """(box, hook, arm) for every illegal box of ``lam``, in reading order.

    The kernel's one box scan reads the column lengths once, so the work
    is linear in the size of ``lam``.  The boxes are tested in reading
    order, so a table too short for several boxes raises at the first of
    them.
    """
    found = _backend.kernel.illegal_boxes(lam.parts, a.n, a.values)
    return [(Box(r, c), h, arm_len) for r, c, h, arm_len in found]


def is_regular(lam: Partition, a: ArmSequence) -> bool:
    """Membership test for the regular set: no box of ``lam`` is illegal."""
    return _backend.kernel.is_regular(lam.parts, a.n, a.values)


def bracket_string(lam: Partition, i: int, a: ArmSequence) -> BracketString:
    """All color-i corners of ``lam`` as an ordered, matched bracket string."""
    toks = _backend.kernel.corner_tokens(lam.parts, _color(a, i), a.n, a.values)
    return BracketString.build([(Box(-nr, h + 1 + nr), side) for h, nr, side in toks])


def f_down(lam: Partition, i: int, a: ArmSequence) -> Partition | None:
    """Lowering operator: adds one color-i box, or None when annihilated."""
    parts = _backend.kernel.f_step(lam.parts, _color(a, i), a.n, a.values)
    return None if parts is None else _trusted(parts)


def e_up(lam: Partition, i: int, a: ArmSequence) -> Partition | None:
    """Raising operator: removes one color-i box, or None when annihilated."""
    parts = _backend.kernel.e_step(lam.parts, _color(a, i), a.n, a.values)
    return None if parts is None else _trusted(parts)


def eps_phi(lam: Partition, i: int, a: ArmSequence) -> tuple[int, int]:
    """Counts of unmatched ')' and '(' in the color-i bracket string."""
    return _backend.kernel.unmatched_counts(lam.parts, _color(a, i), a.n, a.values)


def f_box(lam: Partition, i: int, a: ArmSequence) -> Box | None:
    """The box :func:`f_down` would add (for reporting), or None."""
    s = bracket_string(lam, i, a)
    return None if s.first_open is None else s.payloads[s.first_open]


def e_box(lam: Partition, i: int, a: ArmSequence) -> Box | None:
    """The box :func:`e_up` would remove (for reporting), or None."""
    s = bracket_string(lam, i, a)
    return None if s.last_close is None else s.payloads[s.last_close]


def _partition_side(n: int, a: ArmSequence | None):
    """``(root, children, label)`` of the partition crystal on part tuples,
    the twin of ``monomial_crystal._monomial_side``; ``a`` None means the
    horizontal sequence.  ``children`` lowers by every color in one pass."""
    if a is None:
        a = horizontal_arm(n)
    elif a.n != n:
        raise RankMismatch(f"arm sequence has rank {a.n}, graph has rank {n}")
    table, f_children = a.values, _backend.kernel.f_children
    return (), lambda parts: f_children(parts, n, table), _format_parts


def count_regular(n: int, a: ArmSequence, max_size: int) -> list[int]:
    """Number of regular partitions of each size 0..max_size.

    A box's hook (arm + leg + 1) depends only on its own row and the rows
    below it, so removing the first row of a regular partition leaves a
    regular partition.  The count therefore grows partitions from the last
    row upward.  Each rule "leg n t - 1 - A_t, arm A_t" forbids one
    interval of lengths for the new first row, so no box is scanned, and
    the rows too long to take another row above are counted in bulk.

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
