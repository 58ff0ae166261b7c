"""Arm sequences and the notion of an illegal box.

An arm sequence over rank ``n`` is an integer sequence ``A_1, A_2, ...``
subject to two conditions:

  (i)  t - 1 <= A_t <= (n - 1) t          for every t >= 1,
  (ii) A_(t+u) is A_t + A_u or A_t + A_u + 1   for every t, u >= 1.

A box ``b`` of a partition is illegal for ``A`` when ``hook(b) = n t`` for
some positive ``t`` and ``arm(b) = A_t``; a partition with no illegal box
is regular.  Sequences are either formula-backed (the "horizontal" choice
``A_t = ceil(n t / 2) - 1``) or table-backed; queries past a table's end
raise rather than extrapolate, since a silent guess could break (ii).
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Sequence

from . import _backend
from ._kernel_py import arm_value, horizontal_value  # noqa: F401 (public here)
from .errors import (
    AxiomIIViolation,
    AxiomIViolation,
    BoundOutOfRange,
    EmptyArmTable,
    HorizonExceedsTable,
    ParseError,
)
from .partitions import Box, Partition, check_rank

# largest arm horizon: random tables, validation and table construction
# are quadratic in it.  At 1000 on a 2-core x86 host a random table takes
# about 0.15 s and validating a table about 0.2 s, while no workload needs
# more than 100
MAX_ARM_HORIZON = 1000
# longest arm file read: 32 bytes per value, room for a sign, any value a
# valid table holds at MAX_RANK and loose whitespace
_ARM_FILE_BYTES = 32 * MAX_ARM_HORIZON


def _check_horizon(horizon) -> None:
    if type(horizon) is not int or not 1 <= horizon <= MAX_ARM_HORIZON:
        raise BoundOutOfRange(
            f"horizon must be an int in 1..{MAX_ARM_HORIZON}, got {horizon!r}"
        )


class ArmSequence:
    """Rank ``n`` plus a provider for the values ``A_t``.

    ``values is None`` means the horizontal formula; otherwise a finite
    table of ints (ParseError for any other type, bools included) defined
    for ``1 <= t <= len(values)``.  ``descriptor`` records how the
    sequence was obtained ("horizontal", "file:PATH", "random:SEED:T") and
    travels into exported graphs.
    """

    __slots__ = ("n", "values", "descriptor")

    def __init__(self, n: int, values: Sequence[int] | None = None,
                 descriptor: str | None = None):
        check_rank(n)
        if values is not None:
            values = tuple(values)
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


class ArmViolation(NamedTuple):
    """One failed condition: axiom 1 at index t, or axiom 2 at (t, u)."""

    axiom: int
    t: int
    u: int | None = None


def horizontal_arm(n: int) -> ArmSequence:
    check_rank(n)
    return ArmSequence(n, None, "horizontal")


def unchecked_arm(n: int, values: Iterable[int],
                  descriptor: str | None = None) -> ArmSequence:
    """Table-backed sequence with no validation; feed to :func:`validate_arm`.

    The table must hold 1..MAX_ARM_HORIZON values."""
    values = tuple(values)
    if not values:
        raise EmptyArmTable("arm table must be nonempty")
    _check_horizon(len(values))
    return ArmSequence(n, values, descriptor)


def validate_arm(a: ArmSequence, horizon: int) -> list[ArmViolation]:
    """Every failed condition with t (and t + u) up to ``horizon``.

    Checks axiom (i) for all t, then axiom (ii) for all pairs t <= u with
    t + u <= horizon; the pairwise sweep is quadratic, which is fine at
    the scales these tables see; ``horizon`` must be at most
    MAX_ARM_HORIZON.
    """
    _check_horizon(horizon)
    if a.horizon is not None and horizon > a.horizon:
        raise HorizonExceedsTable(horizon, a.horizon)
    bad = []
    for t in range(1, horizon + 1):
        if not (t - 1 <= a.value(t) <= (a.n - 1) * t):
            bad.append(ArmViolation(1, t))
    for t in range(1, horizon):
        for u in range(t, horizon - t + 1):
            lo = a.value(t) + a.value(u)
            if a.value(t + u) not in (lo, lo + 1):
                bad.append(ArmViolation(2, t, u))
    return bad


def arm_from_values(n: int, values: Iterable[int],
                    descriptor: str | None = None) -> ArmSequence:
    """Table-backed sequence, validated on construction over its full length."""
    a = unchecked_arm(n, values, descriptor)
    bad = validate_arm(a, a.horizon)
    if bad:
        v = bad[0]
        if v.axiom == 1:
            raise AxiomIViolation(v.t, a.value(v.t), n)
        raise AxiomIIViolation(v.t, v.u, a.value(v.t + v.u),
                               a.value(v.t) + a.value(v.u))
    return a


def arm_from_file(n: int, path: str, validate: bool = True) -> ArmSequence:
    """Load whitespace-separated integers A_1 A_2 ... from a text file.

    A file over 32 bytes per value of the longest table raises
    BoundOutOfRange unparsed.  With ``validate`` false the table is loaded
    as is, for :func:`validate_arm` to list every violation."""
    with open(path, "rb") as fh:
        data = fh.read(_ARM_FILE_BYTES + 1)
    if len(data) > _ARM_FILE_BYTES:
        raise BoundOutOfRange(f"arm file {path} is longer than {_ARM_FILE_BYTES} bytes")
    try:
        values = [int(tok) for tok in data.decode("utf-8").split()]
    except ValueError as exc:  # UnicodeDecodeError included
        raise ParseError(f"bad arm table in {path}: {exc}") from None
    make = arm_from_values if validate else unchecked_arm
    return make(n, values, f"file:{path}")


def random_arm(n: int, horizon: int, seed: int) -> ArmSequence:
    """A uniformly-extended valid table of length ``horizon``.

    Each A_t is drawn (reproducibly, from ``seed``) from the intersection
    of the axiom (i) range with every window [A_s + A_(t-s),
    A_s + A_(t-s) + 1]; that intersection is nonempty whenever the prefix
    is valid, so an empty range can only mean a bug and raises.
    ``horizon`` must be at most MAX_ARM_HORIZON.  ``seed`` must be an int
    (ParseError otherwise, bools included): it is written into the
    descriptor, which :func:`arm_from_descriptor` must rebuild the same
    table from.
    """
    check_rank(n)
    _check_horizon(horizon)
    if type(seed) is not int:
        raise ParseError(f"random arm seed {seed!r} is not an int")
    rng = random.Random(seed)
    values: list[int] = []
    for t in range(1, horizon + 1):
        lo, hi = t - 1, (n - 1) * t
        # the window of s is the window of t - s
        for s in range(1, t // 2 + 1):
            base = values[s - 1] + values[t - s - 1]
            lo = max(lo, base)
            hi = min(hi, base + 1)
        if lo > hi:
            raise RuntimeError(
                f"empty choice set at t = {t}; prefix {values} should admit "
                "an extension"
            )
        values.append(rng.randint(lo, hi))
    return ArmSequence(n, values, f"random:{seed}:{horizon}")


def arm_from_descriptor(n: int, text: str, validate: bool = True) -> ArmSequence:
    """Build from CLI-style text: horizontal | file:PATH | random:SEED:T.

    ``validate`` is passed on to :func:`arm_from_file`; the other two
    kinds are valid by construction."""
    if text == "horizontal":
        return horizontal_arm(n)
    if text.startswith("file:"):
        return arm_from_file(n, text[len("file:"):], validate)
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
    is linear in the size of ``lam``.  The boxes are tested in the order
    of ``lam.boxes()``, so a table too short for several boxes raises at
    the first of them.
    """
    found = _backend.kernel.illegal_boxes(lam.parts, a.n, a.values)
    return [(Box(r, c), h, arm_len) for r, c, h, arm_len in found]


def is_regular(lam: Partition, a: ArmSequence) -> bool:
    """Membership test for the regular set: no box of ``lam`` is illegal."""
    return _backend.kernel.is_regular(lam.parts, a.n, a.values)
