"""Raising and lowering operators on partitions via the bracket rule.

For a residue i and arm sequence A, the addable and removable corners of
color i are written as ``(`` and ``)`` respectively, sorted strictly
decreasing in the total order induced by A, and matched by the usual rule.
Lowering adds the box of the leftmost unmatched ``(``; raising removes the
box of the rightmost unmatched ``)``.

With the horizontal arm sequence the order collapses to "higher box first,
then larger content".  The kernel writes each corner as the token
``(height, -row, side)``, so the horizontal order is the tokens' own order
reversed, and a table arm sorts the same tokens with the kernel's
``precedes``, reading col = height - row + 1.
:func:`bracket_string` turns the tokens back into boxes.
"""

from __future__ import annotations

from . import _backend
from .arms import ArmSequence
from .brackets import BracketString
from .partitions import Box, Partition, _color, _trusted


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


__all__ = [
    "bracket_string",
    "f_down",
    "e_up",
    "eps_phi",
    "f_box",
    "e_box",
]
