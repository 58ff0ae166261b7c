"""Raising and lowering operators on partitions via the bracket rule.

For a residue i and arm sequence A, the addable and removable corners of
color i are written as ``(`` and ``)`` respectively, sorted strictly
decreasing in the total order induced by A, and matched by the usual rule.
Lowering adds the box of the leftmost unmatched ``(``; raising removes the
box of the rightmost unmatched ``)``.

With the horizontal arm sequence the order collapses to "higher box first,
then larger content" (:func:`horizontal_key`); the generic comparator
remains the source of truth and the key is verified against it.

The kernel writes each corner as the token ``(height, -row, side)``, so
the horizontal order is the tokens' own order reversed, and a table arm
sorts the same tokens with ``precedes``, reading col = height - row + 1.
:func:`bracket_string` turns the tokens back into boxes.
"""

from __future__ import annotations

from . import _backend
from ._kernel_py import precedes
from .arms import ArmSequence
from .brackets import BracketString
from .errors import ResidueMismatch, SameBox
from .partitions import Box, Partition, _color, _trusted, content, height


def box_order_gt(b: Box, b_prime: Box, a: ArmSequence) -> bool:
    """Whether ``b_prime`` strictly precedes ``b`` in the order induced by ``a``.

    Defined for distinct boxes of equal residue on distinct diagonals; the
    order itself is the kernel's ``precedes``, which also sorts table-arm
    corners.
    """
    if b == b_prime:
        raise SameBox(f"cannot order {b} against itself")
    delta = content(b_prime) - content(b)
    if delta % a.n != 0:
        raise ResidueMismatch(f"{b} and {b_prime} differ in residue mod {a.n}")
    if delta == 0:
        raise SameBox(f"{b} and {b_prime} share a diagonal; order undefined")
    return precedes(b.row, b.col, b_prime.row, b_prime.col, a.n, a.values)


def horizontal_key(b: Box) -> tuple[int, int]:
    """Sort key (height, content): descending lexicographic order on corner
    sets matches the horizontal arm-sequence order."""
    return height(b), content(b)


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
    idx = s.leftmost_unmatched_open()
    return None if idx is None else s.payloads[idx]


def e_box(lam: Partition, i: int, a: ArmSequence) -> Box | None:
    """The box :func:`e_up` would remove (for reporting), or None."""
    s = bracket_string(lam, i, a)
    idx = s.rightmost_unmatched_close()
    return None if idx is None else s.payloads[idx]


__all__ = [
    "box_order_gt",
    "horizontal_key",
    "bracket_string",
    "f_down",
    "e_up",
    "eps_phi",
    "f_box",
    "e_box",
]
