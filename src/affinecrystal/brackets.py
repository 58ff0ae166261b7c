"""The bracket rule that both crystal models act through.

Each model writes its color-i tokens as ``(`` and ``)`` in a prescribed
order (corners decreasing in the arm order, or units by decreasing k),
cancels each ``)`` against the nearest unmatched ``(`` to its left, and
acts at an extreme unmatched bracket: lowering at the leftmost ``(``,
raising at the rightmost ``)``.  The unmatched tokens always read ``)* (*``.
:func:`scan` is the one cancellation routine, run by the partition kernel
on raw corner tokens and by :class:`BracketString`.
"""

from __future__ import annotations

from typing import Any, NamedTuple

OPEN = "("
CLOSE = ")"


def scan(tokens) -> tuple[int, int, int | None, int | None]:
    """(eps, phi, rightmost unmatched ')', leftmost unmatched '(').

    ``tok[-1]`` is each token's side; a missing index is None.  Cancelled
    pairs nest, so the leftmost unmatched ``(`` is the one that last
    opened the depth from 0.
    """
    eps = phi = 0
    last_close = first_open = None
    for idx, tok in enumerate(tokens):
        if tok[-1] == OPEN:
            if not phi:
                first_open = idx
            phi += 1
        elif phi:
            phi -= 1
        else:
            eps += 1
            last_close = idx
    return eps, phi, last_close, first_open if phi else None


class BracketString(NamedTuple):
    """Tokens in their acting order plus the result of :func:`scan`.

    ``payload`` is whatever the token stands for: a box for the partition
    model, a (residue, k) pair for the monomial model.  ``eps`` and
    ``phi`` count the unmatched ``)`` and ``(``; ``last_close`` and
    ``first_open`` index the extreme unmatched ones, None when missing,
    so reading a missing one's payload raises.
    """

    sides: tuple[str, ...]
    payloads: tuple[Any, ...]
    eps: int
    phi: int
    last_close: int | None
    first_open: int | None

    @classmethod
    def build(cls, tokens: list[tuple[Any, str]]) -> "BracketString":
        """From (payload, side) tokens in their acting order."""
        return cls(
            tuple([side for _, side in tokens]),
            tuple([payload for payload, _ in tokens]),
            *scan(tokens),
        )

    def __str__(self):
        return "".join(self.sides)
