"""Laurent monomials in the variables Y(i,k) and their crystal operators.

A monomial is a finitely supported exponent map (residue i, integer k) ->
nonzero integer.  The operators multiply by

    A(i,k) = Y(i,k-1) Y(i,k+1) Y(i+1,k)^-1 Y(i-1,k)^-1

(residues mod n) at a position read off either from the running-sum
statistics eps/phi/p/q or, equivalently, from a bracket string holding one
``(`` per positive exponent unit and one ``)`` per negative unit, ordered
by decreasing k.  Both definitions are implemented and tested against each
other.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import NamedTuple

from .brackets import CLOSE, OPEN, BracketString
from .errors import (
    CompatibilityUndefinedForOddN,
    ParseError,
    RankMismatch,
    ResidueOutOfRange,
    UnknownChoice,
    ZeroExponent,
)
from .partitions import check_rank


class Monomial:
    """Immutable product of Y(i,k)^u factors over a fixed rank n.

    The only stored state is the canonical exponent dict (zero exponents
    dropped, residues reduced mod n); equality and hashing use it, so
    monomials work as dictionary keys during graph generation.  The
    ordered factor tuple is built only on request, by :meth:`factors`.
    """

    __slots__ = ("n", "_exp", "_hash")

    def __init__(self, n: int, exponents: dict | None = None):
        check_rank(n)
        exp = {}
        if exponents:
            for (i, k), u in exponents.items():
                if type(i) is not int or type(k) is not int or type(u) is not int:
                    raise ParseError(
                        f"factor Y({i!r},{k!r})^{u!r} needs an int residue, "
                        "k and exponent"
                    )
                key = (i % n, k)
                v = exp.get(key, 0) + u
                if v:
                    exp[key] = v
                elif u:
                    # only an existing -u cancels to 0
                    del exp[key]
        _set_n(self, n)
        _set_exp(self, exp)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def exponent(self, i: int, k: int) -> int:
        return self._exp.get((i % self.n, k), 0)

    def factors(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """((i, k), u) pairs sorted by decreasing k, then increasing i."""
        return tuple(sorted(self._exp.items(), key=_factor_order))

    def support(self, i: int) -> list[int]:
        """The k with nonzero exponent at residue i, increasing."""
        return [k for k, _ in _residue_terms(self, i)]

    def is_one(self) -> bool:
        return not self._exp

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatch("cannot multiply monomials over different ranks")
        exp = dict(self._exp)
        for key, u in other._exp.items():
            v = exp.get(key, 0) + u
            if v:
                exp[key] = v
            else:
                del exp[key]
        return _canonical(self.n, exp)

    def __pow__(self, e: int) -> "Monomial":
        return Monomial(self.n, {key: u * e for key, u in self._exp.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.n == other.n
            and self._exp == other._exp
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self._exp.items())))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return f"Monomial(n={self.n}, {format_monomial(self)!r})"

    def __str__(self):
        return format_monomial(self)


_set_n = Monomial.n.__set__
_set_exp = Monomial._exp.__set__
_set_hash = Monomial._hash.__set__


def _factor_order(item):
    (i, k), _ = item
    return -k, i


def _canonical(n: int, exp: dict) -> Monomial:
    """Wrap ``exp`` without copying or checking it.

    Callers guarantee a valid rank and a canonical dict: residues in
    [0, n), no zero exponents, and no other reference to ``exp``."""
    m = object.__new__(Monomial)
    _set_n(m, n)
    _set_exp(m, exp)
    _set_hash(m, None)
    return m


def _key(exp: dict) -> tuple[int, ...]:
    """Flat (-k, i, u, -k, i, u, ...) of a canonical dict, in factor order."""
    return tuple(chain.from_iterable(sorted([(-k, i, u) for (i, k), u in exp.items()])))


class _FactorTexts(dict):
    """Text of each (-k, i, u) factor, made on first use."""

    def __missing__(self, factor):
        nk, i, u = factor
        text = self[factor] = f"Y({i},{-nk})" if u == 1 else f"Y({i},{-nk})^{u}"
        return text


def _format_key(key: tuple[int, ...], texts: _FactorTexts) -> str:
    """Canonical text of the monomial whose :func:`_key` is ``key``.

    A caller formatting many monomials passes one ``texts`` to all calls."""
    if not key:
        return "1"
    return "*".join(map(texts.__getitem__, zip(key[::3], key[1::3], key[2::3])))


def _residue_terms(m: Monomial, i: int) -> list[tuple[int, int]]:
    """(k, u) for every nonzero exponent at residue i, by increasing k."""
    i %= m.n
    return sorted((k, u) for (j, k), u in m._exp.items() if j == i)


def y(n: int, i: int, k: int, power: int = 1) -> Monomial:
    """The single-variable monomial Y(i,k)^power."""
    return Monomial(n, {(i, k): power})


def one(n: int) -> Monomial:
    return Monomial(n)


_TERM_RE = re.compile(r"Y\((\d+),(-?\d+)\)(?:\^(-?\d+))?\Z")


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse ``Y(i,k)`` factors joined by ``*``; ``1`` is the empty product."""
    check_rank(n)
    text = text.strip()
    if text == "1":
        return Monomial(n)
    if not text:
        raise ParseError("empty monomial text")
    exp: dict[tuple[int, int], int] = {}
    for term in text.split("*"):
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"bad monomial factor {term!r}")
        i, k = int(m.group(1)), int(m.group(2))
        if not 0 <= i < n:
            raise ResidueOutOfRange(f"residue {i} outside [0, {n})")
        u = 1 if m.group(3) is None else int(m.group(3))
        if u == 0:
            raise ZeroExponent(f"factor {term!r} has exponent 0")
        exp[(i, k)] = exp.get((i, k), 0) + u
    return Monomial(n, exp)


def format_monomial(m: Monomial) -> str:
    """Canonical text: factors by decreasing k then increasing residue."""
    return _format_key(_key(m._exp), _FactorTexts())


def mult_a(m: Monomial, i: int, k: int, sign: int = 1) -> Monomial:
    """Multiply by A(i,k)^sign with cancellation (sign is +1 or -1)."""
    if sign not in (1, -1):
        raise UnknownChoice(f"sign must be +1 or -1, got {sign}")
    n = m.n
    exp = dict(m._exp)
    _mult_a_exp(exp, n, i % n, k, sign)
    return _canonical(n, exp)


def _mult_a_exp(exp: dict, n: int, i: int, k: int, sign: int) -> None:
    """Multiply the canonical dict ``exp`` by A(i,k)^sign in place; i in [0, n)."""
    for key, u in (
        ((i, k - 1), sign),
        ((i, k + 1), sign),
        (((i + 1) % n, k), -sign),
        (((i - 1) % n, k), -sign),
    ):
        v = exp.get(key, 0) + u
        if v:
            exp[key] = v
        else:
            del exp[key]


def weight(m: Monomial) -> dict[int, int]:
    """Coefficient of each fundamental weight: residue -> sum of exponents.

    Residues whose exponents sum to zero are omitted."""
    out: dict[int, int] = {}
    for (i, _), u in m.factors():
        out[i] = out.get(i, 0) + u
        if out[i] == 0:
            del out[i]
    return out


class MonomialStats(NamedTuple):
    """eps/phi and the extremal positions p/q (None when the count is 0)."""

    eps: int
    phi: int
    p: int | None
    q: int | None


def stats(m: Monomial, i: int) -> MonomialStats:
    """Running-sum statistics at residue i.

    eps maximizes -sum(u over l >= L) and p is the largest maximizing L;
    phi maximizes sum(u over l <= L) and q is the smallest maximizing L.
    Both partial sums are constant outside the support, so scanning the
    support points suffices: intervals of constancy close at a support
    point on the relevant side.
    """
    terms = _residue_terms(m, i)
    eps, p = 0, None
    tail = 0
    for k, u in reversed(terms):
        tail += u
        if -tail > eps:
            eps, p = -tail, k
    phi, q = _phi_q(terms)
    return MonomialStats(eps, phi, p, q)


def _phi_q(terms: list[tuple[int, int]]) -> tuple[int, int | None]:
    """phi and the smallest maximizing q from (k, u) terms by increasing k."""
    phi, q = 0, None
    head = 0
    for k, u in terms:
        head += u
        if head > phi:
            phi, q = head, k
    return phi, q


def monomial_bracket_string(m: Monomial, i: int) -> BracketString:
    """One '(' per positive unit and ')' per negative unit, decreasing k."""
    i %= m.n
    tokens = []
    for k, u in reversed(_residue_terms(m, i)):
        side = OPEN if u > 0 else CLOSE
        tokens.extend((side, (i, k)) for _ in range(abs(u)))
    return BracketString.build(tokens)


def _check_mode(mode: str) -> None:
    if mode not in ("analytic", "bracket"):
        raise UnknownChoice(f"mode must be 'analytic' or 'bracket', got {mode!r}")


def e_m(m: Monomial, i: int, mode: str = "analytic") -> Monomial | None:
    """Raising operator: multiply by A(i, .), or None when eps is 0."""
    _check_mode(mode)
    if mode == "analytic":
        st = stats(m, i)
        if st.eps == 0:
            return None
        return mult_a(m, i, st.p - 1, +1)
    s = monomial_bracket_string(m, i)
    idx = s.rightmost_unmatched_close()
    if idx is None:
        return None
    _, k = s.payloads[idx]
    return mult_a(m, i, k - 1, +1)


def f_m(m: Monomial, i: int, mode: str = "analytic") -> Monomial | None:
    """Lowering operator: multiply by A(i, .)^-1, or None when phi is 0."""
    _check_mode(mode)
    if mode == "analytic":
        q = _phi_q(_residue_terms(m, i))[1]
        if q is None:
            return None
        return mult_a(m, i, q + 1, -1)
    s = monomial_bracket_string(m, i)
    idx = s.leftmost_unmatched_open()
    if idx is None:
        return None
    _, k = s.payloads[idx]
    return mult_a(m, i, k + 1, -1)


def is_dominant(m: Monomial) -> bool:
    """All exponents nonnegative."""
    return all(u >= 0 for u in m._exp.values())


def is_compatible(m: Monomial) -> bool:
    """Support obeys k = i mod 2; only defined for even rank."""
    if m.n % 2 != 0:
        raise CompatibilityUndefinedForOddN(
            f"compatibility needs even rank, got n = {m.n}"
        )
    return all(k % 2 == i % 2 for i, k in m._exp)
