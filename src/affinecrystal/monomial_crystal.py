"""Laurent monomials in the variables Y(i,k) and their crystal operators.

A monomial is a finitely supported exponent map (residue i, integer k) ->
nonzero integer, held as n tuples: residue i holds its (k, u) terms by
increasing k.  This module owns that per-residue format: ``Monomial``
stores it, and :func:`_monomial_side` gives the root, the lowering and the
labels that the graph BFS and the synchronized walk run on it.  Its one
builder, :func:`_built`, gives that form to the constructor, the parser,
products and the corner map; :func:`_canonical` wraps a built form
without copying it.  The operators multiply by

    A(i,k) = Y(i,k-1) Y(i,k+1) Y(i+1,k)^-1 Y(i-1,k)^-1

(residues mod n) at a position read off either from the running-sum
statistics eps/phi/p/q or, equivalently, from a bracket string holding one
``(`` per positive exponent unit and one ``)`` per negative unit, ordered
by decreasing k.  Both definitions are implemented and tested against each
other.  Both read one residue's tuple as it is stored.  :func:`mult_a` is
the checked entry to :func:`_times_a`, the one A-multiplication, which
edits only residues i and i +- 1; ``e_m`` and ``f_m`` check the mode and
the color once and then call ``_times_a`` directly.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .brackets import CLOSE, OPEN, BracketString
from .errors import BoundOutOfRange, ParseError, RankMismatch, UnknownChoice
from .partitions import MAX_PARTITION_SIZE, _color, check_rank


class Monomial:
    """Immutable product of Y(i,k)^u factors over a fixed rank n.

    The only stored state is the canonical per-residue form: n tuples,
    residue i holding its (k, u) terms by strictly increasing k, with no
    zero exponent; the rank n is read off as their count.  Equality and
    hashing use it, so monomials work as dictionary keys.  The ordered
    factor tuple is built only on request, by :meth:`factors`.  The
    constructor and ``*`` refuse a k or an exponent above
    MAX_MONOMIAL_NUMBER in absolute value (BoundOutOfRange), so the text
    of what they build reads back.
    """

    __slots__ = ("_res",)

    def __init__(self, n: int, exponents: dict | None = None):
        check_rank(n)
        res = [[] for _ in range(n)]
        if exponents:
            for (i, k), u in exponents.items():
                if type(i) is not int or type(k) is not int or type(u) is not int:
                    raise ParseError(
                        f"factor Y({i!r},{k!r})^{u!r} needs an int residue, "
                        "k and exponent"
                    )
                res[i % n].append((k, u))
        _set_res(self, _within_ceiling(_built(res)))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def n(self) -> int:
        """The rank: one stored tuple per residue."""
        return len(self._res)

    def factors(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """((i, k), u) pairs sorted by decreasing k, then increasing i."""
        return tuple(((i, -nk), u) for nk, i, u in sorted(
            [(-k, i, u) for i, terms in enumerate(self._res) for k, u in terms]))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatch("cannot multiply monomials over different ranks")
        return _canonical(_within_ceiling(
            _built([[*a, *b] for a, b in zip(self._res, other._res)])))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._res == other._res

    def __hash__(self):
        return hash(self._res)

    def __repr__(self):
        return f"Monomial(n={self.n}, {format_monomial(self)!r})"

    def __str__(self):
        return format_monomial(self)


_set_res = Monomial._res.__set__


def _canonical(res: tuple) -> Monomial:
    """Wrap the per-residue form ``res`` without copying or checking it.

    Callers guarantee a canonical ``res`` of a valid rank n: n tuples of
    (k, u) terms by strictly increasing k, with no zero exponent."""
    m = object.__new__(Monomial)
    _set_res(m, res)
    return m


def _built(res: list) -> tuple:
    """The per-residue form of n lists of int (k, u) terms in any order, for
    a valid rank n = len(res).  Sorts each list in place, summing equal k
    and dropping zero exponents only where a k repeats or an exponent is 0."""
    for i, terms in enumerate(res):
        terms.sort()
        k0 = None
        for k, u in terms:
            if k == k0 or not u:
                merged = []
                for k, u in terms:
                    if merged and merged[-1][0] == k:
                        u += merged.pop()[1]
                    if u:
                        merged.append((k, u))
                terms = merged
                break
            k0 = k
        res[i] = tuple(terms)
    return tuple(res)


def _bump(terms, k, u):
    """One residue's (k, u) terms, by increasing k, times Y(., k)^u; a term
    that reaches exponent 0 is dropped."""
    for pos, (kk, uu) in enumerate(terms):
        if kk < k:
            continue
        if kk > k:
            return terms[:pos] + ((k, u),) + terms[pos:]
        if uu + u:
            return terms[:pos] + ((k, uu + u),) + terms[pos + 1:]
        return terms[:pos] + terms[pos + 1:]
    return terms + ((k, u),)


def _int_k(k) -> int:
    if type(k) is not int:
        raise ParseError(f"k {k!r} is not an int")
    return k


class _ResidueTexts(dict):
    """Residue i's (-k, i, text) factor fragments of each terms tuple, made
    on first use; fragments sort into factor order."""

    def __init__(self, i: int):
        self.i = i

    def __missing__(self, terms):
        i = self.i
        fragments = self[terms] = [
            (-k, i, f"Y({i},{k})" if u == 1 else f"Y({i},{k})^{u}") for k, u in terms]
        return fragments


def _format(res, texts: list[_ResidueTexts]) -> str:
    """Canonical text of the per-residue form ``res``; ``1`` is the empty
    product.  ``texts`` holds one memo per residue; a caller formatting
    many monomials passes the same ``texts`` to all calls."""
    fragments = []
    for residue_texts, terms in zip(texts, res):
        fragments += residue_texts[terms]
    fragments.sort()
    return "*".join([text for _, _, text in fragments]) or "1"


_TERM_RE = re.compile(r"Y\((\d+),(-?\d+)\)(?:\^(-?\d+))?\Z")

# largest |k| and |exponent| a built monomial holds: one above the partition
# size ceiling, so the corner image of a row of MAX_PARTITION_SIZE boxes,
# holding Y(0,MAX_PARTITION_SIZE+1)^-1 at n = 3, reads back
MAX_MONOMIAL_NUMBER = MAX_PARTITION_SIZE + 1


def _number(text: str, what: str) -> int:
    """int(text) for a k or an exponent, BoundOutOfRange above the ceiling.

    The digits are counted before int() runs, so a number too long for
    int() fails like any other above the ceiling."""
    digits = text.lstrip("-").lstrip("0")
    if len(digits) > len(str(MAX_MONOMIAL_NUMBER)):
        raise BoundOutOfRange(
            f"{what} has {len(digits)} digits; the ceiling is {MAX_MONOMIAL_NUMBER}"
        )
    value = int(digits or "0")
    if text.startswith("-"):
        value = -value
    _check_number(value, what)
    return value


def _check_number(value: int, what: str) -> None:
    if abs(value) > MAX_MONOMIAL_NUMBER:
        raise BoundOutOfRange(
            f"{what} {value} is above the ceiling of {MAX_MONOMIAL_NUMBER} in absolute value"
        )


def _within_ceiling(res: tuple) -> tuple:
    """``res`` once every k and exponent in it is within MAX_MONOMIAL_NUMBER
    in absolute value, so its text reads back; BoundOutOfRange otherwise.

    The public builders (the constructor, ``*``, :func:`mult_a` and the
    parser) call it.  ``e_m`` and ``f_m``, the operators' hot path, and
    the corner map, which :func:`_built` serves once per walk pair, do
    not."""
    for terms in res:
        for k, u in terms:
            _check_number(k, "k")
            _check_number(u, "exponent")
    return res


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse ``Y(i,k)`` factors joined by ``*``; ``1`` is the empty product.

    A k or an exponent above MAX_MONOMIAL_NUMBER in absolute value raises
    BoundOutOfRange, written or summed over equal factors.
    """
    check_rank(n)
    text = text.strip()
    if text == "1":
        return Monomial(n)
    if not text:
        raise ParseError("empty monomial text")
    res = [[] for _ in range(n)]
    for term in text.split("*"):
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"bad monomial factor {term!r}")
        residue_digits = m.group(1).lstrip("0") or "0"
        try:
            i = int(residue_digits)
        except ValueError:
            # the residue is digits, so int() refused it for its length
            raise BoundOutOfRange(
                f"residue of {len(residue_digits)} digits outside [0, {n})"
            ) from None
        if not 0 <= i < n:
            raise BoundOutOfRange(f"residue {i} outside [0, {n})")
        k = _number(m.group(2), "k")
        u = 1 if m.group(3) is None else _number(m.group(3), "exponent")
        if u == 0:
            raise ParseError(f"factor {term!r} has exponent 0")
        res[i].append((k, u))
    return _canonical(_within_ceiling(_built(res)))


def format_monomial(m: Monomial) -> str:
    """Canonical text: factors by decreasing k then increasing residue."""
    return _format(m._res, list(map(_ResidueTexts, range(m.n))))


def mult_a(m: Monomial, i: int, k: int, sign: int = 1) -> Monomial:
    """Multiply by A(i,k)^sign with cancellation (sign is +1 or -1).

    Only residues i and i +- 1 change; the others are shared with m.  A
    product with a k or an exponent above MAX_MONOMIAL_NUMBER in absolute
    value raises BoundOutOfRange."""
    if type(sign) is not int or sign not in (1, -1):
        raise UnknownChoice(f"sign must be +1 or -1, got {sign!r}")
    return _canonical(_within_ceiling(_times_a(m._res, _color(m, i), _int_k(k), sign)))


def _times_a(res: tuple, i: int, k: int, sign: int) -> tuple:
    """``res`` times A(i,k)^sign for a checked color i in [0, n), int k and
    sign +-1; residues other than i and i +- 1 are shared with ``res``."""
    res = list(res)
    n = len(res)
    res[i] = _bump(_bump(res[i], k - 1, sign), k + 1, sign)
    for j in ((i + 1) % n, (i - 1) % n):
        res[j] = _bump(res[j], k, -sign)
    return tuple(res)


def weight(m: Monomial) -> dict[int, int]:
    """Coefficient of each fundamental weight: residue -> sum of exponents.

    Residues whose exponents sum to zero are omitted."""
    out: dict[int, int] = {}
    for i, terms in enumerate(m._res):
        total = sum(u for _, u in terms)
        if total:
            out[i] = total
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
    terms = m._res[_color(m, i)]
    eps, p = _eps_p(terms)
    phi, q = _phi_q(terms)
    return MonomialStats(eps, phi, p, q)


def _eps_p(terms: tuple[tuple[int, int], ...]) -> tuple[int, int | None]:
    """eps and the largest maximizing p from (k, u) terms by increasing k."""
    eps, p = 0, None
    tail = 0
    for k, u in reversed(terms):
        tail -= u
        if tail > eps:
            eps, p = tail, k
    return eps, p


def _phi_q(terms: tuple[tuple[int, int], ...]) -> tuple[int, int | None]:
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
    i = _color(m, i)
    tokens = []
    for k, u in reversed(m._res[i]):
        tokens += [((i, k), OPEN if u > 0 else CLOSE)] * abs(u)
    return BracketString.build(tokens)


def _check_mode(mode: str) -> None:
    if mode not in ("analytic", "bracket"):
        raise UnknownChoice(f"mode must be 'analytic' or 'bracket', got {mode!r}")


def e_m(m: Monomial, i: int, mode: str = "analytic") -> Monomial | None:
    """Raising operator: multiply by A(i, .), or None when eps is 0."""
    _check_mode(mode)
    i = _color(m, i)
    if mode == "analytic":
        k = _eps_p(m._res[i])[1]
    else:
        s = monomial_bracket_string(m, i)
        k = None if s.last_close is None else s.payloads[s.last_close][1]
    if k is None:
        return None
    return _canonical(_times_a(m._res, i, k - 1, 1))


def f_m(m: Monomial, i: int, mode: str = "analytic") -> Monomial | None:
    """Lowering operator: multiply by A(i, .)^-1, or None when phi is 0."""
    _check_mode(mode)
    i = _color(m, i)
    if mode == "analytic":
        k = _phi_q(m._res[i])[1]
    else:
        s = monomial_bracket_string(m, i)
        k = None if s.first_open is None else s.payloads[s.first_open][1]
    if k is None:
        return None
    return _canonical(_times_a(m._res, i, k + 1, -1))


def _monomial_side(n: int):
    """``(root, children, label)`` of the monomial crystal on per-residue
    vertices, for the graph BFS and the synchronized walk: the root is
    Y(0,0), ``children`` is :func:`_lowering` and ``label(v)`` is v's
    canonical text, from fragment memos that live as long as ``label``."""
    texts = list(map(_ResidueTexts, range(n)))
    return (((0, 1),),) + ((),) * (n - 1), _lowering(n), lambda v: _format(v, texts)


def _lowering(n: int):
    """``children(v)``: [f_0(v), ..., f_(n-1)(v)] in analytic mode on
    per-residue vertices, None where f_i annihilates.

    f_i multiplies by A(i, q + 1)^-1, which changes residues i and i +- 1
    only, so a child shares the other residues' tuples with v.  Two memos,
    living as long as the returned closure, give each residue's part:
    ``lowered[terms]`` is None or (q + 1, terms Y(i,q)^-1 Y(i,q+2)^-1), and
    ``raised[terms, k]`` is terms Y(j,k).
    """
    lowered = {}
    raised = {}
    neighbours = [((i + 1) % n, (i - 1) % n) for i in range(n)]

    def children(v):
        out = []
        for i, terms in enumerate(v):
            try:
                low = lowered[terms]
            except KeyError:
                q = _phi_q(terms)[1]
                low = lowered[terms] = (
                    None if q is None else (q + 1, _bump(_bump(terms, q, -1), q + 2, -1)))
            if low is None:
                out.append(None)
                continue
            child = list(v)
            k, child[i] = low
            for j in neighbours[i]:
                key = (v[j], k)
                up = raised.get(key)
                if up is None:
                    up = raised[key] = _bump(v[j], k, 1)
                child[j] = up
            out.append(tuple(child))
        return out

    return children
