"""Exception types raised across the package: one class per kind of refusal.

Everything derives from :class:`CrystalError` so callers can catch the whole
family at once; the kinds subclass ``ValueError`` because they signal bad
arguments rather than internal failures, except :class:`HorizonExceedsTable`,
a ``LookupError``.  The command line prints ``error: <message>`` and exits 2
for every one of them.  A kind whose constructor takes fields rebuilds
itself from them when unpickled.
"""


class CrystalError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CrystalError, ValueError):
    """Malformed partition, monomial, operator word, arm table or graph text:
    parts that are not positive ints or increase, a zero exponent, or a
    residue, k, exponent, seed or index that is not an int."""


class BoundOutOfRange(CrystalError, ValueError):
    """A rank, depth, size, horizon, residue, index or number is outside its
    allowed range, or a rank is odd where only even ranks are defined."""


class UnknownChoice(CrystalError, ValueError):
    """An argument is none of the values it may take: model, mode, sign, or
    the output format of a command."""


class BoxOutside(CrystalError, ValueError):
    """Box coordinates fall outside the diagram of the partition, or the box
    is not an addable (removable) corner of it."""


class ArmAxiomViolation(CrystalError, ValueError):
    """Arm table ``a`` fails condition (i), A_t in [t-1, (n-1)t], at ``t``
    (``u`` None), or condition (ii), A_(t+u) in {A_t + A_u, A_t + A_u + 1},
    at ``(t, u)``."""

    def __init__(self, a, t: int, u: int | None = None):
        self.a = a
        self.t = t
        self.u = u
        if u is None:
            text = f"A_{t} = {a.value(t)} outside [{t - 1}, {(a.n - 1) * t}] for n = {a.n}"
        else:
            lo = a.value(t) + a.value(u)
            text = (f"A_{t + u} = {a.value(t + u)} outside {{{lo}, {lo + 1}}} = "
                    f"{{A_{t}+A_{u}, A_{t}+A_{u}+1}}")
        super().__init__(text)

    def __reduce__(self):
        return type(self), (self.a, self.t, self.u)


class HorizonExceedsTable(CrystalError, LookupError):
    """A_t was requested past the end of a table-backed arm sequence."""

    def __init__(self, t: int, horizon: int):
        self.t = t
        self.horizon = horizon
        super().__init__(f"A_{t} requested but table only covers t <= {horizon}")

    def __reduce__(self):
        return type(self), (self.t, self.horizon)


class NotRegular(CrystalError, ValueError):
    """The operation requires a partition with no illegal boxes."""


class DepthMismatch(CrystalError, ValueError):
    """Graph comparison needs graphs generated to the same depth."""


class RankMismatch(CrystalError, ValueError):
    """Monomial products and graph comparison need operands over the same rank."""
