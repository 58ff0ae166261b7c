"""Exception types raised across the package.

Everything derives from :class:`CrystalError` so callers can catch the whole
family at once; most leaves also subclass ``ValueError`` because they signal
bad arguments rather than internal failures.
"""


class CrystalError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CrystalError, ValueError):
    """Malformed partition, monomial, operator word, or graph text, or a
    monomial factor whose residue, k or exponent is not an int."""


class NotDecreasing(CrystalError, ValueError):
    """Partition parts increase somewhere."""


class NonPositivePart(CrystalError, ValueError):
    """Partition contains a part that is zero or negative."""


class RankTooSmall(CrystalError, ValueError):
    """The rank n must be an int of at least 3."""


class BoundOutOfRange(CrystalError, ValueError):
    """A depth, size, horizon or index is below its smallest allowed value."""


class UnknownChoice(CrystalError, ValueError):
    """An argument is none of the values it may take: model, mode or sign."""


class BoxOutside(CrystalError, ValueError):
    """Box coordinates fall outside the diagram of the partition."""


class NotAddable(CrystalError, ValueError):
    """Box is not an addable corner of the partition."""


class NotRemovable(CrystalError, ValueError):
    """Box is not a removable corner of the partition."""


class EmptyArmTable(CrystalError, ValueError):
    """A table-backed arm sequence needs at least one value."""


class ArmAxiomViolation(CrystalError, ValueError):
    """An arm-sequence table fails one of the two defining conditions."""


class AxiomIViolation(ArmAxiomViolation):
    """A_t falls outside [t-1, (n-1)t]."""

    def __init__(self, t: int, value: int, n: int):
        self.t = t
        self.value = value
        super().__init__(
            f"A_{t} = {value} outside [{t - 1}, {(n - 1) * t}] for n = {n}"
        )


class AxiomIIViolation(ArmAxiomViolation):
    """A_(t+u) misses the window {A_t + A_u, A_t + A_u + 1}."""

    def __init__(self, t: int, u: int, value: int, lo: int):
        self.t = t
        self.u = u
        self.value = value
        super().__init__(
            f"A_{t + u} = {value} outside {{{lo}, {lo + 1}}} = "
            f"{{A_{t}+A_{u}, A_{t}+A_{u}+1}}"
        )


class HorizonExceedsTable(CrystalError, LookupError):
    """A_t was requested past the end of a table-backed arm sequence."""

    def __init__(self, t: int, horizon: int):
        self.t = t
        self.horizon = horizon
        super().__init__(f"A_{t} requested but table only covers t <= {horizon}")


class SameBox(CrystalError, ValueError):
    """Box comparison needs two boxes with distinct contents."""


class ResidueMismatch(CrystalError, ValueError):
    """Box comparison needs two boxes of equal residue."""


class ResidueOutOfRange(CrystalError, ValueError):
    """Monomial text mentions a residue outside [0, n)."""


class ZeroExponent(CrystalError, ValueError):
    """Monomial text carries an explicit ^0 exponent."""


class CompatibilityUndefinedForOddN(CrystalError, ValueError):
    """The parity condition on monomials is only defined for even rank."""


class NotRegular(CrystalError, ValueError):
    """The operation requires a partition with no illegal boxes."""


class DepthMismatch(CrystalError, ValueError):
    """Graph comparison needs graphs generated to the same depth."""


class RankMismatch(CrystalError, ValueError):
    """Monomial products and graph comparison need operands over the same rank."""
