"""Error types shared by all modules.

Every domain error derives from SemigroupError so the CLI can map it to a
machine-readable name (the class name) and exit code 1.
"""


class SemigroupError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


class DimensionMismatch(SemigroupError):
    """Operands live in different ambient dimensions."""


class NotNatural(SemigroupError):
    """A point that must lie in N^d has a negative coordinate."""

    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"point {self.point} is outside N^d")


class NotClosed(SemigroupError):
    """The complement of the proposed gap set is not a monoid."""

    def __init__(self, gap, part):
        self.gap = tuple(gap)
        self.part = tuple(part)
        rest = tuple(a - b for a, b in zip(gap, part))
        super().__init__(
            f"gap {self.gap} decomposes as {self.part} + {rest} with both parts members"
        )


class NotFullCone(SemigroupError):
    """No generator is a positive multiple of a coordinate axis."""

    def __init__(self, axis):
        self.axis = axis
        super().__init__(f"no generator lies on axis {axis}; cone is not the full orthant")


class InfiniteGaps(SemigroupError):
    """The gap set is provably infinite.

    ``axis``/``level`` name a slice {x_axis = level} with infinitely many
    gaps when one was certified; ``level`` is None for the one-dimensional
    gcd > 1 case, where every non-multiple level is a gap.
    """

    def __init__(self, axis, level=None, detail=""):
        self.axis = axis
        self.level = level
        where = f"axis {axis}" + (f", level {level}" if level is not None else "")
        super().__init__(f"gap set is infinite ({where})" + (f": {detail}" if detail else ""))


class BudgetExceeded(SemigroupError):
    """A computation reached its budget before it could give an exact answer."""


class EmptyGapSet(SemigroupError):
    """The operation needs at least one gap."""


class DimensionOne(SemigroupError):
    """The operation needs ambient dimension at least two."""


class OrderNotPredecessorFinite(SemigroupError):
    """The term order has points with infinitely many predecessors."""


class InfiniteApery(SemigroupError):
    """The Apery set is infinite; ``coordinate`` names an uncovered axis."""

    def __init__(self, coordinate):
        self.coordinate = coordinate
        super().__init__(
            f"Apery set is infinite: no element of E is a positive multiple of axis {coordinate}"
        )


class IdealBaseMismatch(SemigroupError):
    """Relative ideals over different base semigroups were combined."""


class NotAGluing(SemigroupError):
    """The gluing conditions fail; ``reason`` is one of
    sNotInS1, sNotInS2, LatticeRankNot1, LatticeGeneratorMismatch."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(f"not a gluing: {reason}")


class EmptyPF(SemigroupError):
    """A gluing factor has no pseudo-Frobenius elements; ``side`` is 1 or 2."""

    def __init__(self, side):
        self.side = side
        super().__init__(f"factor {side} has an empty pseudo-Frobenius set")


class BadParams(SemigroupError):
    """Family parameters outside their allowed range."""


class NotMinimal(SemigroupError):
    """A generator list that must be minimal is redundant."""


class HypothesisFailed(SemigroupError):
    """A stated hypothesis of the checked statement fails; ``which`` names it."""

    def __init__(self, which):
        self.which = which
        super().__init__(f"hypothesis failed: {which}")


class NotPI(SemigroupError):
    """The monoid does not split as (offset + base) with 0 adjoined."""
