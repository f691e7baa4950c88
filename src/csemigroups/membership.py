"""Generator-list affine semigroups with exact membership.

An AffineSemigroup is a finitely generated submonoid of N^d given by its
generators. Membership is decided by memoized descent: p belongs to the
semigroup iff p = 0 or p - a belongs for some generator a. Coordinates only
decrease, so the search stays inside the box [0, p] and terminates.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from . import lattice
from .errors import BudgetExceeded, DimensionMismatch, DimensionOne
from .lattice import GRLEX, Point

SLICE_SHIFT_BUDGET = 10**6


class AffineSemigroup:
    """Submonoid of N^d generated by a finite set of nonzero points.

    Values are immutable after construction. The membership cache only ever
    stores final answers, so concurrent callers at worst duplicate work.
    """

    __slots__ = ("dimension", "generators", "_memo")

    def __init__(self, dimension: int, generators: Iterable[Sequence[int]]):
        gens = sorted({tuple(g) for g in generators}, key=GRLEX.key)
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not gens:
            raise ValueError("at least one generator is required")
        for g in gens:
            if len(g) != dimension:
                raise DimensionMismatch(f"generator {g} in dimension {dimension}")
            if any(v < 0 for v in g):
                raise ValueError(f"generator {g} has a negative coordinate")
        if gens[0] == lattice.zero(dimension):
            raise ValueError("the zero point is not allowed as a generator")
        self.dimension = dimension
        self.generators = tuple(gens)
        self._memo: dict[Point, bool] = {lattice.zero(dimension): True}

    def __repr__(self):
        return f"AffineSemigroup(d={self.dimension}, gens={list(self.generators)})"

    def __eq__(self, other):
        return (
            isinstance(other, AffineSemigroup)
            and self.dimension == other.dimension
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.dimension, self.generators))

    def is_member(self, p: Sequence[int]) -> bool:
        """True iff p is a nonnegative integer combination of the generators."""
        p = tuple(p)
        if len(p) != self.dimension:
            raise DimensionMismatch(f"point {p} in dimension {self.dimension}")
        if any(v < 0 for v in p):
            return False
        memo = self._memo
        if p in memo:
            return memo[p]
        gens = self.generators
        stack = [p]
        while stack:
            q = stack[-1]
            if q in memo:
                stack.pop()
                continue
            reached = False
            unknown = []
            for g in gens:
                r = tuple(a - b for a, b in zip(q, g))
                if any(v < 0 for v in r):
                    continue
                known = memo.get(r)
                if known:
                    reached = True
                    break
                if known is None:
                    unknown.append(r)
            if reached:
                memo[q] = True
                stack.pop()
            elif unknown:
                stack.extend(unknown)
            else:
                memo[q] = False
                stack.pop()
        return memo[p]

    def __contains__(self, p) -> bool:
        return self.is_member(p)

    def to_json(self) -> dict:
        return {"d": self.dimension, "gens": [list(g) for g in self.generators]}


def minimalize(generators: Iterable[Sequence[int]], dimension: Optional[int] = None) -> AffineSemigroup:
    """The unique minimal generating system of the monoid the inputs generate.

    A generator is redundant iff it is a combination of the others; removing
    redundant ones in any order reaches the same minimal set because the
    minimal system of a reduced monoid is exactly S* minus (S* + S*).
    """
    gens = [tuple(g) for g in generators]
    if dimension is None:
        if not gens:
            raise ValueError("dimension required for an empty generator list")
        dimension = len(gens[0])
    probe = AffineSemigroup(dimension, gens)  # validates the input
    kept = list(probe.generators)
    for g in sorted(kept, key=GRLEX.key, reverse=True):
        rest = [h for h in kept if h != g]
        if rest and AffineSemigroup(dimension, rest).is_member(g):
            kept = rest
    return AffineSemigroup(dimension, kept)


def multiplicity(sem) -> tuple[Point, bool]:
    """Coordinatewise infimum of S minus 0, and whether S attains it.

    Each coordinate of a nonempty sum of generators is at least the minimum
    of that coordinate over the generators, and a generator attains each
    minimum, so the infimum is the componentwise generator minimum. It need
    not itself be a nonzero member; ``attained`` reports that. A
    GapSemigroup is read through its Hilbert basis.
    """
    gens = sem.generators if isinstance(sem, AffineSemigroup) else sem.hilbert_basis
    m = tuple(min(g[i] for g in gens) for i in range(sem.dimension))
    attained = not lattice.is_zero(m) and m in sem
    return m, attained


class SliceDecomposition(NamedTuple):
    """S cut by {x_axis = level}: a union of face-translates.

    The slice equals the union over ``shifts`` of (shift + face members),
    all in face coordinates (the axis coordinate dropped). ``face`` is the
    semigroup generated by the axis-free generators, or None when there are
    none (the trivial monoid {0}).
    """

    shifts: tuple[Point, ...]
    face: Optional[AffineSemigroup]


class _ShiftTable:
    """Incremental per-level shift sets for one axis of one semigroup.

    Level t holds the face parts of all multiset sums of positive-axis
    generators whose axis coordinates add up to exactly t, deduplicated.
    """

    def __init__(self, sem: AffineSemigroup, axis: int, budget: int = SLICE_SHIFT_BUDGET):
        if not 0 <= axis < sem.dimension:
            raise ValueError(f"axis {axis} out of range for dimension {sem.dimension}")
        drop = lambda g: g[:axis] + g[axis + 1 :]
        self.pos = [(g[axis], drop(g)) for g in sem.generators if g[axis] > 0]
        self.face_gens = [drop(g) for g in sem.generators if g[axis] == 0]
        self.levels: list[frozenset[Point]] = [frozenset({(0,) * (sem.dimension - 1)})]
        self.budget = budget
        self.stored = 1

    def level(self, t: int) -> frozenset[Point]:
        while len(self.levels) <= t:
            u = len(self.levels)
            shifts = set()
            for w, v in self.pos:
                if w <= u:
                    for s in self.levels[u - w]:
                        shifts.add(tuple(a + b for a, b in zip(s, v)))
            self.stored += len(shifts)
            if self.stored > self.budget:
                raise BudgetExceeded(
                    f"slice shift family exceeded {self.budget} stored shifts at level {u}"
                )
            self.levels.append(frozenset(shifts))
        return self.levels[t]


def slice_decomposition(
    sem: AffineSemigroup, axis: int, level: int, budget: int = SLICE_SHIFT_BUDGET
) -> SliceDecomposition:
    """Decompose S intersected with {x_axis = level} into face-translates."""
    if sem.dimension < 2:
        raise DimensionOne("slice decomposition needs ambient dimension >= 2")
    if level < 0:
        raise ValueError("level must be nonnegative")
    table = _ShiftTable(sem, axis, budget)
    shifts = tuple(sorted(table.level(level), key=GRLEX.key))
    face = AffineSemigroup(sem.dimension - 1, table.face_gens) if table.face_gens else None
    return SliceDecomposition(shifts, face)
