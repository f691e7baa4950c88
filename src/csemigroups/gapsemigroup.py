"""Finite-gap (full-cone) semigroups represented by their gap set.

A GapSemigroup stores the complement H(S) of a cofinite submonoid S of N^d,
together with a canonical conductor c (componentwise one above the gap
maxima; every p >= c is a member) and its Hilbert basis.

Construction is either from an explicit gap set or from generators via a
per-axis slice scan that either returns the exact gap set, certifies that it
is infinite, or reports an exhausted budget. Either way the gap set goes
through one closure pass over the conductor box, held as a bitmask, which
validates complement closure and finds the Hilbert basis together.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from . import lattice
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InfiniteGaps,
    NotFullCone,
    NotNatural,
)
from .lattice import GRLEX, Point, _Box, _closure_pass
from .membership import AffineSemigroup, _ShiftTable


@dataclass(frozen=True)
class Budget:
    """Work limits for the gap scan."""

    max_levels_per_axis: int = 10**5
    max_work: int = 10**7


DEFAULT_BUDGET = Budget()


class _WorkMeter:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, amount: int) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceeded("membership-work budget exhausted during the gap scan")


class GapSemigroup:
    """Cofinite submonoid of N^d stored as its finite gap set.

    ``box`` is the conductor box [0, 2c), c at least 1, and ``gap_mask`` the
    gaps in it; the members of the box are the rest. Construction runs the
    closure pass on that mask, which rejects a gap set whose complement is
    not a monoid and finds the Hilbert basis.
    """

    __slots__ = ("dimension", "gaps", "conductor", "box", "gap_mask", "_basis")

    def __init__(self, dimension: int, gaps: frozenset[Point], conductor: Point):
        self.dimension = dimension
        self.gaps = gaps
        self.conductor = conductor
        self.box = _Box(tuple(2 * max(c, 1) for c in conductor))
        self.gap_mask = self.box.mask(gaps)
        self._basis = _closure_pass(self.box, self.gap_mask)

    def __repr__(self):
        return f"GapSemigroup(d={self.dimension}, gaps={sorted(self.gaps, key=GRLEX.key)})"

    def __eq__(self, other):
        return (
            isinstance(other, GapSemigroup)
            and self.dimension == other.dimension
            and self.gaps == other.gaps
        )

    def __hash__(self):
        return hash((self.dimension, self.gaps))

    @property
    def genus(self) -> int:
        return len(self.gaps)

    def contains(self, p: Sequence[int]) -> bool:
        """True iff p lies in N^d and is not a gap."""
        p = tuple(p)
        if len(p) != self.dimension:
            raise DimensionMismatch(f"point {p} in dimension {self.dimension}")
        return all(v >= 0 for v in p) and p not in self.gaps

    def __contains__(self, p) -> bool:
        return self.contains(p)

    @property
    def hilbert_basis(self) -> tuple[Point, ...]:
        """Minimal generating set, found by the closure pass on construction."""
        return self._basis

    def to_json(self) -> dict:
        return {
            "d": self.dimension,
            "gaps": [list(g) for g in sorted(self.gaps, key=GRLEX.key)],
        }


def validate_complement_closed(dimension: int, gaps: frozenset[Point]) -> None:
    """Raise NotClosed unless N^d minus gaps is a monoid."""
    GapSemigroup(dimension, gaps, _conductor(dimension, gaps))


def _conductor(dimension: int, gaps: frozenset[Point]) -> Point:
    if not gaps:
        return lattice.zero(dimension)
    return tuple(1 + max(g[i] for g in gaps) for i in range(dimension))


def from_gaps(dimension: int, gaps: Iterable[Sequence[int]]) -> GapSemigroup:
    """Build the semigroup N^d minus the given gaps, validating closure."""
    gapset = frozenset(tuple(g) for g in gaps)
    for g in gapset:
        if len(g) != dimension:
            raise DimensionMismatch(f"gap {g} in dimension {dimension}")
        if any(v < 0 for v in g):
            raise NotNatural(g)
    return GapSemigroup(dimension, gapset, _conductor(dimension, gapset))


# ---------------------------------------------------------------------------
# Gap computation from generators
# ---------------------------------------------------------------------------


def _axis_multiples(points: Iterable[Point], dimension: int) -> list[int]:
    """Least positive multiple of each axis among the points; 0 where none is.

    The nonnegative cone of a generating set is the whole orthant iff it
    contains every unit vector, which forces a pure axis generator per axis.
    """
    mult = [0] * dimension
    for g in points:
        support = [i for i, v in enumerate(g) if v != 0]
        if len(support) == 1:
            i = support[0]
            if mult[i] == 0 or g[i] < mult[i]:
                mult[i] = g[i]
    return mult


def _numerical_gaps(values: Sequence[int]) -> list[int]:
    """Gaps of a numerical semigroup via least-member-per-residue (Dijkstra).

    Requires gcd(values) = 1; otherwise the gap set inside N is infinite.
    ap[r] is the least member congruent to r modulo the smallest generator,
    so x is a member iff x >= ap[x mod m].
    """
    g = 0
    for v in values:
        g = gcd(g, v)
    if g != 1:
        raise InfiniteGaps(axis=0, level=None, detail=f"generator gcd is {g}")
    m = min(values)
    ap = [None] * m
    ap[0] = 0
    heap = [(0, 0)]
    while heap:
        dist, r = heapq.heappop(heap)
        if ap[r] is not None and dist > ap[r]:
            continue
        for v in values:
            nr = (r + v) % m
            nd = dist + v
            if ap[nr] is None or nd < ap[nr]:
                ap[nr] = nd
                heapq.heappush(heap, (nd, nr))
    gaps = []
    for r in range(1, m):
        gaps.extend(range(r, ap[r], m))
    return sorted(gaps)


class _AxisGiveUp(Exception):
    """Internal: this axis exhausted its level budget; try another."""


def _scan_axis(
    sem: AffineSemigroup,
    axis: int,
    step: int,
    budget: Budget,
    meter: _WorkMeter,
) -> list[Point]:
    """Exact gaps by scanning slices {x_axis = t} for t = 0, 1, 2, ...

    Each slice is a finite union of face-translates shift + F where F is the
    face semigroup of axis-free generators (analyzed recursively, so its gap
    set and conductor are exact). Adding the pure axis generator maps slice t
    into slice t + step, so once ``step`` consecutive slices are gap-free all
    later ones are too and the scan is complete.

    Per-slice analysis is exact:
      * no shifts at level t means the whole slice misses S (infinite gaps);
      * the complement of the translate union is finite iff every face
        coordinate k has a shift supported only on k (possibly 0); a missing
        coordinate yields an infinite strip of gaps;
      * when finite, the complement lies in the box with exclusive bound
        max(shift_k) + conductor_k, and is that box minus the union of the
        shifted face-member masks.
    """
    d = sem.dimension
    face_gens = [g[:axis] + g[axis + 1 :] for g in sem.generators if g[axis] == 0]
    try:
        face = from_generators(
            AffineSemigroup(d - 1, face_gens), budget=budget, _meter=meter
        )
    except InfiniteGaps:
        raise InfiniteGaps(axis, 0, detail="the axis-free face already has infinitely many gaps")
    face_dim = d - 1
    table = _ShiftTable(sem, axis, budget=budget.max_work)
    insert = lambda t, y: y[:axis] + (t,) + y[axis:]

    gaps: list[Point] = []
    clean_run = 0
    t = 0
    while clean_run < step:
        if t >= budget.max_levels_per_axis:
            raise _AxisGiveUp
        shifts = table.level(t)
        meter.spend(len(shifts) + 1)
        if not shifts:
            raise InfiniteGaps(axis, t, detail="no generator combination reaches this slice")
        for k in range(face_dim):
            if not any(all(v == 0 for j, v in enumerate(s) if j != k) for s in shifts):
                raise InfiniteGaps(
                    axis, t, detail=f"no shift is supported on face coordinate {k} alone"
                )
        bound = tuple(
            max(s[k] for s in shifts) + face.conductor[k] for k in range(face_dim)
        )
        complement = []
        if all(b > 0 for b in bound):
            volume = prod(bound)
            meter.spend(volume)
            box = _Box(bound)
            face_members = box.full & ~box.mask(face.gaps)
            covered = 0
            for s in shifts:
                covered |= face_members << box.index(s)
            complement = box.points(box.full & ~covered)
        if complement:
            clean_run = 0
            gaps.extend(insert(t, y) for y in complement)
        else:
            clean_run += 1
        t += 1
    return gaps


def from_generators(
    source: AffineSemigroup | Iterable[Sequence[int]],
    budget: Optional[Budget] = None,
    _meter: Optional[_WorkMeter] = None,
) -> GapSemigroup:
    """Exact gap set of the semigroup generated by ``source``.

    Requires the full orthant cone (a pure axis generator per axis). Scans
    axes in order and returns as soon as one scan certifies completion; a
    completed scan already holds every gap, because all slices beyond its
    stopping level are gap-free. Later axes are only tried when an earlier
    one exhausts its level budget (their stopping levels differ with the gap
    geometry). Raises InfiniteGaps with a slice certificate, or
    BudgetExceeded when no axis certified within the budget.
    """
    if not isinstance(source, AffineSemigroup):
        gens = [tuple(g) for g in source]
        if not gens:
            raise ValueError("at least one generator is required")
        source = AffineSemigroup(len(gens[0]), gens)
    sem = source
    budget = budget or DEFAULT_BUDGET
    meter = _meter or _WorkMeter(budget.max_work)
    mult = _axis_multiples(sem.generators, sem.dimension)
    if 0 in mult:
        raise NotFullCone(mult.index(0))
    if sem.dimension == 1:
        gaps = _numerical_gaps([g[0] for g in sem.generators])
        return from_gaps(1, [(x,) for x in gaps])
    gave_up = 0
    for axis in range(sem.dimension):
        try:
            return from_gaps(sem.dimension, _scan_axis(sem, axis, mult[axis], budget, meter))
        except _AxisGiveUp:
            gave_up += 1
    raise BudgetExceeded(
        f"no axis scan certified termination within {budget.max_levels_per_axis} levels"
        f" ({gave_up} axes tried)"
    )
