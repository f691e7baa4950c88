"""Finite-gap (full-cone) semigroups represented by their gap set.

A GapSemigroup stores the complement H(S) of a cofinite submonoid S of N^d
as one bitmask of its conductor box [0, 2c), with the canonical conductor c
(componentwise one above the gap maxima; every p >= c is a member) and the
mask of the Hilbert-basis elements below c, which is all that PF reads. The
gap points and the whole Hilbert basis are found only when asked for.

Construction is either from an explicit gap set or from generators. From
generators, the Apery set Ap(S, E) of S with respect to its least pure axis
generators E = {m_i e_i} decides everything: per axis, one box mask of
generator sums holds its points near that axis. With one per class mod E
in each, they bound the gaps and give the conductor; else a slice test
names a slice of infinitely many gaps. Only an axis whose pure generators
share a factor, a line of gaps, goes to the slice test before any box is
built. A box past the budget gives BudgetExceeded. One mask of generator
sums over the conductor box then gives the gaps, and the generators it
keeps give the Hilbert basis: nothing is validated.
Before the tubes, one mask of generator sums over [0, 2m) can certify an
axis: if none of its non-members lies at x_i >= m_i, no gap does, as
m_j e_j splits off any gap past 2m_j on axis j, and the gaps, reduced mod
m into [0, m), give c_i there. Only the axes it does not certify build a
tube; when it certifies all, that one mask gives the gaps and the Hilbert
basis. It is tried only where each tube it saves would pass its first
box, so no answer, error or budget changes, and only where the generators
hold the points of [0, 2m) that only a generator can be.
A given gap set's mask moves into the conductor box, where one closure
pass over [0, c) validates complement closure and finds the basis elements
below c; the whole basis takes a pass over [0, 2c) on first read.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import gcd, prod
from operator import eq, ge, lt
from typing import Iterable, Optional, Sequence

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InfiniteGaps,
    NotFullCone,
    NotNatural,
)
from .lattice import Point, _Box, _Record, _closure_pass, _generated
from .membership import AffineSemigroup


class Budget(_Record):
    """The limit on every box that ``from_generators`` builds.

    ``max_work`` caps a box's point count, the product of its extents.
    """

    _fields = ("max_work",)

    def __init__(self, max_work: int = 10**7):
        super().__init__(max_work)


DEFAULT_BUDGET = Budget()


class GapSemigroup:
    """Cofinite submonoid of N^d stored as the gap mask of its conductor box.

    ``GapSemigroup(box, gap_mask)`` takes the gaps as a mask of any box
    that holds them; the dimension is the box's, ``len(box.extent)``, so
    the two cannot disagree. ``_Box.fit`` finds the conductor c and moves
    the mask into the conductor box [0, 2c), c at least 1, which is then
    ``box``; the members of the box are the rest of it. The closure pass on
    the members below c rejects a gap set whose complement is not a monoid
    and leaves ``low_basis``, the mask of the basis elements below c; the
    pass over the whole box finds ``hilbert_basis`` on its first read.
    ``from_generators`` passes the Hilbert basis as ``basis``, in
    graded-lex order, and the mask in the conductor box or in the larger
    box [0, 2m) of its certificate; the set is then a monoid by
    construction, so no pass runs, and ``low_basis`` is the mask of the
    basis points below c. Equality and the hash read (dimension,
    conductor, gap_mask), which is canonical because the conductor fixes
    the box.
    """

    __slots__ = ("dimension", "conductor", "box", "gap_mask", "low_basis", "_basis", "_gaps")

    def __init__(self, box: _Box, gap_mask: int, basis: Optional[tuple] = None):
        self.dimension = len(box.extent)
        self.conductor, self.box, self.gap_mask = box.fit(gap_mask)
        # without gaps c is 0, and below(c - 1) is empty
        below_c = self.box.below([v - 1 for v in self.conductor])
        self._basis, self._gaps = basis, None
        if basis is None:
            self.low_basis = _closure_pass(self.box, below_c & ~self.gap_mask, self.gap_mask)
        else:
            self.low_basis = self.box.mask(basis) & below_c

    @property
    def gaps(self) -> frozenset[Point]:
        """The gap points, decoded from the mask on first use and kept."""
        if self._gaps is None:
            self._gaps = frozenset(self.box.points(self.gap_mask))
        return self._gaps

    def __repr__(self):
        return f"GapSemigroup(d={self.dimension}, gaps={self.box.grlex_points(self.gap_mask)})"

    def __eq__(self, other):
        return isinstance(other, GapSemigroup) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.dimension, self.conductor, self.gap_mask

    @property
    def genus(self) -> int:
        return self.gap_mask.bit_count()

    def contains(self, p: Sequence[int]) -> bool:
        """True iff p lies in N^d and is not a gap.

        A point at or past the conductor on some axis is a member; any
        other lies in the conductor box and is a bit test on the gap mask.
        """
        p = tuple(p)
        if len(p) != self.dimension:
            raise DimensionMismatch(f"point {p} in dimension {self.dimension}")
        if min(p) < 0:
            return False
        return any(map(ge, p, self.conductor)) or not self.gap_mask >> self.box.index(p) & 1

    __contains__ = contains

    @property
    def hilbert_basis(self) -> tuple[Point, ...]:
        """Minimal generating set in graded-lex order: given at construction
        from generators, else found by the closure pass over the conductor
        box on first use and kept."""
        if self._basis is None:
            basis = _closure_pass(self.box, self.box.full & ~self.gap_mask, self.gap_mask)
            self._basis = tuple(self.box.grlex_points(basis))
        return self._basis

    def to_json(self) -> dict:
        gaps = self.box.grlex_points(self.gap_mask)
        return {"d": self.dimension, "gaps": list(map(list, gaps))}


def from_gaps(dimension: int, gaps: Iterable[Sequence[int]]) -> GapSemigroup:
    """Build the semigroup N^d minus the given gaps, validating closure.

    The mask is written from the points given straight into the conductor
    box, and the gap points are decoded from it only when read. Dimension
    and sign are checked on the lengths and the coordinate columns; only
    when a check fails are the points made a set and walked one by one, in
    the set's order, to name the first bad one.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    points = list(gaps)
    columns = list(zip(*points))
    if not set(map(len, points)) <= {dimension} or any(min(col) < 0 for col in columns):
        for g in frozenset(map(tuple, points)):
            if len(g) != dimension:
                raise DimensionMismatch(f"gap {g} in dimension {dimension}")
            if any(v < 0 for v in g):
                raise NotNatural(g)
    box = _Box([2 + 2 * max(col) for col in columns] if points else [2] * dimension)
    return GapSemigroup(box, box.mask(points))


# ---------------------------------------------------------------------------
# Gap computation from generators
# ---------------------------------------------------------------------------


def _axis_multiples(points: Iterable[Point], dimension: int) -> tuple[list[int], list[int]]:
    """(mult, gcds): per axis, the least positive multiple of it among the
    points and the gcd of those multiples; 0 and 0 where none is.

    The nonnegative cone of a generating set is the whole orthant iff it
    contains every unit vector, which forces a pure axis generator per axis.
    A point is pure on axis i iff its coordinate i is positive and equals
    its degree, so a zero point is never pure, and one pass reads each
    axis's column against the degrees for both values.
    """
    points = list(points)
    degrees = list(map(sum, points))
    columns = list(zip(*points)) or [()] * dimension
    pure = [list(filter(None, compress(col, map(eq, col, degrees)))) for col in columns]
    return [min(p, default=0) for p in pure], [gcd(*p) for p in pure]


def _tube_apery(
    gens: Sequence[Point], extent: Sequence[int], i: int, budget: Budget
) -> tuple[_Box, int]:
    """(W, mask): the points of Ap(S, E) in the tube {x : x_j < extent_j for
    every j != i}, as a mask of a box W that cuts the tube along axis i.

    Ap(S, E) is the members s with s - m_j e_j outside S for every axis j.
    ``extent`` holds m = m_i on axis i and at most m_j on the others, so
    s - m_j e_j leaves N^d for j != i. Only the generators inside the tube
    can add up to a point of it, so the rest are dropped. In W the generated
    mask M is exactly S cut to W, and the tube's Ap points in W are M minus
    M + m e_i. Two points of the tube lie in one class mod m iff they agree
    mod ``extent``, and then differ by a multiple of m e_i; the members of a
    class in W are up-closed along m e_i, so a class holds at most one Ap
    point, its least member. Ap points are closed under summands: if w + g
    is one, so are w and g. A generator g is thus a step between Ap points
    only if it is the Ap point of its class, or its class has none in W
    yet; any other lies m e_i or more above that point. Inside W that is
    g's bit of the Ap mask. Past W it is the bit of M at the top point of
    g's class in W, x_i = e - 1 - (e - 1 - g_i) mod m, being clear (or x_i
    below 0). So once the largest w_i of the Ap mask (``_Box.top``) plus
    g_i stays inside W for every step g, no decomposition of a tube Ap
    point can leave W, and W holds them all.

    W's extent e on axis i doubles from 4m until then (a box of 2m almost
    never passes), clipped to max_work points for W; at e <= m every
    s - m e_i leaves W, so the Ap mask is M, unshifted. BudgetExceeded when
    the largest W allowed fails the test. The start changes no answer:
    every W that passes holds the same Ap points, all of the tube's, and
    the callers read only their count, ``_Box.top`` and bits at or below
    points of W's last row along axis i. Passing is monotone in e (a larger
    W has the same Ap points, so more room, and a generator that was no
    step stays none), so the last W tried is the largest allowed when none
    passes. No Ap point is decoded.
    """
    m, extent = extent[i], list(extent)
    # the generators inside the tube, one column per cut axis
    inside = [map(lt, col, repeat(x)) for j, (col, x) in enumerate(zip(zip(*gens), extent)) if j != i]
    if inside:
        gens = list(compress(gens, map(all, zip(*inside))))
    extent[i] = 1
    top = budget.max_work // prod(extent)
    e, built = 4 * m, 0
    while (e := min(e, top)) > built:
        extent[i] = e
        box = _Box(extent)
        s = box.strides[i]
        members = _generated(box, gens)
        ap = members if e <= m else members & ~(members << m * s)
        # every step g must have g_i <= room = e - 1 - max w_i
        room = e - box.top(ap)[i]
        for g in gens:
            if g[i] <= room:
                continue
            j = box.index(g)
            if g[i] < e:
                if ap >> j & 1:
                    break
            else:
                x = e - 1 - (e - 1 - g[i]) % m
                if x < 0 or not members >> j + (x - g[i]) * s & 1:
                    break
        else:
            return box, ap
        built, e = e, 2 * e
    raise BudgetExceeded(
        f"the Apery set along axis {i} outgrows the largest box the budget allows"
    )


def _check_finite(gens: Sequence[Point], mult: Sequence[int], budget: Budget):
    """Raise InfiniteGaps naming a slice with infinitely many gaps, if there
    is one. ``from_generators`` calls it only to name that slice: when an
    axis gcd exceeds 1, or a tube misses a class or passes the budget.

    For a = 0, then a = 1, the first slices {x_a = t} are tested: t = 0,
    the face semigroup of the generators with g_a = 0, by the same test in
    d - 1 dimensions, and t = 1 (when m_a > 1) by the tubes cut to
    x_a <= 1, whose Ap masks without their face x_a = 0 (one
    ``_Box.below`` mask) are read by popcount. Nothing further is needed.
    If both are finite, the slice t = 1 holds, for each face coordinate k,
    a member on the axes a and k alone (a bit of the Ap mask on the line
    below (x_a = 1, x_j = e_j - 1), j the axis of k), and t times it in
    slice t gives slice t finitely many gaps too; so no line runs off axis
    a. A line in a slice is thus found at the least a it runs off (0,
    unless every line runs along axis 0) and the least level t on it. In
    d = 1 a residue class is empty iff the generators' gcd exceeds 1.

    It has one mode: it always runs this sequence, so whichever trigger
    calls it names the same slice. Its first step is the face {x_0 = 0},
    and no list the tubes find finite would pass the budget here: every
    tube this test builds, in a face or cut to x_a <= 1, covers a region
    inside the full tube along the same axis, so its Ap points are a
    subset of that tube's, its room is at least as large and its clip is
    looser. Testing that face only after the tubes thus changes no answer.
    """
    d = len(mult)
    if d == 1:
        if (g := gcd(*(v for v, in gens))) != 1:
            raise InfiniteGaps(axis=0, level=None, detail=f"generator gcd is {g}")
        return
    for a in (0, 1):
        face = [j for j in range(d) if j != a]
        try:
            face_gens = [tuple(g[j] for j in face) for g in gens if g[a] == 0]
            _check_finite(face_gens, [mult[j] for j in face], budget)
        except InfiniteGaps:
            detail = "the axis-free face already has infinitely many gaps"
            raise InfiniteGaps(a, 0, detail=detail) from None
        if mult[a] == 1:
            continue
        cut = [2 if j == a else m for j, m in enumerate(mult)]
        level = []
        for j in face:
            box, ap = _tube_apery(gens, cut, j, budget)
            last = [x - 1 for x in box.extent]
            last[a] = 0
            level.append((box, ap & ~box.below(last)))
        if all(ap.bit_count() == prod(mult) // mult[a] for _, ap in level):
            continue
        if not any(g[a] == 1 for g in gens):
            raise InfiniteGaps(a, 1, detail="no generator combination reaches this slice")
        for k, (j, (box, ap)) in enumerate(zip(face, level)):
            line = [int(l == a) for l in range(d)]
            line[j] = box.extent[j] - 1
            if not ap & box.below(line):
                detail = f"no shift is supported on face coordinate {k} alone"
                raise InfiniteGaps(a, 1, detail=detail)


def _certificate(
    gens: Sequence[Point], mult: Sequence[int], budget: Budget
) -> Optional[tuple[_Box, int, tuple]]:
    """(B, gaps, basis): the box B = [0, 2m), the non-members of S in it and
    the generators ``_generated`` keeps there; None where the test below
    rules B out or where skipping a tube could change an answer.

    Axis i certifies when no non-member of B has x_i >= m_i. Two kinds of
    points there are members only as generators: k e_i for m_i < k < 2m_i,
    as a sum of two pure members of axis i is at least 2m_i, and
    m_i e_i + e_j for each j != i with m_j > 1, as its one summand off
    axis i is e_j or itself. An axis that lacks one cannot certify, and B,
    2^d prod(m) points, then saves at most the first boxes of the other
    axes' tubes, 4 prod(m) points each. So B is built only when every axis
    with m_i > 1, and there is one, lists all of its points, and only when
    both 4 prod(m) and prod(2m) fit ``max_work``. Axes with m_i = 1 are
    not asked: they have no such k, and asking them too ran about 5 %
    slower on the d = 3 census to genus 4.
    """
    d = len(mult)
    if max(4, 2**d) * prod(mult) > budget.max_work:
        return None
    members = set(gens)

    def only_generators(i):
        p = [0] * d
        for j in range(d):
            if j != i and mult[j] > 1:
                p[i], p[j] = mult[i], 1
                yield tuple(p)
                p[j] = 0
        for k in range(mult[i] + 1, 2 * mult[i]):
            p[i] = k
            yield tuple(p)

    axes = [i for i, m in enumerate(mult) if m > 1]
    if not axes or not all(all(map(members.__contains__, only_generators(i))) for i in axes):
        return None
    box, kept = _Box([2 * m for m in mult]), []
    return box, box.full & ~_generated(box, gens, kept), tuple(kept)


def from_generators(
    source: AffineSemigroup | Iterable[Sequence[int]],
    budget: Optional[Budget] = None,
) -> GapSemigroup:
    """Exact gap set of the semigroup S generated by ``source``.

    Requires the full orthant cone, a pure generator on every axis; m_i e_i
    is the least one on axis i and E the set of them. In the residue class
    rho mod m, S is the up-set that the class's points of Ap(S, E) generate
    on the grid rho + m N^d. Its complement is finite iff for every axis i
    some such point w has w_j < m_j for all j != i: a point of the tube
    along i (``_tube_apery``), which holds at most one Ap point per class.
    Otherwise the line rho + N m_i e_i is gaps, in the slice {x_a = rho_a}
    for every a != i. So the gap set is finite iff every tube holds prod(m)
    Ap points. A tube short of a class, or past the budget, calls
    ``_check_finite`` to name the slice. In d = 1 the tube is N and its Ap
    points are the Kunz table.

    One test runs before the tubes, so that a tube never grows to the
    budget on a gap line the generators show at once: when the pure
    generators of axis i share a factor g > 1, the points k e_i with g not
    dividing k are gaps. Coordinates only grow along a sum, so only the
    pure generators of axis i reach that line. ``_axis_multiples`` gives
    each axis's gcd in the same column pass as m_i, so no generator is
    summed twice. ``_check_finite`` then names the slice. On any other list
    it runs only after a tube, and on a finite gap set not at all.

    The tubes then give the conductor, c_i = max(0, top_i - m_i) with top_i
    one above the largest coordinate i of tube i's Ap points
    (``_Box.top(mask)[i]``). A gap stays a gap when its other coordinates
    are reduced mod m_j, so its largest x_i is reached in tube i; there, a
    class line's gaps are rho, ..., w - m_i e_i, w its Ap point. The
    budget bounds the gap box [0, top - 1), which holds every gap, and
    names it when it passes.

    Before the tubes, one ``_generated`` mask of B = [0, 2m) can prove the
    conductor (``_certificate``). Axis i certifies when no non-member of B
    has x_i >= m_i, and then no gap has: a gap p with p_i >= m_i stays one
    when m_j e_j, a generator, is split off on an axis j with p_j >= 2m_j,
    so by induction it reaches such a gap in B. Reduced mod m_j on every
    axis j != i, a gap stays a gap, and its x_i < m_i, so it lies in
    [0, m) inside B: c_i = ``B.top(gaps)[i]`` and top_i = c_i + m_i. If
    every axis certifies, B's non-members are the gaps and the generators
    it keeps the Hilbert basis, as below, and no tube is built; else only
    the other axes' tubes run, in the same order, so the first to fail is
    the same one. The answers, errors and budgets are those of the tubes
    alone, since B is tried only when 4 prod(m) and prod(2m) fit
    ``max_work``. The tube along a certified axis would then be built at
    its first extent 4m_i, unclipped, and pass there: every class has its
    Ap point below top_i = c_i + m_i <= 2m_i, so the room is at least
    2m_i, and a tube generator past that is a member plus m_i e_i, no Ap
    point. The gap box [0, top - 1) fits in prod(2m) when every axis
    certifies.

    One ``_generated`` over the conductor box [0, 2c), c at least 1, gives
    the gaps as its non-members, and the generators it keeps are the
    Hilbert basis in graded-lex order: the generators are sorted so, every
    basis element lies in [0, 2c) (one with s_i >= 2c_i splits off
    c_i e_i), and a generator is not minimal iff it is a sum of smaller
    ones. No point is decoded until ``gaps`` is read. Raises
    BudgetExceeded when a box would pass the limits of ``budget``.
    """
    if not isinstance(source, AffineSemigroup):
        gens = [tuple(g) for g in source]
        source = AffineSemigroup(len(gens[0]) if gens else 1, gens)
    d, gens = source.dimension, source.generators
    budget = budget or DEFAULT_BUDGET
    mult, gcds = _axis_multiples(gens, d)
    if 0 in mult:
        raise NotFullCone(mult.index(0))
    # an axis whose pure generators share a factor holds a line of gaps
    if max(gcds) > 1:
        _check_finite(gens, mult, budget)
    # top_i = c_i + m_i on every axis the certificate proves, else None
    top = [None] * d
    if certificate := _certificate(gens, mult, budget):
        box, gaps, basis = certificate
        top = [c + m if c <= m else None for c, m in zip(box.top(gaps), mult)]
        if None not in top:
            return GapSemigroup(box, gaps, basis)
    for i in range(d):
        if top[i] is not None:
            continue
        try:
            box, ap = _tube_apery(gens, mult, i, budget)
        except BudgetExceeded:
            _check_finite(gens, mult, budget)
            raise
        if ap.bit_count() < prod(mult):
            _check_finite(gens, mult, budget)
            raise AssertionError(f"the tube along axis {i} misses a class the slice tests missed")
        top[i] = box.top(ap)[i]
    extent = [max(1, t - 1) for t in top]
    if prod(extent) > budget.max_work:
        raise BudgetExceeded(f"the gap box {tuple(extent)} passes the budget")
    # the conductor box [0, 2c), c = max(0, top - m) taken at least 1
    box, basis = _Box([2 * max(t - m, 1) for t, m in zip(top, mult)]), []
    return GapSemigroup(box, box.full & ~_generated(box, gens, basis), tuple(basis))
