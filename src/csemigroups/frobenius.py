"""Pseudo-Frobenius analytics on finite-gap semigroups.

Covers the pseudo-Frobenius set and Betti-type, the term-order Frobenius
element, gap cover certificates, the ideal-quotient description of the
same set, Apery sets for finite witness sets, the symmetry classifier, and
the gap-count identity used by the Wilf report.

PF, the Frobenius ideal's extra gaps, the Apery set and the count of
members below F read the gap mask of the conductor box: each is a few
shifts, a bit reversal, a row move or a popcount of one int, not a loop
over the gaps.
``RelativeIdeal`` and ``ideal_difference_member`` decide one point at a time.
"""

from __future__ import annotations

from math import prod
from operator import rshift
from typing import Optional, Sequence

from . import lattice
from .errors import (
    DimensionMismatch,
    EmptyGapSet,
    IdealBaseMismatch,
    InfiniteApery,
    NotNatural,
)
from .gapsemigroup import GapSemigroup, _axis_multiples
from .lattice import GRLEX, Point, TermOrder, _bits, _Box, _Record, grlex_sorted


def pseudo_frobenius(gs: GapSemigroup) -> tuple[Point, ...]:
    """Gaps f with f + a in S for every Hilbert-basis element a.

    Checking the basis suffices: any nonzero member is a basis element plus a
    member, and S is closed under addition. Only the basis elements a < c
    coordinatewise need a shift, the bits of ``gs.low_basis``: a gap f has
    f < c, so if a_i >= c_i on some axis i then (f + a)_i >= c_i, past every
    gap, and f + a is a member. In the conductor box the gaps f with f + a
    a gap are the gap mask shifted down by index(a): f + a < 2c never
    leaves its row.
    """
    gaps = pf = gs.gap_mask
    for i in _bits(gs.low_basis):
        pf &= ~(gaps >> i)
    return tuple(gs.box.grlex_points(pf))


def betti_type(gs: GapSemigroup) -> int:
    return len(pseudo_frobenius(gs))


def frobenius_element(gs: GapSemigroup, order: TermOrder = GRLEX) -> Point:
    """The order-maximum gap; exists whenever the gap set is nonempty.

    A gap below another gap precedes it under every term order, so the
    maximum is a maximal gap: a gap g with no gap at or above any g + e_i,
    that is no g + e_i in the down-set of the gaps. As g_i < c_i, g + e_i
    stays in g's row, so that down-set shifted down by one stride per axis
    marks it at g.
    """
    box, gaps = gs.box, gs.gap_mask
    if not gaps:
        raise EmptyGapSet("no gaps, so no Frobenius element")
    below, top = box.up(gaps, rshift), gaps
    for s in box.strides:
        top &= ~(below >> s)
    return max(box.points(top), key=order.key)


def cover_witness(gs: GapSemigroup, x: Sequence[int]) -> Optional[Point]:
    """For a gap x, some pseudo-Frobenius f with f - x in S; None for members."""
    x = tuple(x)
    # contains checks the length first
    if gs.contains(x):
        return None
    if not lattice.is_natural(x):
        raise NotNatural(x)
    for f in pseudo_frobenius(gs):
        if gs.contains(lattice.sub(f, x)):
            return f
    return None


def omega_extra(gs: GapSemigroup, order: TermOrder = GRLEX) -> tuple[Point, ...]:
    """The non-member part of the ideal {z : F - z not in S}, F the
    Frobenius element under ``order`` (``_omega_extra``)."""
    return _omega_extra(gs, frobenius_element(gs, order))


def _omega_extra(gs: GapSemigroup, F: Point) -> tuple[Point, ...]:
    """The gaps z with F - z not in S, F the Frobenius element the caller
    has worked out.

    Every member z belongs to the ideal {z : F - z not in S} (else F would
    be a member), so the ideal is S plus exactly these gaps; points with
    F - z outside N^d count as F - z not in S. On the mask: for g <= F,
    index(F - g) = index(F) - index(g), so reversing the member bits at or
    below index(F) puts the bit of F - g at index(g). Those g are the gaps
    that leave; every other gap is in the output. A gap g not below F reads
    a clear bit there: at the last axis j with g_j > F_j the difference of
    the indices borrows, so its coordinate j is F_j - g_j + 4c_j, in the
    row's padding (3c_j, 4c_j) past the box [0, 2c), where no member bit is
    set, or the difference is negative and past the reversed bits.
    """
    box, gaps = gs.box, gs.gap_mask
    n = box.index(F) + 1
    members = box.full & ~gaps & ((1 << n) - 1)
    mirrored = int(format(members, f"0{n}b")[::-1], 2)
    return tuple(box.grlex_points(gaps & ~mirrored))


class FrobeniusReport(_Record):
    """Classification of a finite-gap semigroup under one term order.

    ``pf_prime_dominated`` says whether every f in pf_prime is
    coordinatewise below the Frobenius element; the converse classification
    results assume it, so it is reported instead of guessed.
    """

    _fields = (
        "pf", "betti_type", "frobenius", "pf_prime", "omega_extra",
        "symmetric", "pseudo_symmetric", "almost_symmetric", "irreducible", "pf_prime_dominated",
    )

    def to_json(self) -> dict:
        """The fields as ``_Record.to_json`` writes them, the five flags
        nested under "classification"."""
        out = super().to_json()
        out["classification"] = {name: out.pop(name) for name in self._fields[5:]}
        return out


def classify(gs: GapSemigroup, order: TermOrder = GRLEX) -> FrobeniusReport:
    """Symmetry flags from the pseudo-Frobenius set and the Frobenius element.

    symmetric: PF = {F}. pseudo-symmetric: PF = {F, F/2} with F/2 a lattice
    point. almost symmetric: PF' nonempty and closed under g -> F - g.
    irreducible: symmetric or pseudo-symmetric. The symmetric case has empty
    PF', so it is deliberately not counted as almost symmetric. F is worked
    out once and read by the Frobenius ideal's extra gaps too.
    """
    pf = pseudo_frobenius(gs)
    F = frobenius_element(gs, order)
    pf_prime = tuple(p for p in pf if p != F)
    prime_set = set(pf_prime)
    symmetric = pf == (F,)
    half = tuple(v // 2 for v in F) if all(v % 2 == 0 for v in F) else None
    pseudo_symmetric = half is not None and set(pf) == {F, half}
    almost = bool(pf_prime) and all(lattice.sub(F, g) in prime_set for g in pf_prime)
    return FrobeniusReport(
        pf, len(pf), F, pf_prime, _omega_extra(gs, F),
        symmetric, pseudo_symmetric, almost, symmetric or pseudo_symmetric,
        all(lattice.partial_leq(f, F) for f in pf_prime),
    )


def apery(gs: GapSemigroup, witnesses: Sequence[Sequence[int]]) -> tuple[Point, ...]:
    """Members b with b - a outside S for every a in the witness set E.

    Finiteness holds iff every axis j carries a pure positive multiple in E:
    such a multiple m_j * e_j forces b_j < m_j or b - m_j*e_j to be a gap, so
    b_j < max(a_j) + conductor_j; without one, members far along axis j stay
    in the set. The criterion is checked first and the finite case is a box
    scan under that exclusive bound: the gap mask's rows moved into that box,
    then one shift of the member mask per a.
    """
    E = [tuple(a) for a in witnesses]
    if not E:
        raise ValueError("the witness set must be nonempty")
    d = gs.dimension
    for a in E:
        if len(a) != d:
            raise DimensionMismatch(f"witness {a} in dimension {d}")
        if lattice.is_zero(a) or not gs.contains(a):
            raise ValueError(f"witness {a} is not a nonzero member")
    mult, _ = _axis_multiples(E, d)
    if 0 in mult:
        raise InfiniteApery(mult.index(0))
    box = _Box(tuple(max(a[j] for a in E) + gs.conductor[j] for j in range(d)))
    members = out = box.full & ~gs.box.move(gs.gap_mask, box, gs.conductor)
    for a in E:
        out &= ~(members << box.index(a))
    return tuple(box.grlex_points(out))


class RelativeIdeal(_Record):
    """Ideal of a finite-gap semigroup, generated by finitely many points.

    The ideal is the union of generator + S over its generators, so
    membership reduces to one subtraction per generator.
    """

    _fields = ("base", "generators")

    def __init__(self, base: GapSemigroup, generators: Sequence[Point]):
        generators = tuple(grlex_sorted(generators))
        for g in generators:
            if len(g) != base.dimension:
                raise DimensionMismatch(f"ideal generator {g}")
            if not lattice.is_natural(g):
                raise ValueError(f"ideal generator {g} is outside N^d")
        super().__init__(base, generators)

    def contains(self, z: Sequence[int]) -> bool:
        z = tuple(z)
        lattice.check_same_dimension(z, lattice.zero(self.base.dimension))
        return lattice.is_natural(z) and any(self.base.contains(lattice.sub(z, g)) for g in self.generators)


def ideal_difference_member(ideal: RelativeIdeal, other: RelativeIdeal, z: Sequence[int]) -> bool:
    """Decide z in (I - J), i.e. z + J inside I.

    Because I is closed under adding members of S and J is the union of
    g + S over its generators, z + J lies in I iff z + g does for each
    generator g of J.
    """
    if ideal.base is not other.base and ideal.base != other.base:
        raise IdealBaseMismatch("ideal difference needs ideals over the same base")
    z = tuple(z)
    lattice.check_same_dimension(z, lattice.zero(ideal.base.dimension))
    return lattice.is_natural(z) and all(ideal.contains(lattice.add(z, g)) for g in other.generators)


def cardinality_identity(gs: GapSemigroup, order: TermOrder = GRLEX) -> tuple[int, int]:
    """(gaps outside PF', members coordinatewise below F) as a countable pair.

    The right side is the volume of [0, F] minus the popcount of the gap
    mask in the down-set of F.
    """
    F = frobenius_element(gs, order)
    pf_prime = [f for f in pseudo_frobenius(gs) if f != F]
    lhs = gs.genus - len(pf_prime)
    rhs = prod(v + 1 for v in F) - (gs.gap_mask & gs.box.below(F)).bit_count()
    return lhs, rhs
