"""Generator-list affine semigroups with exact membership.

An AffineSemigroup is a finitely generated submonoid of N^d given by its
generators. Membership reads one bitmask: the generator sums that lie in a
box [0, e) holding the point, built by a shift-and-OR per generator
(``lattice._generated``). Coordinates only grow along a sum, so the sums in
the box are exactly the members there. The box costs about 2^d * prod(e_i)
bits, so it grows only up to ``MEMBER_BOX_BITS``. A point past that is
decided by descent: p is a member iff p - g is one for some generator g,
down to the box, where the mask answers; a descent that sees more than
``FAR_SEARCH_POINTS`` points raises BudgetExceeded. ``minimalize`` reads
the same kernel, over one box [0, max g] when that is the smaller, else it
tests each generator against the inputs below it, in the box that
membership grows for it (``_grown``). The scans
of PI decompositions, of ``arf.prop79_check`` and of the (a, p) family
build their one box through ``_window``, which holds the same cap but
raises BudgetExceeded past it, so this module alone sets the window
policy.
"""

from __future__ import annotations

import functools
from math import prod
from operator import lt, sub
from typing import Iterable, Optional, Sequence

from . import lattice
from .errors import BudgetExceeded, DimensionMismatch
from .lattice import Point, _Box, _generated, grlex_sorted

MEMBER_BOX_BITS = 1 << 26
# points seen by one search past the box, about 100 MB of tuples in d = 2;
# the far members the tests ask for see at most 300 000
FAR_SEARCH_POINTS = MEMBER_BOX_BITS >> 7


class AffineSemigroup:
    """Submonoid of N^d generated by a finite set of nonzero points.

    Values are immutable after construction. Membership reads a cached
    ``(box, bits)`` pair: the generator sums in the box [0, e), as bytes so
    that a lookup is O(1). A point outside the box replaces the pair by one
    with extent max(p_i + 1, e_i) per coordinate, unless that box would take
    more than MEMBER_BOX_BITS bits; such a point is decided by a search down
    into the cached box, whose points seen live for one call. The pair is
    one tuple, read and swapped whole, so a concurrent reader never pairs a
    new box with old bits; at worst two callers build the same pair. The
    cache takes about 2^d * prod(p_i + 1) bits while it is built, p the
    coordinatewise maximum of the points asked, and keeps nothing per point.
    """

    __slots__ = ("dimension", "generators", "_cache")

    def __init__(self, dimension: int, generators: Iterable[Sequence[int]]):
        gens = grlex_sorted({tuple(g) for g in generators})
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not gens:
            raise ValueError("at least one generator is required")
        # checked on the lengths and the coordinate columns; the generators
        # are walked one by one only to name the first bad one
        if not set(map(len, gens)) <= {dimension} or min(map(min, zip(*gens))) < 0:
            for g in gens:
                if len(g) != dimension:
                    raise DimensionMismatch(f"generator {g} in dimension {dimension}")
                if any(v < 0 for v in g):
                    raise ValueError(f"generator {g} has a negative coordinate")
        if gens[0] == lattice.zero(dimension):
            raise ValueError("the zero point is not allowed as a generator")
        self.dimension = dimension
        self.generators = tuple(gens)
        self._cache = _unit(dimension)

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
        if min(p) < 0:
            return False
        return _member(self.generators, p, *self.cover(p))

    def cover(self, p: Sequence[int]) -> tuple[_Box, bytes]:
        """The cached (box, bits) pair, first grown to hold p if the budget allows."""
        if len(p) != self.dimension:
            raise DimensionMismatch(f"point {tuple(p)} in dimension {self.dimension}")
        self._cache = pair = _grown(self.generators, p, *self._cache)
        return pair

    def __contains__(self, p) -> bool:
        return self.is_member(p)

    def to_json(self) -> dict:
        return {"d": self.dimension, "gens": [list(g) for g in self.generators]}


@functools.cache
def _unit(d: int) -> tuple[_Box, bytes]:
    """The (box, bits) pair of the box [0, 1)^d, shared by every semigroup
    of dimension d: a box never changes, and ``cover`` replaces a pair
    rather than mutating it."""
    return _Box((1,) * d), b"\x01"


def _box_bits(extent: Sequence[int]) -> int:
    """About the bits of the box [0, extent) and of the shifts that build it."""
    return prod(2 * e for e in extent)


def _grown(gens: Sequence[Point], p: Sequence[int], box: _Box, bits: bytes) -> tuple[_Box, bytes]:
    """(box, bits), the sums of gens in box, grown to hold p unless that box
    would take more than MEMBER_BOX_BITS bits."""
    if not all(map(lt, p, box.extent)):
        extent = tuple(max(v + 1, e) for v, e in zip(p, box.extent))
        if _box_bits(extent) <= MEMBER_BOX_BITS:
            box = _Box(extent)
            bits = _sums(box, gens)
    return box, bits


def _window(extent: Sequence[int], name: str) -> _Box:
    """The box [0, extent) that a scan below a known corner reads; past
    MEMBER_BOX_BITS bits it raises BudgetExceeded, naming the box."""
    if _box_bits(extent) > MEMBER_BOX_BITS:
        raise BudgetExceeded(f"the {name} box {extent} passes {MEMBER_BOX_BITS} bits")
    return _Box(extent)


def _sums(box: _Box, gens: Sequence[Point]) -> bytes:
    """The generator sums in the box, bit index(x) of the bytes set for each."""
    return _generated(box, gens).to_bytes((box.full.bit_length() + 7) >> 3, "little")


def _bit(bits: bytes, i: int) -> bool:
    """Bit i of bytes that ``_sums`` wrote."""
    return bits[i >> 3] >> (i & 7) & 1 == 1


def _member(gens: Sequence[Point], p: Point, box: _Box, bits: bytes) -> bool:
    """Whether p is a sum of gens, given ``bits``, their sums in ``box``.

    Inside the box this is one bit. Outside, p is a sum iff subtracting
    generators, without leaving N^d, reaches a sum in the box: along a
    decomposition of p the first point in the box is a partial sum. The
    points seen are kept for this call only. The search takes a path of
    about |p| points to a far member, but walks the whole coset below a
    far non-member, so past FAR_SEARCH_POINTS points seen it raises
    BudgetExceeded.
    """
    extent = box.extent
    if all(map(lt, p, extent)):
        return _bit(bits, box.index(p))
    seen = {p}
    stack = [p]
    while stack:
        q = stack.pop()
        for g in gens:
            r = tuple(map(sub, q, g))
            if min(r) < 0 or r in seen:
                continue
            if all(map(lt, r, extent)):
                if _bit(bits, box.index(r)):
                    return True
            else:
                seen.add(r)
                stack.append(r)
        if len(seen) > FAR_SEARCH_POINTS:
            raise BudgetExceeded(
                f"membership search past the box saw more than {FAR_SEARCH_POINTS} points"
            )
    return False


def minimalize(generators: Iterable[Sequence[int]], dimension: Optional[int] = None) -> AffineSemigroup:
    """The unique minimal generating system of the monoid the inputs generate.

    The minimal system of a reduced monoid is exactly S* minus (S* + S*):
    the inputs g that are no sum of the other inputs. When the box
    [0, max g] holds no more bits than the boxes [0, g] of all the inputs
    together, and fits MEMBER_BOX_BITS, one ``_generated`` over it keeps
    exactly those, as the inputs are grlex-sorted. Otherwise each g is
    tested against the inputs below it in the box that membership grows to
    hold it, [0, g] within MEMBER_BOX_BITS, so the cost is the sum of the
    generators' volumes, not the volume of their coordinatewise maximum.
    When every input is kept, the semigroup built to validate them is the
    one returned.
    """
    gens = [tuple(g) for g in generators]
    if dimension is None:
        if not gens:
            raise ValueError("dimension required for an empty generator list")
        dimension = len(gens[0])
    sem = AffineSemigroup(dimension, gens)  # validates the input
    gens = sem.generators
    extent = tuple(v + 1 for v in map(max, zip(*gens)))
    size = _box_bits(extent)
    kept = []
    if size <= MEMBER_BOX_BITS and size <= sum(_box_bits([v + 1 for v in g]) for g in gens):
        _generated(_Box(extent), gens, kept)
    else:
        for g in gens:
            below = [h for h in gens if h != g and all(a <= b for a, b in zip(h, g))]
            if not below or not _member(below, g, *_grown(below, g, *_unit(dimension))):
                kept.append(g)
    return sem if len(kept) == len(gens) else AffineSemigroup(dimension, kept)


def multiplicity(sem) -> tuple[Point, bool]:
    """Coordinatewise infimum of S minus 0, and whether S attains it.

    Each coordinate of a nonempty sum of generators is at least the minimum
    of that coordinate over the generators, and a generator attains each
    minimum, so the infimum is the componentwise generator minimum. It need
    not itself be a nonzero member; ``attained`` reports that. A
    GapSemigroup is read off its gap mask: in d >= 2 the infimum is 0, as S
    is cofinite and so holds c_j e_j, with x_i = 0, for every axis j != i;
    in d = 1 it is the least non-gap above 0, the lowest clear bit of the
    mask above bit 0.
    """
    if isinstance(sem, AffineSemigroup):
        m = tuple(map(min, zip(*sem.generators)))
    elif sem.dimension > 1:
        m = lattice.zero(sem.dimension)
    else:
        low = sem.gap_mask | 1
        m = (((low + 1) & ~low).bit_length() - 1,)
    attained = not lattice.is_zero(m) and m in sem
    return m, attained
