"""Integer lattice primitives.

Points are plain tuples of Python ints, so all arithmetic is exact at any
size. The module provides the coordinatewise partial order, the lex and
graded-lex term orders, predecessor counting, boxes held as the bits of
one int (with the closure pass and the generated-monoid kernel that
both semigroup kinds run on them), and Hermite normal form for subgroup
membership and intersection.
"""

from __future__ import annotations

import itertools
import operator
import re
from math import comb
from operator import floordiv, lshift, mod, mul
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, NotClosed, OrderNotPredecessorFinite

Point = tuple[int, ...]


def check_same_dimension(p: Sequence[int], q: Sequence[int]) -> None:
    if len(p) != len(q):
        raise DimensionMismatch(f"dimension {len(p)} vs {len(q)}")


def add(p: Point, q: Point) -> Point:
    check_same_dimension(p, q)
    return tuple(a + b for a, b in zip(p, q))


def sub(p: Point, q: Point) -> Point:
    """Componentwise difference; may leave N^d, where every membership test answers False."""
    check_same_dimension(p, q)
    return tuple(a - b for a, b in zip(p, q))


def scale(k: int, p: Point) -> Point:
    return tuple(k * a for a in p)


def is_natural(p: Sequence[int]) -> bool:
    return all(a >= 0 for a in p)


def is_zero(p: Sequence[int]) -> bool:
    return all(a == 0 for a in p)


def zero(dimension: int) -> Point:
    return (0,) * dimension


def partial_leq(p: Point, q: Point) -> bool:
    """Coordinatewise order: p <= q iff p_i <= q_i for every i."""
    check_same_dimension(p, q)
    return all(a <= b for a, b in zip(p, q))


_SCALARS = frozenset((bool, int, str, type(None)))


def _json(value):
    """A field value as JSON data, two levels deep: a scalar as it is, a
    point as a list, a record (or semigroup) through its ``to_json``, and a
    tuple of points or records item by item."""
    kind = type(value)
    if kind is not tuple:
        return value if kind in _SCALARS else value.to_json()
    if not value or type(value[0]) in _SCALARS:
        return list(value)
    if type(value[0]) is tuple:
        return list(map(list, value))
    return [item.to_json() for item in value]


class _Record:
    """An immutable record of the fields named in ``_fields``.

    It is built from the field values by position, by name or both, and
    writes them into the instance ``__dict__``, past ``__setattr__``; a
    missing, unknown or repeated field is a TypeError. A subclass defines
    ``__init__`` only to check or default its arguments. The record
    compares and hashes as the tuple of its field values, is equal only to
    a record of the same class, prints as ``Name(field=value, ...)``,
    serializes as ``{field: value}`` (``to_json``), and refuses assignment
    and deletion. Instances keep that ``__dict__``, so pickle and copy need
    no hooks.
    """

    _fields: tuple[str, ...]

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            # the names must be exactly the fields after the positional ones
            rest = fields[len(values) :]
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(
                    f"{type(self).__qualname__} takes the fields {fields}:"
                    f" got {len(values)} by position and {sorted(named)} by name"
                )
            values += tuple(map(named.__getitem__, rest))
        self.__dict__.update(zip(fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def to_json(self) -> dict:
        """``{field: value}``, each value as JSON data (``_json``)."""
        fields = self.__dict__
        return {name: _json(fields[name]) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TermOrder(_Record):
    """A total order on N^d compatible with addition.

    kind "lex" compares permuted coordinates left to right; "grlex" compares
    coordinate sums first and breaks ties by lex. ``perm`` lists coordinate
    indices from most to least significant (identity when None).
    """

    _fields = ("kind", "perm")

    def __init__(self, kind: str, perm: Optional[Sequence[int]] = None):
        if kind not in ("lex", "grlex"):
            raise ValueError(f"unknown term order kind {kind!r}")
        super().__init__(kind, None if perm is None else tuple(perm))

    def _permuted(self, p: Point) -> Point:
        if self.perm is None:
            return p
        if sorted(self.perm) != list(range(len(p))):
            raise DimensionMismatch(
                f"permutation {self.perm} does not match dimension {len(p)}"
            )
        return tuple(p[i] for i in self.perm)

    def key(self, p: Point):
        """Sort key: orders points exactly as the term order does."""
        base = self._permuted(p)
        return base if self.kind == "lex" else (sum(p),) + base

    def is_predecessor_finite(self, dimension: int) -> bool:
        """True when every point has finitely many predecessors (grlex; lex only in d=1)."""
        return self.kind == "grlex" or dimension <= 1

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.perm is not None:
            d["perm"] = list(self.perm)
        return d


GRLEX = TermOrder("grlex")
LEX = TermOrder("lex")


def grlex_sorted(points: Iterable[Point]) -> list[Point]:
    """The points in graded-lex order, as ``sorted(points, key=GRLEX.key)``.

    A lex sort followed by a stable sort on the degree leaves each degree
    in lex order. The points of a box mask decode in lex order already, so
    ``_Box.grlex_points`` sorts them by degree only.
    """
    return sorted(sorted(points), key=sum)


def count_preceding(order: TermOrder, p: Point) -> int:
    """The number of points q of N^d that strictly precede p, in closed form.

    For grlex, the points of degree below n = deg p number C(n - 1 + d, d);
    in d = 1 that is C(p_0, 1) = p_0, all of them, and the loop below is
    empty. A point q of degree n precedes p when, in the permuted
    coordinates, it first differs at position t with q_t < p_t; with r the
    degree left after the first t coordinates of p and k = d - 1 - t
    coordinates after t, the choices q_t = v < p_t leave sum over v of
    C(r - v + k - 1, k - 1) = C(r + k, k) - C(r - p_t + k, k) points. The
    last position allows none.
    """
    d = len(p)
    if not order.is_predecessor_finite(d):
        raise OrderNotPredecessorFinite(f"{order.kind} in dimension {d}")
    r = sum(p)
    count = comb(r - 1 + d, d)
    for t, v in enumerate(order._permuted(p)[:-1]):
        k = d - 1 - t
        count += comb(r + k, k) - comb(r - v + k, k)
        r -= v
    return count


# ---------------------------------------------------------------------------
# Boxes as bitmasks
# ---------------------------------------------------------------------------


class _Box:
    """The points of the box [0, e) as the bits of one int.

    Coordinates are laid out last fastest and each row is 2e_i wide, so for
    x, y < e the bit index(x) + index(y) is the point x + y: adding a point
    to a whole set of points is one left shift that never carries into
    another row. Every extent must be positive.
    """

    __slots__ = ("extent", "strides", "full")

    def __init__(self, extent: Sequence[int]):
        self.extent = tuple(extent)
        # an axis steps over the rows of every axis after it, each 2e wide
        strides = [1]
        for e in reversed(self.extent):
            strides.append(strides[-1] * 2 * e)
        self.strides = strides[-2::-1]
        self.full = self.below([e - 1 for e in self.extent])

    def index(self, p: Sequence[int]) -> int:
        return sum(map(mul, p, self.strides))

    def point(self, i: int) -> Point:
        p = []
        for s in self.strides:
            v, i = divmod(i, s)
            p.append(v)
        return tuple(p)

    def indices(self, columns: Sequence[Sequence[int]]) -> Iterable[int]:
        """``index`` of each point, the points given by their coordinate
        columns: summed column by column (the last stride is 1, so in d = 1
        the values are the indices)."""
        *head, indices = columns
        for column, s in zip(head, self.strides):
            indices = map(operator.add, indices, map(mul, column, itertools.repeat(s)))
        return indices

    def mask(self, columns: Sequence[Sequence[int]]) -> int:
        """The bits of the points given by their coordinate columns (none
        for no columns), each inside the box, set in a byte buffer.

        Columns, not points, so a caller that holds its coordinates as
        columns makes no point tuple. The buffer holds one bit per box
        point and the loop costs one step per point: a loop-free build
        writes one byte per box point, which on a large sparse box (the
        family window) costs 8 times the memory, and was no faster on the
        gap inputs.
        """
        buf = bytearray((self.full.bit_length() + 7) >> 3)
        for i in self.indices(columns or [()]):
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def top(self, mask: int) -> Point:
        """One above the coordinatewise maximum of the mask's points; 0 where
        there are none.

        The top bit gives c_0. Folding the rows of axis 0 onto row 0, halving
        the rows in play each time, leaves the points' projections to
        x_0 = 0, whose top bit gives c_1; and so on inward. A row of axis j
        is s_j bits wide and its inner coordinates index below s_j, so no
        fold carries, and the folds cost a few passes over the mask. The
        innermost axis (stride 1) is read and not folded, so in d = 1 the
        top is the bit length alone.
        """
        c = []
        for e, s in zip(self.extent, self.strides):
            c.append((mask.bit_length() - 1) // s + 1)
            while s > 1 and e > 1:
                e = (e + 1) // 2
                mask = mask & ((1 << e * s) - 1) | mask >> e * s
        return tuple(c)

    def fit(self, mask: int) -> tuple[Point, "_Box", int]:
        """(c, box, mask): the mask's points moved into the conductor box.

        c is ``top(mask)``, one above their coordinatewise maximum, and the
        box is [0, 2c), c taken at least 1.
        """
        c = self.top(mask)
        extent = tuple(2 * max(v, 1) for v in c)
        box = self if extent == self.extent else _Box(extent)
        return c, box, self.move(mask, box, c)

    def move(self, mask: int, box: "_Box", c: Sequence[int]) -> int:
        """The mask's points, all in [0, c), as a mask of ``box``; both boxes hold [0, c).

        A box with other strides takes the mask's innermost rows as runs of
        one bit string, so the cost is linear in its length and no point is
        built.
        """
        if box.strides == self.strides:
            return mask
        bits = format(mask, f"0{self.full.bit_length()}b")[::-1].encode()
        out = bytearray(b"0" * box.full.bit_length())
        *head, n = c
        for x in itertools.product(*map(range, head)):
            i, j = self.index(x), box.index(x)
            out[j : j + n] = bits[i : i + n]
        return int(out[::-1], 2)

    def points(self, mask: int) -> list[Point]:
        """The points of the set bits, in index order: lex order inside the box.

        The coordinates of the set bits' indices (``_bits``) come column by
        column: one ``//`` and one ``%`` list per stride.
        """
        indices = _bits(mask)
        columns = []
        for s in self.strides[:-1]:
            columns.append(list(map(floordiv, indices, itertools.repeat(s))))
            indices = list(map(mod, indices, itertools.repeat(s)))
        columns.append(indices)
        return list(zip(*columns))

    def grlex_points(self, mask: int) -> list[Point]:
        """The points of the set bits, all inside the box, in graded-lex
        order: index order is lex order there, so a stable sort by degree
        is enough."""
        return sorted(self.points(mask), key=sum)

    def below(self, p: Sequence[int]) -> int:
        """The points of the box at or below p coordinatewise; p in the box.

        Innermost coordinate first, the mask is copied s_i apart by doubling
        and cut to its first p_i + 1 copies: the copies so far lie below
        s_i, so no two of them overlap. Each step is one pass over the
        mask; a division by 2^s_i - 1 would cost the square of its size.
        """
        mask = 1
        for v, s in zip(reversed(p), reversed(self.strides)):
            k = 1
            while k <= v:
                mask |= mask << k * s
                k *= 2
            mask &= (1 << (v + 1) * s) - 1
        return mask

    def up(self, mask: int, shift=lshift) -> int:
        """The points of the box above some point of the mask; with
        ``shift=rshift``, those below one.

        A prefix (suffix) OR by doubling along each coordinate. The AND
        after every shift drops the bits pushed past the extent, or borrowed
        from the next row, before a longer shift can carry them back in.
        """
        full = self.full
        for e, s in zip(self.extent, self.strides):
            k = 1
            while k < e:
                mask |= shift(mask, k * s) & full
                k *= 2
        return mask


def _bits(mask: int) -> list[int]:
    """The indices of the set bits, lowest first: the places of "1" in the
    mask's binary digits (a string search, so a sparse mask costs little
    more than its digits)."""
    return list(map(re.Match.start, re.finditer("1", bin(mask)[:1:-1])))


def _generated(box: _Box, gens: Sequence[Point], kept: Optional[list] = None) -> int:
    """The mask of the generator sums that lie in the box, 0 included.

    Per generator g, M |= (M << k*g) & box for k = 1, 2, 4, ... while k*g is
    in the box, that is k <= min((e_j - 1) // g_j) over g_j > 0, so M gains
    every multiple of g that fits; a bound of 0 puts g outside the box and
    costs no shift. Coordinates only grow along a sum, so its partial sums
    lie in the box whenever it does, and dropping what leaves the box loses
    no sum inside it. A generator whose bit is set is skipped: inside the
    box it is a sum of earlier ones, so M + g lies in M there, and outside
    it (where its index may alias a point of the box) it adds nothing
    anyway. Generators must be nonzero. ``kept``, if given, gets the
    generators that shift: those inside the box whose bit is still clear.
    For grlex-sorted generators these are the minimal generators in the
    box, in that order: a sum of two nonzero members is a sum of generators
    below it, each grlex-smaller, and inside the box as well.

    The indices and bounds of all the generators come from one pass over
    the coordinate columns (``_Box.indices``): one list of bounds per
    column, then their minimum per generator. A zero coordinate bounds
    nothing, so its entry is the largest extent, above every real bound;
    its own axis's extent would not do, as it may lie below the bound on
    another axis.
    """
    full, extent = box.full, box.extent
    columns = list(zip(*gens)) or [()] * len(extent)
    free = max(extent)
    bounds = [[(e - 1) // v if v else free for v in col] for col, e in zip(columns, extent)]
    mask = 1
    for g, i, top in zip(gens, box.indices(columns), map(min, zip(*bounds))):
        if not top or mask >> i & 1:
            continue
        if kept is not None:
            kept.append(g)
        k = 1
        while k <= top:
            mask |= (mask << (k * i)) & full
            k *= 2
    return mask


def _closure_pass(box: _Box, members: int, gap_mask: int) -> int:
    """The mask of the indecomposable members; NotClosed unless they close.

    ``members`` holds the points of a down-set D of the box that are not
    gaps, all gaps lying in D. They close when every sum of two that lies
    in D is a member. Points below x have smaller indices, so by induction
    on the index the lowest nonzero member not reached as b + member for a
    found indecomposable b is the next indecomposable, and the members are
    closed iff no b + member is a gap. On the conductor box [0, 2c) of a
    gap set (c at least 1) these are the Hilbert basis and complement
    closure: a member s with s_i >= 2c_i splits off c_i * e_i. With D =
    [0, c) they are the basis elements below c, and the NotClosed is the
    same: a gap y + z has y, z < c, and a basis element b with some
    b_i >= c_i neither reaches a gap nor clears a point below c.
    """
    if gap_mask & 1:
        raise NotClosed(box.point(0), box.point(0))
    left = members & ~1
    basis = 0
    while left:
        low = left & -left
        i = low.bit_length() - 1
        sums = members << i
        clash = sums & gap_mask
        if clash:
            raise NotClosed(box.point((clash & -clash).bit_length() - 1), box.point(i))
        basis |= low
        left &= ~sums
    return basis


# ---------------------------------------------------------------------------
# Integer lattices (subgroups of Z^d) via row Hermite normal form
# ---------------------------------------------------------------------------


class IntegerLattice(_Record):
    """Subgroup of Z^d stored as a row-HNF basis; rank = number of rows."""

    _fields = ("dimension", "basis")

    @property
    def rank(self) -> int:
        return len(self.basis)


def _reduce_rows(rows: list[list[int]], ncols: int) -> int:
    """In-place row HNF of the first ``ncols`` columns; returns the rank.

    Column by column, Euclid's algorithm on row pairs folds each row below
    the pivot row into it: (pivot row, row) becomes (row, pivot row - q *
    row) until the row's entry is 0, which leaves the gcd of the column in
    the pivot row. The pivot is made positive and the rows above it are
    reduced into [0, pivot). Pivots are read off the first ``ncols``
    columns only, but every step (a swap, a negation, a whole row minus a
    multiple of another) is unimodular and acts on whole rows, so any
    columns past ``ncols`` end up holding the same integer combination of
    the input rows as the reduced columns beside them.
    """
    m = len(rows)
    r = 0
    for c in range(ncols):
        if r == m:
            break
        for i in range(r + 1, m):
            while rows[i][c]:
                q = rows[r][c] // rows[i][c]
                rows[r], rows[i] = rows[i], [a - q * b for a, b in zip(rows[r], rows[i])]
        if rows[r][c] == 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-v for v in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def hermite_normal_form(vectors: Sequence[Sequence[int]], dimension: int) -> tuple[Point, ...]:
    """Canonical row-HNF basis (nonzero rows, positive pivots, reduced above)."""
    rows = [list(v) for v in vectors]
    for v in rows:
        if len(v) != dimension:
            raise DimensionMismatch(f"vector of length {len(v)} in dimension {dimension}")
    rank = _reduce_rows(rows, dimension)
    return tuple(tuple(r) for r in rows[:rank])


def lattice_from(vectors: Sequence[Sequence[int]], dimension: Optional[int] = None) -> IntegerLattice:
    """The subgroup of Z^d spanned by the given vectors."""
    vectors = [tuple(v) for v in vectors]
    if dimension is None:
        if not vectors:
            raise ValueError("dimension required for an empty generating set")
        dimension = len(vectors[0])
    return IntegerLattice(dimension, hermite_normal_form(vectors, dimension))


def lattice_intersect(l1: IntegerLattice, l2: IntegerLattice) -> IntegerLattice:
    """Intersection subgroup, via the left kernel of the stacked bases.

    A vector lies in both lattices iff it equals u*A = v*B for integer row
    vectors u, v, i.e. (u, v) is in the left kernel of rows(A) + rows(-B).
    Each row of A is augmented by a copy of itself and each row of -B by d
    zeros. The row operations that reduce the first d columns are
    unimodular, so the rows that vanish there are (u, v)-combinations for a
    basis of that kernel, and their augmented part is u*A. A rank-0 side
    leaves no such row, and the meet is the zero lattice.
    """
    if l1.dimension != l2.dimension:
        raise DimensionMismatch(f"dimension {l1.dimension} vs {l2.dimension}")
    d = l1.dimension
    rows = [list(row) * 2 for row in l1.basis]
    rows += [[-v for v in row] + [0] * d for row in l2.basis]
    rank = _reduce_rows(rows, d)
    return lattice_from([row[d:] for row in rows[rank:]], d)
