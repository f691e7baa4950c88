"""Arf property, Arf closure, and the offset-plus-monoid decomposition.

A submonoid is Arf when y + z - x stays inside it for every coordinatewise
chain x <= y <= z of members. The derived monoid adjoins all such
combinations; iterating it on a finite-gap semigroup strictly shrinks the
gap set until the closure is reached.
"""

from __future__ import annotations

import itertools
from operator import lt
from typing import Iterator, Optional, Sequence, Union

from . import lattice
from .errors import HypothesisFailed, NotPI
from .gapsemigroup import GapSemigroup, from_generators
from .lattice import Point, _Box, _Record, _generated
from .membership import AffineSemigroup, _bit, _window, minimalize, multiplicity


def _chain_sums(box: _Box, members: int, top: Sequence[int]) -> Iterator[int]:
    """Per shift u, the mask of z + u over member chains x <= x + u <= z.

    The ends y = x + u are members & (members << u), and z runs over the
    members above one of them. As z >= y >= u, a sum z + u <= top needs
    u <= top / 2, and only those u are taken. The caller's box must hold
    members << u and z + u within its rows.
    """
    for u in itertools.product(*(range(t // 2 + 1) for t in top)):
        i = box.index(u)
        yield (members & box.up(members & (members << i))) << i


def _derived(box: _Box, gaps: int) -> int:
    """The gaps left by one derived step: those that no chain sum z + u of
    the members box.full & ~gaps reaches. The box must hold the sums
    (``_chain_sums``).

    The bound of the shifts is read off the gap mask itself: a gap g
    reached as z + u, by a chain x <= y = x + u <= z, has z >= u
    coordinatewise, so u <= g / 2, at most half the gaps' coordinatewise
    maximum (``_Box.top(gaps)`` less one). A larger shift reaches no gap,
    so any bound at or above that maximum leaves the same gaps.
    """
    for sums in _chain_sums(box, box.full & ~gaps, [v - 1 for v in box.top(gaps)]):
        gaps &= ~sums
    return gaps


def arf_derived(gs: GapSemigroup) -> GapSemigroup:
    """The derived monoid: adjoin y + z - x for all member chains x <= y <= z.

    Members always stay (take x = y = 0), so only gaps can disappear. A gap
    g goes iff g = z + u with u = y - x for such a chain, and then
    z = g + x - y <= g puts x, y, z and u in [0, g], inside [0, c). So with
    M the members of the conductor box the gaps that go are those in the
    union over u in [0, c) of (M & up(M & (M << u))) << u, and z + u < 3c
    stays within the 4c-wide rows of that box. ``_derived`` reads the same
    bound off the gap mask: the gaps' top is c.
    """
    return GapSemigroup(gs.box, _derived(gs.box, gs.gap_mask))


def is_arf(gs: GapSemigroup) -> bool:
    """True iff the derived monoid adds nothing."""
    box, gaps = gs.box, gs.gap_mask
    sums = _chain_sums(box, box.full & ~gaps, [c - 1 for c in gs.conductor])
    return not any(reached & gaps for reached in sums)


def arf_closure(gs: GapSemigroup) -> tuple[GapSemigroup, int]:
    """Iterate the derived monoid to its fixpoint; returns (closure, steps).

    A derived step only clears gap bits, so the genus never grows: each
    step that is not the fixpoint strictly shrinks the gap set, and at most
    genus(gs) steps occur. The steps run on the gap mask alone, each moved
    into its conductor box by ``_Box.fit``; intermediate steps are not
    rebuilt as semigroups or revalidated, and the closure pass validates
    the fixpoint once. An Arf input takes no step and is returned itself,
    with no pass: it was validated when it was built. Each step bounds its
    shifts by its own gaps' top.
    """
    box, gaps = gs.box, gs.gap_mask
    steps = 0
    while (left := _derived(box, gaps)) != gaps:
        _, box, gaps = box.fit(left)
        steps += 1
    return (GapSemigroup(box, gaps) if steps else gs), steps


class PIMonoid(_Record):
    """The monoid (offset + base) with 0 adjoined.

    The base is a finite-gap semigroup when Arf analysis is needed, or a
    generator-list semigroup for members of rays and other thin monoids that
    have no finite gap representation.
    """

    _fields = ("offset", "base")

    def __init__(self, offset: Sequence[int], base: Union[GapSemigroup, AffineSemigroup]):
        offset = tuple(offset)
        # the base checks the length first; a negative point is no member, zero is one
        if offset not in base:
            raise ValueError("offset must be a nonzero point of N^d" if min(offset) < 0 else "offset must belong to the base monoid")
        if lattice.is_zero(offset):
            raise ValueError("offset must be a nonzero point of N^d")
        super().__init__(offset, base)

    def contains(self, p: Sequence[int]) -> bool:
        p = tuple(p)
        lattice.check_same_dimension(p, self.offset)
        if lattice.is_zero(p):
            return True
        return lattice.sub(p, self.offset) in self.base

    __contains__ = contains


def is_arf_pi(pim: PIMonoid) -> bool:
    """Arf test through the shift equivalence: the monoid is Arf iff its base is.

    Generator-form bases are converted to gap form first, so non-full-cone
    bases fail with the underlying construction error.
    """
    base = pim.base
    if isinstance(base, AffineSemigroup):
        base = from_generators(base)
    return is_arf(base)


class PIStatus(_Record):
    """The multiplicity m, whether S attains it, and the PI verdict (None
    when m is not attained)."""

    _fields = ("multiplicity", "attained", "is_pi")


def is_pi(sem: Union[AffineSemigroup, GapSemigroup]) -> PIStatus:
    """Decide the offset-plus-monoid property via generator pairs.

    With m the attained multiplicity, the monoid splits iff x + y - m stays
    a nonzero member for all nonzero members x, y. Checking generator pairs
    suffices: writing x as generator sums and inducting on length reduces
    every instance to a pair. When the multiplicity is not attained the
    criterion does not apply and the result is None.

    Every pair is read off one mask. Gap-form input shifts the mask of
    {g - m} over its Hilbert basis up by each basis element h and ANDs it
    with the gap mask: g - m + h < 4c fits the conductor box's 4c-wide
    rows, so no shift carries into another row, and a bit past c is no
    gap. Generator-form input grows its membership box once, to the corner
    2 max(g) - m above every pair point, and reads m and each pair point
    g + h - m there as the bit index(g) + index(h) - index(m): the index is
    linear, so no point is built and no membership call is made. Only when
    that box would pass MEMBER_BOX_BITS are the pairs asked one by one, by
    ``is_member``, which descends past the box.
    """
    if isinstance(sem, GapSemigroup):
        m, attained = multiplicity(sem)
        if not attained:
            return PIStatus(m, False, None)
        box, basis = sem.box, sem.hilbert_basis
        # every basis element lies at or above m, so index(g) - index(m) is g - m
        above = box.mask(list(zip(*basis))) >> box.index(m)
        clash = any(above << i & sem.gap_mask for i in map(box.index, basis))
        return PIStatus(m, True, not clash)
    gens = sem.generators
    m = tuple(map(min, zip(*gens)))
    if lattice.is_zero(m):
        return PIStatus(m, False, None)
    corner = tuple(2 * t - v for t, v in zip(map(max, zip(*gens)), m))
    box, bits = sem.cover(corner)
    if all(map(lt, corner, box.extent)):
        i = box.index(m)
        if not _bit(bits, i):
            return PIStatus(m, False, None)
        indices = list(box.indices(list(zip(*gens))))
        pairs = (a + b - i for k, a in enumerate(indices) for b in indices[k:])
        return PIStatus(m, True, all(_bit(bits, p) for p in pairs))
    if m not in sem:
        return PIStatus(m, False, None)
    for k, g in enumerate(gens):
        for h in gens[k:]:
            # g, h >= m componentwise, so the combination stays in N^d and
            # has positive coordinate sum; only membership can fail.
            if lattice.sub(lattice.add(g, h), m) not in sem:
                return PIStatus(m, True, False)
    return PIStatus(m, True, True)


def pi_decompose(sem: Union[AffineSemigroup, GapSemigroup]) -> PIMonoid:
    """Split a verified instance as (multiplicity + base) with 0 adjoined.

    Gap-form input yields a gap-form base: the base gaps are exactly the
    nonzero q with m + q a gap of the input, the gap mask above m shifted
    down by index(m) (m is a member, so q = 0 is not set). Generator-form
    input yields the base generated by the down-shifted generators together
    with m itself. Both are revalidated on the window [0, m + top + 3], top
    the conductor or the coordinatewise generator maximum, by comparing two
    masks of one box: the sums of the input's generators (its Hilbert
    basis in gap form), and 0 with the base's sums shifted up by m. Rows
    are 2e wide, so adding m never carries into another row. A window box
    past the membership cap raises BudgetExceeded.
    """
    status = is_pi(sem)
    if status.is_pi is not True:
        raise NotPI(f"multiplicity {status.multiplicity}, attained={status.attained}")
    m = status.multiplicity
    if isinstance(sem, GapSemigroup):
        box, i = sem.box, sem.box.index(m)
        base_gaps = (sem.gap_mask & box.up(1 << i)) >> i
        base: Union[GapSemigroup, AffineSemigroup] = GapSemigroup(box, base_gaps)
        gens, base_gens, top = sem.hilbert_basis, base.hilbert_basis, sem.conductor
    else:
        shifted = [lattice.sub(g, m) for g in sem.generators if g != m]
        base = minimalize(shifted + [m], sem.dimension)
        gens, base_gens = sem.generators, base.generators
        top = tuple(map(max, zip(*gens)))
    box = _window(tuple(v + t + 4 for v, t in zip(m, top)), "window")
    pim = PIMonoid(m, base)
    wrong = _generated(box, gens) ^ ((1 | _generated(box, base_gens) << box.index(m)) & box.full)
    if wrong:
        p = box.point(wrong.bit_length() - 1)
        raise RuntimeError(f"decomposition failed to reproduce membership at {p}")
    return pim


def _check_chain_hypotheses(gens: Sequence[Point]) -> list[Point]:
    """Shared hypotheses: the generators form a chain and pairs dominate all.

    Every generator lies below every pair sum iff, on each coordinate, the
    largest value is at most twice the smallest. Raises
    HypothesisFailed("chain") or HypothesisFailed("pair-domination").
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        raise HypothesisFailed("chain")
    ordered = sorted(gens, key=lambda g: (sum(g), g))
    for u, v in zip(ordered, ordered[1:]):
        if not lattice.partial_leq(u, v):
            raise HypothesisFailed("chain")
    if any(max(column) > 2 * min(column) for column in zip(*gens)):
        raise HypothesisFailed("pair-domination")
    return gens


def prop79_check(
    a: Sequence[int],
    gens: Sequence[Sequence[int]],
    k: int,
    window: Optional[Sequence[int]] = None,
) -> bool:
    """Window-bounded containment of the shifted k-th derived stage.

    Computes the k-th derived-monoid iterate of <a, gens> inside the window
    (exact there, since chain witnesses for g live in [0, g]) and checks
    that its shift by a lands inside the Arf closure of the semigroup
    generated by a and a + each generator. The shifted semigroup must admit
    a finite gap set for the closure to be computable.

    The window box comes from ``membership._window``, so a window past
    MEMBER_BOX_BITS bits raises BudgetExceeded before it is allocated. Only
    d = 1 gets that far: in higher dimension every generator of the shifted
    semigroup is positive wherever a is, so some axis has no pure generator
    and NotFullCone comes first. The cap allows windows up to about 2^25.
    The window only sizes the box: each derived step bounds its shifts by
    its own gaps (``_derived``), and takes one shift per u up to half the
    largest gap, each a pass over the whole window. No budget bounds that
    loop yet (ROADMAP item 7).
    """
    a = tuple(a)
    gens = _check_chain_hypotheses(gens)
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = len(a)
    shifted = from_generators([a] + [lattice.add(a, g) for g in gens])
    closure, _ = arf_closure(shifted)
    if window is None:
        big = 4 * max(max(g) for g in gens + [a])
        window = (big,) * d
    else:
        window = tuple(window)
    base = AffineSemigroup(d, [a] + gens)  # validates the input
    # rows 2(w + 1) wide hold every z + u with z, u <= w
    box = _window(tuple(w + 1 for w in window), "window")
    gaps = box.full & ~_generated(box, base.generators)
    for _ in range(k):
        gaps, last = _derived(box, gaps), gaps
        if gaps == last:
            break
    return all(lattice.add(a, s) in closure for s in box.points(box.full & ~gaps))


def prop710_check(a: Sequence[int], gens: Sequence[Sequence[int]]) -> bool:
    """Exact equality of the two Arf-closure routes for the shifted semigroup.

    Left: the Arf closure of <a, a+g_1, ..., a+g_n>. Right: the Arf closure
    of <a, g_1, ..., g_n>, shifted by a with 0 adjoined. Both sides are
    compared through their gap masks, where the bit index of a point is
    its coordinate, so the check is for dimension one. In higher dimension every generator of the left side lies above a
    and so is positive wherever a is; the other axes get no pure generator
    and ``from_generators`` raises NotFullCone.
    """
    a = tuple(a)
    gens = _check_chain_hypotheses(gens)
    left, _ = arf_closure(from_generators([a] + [lattice.add(a, g) for g in gens]))
    right_base, _ = arf_closure(from_generators([a] + gens))
    offset = a[0]
    return left.gap_mask == ((1 << offset) - 2) | (right_base.gap_mask << offset)
