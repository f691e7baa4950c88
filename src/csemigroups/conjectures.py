"""Wilf-inequality reports and the Buchsbaum gap test.

The Wilf report counts the members strictly preceding the Frobenius element
under a predecessor-finite term order and checks

    sporadic * embedding_dimension >= genus + sporadic + 1.

The Buchsbaum test compares the pseudo-Frobenius set with the set of gaps
(inside the group generated by S) that land in S after adding twice r_i
and also after adding twice r_j, for two distinct extremal rays r_i, r_j.
"""

from __future__ import annotations

from itertools import count

from .errors import DimensionOne, EmptyGapSet
from .frobenius import frobenius_element, pseudo_frobenius
from .gapsemigroup import GapSemigroup
from .lattice import GRLEX, TermOrder, _Record, count_preceding


class WilfReport(_Record):
    _fields = ("embedding_dimension", "genus", "sporadic", "n_frobenius", "holds", "frobenius")


def wilf_report(gs: GapSemigroup, order: TermOrder = GRLEX) -> WilfReport:
    """Count the members preceding F and evaluate the inequality.

    F is the order-maximum gap, so the other genus - 1 gaps all precede it,
    and the sporadic members are the rest of F's predecessors, counted in
    closed form (``count_preceding``).
    """
    if not gs.gap_mask:
        raise EmptyGapSet("the Wilf report needs at least one gap")
    F = frobenius_element(gs, order)
    sporadic = count_preceding(order, F) - (gs.genus - 1)
    e = len(gs.hilbert_basis)
    n_frobenius = gs.genus + sporadic
    return WilfReport(e, gs.genus, sporadic, n_frobenius, sporadic * e >= n_frobenius + 1, F)


class BuchsbaumReport(_Record):
    _fields = ("d_set", "pf", "is_buchsbaum", "extremal_rays")


def buchsbaum_report(gs: GapSemigroup) -> BuchsbaumReport:
    """Test whether the doubled-ray translate set equals the PF set.

    The extremal rays are the least pure axis multiples r_i in S, read off
    the gap mask's axis lines: r_i is the least k >= 1 with k e_i no gap,
    at most c_i, as c_i e_i is a member. A point g qualifies when it
    lies in the group generated by S and g + 2r_i and g + 2r_j are members
    for two distinct rays. That group is all of Z^d, since c and c + e_i are
    members; the two shift conditions force g into N^d, and members are
    excluded by definition, so only gaps are candidates. With
    r_i <= c_i * e_i, a gap g has g + 2r_i < 3c inside the 4c-wide rows of
    the conductor box, so hit_i = G & ~(G >> 2r_i) holds the gaps that
    2r_i takes into S, and D is the gaps in two or more.
    """
    if gs.dimension < 2:
        raise DimensionOne("the Buchsbaum test needs ambient dimension >= 2")
    if not gs.gap_mask:
        raise EmptyGapSet("the Buchsbaum test needs at least one gap")
    box, gaps = gs.box, gs.gap_mask
    rays, once, twice = [], 0, 0
    for i, s in enumerate(box.strides):
        r = next(k for k in count(1) if not gaps >> k * s & 1)
        rays.append(tuple(r if j == i else 0 for j in range(gs.dimension)))
        hit = gaps & ~(gaps >> 2 * r * s)
        twice |= once & hit
        once |= hit
    d_set = tuple(box.grlex_points(twice))
    pf = pseudo_frobenius(gs)
    return BuchsbaumReport(d_set, pf, d_set == pf, tuple(rays))
