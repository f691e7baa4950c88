"""Claims of the source abstract, each checked on a named corpus: the
census of every full-cone semigroup of N^2 up to genus 6 (952) and of N^3
up to genus 4 (378), built by ``conftest.frobenius_tree``.

The Buchsbaum and Cohen-Macaulay claims are checked against local
cohomology, not against the library's own formula. For S cofinite in N^d,
d >= 2, with gap set H, k[N^d] is a finite k[S]-module of depth d, so
H^i_m(k[N^d]) = 0 for i < d. The exact sequence 0 -> k[S] -> k[N^d] ->
k[H] -> 0, k[H] the span of the gaps with x^s x^h = 0 whenever s + h is
in S, gives H^0_m(k[S]) = 0, H^1_m(k[S]) = k[H] (of finite length) and
H^i_m(k[S]) = 0 for 1 < i < d. So a semigroup with a gap has depth 1 < d
and is not Cohen-Macaulay. And since its local cohomology below d sits in
the single degree 1, k[S] is Buchsbaum iff m H^1_m(k[S]) = 0: a Buchsbaum
ring has every H^i_m below its dimension killed by m, and a ring whose
H^i_m below its dimension sit in one degree and are killed by m is
Buchsbaum (Stückrad and Vogel, Buchsbaum Rings and Applications, 1986).
m k[H] = 0 says h + a is in S for every gap h and every basis element a:
every gap is pseudo-Frobenius, H = PF.
"""

import itertools

import pytest

from conftest import frobenius_tree
from csemigroups.conjectures import buchsbaum_report, wilf_report
from csemigroups.frobenius import cardinality_identity, classify, frobenius_element, pseudo_frobenius
from csemigroups.lattice import GRLEX

CENSUS_GENUS = {2: 6, 3: 4}


def census(d):
    """The census semigroups of N^d with at least one gap, each with its
    graded-lex classification."""
    levels = frobenius_tree(d, CENSUS_GENUS[d])
    return [(gs, classify(gs, GRLEX)) for level in levels[1:] for gs in level]


@pytest.mark.parametrize("d,dominated", [(2, 248), (3, 124)])
def test_cardinality_identity_characterizes_almost_symmetry(d, dominated):
    # "certain characterizations of ≺-almost symmetric C-semigroups": where
    # PF' is dominated by F, lhs == rhs exactly for the symmetric and the
    # almost symmetric semigroups
    cases = [(gs, c) for gs, c in census(d) if c.pf_prime_dominated]
    assert len(cases) == dominated
    for gs, c in cases:
        lhs, rhs = cardinality_identity(gs, GRLEX)
        assert (lhs == rhs) == (c.symmetric or c.almost_symmetric), gs


@pytest.mark.parametrize("d,irreducible,almost_betti3", [(2, 132, 47), (3, 91, 21)])
def test_wilf_holds_on_irreducible_and_almost_symmetric_betti_three(d, irreducible, almost_betti3):
    # "the irreducible C-semigroups, and ≺-almost symmetric C-semigroups
    # with Betti-type three satisfy the extended Wilf's conjecture"
    cases = census(d)
    irr = [gs for gs, c in cases if c.irreducible]
    almost = [gs for gs, c in cases if c.almost_symmetric and c.betti_type == 3]
    assert (len(irr), len(almost)) == (irreducible, almost_betti3)
    for gs in irr + almost:
        assert wilf_report(gs, GRLEX).holds, gs


@pytest.mark.parametrize("d,semigroups,buchsbaum", [(2, 951, 43), (3, 377, 46)])
def test_buchsbaum_iff_every_gap_is_pseudo_frobenius(d, semigroups, buchsbaum):
    # "simplicial MPD-semigroups: Buchsbaum iff a pseudo-Frobenius
    # condition"; a full-cone semigroup with a gap is MPD, and by the
    # local cohomology above it is Buchsbaum iff H = PF
    cases = [gs for gs, _ in census(d)]
    verdicts = [buchsbaum_report(gs).is_buchsbaum for gs in cases]
    assert (len(cases), sum(verdicts)) == (semigroups, buchsbaum)
    for gs, verdict in zip(cases, verdicts):
        assert verdict == (gs.gap_mask == gs.box.mask(list(zip(*pseudo_frobenius(gs))))), gs


@pytest.mark.parametrize("d,semigroups", [(2, 951), (3, 377)])
def test_no_semigroup_with_a_gap_is_cohen_macaulay(d, semigroups):
    # "Krull dimension > 1: MPD-semigroups are not Cohen-Macaulay". By
    # Goto, Suzuki and Watanabe (Japan. J. Math. 2, 1976), S is CM iff
    # every x of the group of S with x + r_i and x + r_j in S for two
    # extremal rays r_i != r_j lies in S. The Frobenius element F is a gap,
    # and F + r_i, of larger degree, is a member on every ray: with d >= 2
    # rays F breaks the criterion, as depth 1 < d says it must
    cases = [gs for gs, _ in census(d)]
    assert len(cases) == semigroups
    for gs in cases:
        F = frobenius_element(gs, GRLEX)
        assert not gs.contains(F), gs
        for i in range(d):
            # the extremal ray r_i = m e_i, m e_i the least member on axis i
            m = next(k for k in itertools.count(1) if gs.contains([k * (j == i) for j in range(d)]))
            assert gs.contains([f + m * (j == i) for j, f in enumerate(F)]), (gs, i)
