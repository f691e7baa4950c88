"""Simplicial lists in N^2 against the plain-set oracle of ``conftest``:
Ap(S, E), PF, the two Cohen-Macaulay tests and the Buchsbaum test by local
cohomology, T \\ S = PF with T = (S - N n_1) & (S - N n_2) (ROADMAP item 13).

The corpus has pure generators (a, 0) and (0, b) and infinite gaps. The
library answers PF and the Buchsbaum verdict only on finite gap sets, so it
is compared there: on the d = 2 census and on drawn finite gap sets.
"""

import collections

import pytest
from hypothesis import given, settings

from conftest import (
    SIMPLICIAL_SAMPLE,
    finite_gap_sets,
    frobenius_tree,
    simplicial_lists,
    simplicial_oracle,
)
from csemigroups.conjectures import buchsbaum_report
from csemigroups.constructions import delta_set, family_sap
from csemigroups.frobenius import pseudo_frobenius


def kind(facts):
    """The class of a list: Cohen-Macaulay by |Ap| = index, else Buchsbaum
    or not by T \\ S = PF."""
    if len(facts.apery) == facts.index:
        return "CM"
    return "Buchsbaum, not CM" if facts.t == facts.pf else "not Buchsbaum"


def check_cm_facts(facts):
    # the two Cohen-Macaulay routes agree, and a list has a pseudo-Frobenius
    # element (is MPD) iff it is not Cohen-Macaulay: x in PF makes t^(x + n_1)
    # a socle element of k[S]/(t^n_1), so the depth is 1, below d = 2, and a
    # socle monomial t^y gives y - n_1 in PF back
    cm = len(facts.apery) == facts.index
    assert cm == (not facts.s_prime)
    assert cm == (not facts.pf)


def test_the_sample_holds_every_class():
    facts = [simplicial_oracle(gens) for gens in SIMPLICIAL_SAMPLE]
    for f in facts:
        check_cm_facts(f)
    counts = collections.Counter(map(kind, facts))
    assert counts["CM"] >= 120
    assert counts["not Buchsbaum"] >= 30
    assert counts["Buchsbaum, not CM"] >= 12


@settings(max_examples=150, deadline=None)
@given(simplicial_lists())
def test_cohen_macaulay_routes_agree(gens):
    check_cm_facts(simplicial_oracle(gens))


def check_against_the_library(gs):
    facts = simplicial_oracle(gs.hilbert_basis)
    assert facts.pf == set(pseudo_frobenius(gs))
    # a gap reaches S along each axis, so T \ S is the gap set
    assert facts.t == gs.gaps
    assert (facts.t == facts.pf) == buchsbaum_report(gs).is_buchsbaum


def test_the_census_matches_the_library():
    # every semigroup of N^2 with one to six gaps
    for level in frobenius_tree(2, 6)[1:]:
        for gs in level:
            check_against_the_library(gs)


@settings(max_examples=60, deadline=None)
@given(finite_gap_sets().filter(lambda gs: gs.dimension == 2 and gs.gap_mask))
def test_finite_gap_sets_match_the_library(gs):
    check_against_the_library(gs)


@pytest.mark.parametrize(
    "a,p,s_prime,t",
    [(3, 1, 3, 4), (5, 1, 10, 20), (3, 2, 36, 120), (7, 1, 21, 56)],
)
def test_the_family_pf_is_the_delta_set(a, p, s_prime, t):
    # the Betti-type is a^p - 1 as an equality; the family is MPD, not
    # Cohen-Macaulay and not Buchsbaum
    facts = simplicial_oracle(family_sap(a, p).generators)
    assert facts.pf == set(delta_set(a, p))
    assert len(facts.pf) == a**p - 1
    assert (len(facts.s_prime), len(facts.t)) == (s_prime, t)
    assert kind(facts) == "not Buchsbaum"
