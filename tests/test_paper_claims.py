"""Claims of the source abstract, each checked on a named corpus: the
census of every full-cone semigroup of N^2 up to genus 6 (952) and of N^3
up to genus 4 (378), built by ``conftest.frobenius_tree``."""

import pytest

from conftest import frobenius_tree
from csemigroups.conjectures import wilf_report
from csemigroups.frobenius import cardinality_identity, classify
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
