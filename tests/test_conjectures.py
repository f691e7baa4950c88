import pytest

from conftest import box_points, frobenius_tree, reduction_loop_member
from csemigroups.conjectures import buchsbaum_report, wilf_report
from csemigroups.errors import DimensionOne, EmptyGapSet, OrderNotPredecessorFinite
from csemigroups.frobenius import classify, pseudo_frobenius
from csemigroups.gapsemigroup import GapSemigroup, _axis_multiples, from_gaps, from_generators
from csemigroups.lattice import GRLEX, LEX, lattice_from
from csemigroups.membership import multiplicity


class TestWilf:
    def test_betti_three_example(self, s5):
        r = wilf_report(s5, GRLEX)
        assert r.sporadic == 61
        assert r.n_frobenius == 82
        assert r.embedding_dimension == 8
        assert r.genus == 21
        assert r.holds and r.n_frobenius + 1 == 83 and r.sporadic * 8 == 488

    def test_pseudo_symmetric_example_holds(self, s4):
        r = wilf_report(s4, GRLEX)
        assert r.holds
        assert r.n_frobenius == r.genus + r.sporadic

    def test_single_gap(self):
        r = wilf_report(from_gaps(2, [(0, 1)]), GRLEX)
        assert r.sporadic == 1  # only the origin precedes (0,1)
        assert r.frobenius == (0, 1)

    def test_numbers_are_definitional(self, s2, s3, s4, s5):
        for gs in (s2, s3, s4, s5):
            r = wilf_report(gs, GRLEX)
            assert r.n_frobenius == r.genus + r.sporadic
            assert r.holds == (r.sporadic * r.embedding_dimension >= r.n_frobenius + 1)

    def test_numerical_reduces_to_classical_quantities(self):
        # counts below the Frobenius number partition [0, F), so the report's
        # total exceeds the Frobenius number by exactly one
        for gens in ([(4,), (6,), (9,)], [(3,), (5,)], [(5,), (7,), (9,), (11,)]):
            gs = from_generators(gens)
            r = wilf_report(gs, GRLEX)
            frobenius_number = r.frobenius[0]
            assert r.genus - 1 + r.sporadic == frobenius_number
            assert r.n_frobenius == frobenius_number + 1

    def test_lex_rejected_in_plane(self, s2):
        with pytest.raises(OrderNotPredecessorFinite, match="^lex in dimension 2$"):
            wilf_report(s2, LEX)

    def test_three_dimensional_counts(self):
        gs = from_gaps(3, [(1, 0, 0)])
        r = wilf_report(gs, GRLEX)
        # predecessors of (1,0,0): the origin and the two smaller unit vectors
        assert r.sporadic == 3
        assert r.genus == 1 and r.n_frobenius == 4
        assert r.embedding_dimension == 6
        assert r.holds

    def test_no_gaps_rejected(self):
        with pytest.raises(EmptyGapSet):
            wilf_report(from_gaps(2, []), GRLEX)

    def test_almost_symmetric_low_betti_corpus_holds(self, s4, s5):
        corpus = [s4, s5, from_gaps(2, [(0, 1)]), from_gaps(2, [(1, 0), (1, 1)])]
        for gs in corpus:
            report = classify(gs, GRLEX)
            assert report.betti_type <= 3
            if report.almost_symmetric or report.irreducible:
                assert wilf_report(gs, GRLEX).holds


class TestBuchsbaum:
    def test_worked_positive_example(self, s3):
        r = buchsbaum_report(s3)
        assert r.d_set == ((0, 1), (0, 2))
        assert r.pf == ((0, 1), (0, 2))
        assert r.is_buchsbaum
        assert r.extremal_rays == ((1, 0), (0, 3))

    def test_worked_negative_example(self, s2):
        # independent double loop over gaps and ray pairs
        rays = [(3, 0), (0, 1)]
        expected = []
        for g in sorted(s2.gaps, key=GRLEX.key):
            hits = [
                s2.contains(tuple(a + 2 * b for a, b in zip(g, r))) for r in rays
            ]
            if all(hits):
                expected.append(g)
        r = buchsbaum_report(s2)
        assert list(r.d_set) == expected == [(1, 2), (1, 3), (2, 5), (2, 6)]
        assert not r.is_buchsbaum

    def test_pf_always_inside_d_set(self, s2, s3, s4, s5):
        for gs in (s2, s3, s4, s5):
            r = buchsbaum_report(gs)
            assert set(pseudo_frobenius(gs)) <= set(r.d_set)

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionOne):
            buchsbaum_report(from_generators([(2,), (3,)]))

    def test_no_gaps_rejected(self):
        with pytest.raises(EmptyGapSet):
            buchsbaum_report(from_gaps(2, []))

    def test_group_filter_ingredient(self):
        # candidates outside the group generated by S are excluded; for
        # cofinite semigroups the group is all of Z^d, so the filter only
        # bites on proper sublattices, exercised here directly
        even = lattice_from([(2, 0), (0, 2), (1, 1)])
        assert not reduction_loop_member(even.basis, (1, 0))
        assert not reduction_loop_member(even.basis, (0, 1))
        assert reduction_loop_member(even.basis, (1, 1))
        full = lattice_from(from_generators([(0, 1), (3, 0), (4, 0), (1, 4), (5, 0), (2, 7)]).hilbert_basis)
        for p in box_points((3, 7)):
            assert reduction_loop_member(full.basis, p)

    @pytest.mark.parametrize("d,genus", [(1, 8), (2, 5), (3, 3)])
    def test_rays_and_multiplicity_read_the_gap_mask(self, d, genus):
        # the rays and the multiplicity are the Hilbert basis's least pure
        # multiples and coordinate minima, read here without the basis pass
        for level in frobenius_tree(d, genus):
            for census in level:
                basis = census.hilbert_basis
                gs = GapSemigroup(census.box, census.gap_mask)
                m = tuple(map(min, zip(*basis)))
                assert multiplicity(gs) == (m, m in gs and any(m))
                if d > 1 and gs.gap_mask:
                    mult, _ = _axis_multiples(basis, d)
                    rays = [tuple(v if j == i else 0 for j in range(d)) for i, v in enumerate(mult)]
                    assert buchsbaum_report(gs).extremal_rays == tuple(rays)
                assert gs._basis is None

    def test_report_json(self, s3):
        data = buchsbaum_report(s3).to_json()
        assert data["is_buchsbaum"] is True
        assert data["d_set"] == [[0, 1], [0, 2]]
