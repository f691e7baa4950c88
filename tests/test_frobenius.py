import itertools
import operator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import box_points, census_windows, finite_gap_sets, in_gap_complement
from csemigroups import frobenius
from csemigroups.errors import (
    DimensionMismatch,
    EmptyGapSet,
    IdealBaseMismatch,
    InfiniteApery,
    NotNatural,
)
from csemigroups.frobenius import (
    RelativeIdeal,
    apery,
    betti_type,
    cardinality_identity,
    classify,
    cover_witness,
    frobenius_element,
    ideal_difference_member,
    omega_extra,
    pseudo_frobenius,
)
from csemigroups.gapsemigroup import from_gaps, from_generators
from csemigroups.lattice import GRLEX, TermOrder, partial_leq, sub


class TestPseudoFrobenius:
    def test_worked_examples(self, s2, s4, s5):
        assert pseudo_frobenius(s2) == ((1, 3), (2, 6))
        assert pseudo_frobenius(s4) == ((1, 4), (2, 8))
        assert pseudo_frobenius(s5) == ((1, 3), (2, 6), (3, 9))

    def test_subset_of_gaps(self, s2, s3, s4, s5):
        for gs in (s2, s3, s4, s5):
            assert set(pseudo_frobenius(gs)) <= gs.gaps

    def test_empty_when_no_gaps(self):
        assert pseudo_frobenius(from_gaps(2, [])) == ()

    def test_betti_type_counts_pf(self, s2, s3, s4, s5):
        for gs in (s2, s3, s4, s5, from_gaps(2, [])):
            assert betti_type(gs) == len(pseudo_frobenius(gs))

    def test_definition_from_members(self, s2):
        # direct check against the definition over a member sample
        members = [p for p in box_points((9, 12)) if s2.contains(p) and p != (0, 0)]
        for f in pseudo_frobenius(s2):
            assert not s2.contains(f)
            for s in members:
                assert s2.contains(tuple(a + b for a, b in zip(f, s)))


class TestFrobeniusElement:
    def test_worked_examples(self, s4, s5):
        assert frobenius_element(s4, GRLEX) == (2, 8)
        assert frobenius_element(s5, GRLEX) == (3, 9)

    def test_single_gap(self):
        assert frobenius_element(from_gaps(2, [(0, 1)])) == (0, 1)

    def test_is_a_pseudo_frobenius_element(self, s2, s3, s4, s5):
        for gs in (s2, s3, s4, s5):
            assert frobenius_element(gs, GRLEX) in pseudo_frobenius(gs)

    def test_empty_gap_set(self):
        with pytest.raises(EmptyGapSet):
            frobenius_element(from_gaps(2, []))

    def test_order_dependence(self, s2):
        swapped = TermOrder("grlex", (1, 0))
        assert frobenius_element(s2, swapped) in s2.gaps


class TestCoverWitness:
    def test_worked_gap(self, s2):
        f = cover_witness(s2, (1, 0))
        assert f == (1, 3)  # (1,3) - (1,0) = (0,3) = 3*(0,1) is a member

    def test_member_has_no_witness(self, s2):
        assert cover_witness(s2, (4, 0)) is None
        assert cover_witness(s2, (0, 0)) is None

    def test_point_outside_orthant(self, s2):
        with pytest.raises(NotNatural):
            cover_witness(s2, (-1, 0))

    @pytest.mark.parametrize("x", [(-1, 0, 0), (1, 0, 0), (0, 0, 0), (0,), (-1,), ()])
    def test_point_dimension_checked_first(self, x):
        # a point of the wrong dimension raises DimensionMismatch, with the
        # text of GapSemigroup.contains, whether or not it lies in N^d
        with pytest.raises(DimensionMismatch, match=r"in dimension 2$"):
            cover_witness(from_gaps(2, [(1, 0), (1, 1)]), x)

    def test_pf_element_covers_itself(self, s2):
        assert cover_witness(s2, (2, 6)) == (2, 6)

    def test_total_on_gaps(self, s2, s3, s4, s5):
        for gs in (s2, s3, s4, s5):
            for g in gs.gaps:
                f = cover_witness(gs, g)
                assert f is not None and f in set(pseudo_frobenius(gs))
        # the census: None on members, else the first f of PF with f - x in S
        for gs, points in census_windows():
            pf = pseudo_frobenius(gs)
            for x in points:
                if min(x) < 0:
                    with pytest.raises(NotNatural):
                        cover_witness(gs, x)
                    continue
                covers = (f for f in pf if in_gap_complement(gs, sub(f, x)))
                expected = None if in_gap_complement(gs, x) else next(covers)
                assert cover_witness(gs, x) == expected, (gs, x)


class TestOmega:
    def test_worked_example(self, s4):
        assert omega_extra(s4, GRLEX) == ((1, 4),)

    def test_symmetric_case_empty(self):
        gs = from_gaps(2, [(0, 1)])
        assert classify(gs).symmetric
        assert omega_extra(gs) == ()

    def test_three_pf_example(self, s5):
        # direct scan oracle over the 21 gaps
        F = (3, 9)
        expected = sorted(
            (
                g
                for g in s5.gaps
                if not (
                    all(a - b >= 0 for a, b in zip(F, g))
                    and s5.contains(tuple(a - b for a, b in zip(F, g)))
                )
            ),
            key=GRLEX.key,
        )
        assert list(omega_extra(s5, GRLEX)) == expected == [(1, 3), (2, 6)]

    def test_ideal_property(self, s4):
        # omega is closed under adding members: F - (w + a) stays outside S
        F = frobenius_element(s4, GRLEX)
        extra = omega_extra(s4, GRLEX)
        sample = [p for p in box_points((6, 12)) if s4.contains(p)]
        for w in list(extra) + sample[:20]:
            for a in s4.hilbert_basis:
                shifted = tuple(x + y for x, y in zip(w, a))
                diff = tuple(x - y for x, y in zip(F, shifted))
                assert not (all(v >= 0 for v in diff) and s4.contains(diff))


class TestClassify:
    def test_frobenius_element_worked_out_once(self, s5, monkeypatch):
        calls = []
        real = frobenius.frobenius_element

        def counted(gs, order=GRLEX):
            calls.append(order)
            return real(gs, order)

        monkeypatch.setattr(frobenius, "frobenius_element", counted)
        order = TermOrder("lex")
        report = classify(s5, order)
        assert calls == [order]
        assert report.omega_extra == omega_extra(s5, order)

    def test_pseudo_symmetric_example(self, s4):
        report = classify(s4, GRLEX)
        assert report.pseudo_symmetric and report.almost_symmetric
        assert not report.symmetric
        assert report.irreducible
        assert report.betti_type == 2
        assert report.pf_prime == ((1, 4),)

    def test_betti_three_example(self, s5):
        report = classify(s5, GRLEX)
        assert report.almost_symmetric
        assert report.betti_type == 3
        assert not report.pseudo_symmetric and not report.irreducible

    def test_single_gap_symmetric(self):
        report = classify(from_gaps(2, [(0, 1)]))
        assert report.symmetric and report.irreducible
        # the symmetric case is deliberately not almost symmetric
        assert not report.almost_symmetric

    def test_odd_frobenius_never_pseudo_symmetric(self, s2):
        # F = (2,6) is even and PF = {(1,3),(2,6)} = {F, F/2}
        report = classify(s2, GRLEX)
        assert report.frobenius == (2, 6)
        assert report.pseudo_symmetric

    def test_consistency_with_omega(self, s2, s4, s5):
        for gs in (s2, s4, s5):
            report = classify(gs, GRLEX)
            if report.almost_symmetric:
                assert set(report.omega_extra) == set(report.pf_prime)
                assert report.betti_type == len(report.omega_extra) + 1
            if report.pf_prime_dominated and set(report.omega_extra) == set(report.pf_prime) and report.pf_prime:
                assert report.almost_symmetric
            assert report.symmetric == (report.omega_extra == ())
            if report.pseudo_symmetric:
                half = tuple(v // 2 for v in report.frobenius)
                assert report.omega_extra == (half,)

    def test_report_json_shape(self, s4):
        data = classify(s4).to_json()
        assert data["pf"] == [[1, 4], [2, 8]]
        assert data["classification"]["almost_symmetric"] is True
        assert data["classification"]["pf_prime_dominated"] is True


class TestApery:
    def test_numerical_classical(self):
        gs = from_generators([(4,), (6,), (9,)])
        assert apery(gs, [(4,)]) == ((0,), (6,), (9,), (15,))

    def test_residue_class_minima_oracle(self):
        gs = from_generators([(4,), (6,), (9,)])
        got = {p[0] for p in apery(gs, [(4,)])}
        minima = {}
        for x in range(0, 40):
            if gs.contains((x,)) and x % 4 not in minima:
                minima[x % 4] = x
        assert got == set(minima.values())

    def test_missing_axis_multiple(self, s2):
        with pytest.raises(InfiniteApery) as err:
            apery(s2, [(1, 4)])
        assert err.value.coordinate in (0, 1)

    def test_worked_pair(self, s3):
        assert apery(s3, [(1, 0), (0, 3)]) == ((0, 0), (1, 1), (1, 2), (0, 4), (0, 5))

    def test_contains_zero(self, s2, s3):
        assert (0, 0) in apery(s2, [(3, 0), (0, 1)])
        assert (0, 0) in apery(s3, [(1, 0), (0, 3)])

    def test_brute_force_doubled_box(self, s3):
        E = [(1, 0), (0, 3)]
        got = set(apery(s3, E))
        brute = set()
        for b in box_points((12, 12)):
            if not s3.contains(b):
                continue
            escaped = False
            for a in E:
                diff = tuple(x - y for x, y in zip(b, a))
                if all(v >= 0 for v in diff) and s3.contains(diff):
                    escaped = True
                    break
            if not escaped:
                brute.add(b)
        assert got == brute

    def test_rejects_non_member_witness(self, s3):
        with pytest.raises(ValueError):
            apery(s3, [(0, 1)])

    def test_rejects_empty_witness_set(self, s3):
        with pytest.raises(ValueError):
            apery(s3, [])

    def test_rejects_witness_of_wrong_dimension(self, s3):
        with pytest.raises(DimensionMismatch):
            apery(s3, [(1, 0, 0)])


class TestIdeals:
    def test_member_via_difference(self, s2):
        s_ideal = RelativeIdeal(s2, ((0, 0),))
        star = RelativeIdeal(s2, s2.hilbert_basis)
        assert ideal_difference_member(s_ideal, star, (4, 0))  # S + S* stays in S

    def test_base_mismatch(self, s2, s3):
        with pytest.raises(IdealBaseMismatch):
            ideal_difference_member(
                RelativeIdeal(s2, ((0, 0),)), RelativeIdeal(s3, ((1, 0),)), (0, 0)
            )

    def test_pf_via_ideal_worked(self, s2, s5):
        assert pseudo_frobenius(s2) == ((1, 3), (2, 6))
        assert pseudo_frobenius(s5) == ((1, 3), (2, 6), (3, 9))

    def test_pf_routes_agree(self, s2, s3, s4, s5):
        # PF is (S - S*) minus S, read gap by gap through the ideal difference
        for gs in (s2, s3, s4, s5):
            s_ideal = RelativeIdeal(gs, ((0, 0),))
            star = RelativeIdeal(gs, gs.hilbert_basis)
            quotient = {g for g in gs.gaps if ideal_difference_member(s_ideal, star, g)}
            assert set(pseudo_frobenius(gs)) == quotient

    def test_ideal_membership(self, s2):
        ideal = RelativeIdeal(s2, ((1, 4),))
        assert ideal.contains((1, 4)) and ideal.contains((4, 4))
        assert not ideal.contains((1, 3))
        # the census, the ideals S* and (gaps) + S: z - g in S for some g
        for gs, points in census_windows():
            for gens in (gs.hilbert_basis, tuple(gs.gaps) or ((0,) * gs.dimension,)):
                ideal = RelativeIdeal(gs, gens)
                for z in points:
                    expected = min(z) >= 0 and any(in_gap_complement(gs, sub(z, g)) for g in gens)
                    assert ideal.contains(z) == expected, (gs, gens, z)

    def test_negative_point_is_outside(self, s2):
        s_ideal = RelativeIdeal(s2, ((0, 0),))
        star = RelativeIdeal(s2, s2.hilbert_basis)
        assert not s_ideal.contains((-1, 4))
        assert not ideal_difference_member(s_ideal, star, (-1, 4))

    @pytest.mark.parametrize("z", [(-1, 0, 0), (1, 0, 0), (0,), (-1,), ()])
    def test_point_dimension_checked_first(self, z):
        # the length is checked before the sign: a point of the wrong
        # dimension raises whether or not it lies in N^d
        ideal = RelativeIdeal(from_gaps(2, [(1, 0), (1, 1)]), [(0, 0)])
        with pytest.raises(DimensionMismatch):
            ideal.contains(z)
        with pytest.raises(DimensionMismatch):
            ideal_difference_member(ideal, ideal, z)

    def test_ideal_generator_dimension(self, s2):
        with pytest.raises(DimensionMismatch):
            RelativeIdeal(s2, ((1, 2, 3),))


class TestCardinalityIdentity:
    def test_worked_examples(self, s4, s5):
        assert cardinality_identity(s5, GRLEX) == (19, 19)
        assert cardinality_identity(s4, GRLEX) == (13, 13)

    def test_single_gap(self):
        gs = from_gaps(2, [(0, 1)])
        assert cardinality_identity(gs) == (1, 1)

    def test_rhs_is_box_count(self, s5):
        _, rhs = cardinality_identity(s5, GRLEX)
        F = frobenius_element(s5, GRLEX)
        count = sum(
            1
            for p in itertools.product(range(F[0] + 1), range(F[1] + 1))
            if s5.contains(p)
        )
        assert rhs == count


class TestMaskPortsOracle:
    """The mask routes against their per-point definitions."""

    @settings(max_examples=150, deadline=None)
    @given(finite_gap_sets())
    def test_pf_via_ideal(self, gs):
        s_ideal = RelativeIdeal(gs, ((0,) * gs.dimension,))
        star = RelativeIdeal(gs, gs.hilbert_basis)
        expected = tuple(
            sorted(
                (g for g in gs.gaps if ideal_difference_member(s_ideal, star, g)),
                key=GRLEX.key,
            )
        )
        assert pseudo_frobenius(gs) == expected

    @settings(max_examples=150, deadline=None)
    @given(finite_gap_sets())
    def test_pseudo_frobenius_with_basis_past_c(self, gs):
        # f + s for every nonzero member s of [0, 2c), which holds the
        # basis, also those basis elements at or past c on some axis
        c, gaps = gs.conductor, gs.gaps
        assume(any(any(map(operator.ge, a, c)) for a in gs.hilbert_basis))
        members = [s for s in box_points(tuple(2 * v - 1 for v in c)) if any(s) and s not in gaps]
        expected = [
            f for f in gaps
            if all(tuple(map(operator.add, f, s)) not in gaps for s in members)
        ]
        assert pseudo_frobenius(gs) == tuple(sorted(expected, key=GRLEX.key))

    @settings(max_examples=150, deadline=None)
    @given(finite_gap_sets(), st.sampled_from(["lex", "grlex"]))
    def test_omega_extra(self, gs, order):
        if not gs.gaps:
            return
        order = TermOrder(order)
        F = frobenius_element(gs, order)
        expected = set()
        for g in gs.gaps:
            diff = tuple(a - b for a, b in zip(F, g))
            if min(diff) < 0 or not gs.contains(diff):
                expected.add(g)
        assert omega_extra(gs, order) == tuple(sorted(expected, key=GRLEX.key))

    @settings(max_examples=150, deadline=None)
    @given(finite_gap_sets())
    def test_contains(self, gs):
        gaps = gs.gaps
        # past the conductor box [0, 2c) too
        for p in box_points(tuple(2 * c + 2 for c in gs.conductor)):
            assert gs.contains(p) == (p not in gaps), p

    @settings(max_examples=150, deadline=None)
    @given(finite_gap_sets(), st.data())
    def test_apery(self, gs, data):
        # a pure member per axis, nonzero and at or past the conductor, and
        # maybe one more member; the box then differs from the gap box
        d, gaps = gs.dimension, gs.gaps
        E = [
            tuple(max(c, 1) + data.draw(st.integers(0, 3)) if j == i else 0 for j in range(d))
            for i, c in enumerate(gs.conductor)
        ]
        extra = data.draw(st.tuples(*[st.integers(0, c + 1) for c in gs.conductor]))
        if any(extra) and extra not in gaps:
            E.append(extra)
        hi = tuple(max(a[j] for a in E) + c for j, c in enumerate(gs.conductor))
        expected = []
        for b in box_points(hi):
            if b in gaps:
                continue
            diffs = (tuple(x - y for x, y in zip(b, a)) for a in E)
            if all(min(v) < 0 or v in gaps for v in diffs):
                expected.append(b)
        assert apery(gs, E) == tuple(sorted(expected, key=GRLEX.key))

    @settings(max_examples=150, deadline=None)
    @given(finite_gap_sets(), st.sampled_from(["lex", "grlex"]))
    def test_cardinality_rhs(self, gs, order):
        if not gs.gaps:
            return
        order = TermOrder(order)
        F = frobenius_element(gs, order)
        count = sum(
            1 for x in box_points(gs.conductor) if partial_leq(x, F) and gs.contains(x)
        )
        assert cardinality_identity(gs, order)[1] == count
