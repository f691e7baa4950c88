import hashlib
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_constructions, count_member_calls, enumerate_box
from csemigroups import lattice
from csemigroups.arf import is_pi
from csemigroups.constructions import (
    GluingSpec,
    apery_sap_window,
    delta_set,
    family_sap,
    family_saps,
    glue,
    glued_pf,
    scale_numerical,
    verify_delta_pf,
)
from csemigroups.errors import BadParams, BudgetExceeded, DimensionMismatch, EmptyPF, NotAGluing, NotMinimal
from csemigroups.frobenius import pseudo_frobenius
from csemigroups.gapsemigroup import from_generators
from csemigroups.lattice import GRLEX
from csemigroups.membership import AffineSemigroup, minimalize


def d1(values):
    return AffineSemigroup(1, [(v,) for v in values])


class TestGlue:
    def test_valid_gluing(self):
        glued = glue(GluingSpec(d1([6, 10, 14]), d1([14, 21]), (14,)))
        assert glued.generators == ((6,), (10,), (14,), (21,))

    def test_wrong_multiple(self):
        with pytest.raises(NotAGluing) as err:
            glue(GluingSpec(d1([6, 10, 14]), d1([14, 21]), (28,)))
        assert err.value.reason == "LatticeGeneratorMismatch"

    def test_element_outside_first_factor(self):
        with pytest.raises(NotAGluing) as err:
            glue(GluingSpec(d1([6, 10]), d1([14, 21]), (14,)))
        assert err.value.reason == "sNotInS1"

    def test_element_outside_second_factor(self):
        with pytest.raises(NotAGluing) as err:
            glue(GluingSpec(d1([6, 10, 14]), d1([21, 35]), (14,)))
        assert err.value.reason == "sNotInS2"

    def test_rank_not_one(self):
        s1 = AffineSemigroup(2, [(1, 0), (0, 1)])
        s2 = AffineSemigroup(2, [(1, 1), (1, 2)])
        with pytest.raises(NotAGluing) as err:
            glue(GluingSpec(s1, s2, (1, 1)))
        assert err.value.reason == "LatticeRankNot1"


class TestGluedPF:
    def test_worked_pair(self):
        got = glued_pf([(4,), (8,)], [(7,)], (14,))
        assert got.points == ((25,), (29,))
        assert got.collisions == 0

    def test_singletons(self):
        assert glued_pf([(3, 3)], [(2, 5)], (1, 1)).points == ((6, 9),)

    def test_empty_side(self):
        with pytest.raises(EmptyPF) as err:
            glued_pf([], [(1,)], (2,))
        assert err.value.side == 1

    def test_empty_second_side(self):
        with pytest.raises(EmptyPF) as err:
            glued_pf([(1,)], [], (0,))
        assert err.value.side == 2

    def test_collisions_counted(self):
        got = glued_pf([(1,), (2,)], [(5,), (4,)], (0,))
        assert got.points == ((5,), (6,), (7,))
        assert got.collisions == 1

    @pytest.mark.parametrize(
        "n1,scale1,n2,scale2,s",
        [
            ([3, 5, 7], 2, [2, 3], 7, 14),
            ([2, 3], 3, [3, 4, 5], 2, 6),
            ([2, 3], 5, [5, 6, 7], 2, 10),
        ],
    )
    def test_product_formula_matches_direct_computation(self, n1, scale1, n2, scale2, s):
        s1 = d1([scale1 * v for v in n1])
        s2 = d1([scale2 * v for v in n2])
        glued = glue(GluingSpec(s1, s2, (s,)))
        direct = pseudo_frobenius(from_generators(glued))
        pf1 = [(scale1 * f[0],) for f in pseudo_frobenius(from_generators(d1(n1)))]
        pf2 = [(scale2 * f[0],) for f in pseudo_frobenius(from_generators(d1(n2)))]
        assert glued_pf(pf1, pf2, (s,)).points == direct


class TestFamilySap:
    def test_smallest_member(self):
        sem = family_sap(3, 1)
        assert set(sem.generators) == {(3, 0), (0, 3), (5, 2), (2, 5)}

    def test_embedding_dimension_four(self):
        for a, p in [(3, 1), (3, 2), (5, 1)]:
            sem = family_sap(a, p)
            assert len(minimalize(sem.generators).generators) == 4

    def test_even_a_rejected(self):
        with pytest.raises(BadParams):
            family_sap(4, 1)

    def test_small_a_rejected(self):
        with pytest.raises(BadParams):
            family_sap(1, 1)

    def test_delta_smallest(self):
        assert set(delta_set(3, 1)) == {(7, 4), (4, 7)}

    def test_delta_size(self):
        for a, p in [(3, 1), (3, 2), (5, 1), (7, 1)]:
            assert len(delta_set(a, p)) == a**p - 1


class TestVerifyDelta:
    @pytest.mark.parametrize("a,p", [(3, 1), (3, 2), (5, 1)])
    def test_families_pass(self, a, p):
        result = verify_delta_pf(a, p)
        assert result.ok
        assert len(result.witnesses) == a**p - 1
        for w in result.witnesses:
            assert w.outside and all(w.shifts_inside) and w.closed_forms_match

    def test_witness_elements_match_delta(self):
        result = verify_delta_pf(3, 2)
        assert tuple(w.element for w in result.witnesses) == delta_set(3, 2)

    # sha256 of repr(verify_delta_pf(a, p)): every element with its flags
    WITNESSES = {
        (3, 1): "9725a2c686a5c597babc6fe8adef3da5da673ca4d4feee69cdd7019a0cbbdafe",
        (3, 2): "8bc48a0ba6ff857c35b7c9a279fd343911d5c8cde4e1f4c2f104a3ee072be570",
        (5, 1): "ba42f5bd12f29620be2c6e9f0eb10f0f21d992999ab02bdf447f0fc4266fd6fe",
        (5, 2): "dcb9b67296bb3639a91455ccc32361912d7c61538f348ea3a127a9463a21161d",
        (3, 3): "aced676d5d06673e74120a959d8cf5e8ce6b95503ea0e38f83dbbddf53740b3a",
        (7, 2): "ad3b3fb41cc7b2bfec889b718abfbe357e4eb5a07458e837d98edf5562346873",
    }

    @pytest.mark.parametrize("a,p", WITNESSES)
    def test_witnesses_pinned(self, a, p):
        digest = hashlib.sha256(repr(verify_delta_pf(a, p)).encode()).hexdigest()
        assert digest == self.WITNESSES[(a, p)]

    def test_box_past_the_member_budget(self, monkeypatch):
        # the far corner (1562, 14762) of every f + g passes 2^26 bits, so
        # no membership is asked and nothing is built
        calls = count_member_calls(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            verify_delta_pf(11, 2)
        assert time.perf_counter() - start < 2
        assert calls == []


class TestAperyWindow:
    def test_smallest_family_window(self):
        report = apery_sap_window(3, 1, (20, 20))
        assert set(report.formula_side) == {
            (0, 0), (5, 2), (2, 5), (10, 4), (7, 7), (4, 10)
        }
        assert report.consistent

    def test_boundary_combination_excluded(self):
        # alpha + alpha' = a^p lands outside: 3*(5,2) = (15,6) loses (3,0)
        sem = family_sap(3, 1)
        assert (15, 6) not in apery_sap_window(3, 1, (20, 20)).formula_side
        assert sem.is_member((12, 6))  # (15,6) - (3,0)

    def test_origin_always_included(self):
        for a, p in [(3, 1), (5, 1)]:
            report = apery_sap_window(a, p, (30, 30))
            assert (0, 0) in report.formula_side

    def test_window_scan_within_formula(self):
        report = apery_sap_window(3, 2, (60, 60))
        assert report.consistent
        assert set(report.window_scan) <= set(report.formula_side)

    def test_box_past_the_member_budget(self):
        # the formula corner (1560, 14760) alone passes 2^26 bits
        with pytest.raises(BudgetExceeded):
            apery_sap_window(11, 2, (10, 10))

    def test_window_outside_the_plane(self):
        with pytest.raises(DimensionMismatch):
            apery_sap_window(3, 1, (1, 2, 3))

    def test_negative_window_is_empty_box(self):
        with pytest.raises(ValueError, match=r"box is empty: \(0, 0\) is not below \(-1, 5\)"):
            apery_sap_window(3, 1, (-1, 5))

    def test_member_calls_do_not_grow_with_the_window(self, monkeypatch):
        counts = []
        for window in ((39, 39), (200, 200)):
            calls = count_member_calls(monkeypatch)
            apery_sap_window(3, 3, window)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1]


@st.composite
def family_windows(draw):
    """(a, p, window), the window drawn up to just past the formula corner."""
    a, p = draw(st.sampled_from([(3, 1), (3, 2), (5, 1), (3, 3)]))
    q = a**p
    corner = ((q - 1) * (a + 2), (q - 1) * (q + 2))
    return a, p, tuple(draw(st.integers(0, c + 10)) for c in corner)


class TestAperyWindowOracle:
    """apery_sap_window against the per-point Apery test."""

    @settings(max_examples=40, deadline=None)
    @given(family_windows())
    @example((3, 1, (0, 20)))
    @example((3, 2, (17, 0)))
    @example((3, 3, (140, 760)))
    @example((5, 1, (6, 6)))
    def test_matches_pointwise_scan(self, case):
        a, p, window = case
        sem = family_sap(a, p)
        q = a**p
        g1, g2, g3, g4 = (a, 0), (0, q), (a + 2, 2), (2, 2 + q)

        def is_apery(b):
            if not sem.is_member(b):
                return False
            for g in (g1, g2):
                diff = lattice.sub(b, g)
                if lattice.is_natural(diff) and sem.is_member(diff):
                    return False
            return True

        formula = sorted(
            (
                lattice.add(lattice.scale(i, g3), lattice.scale(j, g4))
                for i in range(q)
                for j in range(q - i)
            ),
            key=GRLEX.key,
        )
        scan = [b for b in enumerate_box((0, 0), window) if is_apery(b)]
        report = apery_sap_window(a, p, window)
        assert report.window_scan == tuple(sorted(scan, key=GRLEX.key))
        assert report.formula_side == tuple(formula)
        consistent = all(map(is_apery, formula)) and set(scan) <= set(formula)
        assert report.consistent == consistent


class TestFamilySaps:
    def test_two_generator_numerical(self):
        fam = family_saps(3, 1, [2, 3])
        assert fam.mu == 5 and fam.nu == 1
        assert fam.pf_lower_bound == 2
        assert len(fam.semigroup.generators) == 6
        assert fam.gluing_element == (15, 15)

    def test_three_generator_numerical(self):
        fam = family_saps(3, 2, [3, 4, 5])
        assert fam.mu == 12 and fam.nu == 2
        assert fam.pf_lower_bound == 16
        assert len(fam.semigroup.generators) == 7

    def test_embedding_dimension_rule(self):
        for gens in ([2, 3], [2, 5], [4, 5, 6, 7]):
            fam = family_saps(3, 1, gens)
            assert len(fam.semigroup.generators) == len(gens) + 4

    def test_sum_sharing_a_factor_with_a_is_not_a_gluing(self):
        # mu = 12 shares a factor with a = 3, so the group intersection is
        # (12,12)Z, strictly larger than mu*(a,a^p)Z; the construction must
        # reject rather than trust the product formula
        with pytest.raises(NotAGluing) as err:
            family_saps(3, 1, [3, 4, 5])
        assert err.value.reason == "LatticeGeneratorMismatch"

    def test_numerical_factor_built_once(self, monkeypatch):
        # minimalize's semigroup is the factor that the PF count reads
        built = count_constructions(monkeypatch)
        assert family_saps(3, 2, [3, 4, 5]).nu == 2
        assert built.count(1) == 1

    def test_gcd_validated(self):
        with pytest.raises(BadParams):
            family_saps(3, 1, [2, 4])

    def test_minimality_validated(self):
        with pytest.raises(NotMinimal):
            family_saps(3, 1, [2, 3, 5])

    @pytest.mark.parametrize("a, p", [(3, 1), (3, 2), (5, 1)])
    def test_numerical_factor_must_have_a_gap(self, a, p):
        with pytest.raises(EmptyPF) as err:
            family_saps(a, p, [1])
        assert err.value.side == 2

    def test_glued_pf_candidates_pass_pointwise_predicate(self):
        fam = family_saps(3, 1, [2, 3])
        sem = fam.semigroup
        scaled_delta = [(5 * x, 5 * y) for x, y in delta_set(3, 1)]
        numerical_pf = [(3, 3)]  # (a, a^p) * PF(<2,3>)
        candidates = glued_pf(scaled_delta, numerical_pf, fam.gluing_element).points
        assert len(candidates) == fam.pf_lower_bound
        for f in candidates:
            assert not sem.is_member(f)
            for g in sem.generators:
                assert sem.is_member(tuple(a + b for a, b in zip(f, g)))


class TestScaleNumerical:
    def test_plane_ray(self):
        sem = scale_numerical([3, 4, 5], (2, 4))
        assert set(sem.generators) == {(6, 12), (8, 16), (10, 20)}

    def test_worked_ray_semigroup(self):
        sem = scale_numerical([6, 8, 9, 10, 11, 13], (1, 2))
        assert set(sem.generators) == {
            (6, 12), (8, 16), (9, 18), (10, 20), (11, 22), (13, 26)
        }

    def test_identity_on_numerical(self):
        sem = scale_numerical([4, 6, 9], (1,))
        assert sem.generators == ((4,), (6,), (9,))

    def test_zero_ray_rejected(self):
        with pytest.raises(ValueError):
            scale_numerical([2, 3], (0, 0))

    def test_max_embedding_dimension_scalings_are_pi(self):
        # numerical semigroups with as many generators as their multiplicity
        for gens, ray in [
            ([3, 4, 5], (2, 4)),
            ([4, 5, 6, 7], (1, 3)),
            ([2, 3], (5, 1)),
        ]:
            status = is_pi(scale_numerical(gens, ray))
            assert status.attained and status.is_pi
