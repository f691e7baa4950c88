import random

import pytest

from conftest import GENS_PI, arf_violation, gap_universe, mask_to_points
from csemigroups.arf import (
    PIMonoid,
    arf_closure,
    arf_derived,
    is_arf,
    is_arf_pi,
    is_pi,
    pi_decompose,
    prop79_check,
    prop710_check,
)
from csemigroups.errors import HypothesisFailed, NotFullCone, NotPI
from csemigroups.gapsemigroup import from_gaps, from_generators
from csemigroups.membership import AffineSemigroup

S77_DERIVED_GAPS = {
    (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2),
}


class TestDerived:
    def test_worked_example(self, s77):
        assert arf_derived(s77).gaps == frozenset(S77_DERIVED_GAPS)

    def test_full_orthant_fixed(self):
        gs = from_gaps(2, [])
        assert arf_derived(gs) == gs

    def test_gaps_only_shrink(self, s2, s3, s4, s5, s77):
        for gs in (s2, s3, s4, s5, s77):
            assert arf_derived(gs).gaps <= gs.gaps


class TestClosure:
    def test_worked_example_one_step(self, s77):
        closure, steps = arf_closure(s77)
        assert steps == 1
        assert closure == arf_derived(s77)

    def test_arf_input_zero_steps(self):
        gs = from_gaps(2, [(1, 0), (1, 1)])
        closure, steps = arf_closure(gs)
        assert steps == 0 and closure == gs

    def test_idempotent(self, s2, s77):
        for gs in (s2, s77):
            closure, _ = arf_closure(gs)
            again, steps = arf_closure(closure)
            assert steps == 0 and again == closure

    def test_closure_passes_is_arf(self, s2, s4, s77):
        for gs in (s2, s4, s77):
            closure, _ = arf_closure(gs)
            assert is_arf(closure)


class TestIsArf:
    def test_staircase_example(self):
        assert is_arf(from_gaps(2, [(1, 0), (1, 1)]))

    def test_full_orthant(self):
        assert is_arf(from_gaps(3, []))

    def test_worked_negative(self, s77):
        assert not is_arf(s77)

    @pytest.mark.parametrize("mask_seed", range(6))
    def test_agrees_with_raw_triple_scan(self, mask_seed):
        points, valid = gap_universe((2, 2))
        rng = random.Random(mask_seed)
        gs = from_gaps(2, mask_to_points(points, rng.choice(valid)))
        window = tuple(2 * c for c in gs.conductor) if gs.gaps else (2, 2)
        assert is_arf(gs) == (arf_violation(gs.contains, window) is None)

    def test_paper_instances_against_raw_scan(self, s3, s77):
        for gs in (s3, s77):
            window = tuple(2 * c for c in gs.conductor)
            assert is_arf(gs) == (arf_violation(gs.contains, window) is None)


class TestClosureMinimality:
    def test_brute_force_intersection_small_corpus(self):
        # every complement-closed gap set inside [0,2]^2: the closure must
        # equal the intersection of all Arf supersets, whose gap set is the
        # union of the arf-valid submasks
        points, valid = gap_universe((2, 2))
        arf_by_mask = {}
        for mask in valid:
            arf_by_mask[mask] = is_arf(from_gaps(2, mask_to_points(points, mask)))
        for mask in valid:
            expected = 0
            sub = mask
            while True:
                # submasks that are not complement-closed are not monoids and
                # do not participate in the intersection
                if arf_by_mask.get(sub):
                    expected |= sub
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            closure, _ = arf_closure(from_gaps(2, mask_to_points(points, mask)))
            assert closure.gaps == mask_to_points(points, expected)


class TestPIMonoid:
    def test_shifted_staircase_is_arf(self):
        base = from_gaps(2, [(1, 0), (1, 1)])
        monoid = PIMonoid((2, 2), base)
        assert is_arf_pi(monoid)
        assert monoid.contains((0, 0)) and monoid.contains((2, 2))
        assert not monoid.contains((3, 2)) and not monoid.contains((3, 3))
        assert monoid.contains((4, 4)) and monoid.contains((2, 9))

    def test_offset_must_be_in_base(self):
        with pytest.raises(ValueError):
            PIMonoid((1, 0), from_gaps(2, [(1, 0), (1, 1)]))

    def test_generator_base_without_full_cone(self):
        monoid = PIMonoid((2, 4), AffineSemigroup(2, [(2, 4), (3, 6)]))
        assert monoid.contains((4, 8))
        with pytest.raises(NotFullCone):
            is_arf_pi(monoid)

    def test_shift_equivalence_randomized(self):
        points, valid = gap_universe((2, 2))
        rng = random.Random(17)
        for _ in range(25):
            gs = from_gaps(2, mask_to_points(points, rng.choice(valid)))
            members = [
                p
                for p in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
                if gs.contains(p)
            ]
            offset = rng.choice(members)
            shifted = PIMonoid(offset, gs)
            window = tuple(o + 2 * c + 2 for o, c in zip(offset, gs.conductor))
            direct = arf_violation(shifted.contains, window) is None
            assert is_arf_pi(shifted) == is_arf(gs) == direct


class TestIsPI:
    def test_worked_ray_example(self):
        status = is_pi(AffineSemigroup(2, GENS_PI))
        assert status.multiplicity == (6, 12)
        assert status.attained and status.is_pi

    def test_axes_multiplicity_not_attained(self):
        status = is_pi(AffineSemigroup(2, [(1, 0), (0, 1)]))
        assert status.multiplicity == (0, 0)
        assert not status.attained and status.is_pi is None

    def test_max_embedding_dimension_numerical(self):
        status = is_pi(AffineSemigroup(1, [(3,), (4,), (5,)]))
        assert status.multiplicity == (3,) and status.is_pi

    def test_non_pi_numerical(self):
        # <4,6,9>: 6 + 6 - 4 = 8 ok but 6 + 9 - 4 = 11 is a gap
        status = is_pi(AffineSemigroup(1, [(4,), (6,), (9,)]))
        assert status.attained and status.is_pi is False

    def test_gap_form_input(self, s3):
        # cofinite plane semigroups contain far points on both axes, so the
        # coordinatewise infimum collapses to the origin and is never attained
        status = is_pi(s3)
        assert status.multiplicity == (0, 0)
        assert not status.attained and status.is_pi is None

    def test_arf_with_multiplicity_implies_pi(self):
        # dimension one is where gap semigroups attain their multiplicity
        checked = 0
        for gens in ([(2,), (3,)], [(3,), (4,), (5,)], [(4,), (6,), (7,), (9,)], [(5,), (6,), (7,), (8,), (9,)]):
            closure, _ = arf_closure(from_generators(gens))
            status = is_pi(closure)
            assert status.attained and status.is_pi
            checked += 1
        assert checked == 4


class TestPIDecompose:
    def test_worked_ray_example_base(self):
        pim = pi_decompose(AffineSemigroup(2, GENS_PI))
        assert pim.offset == (6, 12)
        assert pim.base.generators == ((2, 4), (3, 6))

    def test_worked_example_window_agreement(self):
        sem = AffineSemigroup(2, GENS_PI)
        pim = pi_decompose(sem)
        base = AffineSemigroup(2, [(2, 4), (3, 6)])
        for x in range(31):
            for y in range(61):
                p = (x, y)
                expected = p == (0, 0) or (
                    x >= 6 and y >= 12 and base.is_member((x - 6, y - 12))
                )
                assert pim.contains(p) == expected == sem.is_member(p)

    def test_max_embedding_dimension_numerical(self):
        pim = pi_decompose(AffineSemigroup(1, [(3,), (4,), (5,)]))
        assert pim.offset == (3,)
        assert pim.base.generators == ((1,),)  # base is all of N

    def test_gap_form_round_trip_d1(self):
        # gap-form decomposition needs an attained multiplicity, which for
        # cofinite semigroups only happens in dimension one
        for gens in ([(3,), (4,), (5,)], [(4,), (5,), (6,), (7,)]):
            gs = from_generators(gens)
            pim = pi_decompose(gs)
            assert pim.offset == gens[0]
            assert pim.base.genus == 0  # base is all of N
            for x in range(20):
                assert pim.contains((x,)) == gs.contains((x,))

    def test_not_pi_rejected(self):
        with pytest.raises(NotPI):
            pi_decompose(AffineSemigroup(1, [(4,), (6,), (9,)]))


class TestShiftedClosureContainment:
    def test_numerical_instance(self):
        assert prop79_check((3,), [(2,), (4,)], 1, (40,))

    def test_base_case_k_zero(self):
        assert prop79_check((3,), [(2,), (4,)], 0)

    def test_plane_chain(self):
        with pytest.raises(NotFullCone):
            prop79_check((1, 1), [(1, 1), (2, 2)], 1)

    def test_antichain_rejected(self):
        with pytest.raises(HypothesisFailed) as err:
            prop79_check((1, 1), [(1, 0), (0, 1)], 0)
        assert err.value.which == "chain"

    def test_pair_domination_rejected(self):
        with pytest.raises(HypothesisFailed) as err:
            prop79_check((4,), [(2,), (4,), (6,)], 0)
        assert err.value.which == "pair-domination"


class TestShiftedClosureEquality:
    def test_worked_instance(self):
        # both routes give members {0, 3, 5, 6, 7, ...}
        assert prop710_check((3,), [(2,), (4,)])
        left, _ = arf_closure(from_generators([(3,), (5,), (7,)]))
        assert left.gaps == frozenset({(1,), (2,), (4,)})

    def test_three_generator_instance(self):
        assert prop710_check((5,), [(2,), (3,), (4,)])

    @pytest.mark.parametrize("a", [(1, 0), (2, 1), (0, 3), (1, 1, 1)])
    def test_higher_dimension_is_not_full_cone(self, a):
        # every generator a + g of the left side is positive wherever a is
        with pytest.raises(NotFullCone):
            prop710_check(a, [a])

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisFailed):
            prop710_check((4,), [(2,), (4,), (6,)])

    @pytest.mark.parametrize(
        "a,gens",
        [
            (3, [2]),
            (3, [2, 4]),
            (5, [2, 3, 4]),
            (5, [3, 4, 5, 6]),
            (7, [2, 3]),
            (4, [3, 5]),
            (5, [2, 3]),
            (7, [4, 5, 6, 7, 8]),
            (9, [2, 3, 4]),
            (8, [3, 5]),
        ],
    )
    def test_hypothesis_satisfying_corpus(self, a, gens):
        assert prop710_check((a,), [(g,) for g in gens])
