import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_PAPER_GENS,
    BOX_BUDGETS,
    GENS_PI,
    GENS_S2,
    GENS_S5,
    GENS_SAP31,
    box_points,
    closure_in_box,
    generator_lists,
    per_generator_minimalize,
)
from csemigroups import membership
from csemigroups.errors import BudgetExceeded, DimensionMismatch
from csemigroups.lattice import _Box, grlex_sorted, zero
from csemigroups.membership import MEMBER_BOX_BITS, AffineSemigroup, minimalize, multiplicity


class TestIsMember:
    def test_family_delta_element_outside(self):
        sem = AffineSemigroup(2, GENS_SAP31)
        assert not sem.is_member((7, 4))
        # independent route: exhaustive combination search inside the box
        assert (7, 4) not in closure_in_box(GENS_SAP31, (7, 4))

    def test_zero_is_identity(self):
        for gens in ALL_PAPER_GENS.values():
            assert AffineSemigroup(len(gens[0]), gens).is_member((0,) * len(gens[0]))

    def test_pf_element_outside_generator_inside(self):
        sem = AffineSemigroup(2, GENS_S2)
        assert not sem.is_member((2, 6))
        assert sem.is_member((2, 7))

    def test_negative_coordinates(self):
        sem = AffineSemigroup(2, GENS_S2)
        assert not sem.is_member((-1, 0))

    def test_point_of_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            AffineSemigroup(2, GENS_S2).is_member((1, 2, 3))

    @pytest.mark.parametrize("p", [(0,), (0, 0, 7), (5,), (3, 3, 3)])
    def test_cover_checks_the_dimension_first(self, p):
        # the short and the long point fit the cached box on the axes they share
        with pytest.raises(DimensionMismatch):
            AffineSemigroup(2, [(1, 0), (0, 1)]).cover(p)

    def test_unit_pair_is_shared_per_dimension(self):
        first, second = AffineSemigroup(2, GENS_S2), AffineSemigroup(2, [(1, 0), (0, 1)])
        unit = membership._unit(2)
        assert first._cache[0] is second._cache[0] is unit[0]
        assert unit[0].extent == (1, 1) and unit[1] == b"\x01"
        assert first.is_member((3, 0)) and first._cache[0].extent == (4, 1)
        # growing one cache replaces its pair and leaves the shared one
        assert second._cache is membership._unit(2) is unit
        assert unit[0].extent == (1, 1) and unit[0].full == 1 and unit[1] == b"\x01"
        assert membership._unit(3)[0].extent == (1, 1, 1)

    def test_contains_operator(self):
        sem = AffineSemigroup(2, GENS_S2)
        assert (3, 0) in sem and (1, 0) not in sem

    @pytest.mark.parametrize("name", sorted(ALL_PAPER_GENS))
    def test_agrees_with_forward_closure(self, name):
        gens = ALL_PAPER_GENS[name]
        sem = AffineSemigroup(2, gens)
        window = (12, 12)
        # forward closure needs headroom so box-boundary points are reached
        oracle = closure_in_box(gens, (40, 40))
        for p in box_points(window):
            assert sem.is_member(p) == (p in oracle), p

    def test_additivity(self):
        rng = random.Random(3)
        sem = AffineSemigroup(2, GENS_S5)
        members = [p for p in box_points((14, 14)) if sem.is_member(p)]
        for _ in range(200):
            p, q = rng.choice(members), rng.choice(members)
            assert sem.is_member(tuple(a + b for a, b in zip(p, q)))

    def test_far_members_past_the_box_budget(self):
        # the box [0, p] would take 1.6e9 and 6.4e10 bits; the descent
        # reaches the cached box in about |p| steps and the cache stays small
        for d, top in ((2, 20000), (3, 2000)):
            sem = AffineSemigroup(d, [tuple(int(i == j) for j in range(d)) for i in range(d)])
            assert sem.is_member((top,) * d)
            assert sem.is_member((top, 1) + (0,) * (d - 2))
            assert sem.is_member((1,) * d)
            assert membership._box_bits(sem.cover((0,) * d)[0].extent) <= MEMBER_BOX_BITS
        sap = AffineSemigroup(2, [(3, 0), (0, 3), (5, 2), (2, 5)])
        assert sap.is_member((20000, 20003))

    def test_far_non_member_past_the_box_budget_stops(self):
        # the box [0, p] would take 1.4e8 bits and the coset below p holds
        # about 1.2e7 points; the search stops at FAR_SEARCH_POINTS of them
        sap = AffineSemigroup(2, [(3, 0), (0, 3), (5, 2), (2, 5)])
        with pytest.raises(BudgetExceeded):
            sap.is_member((6000, 6001))

    @pytest.mark.parametrize("name", sorted(ALL_PAPER_GENS))
    def test_descent_into_a_partial_box(self, name):
        gens = ALL_PAPER_GENS[name]
        oracle = closure_in_box(gens, (40, 40))
        sem = AffineSemigroup(2, gens)
        with mock.patch.object(membership, "MEMBER_BOX_BITS", 256):
            sem.is_member((5, 2))  # grows the box to (6, 3); (13, 13) is over budget
            assert sem.cover((0, 0))[0].extent == (6, 3)
            for p in box_points((12, 12)):
                assert sem.is_member(p) == (p in oracle), p
        assert membership._box_bits(sem.cover((0, 0))[0].extent) <= 256

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            AffineSemigroup(2, [(0, 0), (1, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AffineSemigroup(2, [])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(st.lists(st.integers(-2, 3), min_size=1, max_size=4).map(tuple), min_size=1, max_size=6),
    )
    def test_column_checks_name_the_first_bad_generator(self, d, gens):
        # lengths and signs are checked by columns; a failure names the same
        # generator, with the same message, as checking them one by one
        def per_generator():
            for g in grlex_sorted(set(gens)):
                if len(g) != d:
                    return DimensionMismatch(f"generator {g} in dimension {d}")
                if any(v < 0 for v in g):
                    return ValueError(f"generator {g} has a negative coordinate")
            if zero(d) in gens:
                return ValueError("the zero point is not allowed as a generator")
            return None

        expected = per_generator()
        try:
            AffineSemigroup(d, gens)
        except (DimensionMismatch, ValueError) as err:
            assert (type(err), str(err)) == (type(expected), str(expected))
        else:
            assert expected is None


def count_boxes(monkeypatch):
    """Record the extent of every box the membership module builds."""
    built = []

    class Counted(_Box):
        __slots__ = ()

        def __init__(self, extent):
            built.append(tuple(extent))
            super().__init__(extent)

    monkeypatch.setattr(membership, "_Box", Counted)
    return built


class TestMinimalize:
    def test_drops_decomposable(self):
        sem = minimalize([(1, 0), (2, 0), (0, 1)])
        assert sem.generators == ((0, 1), (1, 0))

    def test_worked_eight_generator_list_is_minimal(self):
        sem = minimalize(GENS_S5)
        assert set(sem.generators) == set(GENS_S5)
        assert len(sem.generators) == 8

    def test_ray_pair_is_minimal(self):
        sem = minimalize([(2, 4), (3, 6)])
        assert set(sem.generators) == {(2, 4), (3, 6)}

    def test_empty_list_needs_a_dimension(self):
        with pytest.raises(ValueError):
            minimalize([])

    def test_duplicates_collapse(self):
        sem = minimalize([(1, 1), (1, 1), (2, 2)])
        assert sem.generators == ((1, 1),)

    def test_sparse_generators_cost_their_own_boxes(self):
        # one box over [0, max g] would take 2e11 bits here
        gens = [(3000, 0, 0), (0, 3000, 0), (0, 0, 3000), (1, 1, 1), (3001, 1, 1)]
        assert set(minimalize(gens).generators) == set(gens[:4])

    @pytest.mark.parametrize(
        "gens,extent",
        [
            # [0, max g] passes MEMBER_BOX_BITS
            ([(3000, 0, 0), (0, 3000, 0), (0, 0, 3000), (1, 1, 1), (3001, 1, 1)], (3002, 2, 2)),
            # [0, max g] fits, in 4e6 bits, but the boxes [0, g] take 16e3
            ([(1000, 0), (0, 1000), (1, 1), (1001, 1)], (1002, 2)),
        ],
    )
    def test_sparse_list_builds_a_box_per_generator(self, monkeypatch, gens, extent):
        minimalize(gens)
        built = count_boxes(monkeypatch)
        assert set(minimalize(gens).generators) == set(gens[:-1])
        # only the last generator has inputs below it
        assert built == [extent]

    def test_pi_base_of_the_diagonal_list_builds_one_box(self, monkeypatch):
        # the base pi_decompose hands over for (8,8);(15,15);...;(57,57):
        # each g - m, and m
        m = (8, 8)
        base = [(g - 8, g - 8) for g in range(15, 58, 7)] + [m]
        minimalize(base)
        built = count_boxes(monkeypatch)
        assert minimalize(base).generators == ((7, 7), (8, 8))
        assert built == [(50, 50)]

    @settings(max_examples=80, deadline=None)
    @given(generator_lists(), BOX_BUDGETS)
    def test_one_box_matches_the_per_generator_route(self, case, budget):
        d, gens = case
        with mock.patch.object(membership, "MEMBER_BOX_BITS", budget):
            assert minimalize(gens, d) == per_generator_minimalize(gens, d)

    def test_order_independent(self):
        gens = [(4,), (6,), (9,), (10,), (13,), (15,)]
        rng = random.Random(5)
        reference = minimalize(gens).generators
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert minimalize(shuffled).generators == reference

    @pytest.mark.parametrize("name", sorted(ALL_PAPER_GENS))
    def test_no_minimal_generator_splits(self, name):
        sem = minimalize(ALL_PAPER_GENS[name])
        for g in sem.generators:
            for x in box_points(g):
                if x == (0,) * sem.dimension or x == g:
                    continue
                rest = tuple(a - b for a, b in zip(g, x))
                assert not (sem.is_member(x) and sem.is_member(rest)), (g, x)


class TestRandomizedOracle:
    @settings(max_examples=80, deadline=None)
    @given(generator_lists(), st.randoms(use_true_random=False), BOX_BUDGETS)
    def test_shared_semigroup_matches_closure(self, case, rng, budget):
        d, gens = case
        hi = ((12, 9, 5)[d - 1],) * d
        oracle = closure_in_box(gens, hi)
        sem = AffineSemigroup(d, gens)
        points = list(box_points(hi))
        # random order: a far point often grows the box before near ones
        rng.shuffle(points)
        with mock.patch.object(membership, "MEMBER_BOX_BITS", budget):
            for p in points:
                assert sem.is_member(p) == (p in oracle), p

    @settings(max_examples=80, deadline=None)
    @given(generator_lists(), BOX_BUDGETS)
    def test_minimalize_is_the_indecomposables(self, case, budget):
        d, gens = case
        members = closure_in_box(gens, tuple(max(g[i] for g in gens) for i in range(d)))
        zero = (0,) * d

        def splits(g):
            return any(
                x not in (zero, g)
                and all(a <= b for a, b in zip(x, g))
                and tuple(b - a for a, b in zip(x, g)) in members
                for x in members
            )

        expected = {g for g in gens if not splits(g)}
        with mock.patch.object(membership, "MEMBER_BOX_BITS", budget):
            assert set(minimalize(gens, d).generators) == expected


class TestMultiplicity:
    def test_ray_semigroup(self):
        m, attained = multiplicity(AffineSemigroup(2, GENS_PI))
        assert m == (6, 12) and attained

    def test_axes_infimum_not_attained(self):
        m, attained = multiplicity(AffineSemigroup(2, [(1, 0), (0, 1)]))
        assert m == (0, 0) and not attained

    def test_numerical(self):
        m, attained = multiplicity(AffineSemigroup(1, [(4,), (6,), (9,)]))
        assert m == (4,) and attained

    def test_lower_bound_on_members(self):
        sem = AffineSemigroup(2, GENS_PI)
        m, _ = multiplicity(sem)
        members = [p for p in box_points((30, 30)) if p != (0, 0) and sem.is_member(p)]
        assert members
        for p in members:
            assert all(a >= b for a, b in zip(p, m))
