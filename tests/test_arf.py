import functools
import itertools
import operator
import random
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    BOX_BUDGETS,
    GENS_PI,
    arf_violation,
    box_points,
    census_windows,
    count_member_calls,
    finite_gap_sets,
    frobenius_tree,
    generator_lists,
    gap_universe,
    in_gap_complement,
    mask_to_points,
    members_form_stage,
    pair_loop_is_pi,
    per_generator_minimalize,
    per_step_arf_closure,
    per_step_derived,
)
from csemigroups import arf, membership
from csemigroups.arf import (
    PIMonoid,
    PIStatus,
    _chain_sums,
    arf_closure,
    arf_derived,
    is_arf,
    is_arf_pi,
    is_pi,
    pi_decompose,
    prop79_check,
    prop710_check,
)
from csemigroups.errors import (
    BudgetExceeded,
    DimensionMismatch,
    HypothesisFailed,
    NotFullCone,
    NotPI,
)
from csemigroups.gapsemigroup import from_gaps, from_generators
from csemigroups.lattice import sub
from csemigroups.membership import AffineSemigroup, _window, minimalize

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

    @pytest.mark.parametrize("p", [(), (0, 0), (1, 0), (-1, 0)])
    def test_point_dimension_checked_first(self, p):
        # the all-zero shortcut comes after the length check, on the gap
        # form and on the generator form of the base <2, 3>
        for base in (from_gaps(1, [(1,)]), AffineSemigroup(1, [(2,), (3,)])):
            monoid = PIMonoid((2,), base)
            with pytest.raises(DimensionMismatch):
                monoid.contains(p)
            with pytest.raises(DimensionMismatch):
                p in monoid

    @pytest.mark.parametrize("offset", [(-1, 0, 0), (1, 0, 0), (0, 0, 0), (0,), (-1,), ()])
    def test_offset_dimension_checked_first(self, offset):
        # the length is checked before the sign and the zero test, with the
        # text of GapSemigroup.contains, whatever else is wrong with the offset
        with pytest.raises(DimensionMismatch, match=r"in dimension 2$"):
            PIMonoid(offset, from_gaps(2, [(1, 0), (1, 1)]))

    @pytest.mark.parametrize("offset", [(-1, 0), (0, 0), (0, -2)])
    def test_offset_outside_n_d_or_zero(self, offset):
        with pytest.raises(ValueError, match="nonzero point of N"):
            PIMonoid(offset, from_gaps(2, [(1, 0), (1, 1)]))

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
        # the census, on the gap form and on the generator form of each
        # base: p = 0 or p - m in the base, for the least and the largest
        # basis element m
        for gs, points in census_windows():
            bases = (gs, AffineSemigroup(gs.dimension, gs.hilbert_basis))
            for m, base in itertools.product({gs.hilbert_basis[0], gs.hilbert_basis[-1]}, bases):
                monoid = PIMonoid(m, base)
                for p in points:
                    expected = not any(p) or in_gap_complement(gs, sub(p, m))
                    assert monoid.contains(p) == expected, (base, m, p)


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

    def test_only_a_diagonal_pair_fails(self):
        # <3,4>: 3 + 3 - 3 and 3 + 4 - 3 are members, only 4 + 4 - 3 = 5
        # is a gap, so a check that skips the pairs g = h answers True
        for sem in (AffineSemigroup(1, [(3,), (4,)]), from_gaps(1, [(1,), (2,), (5,)])):
            status = is_pi(sem)
            assert status == PIStatus((3,), True, False)

    def test_gap_form_input(self, s3):
        # cofinite plane semigroups contain far points on both axes, so the
        # coordinatewise infimum collapses to the origin and is never attained
        status = is_pi(s3)
        assert status.multiplicity == (0, 0)
        assert not status.attained and status.is_pi is None

    def test_generator_form_builds_one_pair_box(self, monkeypatch):
        # one box, to the corner of all the pairs, which holds m too;
        # growing the box pair by pair took 11
        builds = []
        real = membership._sums

        def counted(box, gens):
            builds.append(box.extent)
            return real(box, gens)

        monkeypatch.setattr(membership, "_sums", counted)
        assert is_pi(AffineSemigroup(2, GENS_PI)).is_pi
        assert builds == [(21, 41)]

    def test_generator_form_makes_no_member_call(self, monkeypatch):
        # m and every pair point are bits of the corner box
        calls = count_member_calls(monkeypatch)
        assert is_pi(AffineSemigroup(2, GENS_PI)).is_pi
        assert calls == []

    def test_corner_past_the_member_budget_asks_the_pairs(self):
        # the corner box [0, (5001, 5001)) passes MEMBER_BOX_BITS, so m and
        # the one pair are asked by descent, and answered
        status = is_pi(AffineSemigroup(2, [(5000, 5000)]))
        assert status == PIStatus((5000, 5000), True, True)

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

    def test_window_box_past_the_member_budget(self):
        # the window [0, (10003, 10003)] would take about 4 * 10^8 bits
        with pytest.raises(BudgetExceeded):
            pi_decompose(AffineSemigroup(2, [(5000, 5000)]))

    def test_window_box_within_the_member_budget(self):
        pim = pi_decompose(AffineSemigroup(2, [(1500, 1500)]))
        assert pim.offset == (1500, 1500)
        assert pim.base.generators == ((1500, 1500),)

    def test_member_calls_do_not_grow_with_the_window(self, monkeypatch):
        # 8 + Ap(<8, 7>, 8) on the diagonal: is_pi reads m and the 36
        # generator pairs off one box, PIMonoid asks m in the base; the
        # window of 69 x 69 points adds no call
        calls = count_member_calls(monkeypatch)
        pi_decompose(AffineSemigroup(2, [(g, g) for g in range(8, 58, 7)]))
        assert len(calls) <= 1

    @pytest.mark.parametrize(
        "gens,expected",
        [
            (GENS_PI, (19, 38)),
            ([(3,), (4,), (5,)], (11,)),
            ([(g, g) for g in range(8, 58, 7)], (68, 68)),
        ],
    )
    def test_error_names_the_first_mismatch(self, monkeypatch, gens, expected):
        # a base short of its largest generator other than m (the last
        # point handed in): the error names the point the per-point walk
        # finds first, in reversed row-major order
        made = []

        def short_base(points, dimension):
            m = points[-1]
            kept = list(minimalize(points, dimension).generators)
            kept.remove([g for g in kept if g != m][-1])
            made.append(PIMonoid(m, AffineSemigroup(dimension, kept or [m])))
            return made[-1].base

        monkeypatch.setattr(arf, "minimalize", short_base)
        sem = AffineSemigroup(len(gens[0]), gens)
        with pytest.raises(RuntimeError) as err:
            pi_decompose(sem)
        (pim,) = made
        window = pi_window(pim.offset, tuple(map(max, zip(*gens))))
        assert first_mismatch(sem, pim, window) == expected
        assert str(err.value) == f"decomposition failed to reproduce membership at {expected}"


def pi_window(m, top):
    return tuple(a + b + 3 for a, b in zip(m, top))


def first_mismatch(sem, pim, window):
    """Per-point reference: the first p, far corner first, with p in sem
    and p in pim disagreeing; None when they agree on the whole window."""
    for p in reversed(list(box_points(window))):
        if (p in sem) != (p in pim):
            return p
    return None


@st.composite
def numerical_pi_lists(draw):
    """Minimal generators of {0} + (m + T), T = <m, t_1, ..., t_k>: m + w for
    w in Ap(T, m). Each w is a sum of fewer than m of the t_i (m of them
    hold a block whose sum is a multiple of m), so w < m * max t_i."""
    m = draw(st.integers(2, 7))
    tgens = {m, *draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))}
    top = m * max(tgens)
    in_t = [True] + [False] * top
    for x in range(1, top + 1):
        in_t[x] = any(x >= t and in_t[x - t] for t in tgens)
    return [m + w for w in range(top + 1) if in_t[w] and not (w >= m and in_t[w - m])]


class TestPIDecomposeOracle:
    """The window check of pi_decompose against the per-point walk."""

    @settings(max_examples=60, deadline=None)
    @given(numerical_pi_lists(), st.sampled_from([(1,), (1, 1), (1, 2)]))
    def test_generator_form(self, gens, ray):
        sem = AffineSemigroup(len(ray), [tuple(g * v for v in ray) for g in gens])
        pim = pi_decompose(sem)
        assert pim.offset == tuple(gens[0] * v for v in ray)
        window = pi_window(pim.offset, tuple(map(max, zip(*sem.generators))))
        assert first_mismatch(sem, pim, window) is None

    @settings(max_examples=60, deadline=None)
    @given(numerical_pi_lists())
    def test_gap_form(self, gens):
        assume(gcd(*gens) == 1)
        gs = from_generators([(g,) for g in gens])
        pim = pi_decompose(gs)
        assert pim.offset == (gens[0],)
        assert first_mismatch(gs, pim, pi_window(pim.offset, gs.conductor)) is None


RAYS = st.sampled_from([(1,), (1, 1), (1, 2)])


def on_ray(gens, ray):
    return AffineSemigroup(len(ray), [tuple(g * v for v in ray) for g in gens])


class TestPIRoutes:
    """is_pi on one mask against the pair loop of membership calls, and the
    one-box minimalize against the per-generator route on the PI bases."""

    @pytest.mark.parametrize("d,genus", [(1, 12), (2, 6), (3, 4)])
    def test_census_gap_form(self, d, genus):
        verdicts = set()
        for level in frobenius_tree(d, genus):
            for gs in level:
                status = is_pi(gs)
                assert status == pair_loop_is_pi(gs), gs
                verdicts.add(status.is_pi)
        # in d >= 2 the multiplicity, 0, is never attained
        assert verdicts == ({True, False} if d == 1 else {None})

    @settings(max_examples=100, deadline=None)
    @given(generator_lists(), BOX_BUDGETS)
    def test_generator_lists(self, case, budget):
        d, gens = case
        with mock.patch.object(membership, "MEMBER_BOX_BITS", budget):
            assert is_pi(AffineSemigroup(d, gens)) == pair_loop_is_pi(AffineSemigroup(d, gens))

    @settings(max_examples=60, deadline=None)
    @given(numerical_pi_lists(), RAYS)
    def test_pi_lists(self, gens, ray):
        status = is_pi(on_ray(gens, ray))
        assert status == pair_loop_is_pi(on_ray(gens, ray))
        assert status.is_pi
        m, d = status.multiplicity, len(ray)
        base = [sub(g, m) for g in on_ray(gens, ray).generators if g != m] + [m]
        assert minimalize(base, d) == per_generator_minimalize(base, d)
        if d == 1 and gcd(*gens) == 1:
            gs = from_generators([(g,) for g in gens])
            assert is_pi(gs) == pair_loop_is_pi(gs) == PIStatus((gens[0],), True, True)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(2, 40), min_size=2, max_size=6), RAYS)
    def test_non_pi_lists(self, gens, ray):
        expected = pair_loop_is_pi(on_ray(gens, ray))
        assume(expected.is_pi is False)
        assert is_pi(on_ray(gens, ray)) == expected
        if len(ray) == 1 and gcd(*gens) == 1:
            gs = from_generators([(g,) for g in gens])
            assert is_pi(gs) == pair_loop_is_pi(gs) == expected


class TestStepOracles:
    @pytest.mark.parametrize("d,genus", [(1, 12), (2, 6), (3, 4)])
    def test_census_matches_the_per_step_loop(self, d, genus):
        # the closure steps on gap masks and validates the fixpoint only
        for level in frobenius_tree(d, genus):
            for gs in level:
                assert arf_derived(gs) == per_step_derived(gs), gs
                assert arf_closure(gs) == per_step_arf_closure(gs), gs

    # the census semigroups of d = 1..3, most of them not Arf
    CENSUS = st.deferred(lambda: st.sampled_from([
        gs for d, genus in ((1, 12), (2, 6), (3, 4)) for level in frobenius_tree(d, genus) for gs in level
    ]))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(finite_gap_sets(), CENSUS), st.data())
    def test_derived_step_bounds_itself(self, gs, data):
        # any bound at or above the gaps' top clears the same gaps as the
        # step's own; a bound below 2e keeps every z + u inside the 2e-wide
        # rows of the conductor box
        box, gaps = gs.box, gs.gap_mask
        bound = [data.draw(st.integers(c - 1, 2 * e - 1)) for c, e in zip(gs.conductor, box.extent)]
        reached = functools.reduce(operator.or_, _chain_sums(box, box.full & ~gaps, bound), 0)
        assert gaps & ~reached == arf._derived(box, gaps)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        # pair domination: no generator above twice the least
        st.integers(1, 8).flatmap(
            lambda m: st.lists(st.integers(m, 2 * m), min_size=1, max_size=4)
        ),
        st.integers(0, 4),
        st.integers(5, 60),
    )
    def test_stage_matches_the_members_form(self, a, gens, k, w):
        assume(gcd(a, *gens) == 1)
        asked = set()

        class HoldsAll:
            def __contains__(self, p):
                asked.add(p[0] - a)
                return True

        # a closure that holds every point is asked a + s for each stage point s
        with mock.patch.object(arf, "arf_closure", lambda gs: (HoldsAll(), 0)):
            assert prop79_check((a,), [(g,) for g in gens], k, (w,))
        box = _window((w + 1,), "window")
        stage = members_form_stage(box, [(a,)] + [(g,) for g in gens], (w,), k)
        assert asked == {p[0] for p in box.points(stage)}


class TestShiftedClosureContainment:
    def test_numerical_instance(self):
        assert prop79_check((3,), [(2,), (4,)], 1, (40,))

    def test_base_case_k_zero(self):
        assert prop79_check((3,), [(2,), (4,)], 0)

    def test_derived_stage_grows(self):
        # <4, 5, 6> gains 7 at the first derived step, so the loop takes it
        assert prop79_check((4,), [(5,), (6,)], 2)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            prop79_check((4,), [(5,), (6,)], -1)

    def test_plane_chain(self):
        with pytest.raises(NotFullCone):
            prop79_check((1, 1), [(1, 1), (2, 2)], 1)

    def test_window_box_past_the_member_budget(self):
        # [0, 2^25] takes 2^26 + 2 bits, just past the cap; an uncapped box
        # would decode the stage <2, 3, 4> there, about 2^25 points
        with pytest.raises(BudgetExceeded):
            prop79_check((3,), [(2,), (4,)], 0, (2**25,))

    def test_antichain_rejected(self):
        with pytest.raises(HypothesisFailed) as err:
            prop79_check((1, 1), [(1, 0), (0, 1)], 0)
        assert err.value.which == "chain"

    def test_pair_domination_rejected(self):
        with pytest.raises(HypothesisFailed) as err:
            prop79_check((4,), [(2,), (4,), (6,)], 0)
        assert err.value.which == "pair-domination"


@st.composite
def chain_candidates(draw):
    """Generator lists in d = 1..3: a chain of points climbing by random
    steps, sometimes with one coordinate redrawn, in random order."""
    d = draw(st.integers(1, 3))
    point = draw(st.lists(st.integers(0, 6), min_size=d, max_size=d))
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        gens.append(tuple(point))
        step = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d))
        point = [v + s for v, s in zip(point, step)]
    if gens and draw(st.booleans()):
        k, j = draw(st.integers(0, len(gens) - 1)), draw(st.integers(0, d - 1))
        g = list(gens[k])
        g[j] = draw(st.integers(0, 12))
        gens[k] = tuple(g)
    return draw(st.permutations(gens))


def chain_failure_by_loops(gens):
    """The failed hypothesis, or None, with every pair sum checked against
    every generator."""
    leq = lambda p, q: all(a <= b for a, b in zip(p, q))
    ordered = sorted(gens, key=lambda g: (sum(g), g))
    if not gens or not all(leq(u, v) for u, v in zip(ordered, ordered[1:])):
        return "chain"
    for low in gens:
        for i in gens:
            for j in gens:
                if not leq(low, [a + b for a, b in zip(i, j)]):
                    return "pair-domination"
    return None


class TestChainHypotheses:
    @settings(max_examples=300, deadline=None)
    @given(chain_candidates())
    def test_matches_the_triple_loop(self, gens):
        expected = chain_failure_by_loops(gens)
        try:
            assert arf._check_chain_hypotheses(gens) == list(gens)
            failed = None
        except HypothesisFailed as err:
            failed = err.which
        assert failed == expected


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
