import pytest

import math
import operator
import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_PAPER_GENS,
    GENS_S2,
    GENS_S3,
    GENS_SAP31,
    SIMPLICIAL_SAMPLE,
    box_points,
    closure_in_box,
    finite_gap_sets,
    frobenius_tree,
    full_cone_lists,
    gap_universe,
    mask_to_points,
    whole_box_closure_pass,
)
from csemigroups.arf import arf_derived, is_arf
from csemigroups.conjectures import buchsbaum_report, wilf_report
from csemigroups.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InfiniteGaps,
    NotClosed,
    NotFullCone,
    NotNatural,
)
from csemigroups.frobenius import (
    apery,
    classify,
    frobenius_element,
    pseudo_frobenius,
)
from csemigroups import gapsemigroup
from csemigroups.gapsemigroup import (
    Budget,
    GapSemigroup,
    _axis_multiples,
    _tube_apery,
    from_gaps,
    from_generators,
)
from csemigroups.lattice import GRLEX, LEX, TermOrder, _Box, _closure_pass
from csemigroups.membership import AffineSemigroup, minimalize

S2_GAPS = {
    (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2),
    (1, 3), (2, 3), (2, 4), (2, 5), (2, 6),
}
S77_GAPS = {
    (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
    (4, 0), (4, 1), (4, 2), (7, 0), (7, 1), (7, 2),
}


class TestFromGaps:
    def test_two_gap_column(self):
        gs = from_gaps(2, [(1, 0), (1, 1)])
        # brute-force minimal generators of the complement agree with the
        # four-generator list; (2,1) = (0,1) + (2,0) is decomposable
        assert set(gs.hilbert_basis) == {(0, 1), (1, 2), (2, 0), (3, 0)}

    def test_brute_force_basis_oracle(self):
        gaps = {(1, 0), (1, 1)}
        member = lambda p: all(v >= 0 for v in p) and p not in gaps
        basis = []
        for p in box_points((8, 8)):
            if p == (0, 0) or not member(p):
                continue
            decomposable = any(
                q not in ((0, 0), p)
                and member(q)
                and member(tuple(a - b for a, b in zip(p, q)))
                and tuple(a - b for a, b in zip(p, q)) != (0, 0)
                for q in box_points(p)
            )
            if not decomposable:
                basis.append(p)
        assert set(basis) == set(from_gaps(2, gaps).hilbert_basis)

    def test_empty_gap_set_is_full_orthant(self):
        gs = from_gaps(2, [])
        assert gs.conductor == (0, 0)
        assert set(gs.hilbert_basis) == {(1, 0), (0, 1)}
        assert gs.genus == 0

    def test_forced_violation(self):
        with pytest.raises(NotClosed) as err:
            from_gaps(2, [(1, 1)])
        assert err.value.gap == (1, 1)

    def test_negative_gap(self):
        with pytest.raises(NotNatural):
            from_gaps(2, [(1, -1)])

    @pytest.mark.parametrize("d,gaps", [(0, [()]), (0, []), (-1, [])])
    def test_dimension_below_one(self, d, gaps):
        # checked before the points, as AffineSemigroup does
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            from_gaps(d, gaps)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(st.lists(st.integers(-2, 4), max_size=4).map(tuple), max_size=8),
    )
    def test_error_order_mixing_dimension_and_sign(self, d, gaps):
        # the first bad point in the gap set's iteration order names the
        # error, whether its dimension or its sign is wrong
        expected = None
        for g in frozenset(gaps):
            if len(g) != d:
                expected = DimensionMismatch, f"gap {g} in dimension {d}"
                break
            if any(v < 0 for v in g):
                expected = NotNatural, str(NotNatural(g))
                break
        try:
            from_gaps(d, gaps)
        except (DimensionMismatch, NotNatural) as exc:
            assert (type(exc), str(exc)) == expected
        except NotClosed:
            assert expected is None
        else:
            assert expected is None

    def test_zero_gap_rejected(self):
        with pytest.raises(NotClosed):
            from_gaps(2, [(0, 0), (0, 1)])

    def test_basis_regenerates_members(self):
        gs = from_gaps(2, [(1, 0), (1, 1)])
        regenerated = closure_in_box(gs.hilbert_basis, (9, 9))
        for p in box_points((6, 6)):
            assert (p in regenerated) == gs.contains(p)


def _brute_basis_and_pf(d, gaps):
    """Hilbert basis and PF set straight from their definitions.

    Generators are the nonzero members that are no sum of two nonzero
    members, searched in [0, 2c); PF holds the gaps f with f + s a member for
    every nonzero member s, and s beyond c adds a coordinate past every gap.
    """
    c = tuple(max([1] + [g[i] + 1 for g in gaps]) for i in range(d))
    member = lambda p: p not in gaps

    def decomposes(s):
        return any(
            any(x) and x != s and member(x) and member(tuple(a - b for a, b in zip(s, x)))
            for x in box_points(s)
        )

    basis = {
        s for s in box_points(tuple(2 * v - 1 for v in c))
        if any(s) and member(s) and not decomposes(s)
    }
    small = [s for s in box_points(tuple(v - 1 for v in c)) if any(s) and member(s)]
    pf = {f for f in gaps if all(member(tuple(a + b for a, b in zip(f, s))) for s in small)}
    return basis, pf


def _brute_derived_dset_sporadic(d, gaps):
    """Derived-monoid gaps, Buchsbaum D-set and grlex sporadic count straight
    from their definitions.

    A gap g leaves the derived monoid when g = y + z - x for members
    x <= y <= z, and then all three lie in [0, g]. The D-set holds the gaps
    g with g + 2r a member for two least pure axis members r. The sporadic
    members precede the grlex-largest gap F, so their degree is at most F's.
    """
    c = tuple(max([1] + [g[i] + 1 for g in gaps]) for i in range(d))
    member = lambda p: p not in gaps
    leq = lambda p, q: all(a <= b for a, b in zip(p, q))
    pts = [p for p in box_points(tuple(v - 1 for v in c)) if member(p)]
    reached = {
        tuple(b + e - a for a, b, e in zip(x, y, z))
        for x in pts for y in pts if leq(x, y) for z in pts if leq(y, z)
    }
    rays = []
    for i in range(d):
        k = 1
        while not member(tuple(k if j == i else 0 for j in range(d))):
            k += 1
        rays.append(tuple(2 * k if j == i else 0 for j in range(d)))
    d_set = {
        g for g in gaps
        if sum(member(tuple(a + b for a, b in zip(g, r))) for r in rays) >= 2
    }
    if not gaps:
        return gaps, d_set, None
    key = lambda p: (sum(p), p)
    F = max(gaps, key=key)
    sporadic = sum(
        1 for q in box_points((sum(F),) * d) if key(q) < key(F) and member(q)
    )
    return gaps - reached, d_set, sporadic


class TestClosurePass:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_validation_below_conductor_matches_whole_box(self, data):
        # random subsets of boxes in d = 1..3, most not closed, and closed
        # gap sets: the pass over [0, c) names the NotClosed of the pass
        # over [0, 2c), keeps the basis below c, and the basis read later
        # is the whole pass's
        if data.draw(st.integers(0, 2)):
            d = data.draw(st.integers(1, 3))
            extent = data.draw(st.lists(st.integers(1, (16, 6, 3)[d - 1]), min_size=d, max_size=d))
            box = _Box(extent)
            mask = data.draw(st.integers(0, box.full)) & box.full
            if data.draw(st.integers(0, 3)):
                mask &= ~1
        else:
            gs = data.draw(finite_gap_sets())
            d, box, mask = gs.dimension, gs.box, gs.gap_mask
        c, conductor_box, conductor_mask = box.fit(mask)
        try:
            expected = whole_box_closure_pass(conductor_box, conductor_mask)
        except NotClosed as exc:
            with pytest.raises(NotClosed) as err:
                GapSemigroup(box, mask)
            assert (err.value.gap, err.value.part) == (exc.gap, exc.part)
            return
        gs = GapSemigroup(box, mask)
        assert gs.dimension == d
        below_c = {b for b in expected if all(map(operator.lt, b, c))}
        assert set(gs.box.points(gs.low_basis)) == below_c
        assert gs.hilbert_basis == expected

    @pytest.mark.parametrize("extent", [(6,), (2, 4), (4, 2, 2)])
    def test_the_dimension_is_the_box_s(self, extent):
        box = _Box(extent)
        for mask in (0, box.mask([(1,) + (0,) * (len(extent) - 1)])):
            assert GapSemigroup(box, mask).dimension == len(box.extent) == len(extent)

    @pytest.mark.parametrize("bound", [(3, 3), (1, 1, 1), (10,)])
    def test_whole_universe(self, bound):
        # every subset of the box is accepted iff it is marked valid; the
        # rest fail with a genuine decomposition of one of their gaps
        points, valid = gap_universe(bound)
        valid = set(valid)
        d = len(bound)
        for mask in range(1 << len(points)):
            gaps = mask_to_points(points, mask)
            if mask in valid:
                gs = from_gaps(d, gaps)
                basis, pf = _brute_basis_and_pf(d, gaps)
                assert set(gs.hilbert_basis) == basis, sorted(gaps)
                assert set(pseudo_frobenius(gs)) == pf, sorted(gaps)
                derived, d_set, sporadic = _brute_derived_dset_sporadic(d, gaps)
                assert arf_derived(gs).gaps == derived, sorted(gaps)
                assert is_arf(gs) == (derived == gaps), sorted(gaps)
                if gaps:
                    assert wilf_report(gs).sporadic == sporadic, sorted(gaps)
                    perm = tuple(reversed(range(d)))
                    for order in (GRLEX, LEX, TermOrder("lex", perm)):
                        assert frobenius_element(gs, order) == max(gaps, key=order.key), sorted(gaps)
                if gaps and d >= 2:
                    assert set(buchsbaum_report(gs).d_set) == d_set, sorted(gaps)
                continue
            with pytest.raises(NotClosed) as err:
                from_gaps(d, gaps)
            gap, part = err.value.gap, err.value.part
            rest = tuple(a - b for a, b in zip(gap, part))
            assert gap in gaps
            for x in (part, rest):
                assert any(x) and min(x) >= 0 and x not in gaps

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_padded_generators_match_closure_oracle(self, data):
        bound = data.draw(st.sampled_from([(3, 3), (1, 1, 1), (2, 1, 1)]))
        points, valid = gap_universe(bound)
        gaps = mask_to_points(points, data.draw(st.sampled_from(valid)))
        d = len(bound)
        basis, _ = _brute_basis_and_pf(d, gaps)
        c = tuple(max([1] + [g[i] + 1 for g in gaps]) for i in range(d))
        window = tuple(2 * v for v in c)
        members = [p for p in box_points(window) if any(p) and p not in gaps]
        padding = data.draw(st.lists(st.sampled_from(members), max_size=6))
        gens = data.draw(st.permutations(sorted(basis) + padding))
        gs = from_generators(gens)
        closure = closure_in_box(gens, window)
        assert gs.gaps == {p for p in box_points(window) if p not in closure}
        rays = [b for b in basis if sum(1 for v in b if v) == 1]
        witnesses = rays + data.draw(st.lists(st.sampled_from(members), max_size=2))
        hi = tuple(max(a[j] for a in witnesses) + c[j] + 2 for j in range(d))
        member = lambda p: min(p) >= 0 and p not in gaps
        brute = {
            b for b in box_points(hi)
            if member(b)
            and not any(member(tuple(x - y for x, y in zip(b, a))) for a in witnesses)
        }
        assert set(apery(gs, witnesses)) == brute


class TestFromGenerators:
    def test_worked_eleven_gap_example(self, s2):
        assert s2.gaps == frozenset(S2_GAPS)
        assert s2.conductor == (3, 7)

    def test_buchsbaum_example_gaps(self, s3):
        assert s3.gaps == frozenset({(0, 1), (0, 2)})

    def test_contains_point_of_wrong_dimension(self, s3):
        with pytest.raises(DimensionMismatch):
            s3.contains((1, 2, 3))

    def test_family_member_has_infinite_gaps(self):
        with pytest.raises(InfiniteGaps) as err:
            from_generators(AffineSemigroup(2, GENS_SAP31))
        assert err.value.axis in (0, 1)

    def test_numerical(self):
        gs = from_generators(AffineSemigroup(1, [(4,), (6,), (9,)]))
        assert gs.gaps == frozenset({(1,), (2,), (3,), (5,), (7,), (11,)})
        assert gs.conductor == (12,)

    def test_numerical_gcd_two(self):
        with pytest.raises(InfiniteGaps):
            from_generators(AffineSemigroup(1, [(4,), (6,)]))

    def test_not_full_cone(self):
        with pytest.raises(NotFullCone) as err:
            from_generators(AffineSemigroup(2, [(2, 0)]))
        assert err.value.axis == 1

    def test_missing_slice_is_infinite(self):
        # only x-multiples of 3 exist, so column 1 never meets the semigroup
        with pytest.raises(InfiniteGaps):
            from_generators(AffineSemigroup(2, [(3, 0), (0, 1), (3, 1)]))

    def test_arf_example_gaps(self, s77):
        assert s77.gaps == frozenset(S77_GAPS)

    def test_full_orthant(self):
        gs = from_generators(AffineSemigroup(2, [(1, 0), (0, 1)]))
        assert gs.genus == 0 and gs.conductor == (0, 0)

    def test_budget_exceeded_is_honest(self):
        # the largest box S2 needs holds 45 points
        with pytest.raises(BudgetExceeded):
            from_generators(AffineSemigroup(2, GENS_S2), budget=Budget(max_work=44))
        assert from_generators(GENS_S2, budget=Budget(max_work=45)).genus == 11

    def test_accepts_raw_point_list(self):
        assert from_generators(GENS_S3).genus == 2

    def test_three_dimensional_round_trip(self):
        target = from_gaps(3, [(1, 0, 0)])
        rebuilt = from_generators(AffineSemigroup(3, target.hilbert_basis))
        assert rebuilt.gaps == frozenset({(1, 0, 0)})
        assert set(rebuilt.hilbert_basis) == set(target.hilbert_basis)

    def test_three_dimensional_deeper_gap_set(self):
        target = from_gaps(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
        rebuilt = from_generators(AffineSemigroup(3, target.hilbert_basis))
        assert rebuilt == target

    def test_three_dimensional_infinite(self):
        # the even sublattice plus one diagonal leaves whole parity classes out
        with pytest.raises(InfiniteGaps):
            from_generators(AffineSemigroup(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]))

    FACE = "the axis-free face already has infinitely many gaps"

    # (gens, axis, level, detail): lists with infinitely many gaps and the
    # slice that names them
    WITNESSES = [
        ([(0, 5), (1, 0), (7, 0)], 0, 0, FACE),
        # row y = 0 holds only multiples of 6: the gap line runs along axis 0
        ([(6, 0), (0, 1), (1, 2), (1, 7)], 1, 0, FACE),
        # lines along axis 1 at x_0 = 0 and along axis 2 at x_0 = 1: the lower wins
        ([(0, 0, 2), (0, 0, 3), (0, 1, 0), (7, 0, 0)], 0, 0, FACE),
        ([(0, 1), (4, 0)], 0, 1, "no generator combination reaches this slice"),
        # the whole tube along axis 1 would pass the default budget; the
        # slice x_0 = 1, or the face x_0 = 0, decides
        ([(3000, 0), (0, 1), (2, 5)], 0, 1, "no generator combination reaches this slice"),
        ([(2000, 0), (0, 2000), (1, 1), (1, 2)], 0, 0, FACE),
        # a tube of the whole list would pass the default budget; the
        # face x_0 = 0, and its own face, decide
        ([(3000, 0, 0), (0, 3000, 0), (0, 0, 3000), (1, 1, 1)], 0, 0, FACE),
        (
            [(0, 0, 1), (0, 1, 0), (1, 1, 0), (2, 0, 2), (3, 0, 0), (4, 0, 0)],
            0,
            1,
            "no shift is supported on face coordinate 1 alone",
        ),
        # slice x_0 = 1 is reached only from (1, 0, 2) and (1, 3, 2), so
        # no member of it lies on the axes x_0 and x_1 alone
        (
            [(0, 0, 3), (0, 0, 4), (0, 1, 0), (0, 4, 0), (0, 4, 1), (1, 0, 2)]
            + [(1, 3, 2), (2, 0, 1), (3, 0, 0), (4, 0, 0), (4, 0, 3)],
            0,
            1,
            "no shift is supported on face coordinate 0 alone",
        ),
    ]

    @pytest.mark.parametrize("gens,axis,level,detail", WITNESSES)
    def test_infinite_gaps_witness(self, gens, axis, level, detail):
        with pytest.raises(InfiniteGaps) as err:
            from_generators(gens)
        assert (err.value.axis, err.value.level) == (axis, level)
        assert str(err.value).endswith(": " + detail)

    def test_budget_caps_the_box(self):
        # the Kunz table of <101, 103> ends at 10300, so with the largest
        # generator the box needs 10404 points: just over 103 multiples of 101
        gens = [(101,), (103,)]
        with pytest.raises(BudgetExceeded):
            from_generators(gens, budget=Budget(max_work=10403))
        # doubling from 404 would reach 12928; the cap clips it to what fits
        assert from_generators(gens, budget=Budget(max_work=10404)).genus == 5100
        # in d = 2 the tube along axis 0 is the same Kunz table, row y = 0;
        # the gap box it bounds with the tube along axis 1 is 10300 x 100
        gens = [(101, 0), (103, 0), (0, 1), (1, 1)]
        with pytest.raises(BudgetExceeded):
            from_generators(gens, budget=Budget(max_work=10300 * 100 - 1))
        assert from_generators(gens, budget=Budget(max_work=10300 * 100)).genus == 89675

    @pytest.mark.parametrize(
        "gens,gaps",
        [
            # a redundant generator far out is the Apery point of its class
            # plus multiples of the axis generator, so no tube has to reach it
            ([(2,), (3,), (200001,)], {(1,)}),
            ([(2, 0), (3, 0), (0, 1), (1, 1), (400001, 0)], {(1, 0)}),
            ([(2, 0), (3, 0), (0, 1), (1, 1), (1, 400001)], {(1, 0)}),
            # the Kunz table of <2, 200001> ends past 10^5 multiples of 2;
            # only the point count caps a box, in d = 1 and in d = 2
            ([(2,), (200001,)], {(x,) for x in range(1, 200000, 2)}),
            ([(2, 0), (0, 1), (1, 1), (200001, 0)], {(x, 0) for x in range(1, 200000, 2)}),
        ],
    )
    def test_far_generator(self, gens, gaps):
        assert from_generators(gens).gaps == frozenset(gaps)

    def test_budget_clips_the_tube_below_m(self):
        # a box of 4 points along the axis holds no point of 9's class mod 5
        with pytest.raises(BudgetExceeded):
            from_generators([(5,), (9,)], budget=Budget(max_work=4))
        # the Kunz table ends at 36, so with the step 9 the box needs 46
        with pytest.raises(BudgetExceeded):
            from_generators([(5,), (9,)], budget=Budget(max_work=45))
        assert from_generators([(5,), (9,)], budget=Budget(max_work=46)).genus == 16

    def test_budget_caps_the_gap_box(self):
        # each tube box takes 10 * 160 points, the gap box 108 * 108
        gens = [(10, 0), (11, 0), (0, 10), (0, 11), (1, 1)]
        with pytest.raises(BudgetExceeded):
            from_generators(gens, budget=Budget(max_work=10**4))
        assert from_generators(gens, budget=Budget(max_work=108 * 108)).genus == 1980

    def test_budget_between_the_first_two_boxes(self):
        # the Kunz table of <4, 6, 9> ends at 15, so with the step 9 the box
        # needs 25 points: more than 2m = 8 and 4m = 16, and the largest box
        # allowed, 24 or 25, is the last one tried from either start
        with pytest.raises(BudgetExceeded):
            from_generators([(4,), (6,), (9,)], budget=Budget(max_work=24))
        assert from_generators([(4,), (6,), (9,)], budget=Budget(max_work=25)).genus == 6

    @pytest.mark.parametrize(
        "gens,builds,genus",
        [
            # D_d(k): N^d minus every point of degree below k
            ([p for p in box_points((13, 13)) if 7 <= sum(p) <= 13], 1, 27),
            ([p for p in box_points((5, 5, 5)) if 3 <= sum(p) <= 5], 1, 9),
            ([(4,), (6,), (9,)], 4, 6),
        ],
    )
    def test_one_build_per_tube(self, gens, builds, genus, monkeypatch):
        # the mask of [0, 2m) certifies every axis of D_2(7) and D_3(3), so
        # it is their one build. No face tube is built: the slice tests run
        # only to name an infinite slice. <4, 6, 9> builds [0, 8) too, but
        # its gaps 5 and 7 lie past m, so it certifies nothing: its tube
        # needs 25 > 4m points and takes two, then the conductor box one
        calls = self.count_builds(monkeypatch)
        assert from_generators(gens).genus == genus
        assert len(calls) == builds

    @pytest.mark.parametrize(
        "gens,max_work,builds,tubes",
        [
            # s2: [0, 2m) certifies axis 0 only; the tube along axis 1
            # doubles from 4 to 16 rows, then the conductor box
            (GENS_S2, None, 5, [1]),
            # [0, 6) x [0, 6) is built, but its gaps (3, 1) and (1, 3) leave
            # both axes open (c = (5, 5) > m): one build more than the two
            # boxes per tube and the conductor box
            ([(3, 0), (4, 0), (5, 0), (0, 3), (0, 4), (0, 5), (1, 1)], None, 6, [0, 1]),
            # [0, 4) x [0, 4) is built, but the gaps (3, 1) and (1, 3)
            # leave both axes open: one build
            # more than the four tube boxes and the conductor box
            ([(0, 2), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0)], None, 6, [0, 1]),
            # D_2(7) one point below 4 prod(m): no [0, 2m), the tube route
            ([p for p in box_points((13, 13)) if 7 <= sum(p) <= 13], 4 * 49 - 1, 3, [0, 1]),
        ],
    )
    def test_tubes_only_off_the_certified_axes(self, gens, max_work, builds, tubes, monkeypatch):
        budget = Budget(max_work) if max_work else Budget()
        calls, axes = self.count_builds(monkeypatch), []
        real = gapsemigroup._tube_apery

        def counted(gens, extent, i, budget):
            axes.append(i)
            return real(gens, extent, i, budget)

        monkeypatch.setattr(gapsemigroup, "_tube_apery", counted)
        gs = from_generators(gens, budget)
        assert (len(calls), axes) == (builds, tubes)
        # the tube route alone gives the same answer
        monkeypatch.setattr(gapsemigroup, "_certificate", lambda *args: None)
        old = from_generators(gens, budget)
        assert (gs.conductor, gs.gap_mask, gs.hilbert_basis) == (
            old.conductor, old.gap_mask, old.hilbert_basis
        )

    @pytest.mark.parametrize(
        "gens",
        [
            [p for p in box_points((13, 13)) if 7 <= sum(p) <= 13],
            [p for p in box_points((5, 5, 5)) if 3 <= sum(p) <= 5],
            [p for p in box_points((7, 7, 7)) if 4 <= sum(p) <= 7],
            [(4,), (6,), (9,)],
        ]
        + [ALL_PAPER_GENS[name] for name in ("s2", "s3", "s4", "s5", "arf77")],
    )
    def test_finite_list_runs_no_slice_test(self, gens, monkeypatch):
        # the tubes' Ap counts alone show a finite gap set
        calls = self.count_slice_tests(monkeypatch)
        from_generators(gens)
        assert calls == []

    @pytest.mark.parametrize("gens", [gens for gens, *_ in WITNESSES])
    def test_infinite_list_runs_the_slice_tests(self, gens, monkeypatch):
        calls = self.count_slice_tests(monkeypatch)
        with pytest.raises(InfiniteGaps):
            from_generators(gens)
        assert calls

    @staticmethod
    def count_slice_tests(monkeypatch):
        calls = []
        real = gapsemigroup._check_finite

        def counted(gens, mult, budget):
            calls.append(mult)
            return real(gens, mult, budget)

        monkeypatch.setattr(gapsemigroup, "_check_finite", counted)
        return calls

    @staticmethod
    def count_builds(monkeypatch):
        calls = []
        real = gapsemigroup._generated

        def counted(box, gens, kept=None):
            calls.append(box.extent)
            return real(box, gens, kept)

        monkeypatch.setattr(gapsemigroup, "_generated", counted)
        return calls

    @pytest.mark.parametrize(
        "gens",
        [
            [(2000, 0), (0, 2000), (1, 1), (1, 2)],
            [(3000, 0, 0), (0, 3000, 0), (0, 0, 3000), (1, 1, 1)],
        ],
    )
    def test_infinite_face_builds_no_box(self, gens, monkeypatch):
        # the axis gcd, 2000 or 3000, is tested before any tube and calls
        # the slice tests, whose face x_0 = 0 ends in a d = 1 gcd; the tubes
        # of these lists would take up to the whole budget
        calls = self.count_builds(monkeypatch)
        with pytest.raises(InfiniteGaps) as err:
            from_generators(gens)
        assert (err.value.axis, err.value.level) == (0, 0)
        assert calls == []

    def test_tube_clipped_below_m_allocates_no_shift(self):
        # the budget clips the tube along axis 0 to one row of 3000 x 3000
        # points; shifting its mask by m = 3000 rows would take gigabytes
        gens = [(3000, 0, 0), (0, 3000, 0), (0, 0, 3000), (1, 1, 1)]
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                _tube_apery(gens, [3000] * 3, 0, Budget())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @staticmethod
    def slices_first(gens, budget):
        """Reference order: every slice test, then the tubes, whose Ap
        counts are not read, then the gap box."""
        d = len(gens[0])
        mult, _ = gapsemigroup._axis_multiples(gens, d)
        gapsemigroup._check_finite(gens, mult, budget)
        tubes = [_tube_apery(gens, mult, i, budget) for i in range(d)]
        extent = [max(1, box.top(ap)[i] - 1) for i, (box, ap) in enumerate(tubes)]
        if math.prod(extent) > budget.max_work:
            raise BudgetExceeded(f"the gap box {tuple(extent)} passes the budget")
        box = _Box(extent)
        return gapsemigroup.GapSemigroup(box, box.full & ~gapsemigroup._generated(box, gens))

    @settings(max_examples=300, deadline=None)
    @given(full_cone_lists(), st.sampled_from([4, 16, 64, 256, 4096, None]))
    def test_tube_counts_agree_with_the_slice_tests(self, case, max_work):
        d, gens = case
        budget = Budget(max_work) if max_work else Budget()

        def answer(build):
            try:
                gs = build(gens, budget)
            except (InfiniteGaps, BudgetExceeded) as err:
                return type(err), str(err)
            return gs.gap_mask, gs.conductor

        assert answer(from_generators) == answer(self.slices_first)
        # with every tube inside the budget, a full count on every tube is
        # the same as the slice tests passing
        mult, _ = gapsemigroup._axis_multiples(gens, d)
        try:
            counts = [_tube_apery(gens, mult, i, budget)[1].bit_count() for i in range(d)]
        except BudgetExceeded:
            return
        try:
            gapsemigroup._check_finite(gens, mult, budget)
        except BudgetExceeded:
            return
        except InfiniteGaps:
            assert min(counts) < math.prod(mult)
        else:
            assert counts == [math.prod(mult)] * d

    @settings(max_examples=300, deadline=None)
    @given(full_cone_lists(), st.sampled_from([4, 16, 64, 256, 4096, None]))
    def test_trusted_route_matches_the_validated_one(self, case, max_work):
        # from generators, one generated conductor box gives the gaps and
        # the basis; the validated route builds the gap box, validates its
        # gaps in the conductor box and finds the basis by a closure pass
        d, gens = case
        budget = Budget(max_work) if max_work else Budget()
        try:
            gs = from_generators(gens, budget)
        except (InfiniteGaps, BudgetExceeded):
            return
        old = self.slices_first(gens, budget)
        basis = _closure_pass(old.box, old.box.full & ~old.gap_mask, old.gap_mask)
        assert gs.gap_mask == old.gap_mask and gs.conductor == old.conductor
        assert gs.low_basis == old.low_basis
        assert gs.hilbert_basis == tuple(old.box.grlex_points(basis))

    @pytest.mark.parametrize(
        "gens,genus",
        [
            ([p for p in box_points((13, 13)) if 7 <= sum(p) <= 13], 27),
            ([(4,), (6,), (9,)], 6),
            # a long, thin conductor box, (400000, 2)
            ([(2, 0), (0, 1), (1, 1), (200001, 0)], 100000),
        ],
    )
    def test_no_closure_pass_and_no_row_move(self, gens, genus, monkeypatch):
        passes, moves = [], []
        real_pass, real_move = gapsemigroup._closure_pass, _Box.move

        def counted_pass(box, members, gap_mask):
            passes.append(box.extent)
            return real_pass(box, members, gap_mask)

        def counted_move(self, mask, box, c):
            moves.append(box.strides != self.strides)
            return real_move(self, mask, box, c)

        monkeypatch.setattr(gapsemigroup, "_closure_pass", counted_pass)
        monkeypatch.setattr(_Box, "move", counted_move)
        gs = from_generators(gens)
        assert gs.genus == genus and gs.hilbert_basis == minimalize(gens).generators
        assert passes == [] and True not in moves
        # the counters see the validated route
        from_gaps(len(gens[0]), gs.gaps)
        assert len(passes) == 1


class TestAxisMultiples:
    @staticmethod
    def per_point(points, d):
        """(mult, gcds) point by point: a point with one nonzero coordinate
        is pure on that axis, and updates its least value and its gcd."""
        mult, gcds = [0] * d, [0] * d
        for g in points:
            support = [i for i, v in enumerate(g) if v != 0]
            if len(support) == 1:
                i = support[0]
                if mult[i] == 0 or g[i] < mult[i]:
                    mult[i] = g[i]
                gcds[i] = math.gcd(gcds[i], g[i])
        return mult, gcds

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=8))
    ))
    def test_matches_the_per_point_definition(self, case):
        # small entries give repeated pure points, zero coordinates and the
        # zero point itself; in d = 1 every nonzero point is pure
        d, points = case
        assert _axis_multiples(points, d) == self.per_point(points, d)
        assert _axis_multiples(iter(points + points[::-1]), d) == self.per_point(points, d)


def seeded_lists(seed, count):
    """Full-cone lists in d = 1..3, most with infinitely many gaps: per axis
    a least pure generator m in 1..4 and either the whole run m..2m-1 (so
    ``_certificate`` may certify that axis) or m and a few pure multiples, plus
    up to three mixed points below 5."""
    rng = random.Random(seed)
    lists = []
    for _ in range(count):
        d = rng.randint(1, 3)
        gens = []
        for i in range(d):
            m = rng.randint(1, 4)
            run = range(m, 2 * m) if rng.randint(0, 1) else {m, *rng.sample(range(m, 3 * m), 2)}
            gens += [tuple(v if j == i else 0 for j in range(d)) for v in run]
        gens += [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(0, 3))]
        lists.append([g for g in gens if any(g)])
    return lists


class TestCertificate:
    """``from_generators`` with and without the [0, 2m) certificate: the
    same gap set, box and bases, or the same error, at every budget."""

    BUDGETS = [4, 30, 100, 1000, 10**7]

    @staticmethod
    def answer(gens, max_work):
        try:
            gs = from_generators(gens, Budget(max_work))
        except (InfiniteGaps, BudgetExceeded, AssertionError) as err:
            return type(err), str(err)
        return gs.conductor, gs.box.extent, gs.gap_mask, gs.hilbert_basis, gs.low_basis

    @pytest.mark.parametrize(
        "lists,certifies",
        [
            (lambda: [gs.hilbert_basis for level in frobenius_tree(2, 6) for gs in level], True),
            (lambda: [gs.hilbert_basis for level in frobenius_tree(3, 4) for gs in level], True),
            # one pure generator a >= 2 per axis: the axis gcd names a gap
            # line before any box is built
            (lambda: SIMPLICIAL_SAMPLE, False),
            (lambda: seeded_lists(29, 400), True),
        ],
        ids=["census d=2", "census d=3", "simplicial", "seeded"],
    )
    def test_matches_the_tube_route(self, lists, certifies, monkeypatch):
        cases = [(gens, w) for gens in lists() for w in self.BUDGETS]
        certified, real = [], gapsemigroup._certificate

        def counted(gens, mult, budget):
            certified.append(result := real(gens, mult, budget))
            return result

        monkeypatch.setattr(gapsemigroup, "_certificate", counted)
        on = [self.answer(gens, w) for gens, w in cases]
        monkeypatch.setattr(gapsemigroup, "_certificate", lambda *args: None)
        off = [self.answer(gens, w) for gens, w in cases]
        for case, a, b in zip(cases, on, off):
            assert a == b, case
        # the certificate's box was built
        assert any(certified) == certifies

    def test_box_exactly_when_the_budget_allows(self):
        # the generators do not decide whether B is built: only m and the
        # budget do, and B is then [0, 2m)
        census = [gs.hilbert_basis for d, g in ((2, 6), (3, 4)) for level in frobenius_tree(d, g)
                  for gs in level]
        for gens in census + seeded_lists(29, 400) + [[(4,), (6,), (9,)]]:
            d = len(gens[0])
            mult, _ = _axis_multiples(gens, d)
            for w in self.BUDGETS:
                certificate = gapsemigroup._certificate(gens, mult, Budget(w))
                fits = max(4, 2**d) * math.prod(mult) <= w
                assert (certificate is not None) == fits, (gens, w)
                if fits:
                    assert certificate[0].extent == tuple(2 * m for m in mult)


class TestAperyKernelOracle:
    @settings(max_examples=200, deadline=None)
    @given(full_cone_lists())
    def test_gaps_match_closure(self, case):
        d, gens = case
        try:
            gs = from_generators(gens)
        except InfiniteGaps as err:
            if d == 1:
                assert err.level is None
                assert math.gcd(*(v for v, in gens)) > 1
                return
            a, t = err.axis, err.level
            hi = ((15, 9)[d - 2],) * d
            assert 0 <= t <= hi[a]
            members = closure_in_box(gens, hi)
            mult = [min(g[i] for g in gens if sum(g) == g[i]) for i in range(d)]
            # a line of non-members in the slice {x_a = t}, parallel to an
            # axis i != a, from its residue to the edge of the window
            assert any(
                all(
                    q[:i] + (v,) + q[i + 1 :] not in members
                    for v in range(q[i], hi[i] + 1, mult[i])
                )
                for i in range(d)
                if i != a
                for q in box_points(hi)
                if q[a] == t and q[i] < mult[i]
            )
            return
        hi = tuple(2 * max(c, 1) for c in gs.conductor)
        members = closure_in_box(gens, hi)
        assert gs.gaps == {p for p in box_points(hi) if p not in members}

    @staticmethod
    def _check_tube(gens, extent, i):
        """The tube kernel's Ap mask against the Ap points of the closure,
        and its box against the stop test read off decoded points."""
        box, ap = _tube_apery(gens, extent, i, Budget())
        m = extent[i]

        def apery_points(top):
            hi = [x - 1 for x in extent]
            hi[i] = top
            members = closure_in_box(gens, hi)
            return {
                w
                for w in box_points(hi)
                if w in members and w[:i] + (w[i] - m,) + w[i + 1 :] not in members
            }

        # the window runs on to twice the tube box, so an Ap point the box
        # missed would show
        assert set(box.points(ap)) == apery_points(2 * box.extent[i])

        # the box is the first doubling from 4m that passes the stop test
        # on decoded points: per class mod the tube, its least member in the
        # box; a tube generator is a step if it is that member or its class
        # has none
        def stops(e):
            points = apery_points(e - 1)
            least = {tuple(map(operator.mod, w, extent)): w[i] for w in points}
            steps = [
                g[i]
                for g in gens
                if all(v < x for j, (v, x) in enumerate(zip(g, extent)) if j != i)
                and least.get(tuple(map(operator.mod, g, extent)), g[i]) == g[i]
            ]
            return max(w[i] for w in points) + max(steps, default=0) < e

        e = 4 * m
        while not stops(e):
            e *= 2
        assert box.extent[i] == e

    @settings(max_examples=200, deadline=None)
    @given(full_cone_lists().filter(lambda case: case[0] >= 2), st.data())
    def test_tube_apery_matches_closure(self, case, data):
        d, gens = case
        mult = [min(g[i] for g in gens if sum(g) == g[i]) for i in range(d)]
        i = data.draw(st.integers(0, d - 1))
        extent = list(mult)
        # the tubes of the finiteness test cut another axis to x_a <= 1
        cut = [a for a in range(d) if a != i and mult[a] > 1]
        if cut and data.draw(st.booleans()):
            extent[data.draw(st.sampled_from(cut))] = 2
        self._check_tube(gens, extent, i)

    @pytest.mark.parametrize(
        "gens,extent,i",
        [
            # a generator lies past the box, in a class whose Ap point is in
            # the box's top m rows: the top point of the class is a member,
            # so it is no step. The cross axis is wide enough for the
            # diagonal Ap points to reach those rows within the first box,
            # 4m on the tube axis
            ([(7, 0), (0, 2), (0, 4), (1, 1), (2, 6), (6, 12)], [7, 2], 1),
            ([(10, 0), (0, 3), (1, 1), (3, 6), (9, 63), (64, 3)], [10, 3], 1),
            ([(3, 0), (0, 10), (1, 1), (6, 3), (87, 9)], [3, 10], 0),
            ([(3, 0), (0, 20), (1, 1), (6, 3), (2, 5), (1, 5), (12, 19), (2, 180)], [3, 20], 0),
        ],
    )
    def test_tube_past_the_box(self, gens, extent, i):
        self._check_tube(gens, extent, i)
        box, ap = _tube_apery(gens, extent, i, Budget())
        e, m = box.extent[i], extent[i]
        assert e == 4 * m
        # in the tube, two points share a class iff they agree mod extent
        top_classes = {
            tuple(map(operator.mod, w, extent)) for w in box.points(ap) if w[i] >= e - m
        }
        assert any(
            g[i] >= e and tuple(map(operator.mod, g, extent)) in top_classes
            for g in gens
            if all(v < x for j, (v, x) in enumerate(zip(g, extent)) if j != i)
        )

    @pytest.mark.parametrize(
        "gens",
        [
            GENS_S2,
            [(1009,), (1013,)],
            [(0, 0, 1), (0, 1, 1), (0, 2, 0), (0, 3, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0), (3, 0, 0)],
            [(2, 0), (3, 0), (0, 1), (1, 1), (1, 400001)],
            [(6, 0), (0, 1), (1, 2), (1, 7)],
        ],
    )
    def test_no_ap_point_decoded(self, gens, monkeypatch):
        calls = []
        real = _Box.points

        def counted(self, mask):
            calls.append(mask)
            return real(self, mask)

        monkeypatch.setattr(_Box, "points", counted)
        try:
            gs = from_generators(gens)
        except InfiniteGaps:
            assert calls == []
            return
        assert calls == []
        gs.gaps
        assert calls == [gs.gap_mask]


class TestContains:
    def test_gap_not_member(self, s3):
        assert not s3.contains((0, 1))

    def test_conductor_is_member(self, s2):
        assert s2.contains(s2.conductor)

    def test_outside_orthant(self, s2):
        assert not s2.contains((-1, 0))

    def test_monotone_above_conductor(self, s2):
        c = s2.conductor
        for p in box_points((4, 4)):
            assert s2.contains(tuple(a + b for a, b in zip(c, p)))


class TestGenus:
    def test_worked_examples(self, s4, s5):
        assert s5.genus == 21
        assert s4.genus == 14

    def test_full_orthant_zero(self):
        assert from_gaps(3, []).genus == 0


class TestInvariants:
    @pytest.mark.parametrize("name", ["s2", "s3", "s4", "s5", "arf77"])
    def test_round_trip_member_predicate(self, name):
        gens = ALL_PAPER_GENS[name]
        sem = AffineSemigroup(2, gens)
        gs = from_generators(sem)
        rebuilt = from_gaps(2, gs.gaps)
        window = tuple(c + 5 for c in gs.conductor)
        for p in box_points(window):
            assert rebuilt.contains(p) == sem.is_member(p), p

    @pytest.mark.parametrize("name", ["s2", "s3", "s4", "s5", "arf77"])
    def test_hilbert_basis_equals_minimalized_input(self, name):
        gens = ALL_PAPER_GENS[name]
        gs = from_generators(AffineSemigroup(2, gens))
        assert set(gs.hilbert_basis) == set(minimalize(gens).generators)

    @pytest.mark.parametrize("name", ["s2", "s3", "s4", "s5", "arf77"])
    def test_complement_closure_revalidates(self, name):
        gs = from_generators(AffineSemigroup(2, ALL_PAPER_GENS[name]))
        assert from_gaps(gs.dimension, gs.gaps) == gs

    def test_every_gap_below_conductor_somewhere(self, s2):
        for g in s2.gaps:
            assert any(v < c for v, c in zip(g, s2.conductor))

    def test_randomized_round_trip_through_basis(self):
        # regenerate random valid gap sets from their own Hilbert basis: the
        # slice scan must reproduce the gap set exactly
        points, valid = gap_universe((3, 3))
        rng = random.Random(99)
        for mask in rng.sample(valid, 60):
            gs = from_gaps(2, mask_to_points(points, mask))
            rebuilt = from_generators(AffineSemigroup(2, gs.hilbert_basis))
            assert rebuilt == gs, sorted(gs.gaps)
            assert hash(rebuilt) == hash(gs), sorted(gs.gaps)

    def test_equality_and_hash(self):
        a = from_gaps(2, [(1, 0), (1, 1)])
        b = from_generators(AffineSemigroup(2, [(0, 1), (1, 2), (2, 0), (3, 0)]))
        assert a == b and hash(a) == hash(b)

    def test_mask_builders_decode_no_gap_points(self):
        # 510 048 gaps: the invariants, membership, the Apery set and the
        # equality read the mask alone
        gs = from_generators([(1009,), (1013,)])
        pseudo_frobenius(gs)
        classify(gs)
        assert gs.genus == 510048
        assert gs.contains((2022,)) and not gs.contains((2021,))
        assert gs.contains((1020096,)) and not gs.contains((1020095,))
        assert len(apery(gs, [(1009,)])) == 1009
        assert gs == from_generators([(1013,), (1009,)])
        hash(gs)
        assert gs._gaps is None
        derived = arf_derived(from_generators([(13,), (17,)]))
        assert derived._gaps is None and derived.genus == 41

    def test_json_round_trip(self, s2):
        data = s2.to_json()
        assert from_gaps(data["d"], [tuple(g) for g in data["gaps"]]) == s2


# the number of full-cone semigroups of each genus 0, 1, ...
CENSUS_COUNTS = {2: (1, 2, 7, 23, 71, 210, 638), 3: (1, 3, 15, 67, 292)}


class TestCensus:
    @pytest.mark.parametrize("d", sorted(CENSUS_COUNTS))
    def test_counts_by_genus(self, d):
        counts = CENSUS_COUNTS[d]
        levels = frobenius_tree(d, len(counts) - 1)
        assert tuple(map(len, levels)) == counts
        assert all(s.genus == g for g, level in enumerate(levels) for s in level)
        assert len({s for level in levels for s in level}) == sum(counts)

    @pytest.mark.parametrize("d", sorted(CENSUS_COUNTS))
    def test_round_trip_through_hilbert_basis(self, d):
        # every semigroup of the census: 952 in d = 2, 378 in d = 3
        for level in frobenius_tree(d, len(CENSUS_COUNTS[d]) - 1):
            for gs in level:
                assert from_generators(gs.hilbert_basis) == gs, gs
                assert minimalize(gs.hilbert_basis, d).generators == gs.hilbert_basis, gs
