import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closure_in_box,
    enumerate_box,
    enumerate_preceding,
    reduction_loop_member,
    smallest_pivot_hnf,
    smallest_pivot_meet,
)
from csemigroups.errors import DimensionMismatch, OrderNotPredecessorFinite
from csemigroups.lattice import (
    GRLEX,
    LEX,
    TermOrder,
    _Box,
    _generated,
    add,
    count_preceding,
    grlex_sorted,
    hermite_normal_form,
    lattice_from,
    lattice_intersect,
    partial_leq,
    scale,
)

points2 = st.tuples(st.integers(0, 30), st.integers(0, 30))


@st.composite
def generating_sets(draw, dimension):
    """0..8 vectors of Z^dimension: entries up to 3, 10^3 or 10^30 in size,
    zero vectors, and integer combinations of the vectors drawn before."""
    rows = []
    for kind in draw(st.lists(st.sampled_from(("entries", "zero", "combination")), max_size=8)):
        if kind == "zero":
            rows.append((0,) * dimension)
        elif kind == "combination" and rows:
            ks = draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
            rows.append(tuple(sum(k * row[j] for k, row in zip(ks, rows)) for j in range(dimension)))
        else:
            bound = draw(st.sampled_from((3, 10**3, 10**30)))
            entries = st.integers(-bound, bound)
            rows.append(tuple(draw(st.lists(entries, min_size=dimension, max_size=dimension))))
    return rows


def assert_canonical(basis, dimension):
    """Nonzero rows of length ``dimension`` whose positive pivots move
    right, with zeros below each pivot and entries above it in [0, pivot)."""
    pivots = [next(c for c, v in enumerate(row) if v) for row in basis]
    assert all(len(row) == dimension for row in basis)
    assert pivots == sorted(set(pivots))
    for r, (row, c) in enumerate(zip(basis, pivots)):
        assert row[c] > 0
        assert all(other[c] == 0 for other in basis[r + 1:])
        assert all(0 <= other[c] < row[c] for other in basis[:r])


class TestPartialOrder:
    def test_paper_instance(self):
        assert partial_leq((1, 3), (2, 8))
        assert partial_leq((1, 4), (2, 8))

    def test_reflexive(self):
        assert partial_leq((5, 0), (5, 0))

    def test_first_coordinate_fails(self):
        assert not partial_leq((2, 0), (1, 5))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_leq((1, 2), (1, 2, 3))

    @given(points2, points2)
    def test_antisymmetry(self, p, q):
        if partial_leq(p, q) and partial_leq(q, p):
            assert p == q


class TestTermOrder:
    def test_grlex_degree_first(self):
        assert GRLEX.key((2, 8)) > GRLEX.key((1, 4))
        assert GRLEX.key((3, 9)) > GRLEX.key((2, 6))

    def test_equal_iff_same(self):
        assert GRLEX.key((4, 4)) == GRLEX.key((4, 4))
        assert LEX.key((4, 4)) == LEX.key((4, 4))
        assert GRLEX.key((4, 4)) != GRLEX.key((3, 5))

    def test_grlex_ties_by_first_coordinate(self):
        # matches the worked sporadic set: (2,10) precedes (3,9) at equal degree
        assert GRLEX.key((2, 10)) < GRLEX.key((3, 9))
        assert GRLEX.key((0, 12)) < GRLEX.key((3, 9))

    def test_permutation(self):
        swapped = TermOrder("grlex", (1, 0))
        assert swapped.key((2, 10)) > swapped.key((3, 9))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            TermOrder("weight")

    def test_key_permutation_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            TermOrder("lex", (0, 1)).key((1, 2, 3))

    @given(points2, points2, points2)
    def test_translation_invariance_grlex(self, p, q, r):
        p_r = tuple(a + b for a, b in zip(p, r))
        q_r = tuple(a + b for a, b in zip(q, r))
        assert (GRLEX.key(p) < GRLEX.key(q)) == (GRLEX.key(p_r) < GRLEX.key(q_r))
        assert (GRLEX.key(p) == GRLEX.key(q)) == (GRLEX.key(p_r) == GRLEX.key(q_r))

    @given(points2, points2, points2)
    def test_translation_invariance_lex(self, p, q, r):
        p_r = tuple(a + b for a, b in zip(p, r))
        q_r = tuple(a + b for a, b in zip(q, r))
        assert (LEX.key(p) < LEX.key(q)) == (LEX.key(p_r) < LEX.key(q_r))
        assert (LEX.key(p) == LEX.key(q)) == (LEX.key(p_r) == LEX.key(q_r))

    def test_json_round_trip(self):
        order = TermOrder("grlex", (1, 0))
        assert order.to_json() == {"kind": "grlex", "perm": [1, 0]}
        assert TermOrder(**order.to_json()) == order
        assert GRLEX.to_json() == {"kind": "grlex"}


class TestEnumerateBox:
    def test_two_by_two(self):
        assert set(enumerate_box((0, 0), (1, 1))) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_singleton(self):
        assert list(enumerate_box((3, 4), (3, 4))) == [(3, 4)]

    def test_cardinality(self):
        assert len(list(enumerate_box((0, 0), (2, 1)))) == 6

    def test_each_point_once(self):
        pts = list(enumerate_box((0, 1), (2, 3)))
        assert len(pts) == len(set(pts))

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            enumerate_box((1, 0), (0, 5))


def brute_preceding(order, p):
    # grlex predecessors never exceed the degree of p, so the box suffices
    deg = sum(p)
    return {
        q
        for q in itertools.product(range(deg + 1), repeat=len(p))
        if sum(q) <= deg and order.key(q) < order.key(p)
    }


class TestEnumeratePreceding:
    def test_unit_point(self):
        assert set(enumerate_preceding(GRLEX, (1, 0))) == {(0, 0), (0, 1)}

    def test_minimum_has_no_predecessors(self):
        assert list(enumerate_preceding(GRLEX, (0, 0))) == []

    def test_lex_d1_is_initial_segment(self):
        assert list(enumerate_preceding(LEX, (4,))) == [(0,), (1,), (2,), (3,)]

    def test_lex_d2_rejected(self):
        with pytest.raises(OrderNotPredecessorFinite):
            enumerate_preceding(LEX, (1, 1))

    @pytest.mark.parametrize("p", [(3, 9), (5, 5), (12, 0), (0, 12)])
    def test_counts_match_brute_force_d2(self, p):
        got = list(enumerate_preceding(GRLEX, p))
        assert len(got) == len(set(got))
        assert set(got) == brute_preceding(GRLEX, p)

    @pytest.mark.parametrize("p", [(2, 3, 1), (0, 0, 5), (4, 0, 4)])
    def test_counts_match_brute_force_d3(self, p):
        assert set(enumerate_preceding(GRLEX, p)) == brute_preceding(GRLEX, p)


class TestLattice:
    def test_spans_plane(self):
        lat = lattice_from([(1, 0), (1, 1), (0, 3)])
        assert lat.rank == 2
        assert reduction_loop_member(lat.basis, (0, 1))

    def test_one_dimensional_intersection_is_lcm(self):
        meet = lattice_intersect(lattice_from([(2,)]), lattice_from([(7,)]))
        assert meet.basis == ((14,),)

    def test_zero_vector_everywhere(self):
        lat = lattice_from([(4, 6), (10, 2)])
        assert reduction_loop_member(lat.basis, (0, 0))

    def test_membership_even_sum_lattice(self):
        lat = lattice_from([(2, 0), (0, 2), (1, 1)])
        assert reduction_loop_member(lat.basis, (3, 5))
        assert not reduction_loop_member(lat.basis, (1, 0))
        assert not reduction_loop_member(lat.basis, (2, 1))

    def test_basis_stable_under_regeneration(self):
        base = [(2, 3, 1), (0, 4, 2), (6, 0, 0)]
        alt = base + [
            tuple(a + b for a, b in zip(base[0], base[1])),
            tuple(2 * a for a in base[2]),
        ]
        random.Random(7).shuffle(alt)
        assert lattice_from(base, 3).basis == lattice_from(alt, 3).basis

    def test_negative_entries(self):
        lat = lattice_from([(1, -1)])
        assert reduction_loop_member(lat.basis, (-3, 3))
        assert not reduction_loop_member(lat.basis, (1, 1))

    @settings(max_examples=40)
    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
                 min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
                 min_size=1, max_size=3),
    )
    def test_intersection_members_on_sample_box(self, v1, v2):
        l1 = lattice_from(v1, 3)
        l2 = lattice_from(v2, 3)
        meet = lattice_intersect(l1, l2)
        rng = random.Random(11)
        samples = [tuple(rng.randint(-20, 20) for _ in range(3)) for _ in range(60)]
        # uniform points rarely lie in both lattices; points of l1 often do
        for _ in range(60):
            p = (0, 0, 0)
            for row in l1.basis:
                p = add(p, scale(rng.randint(-6, 6), row))
            samples.append(p)
        for p in samples:
            assert reduction_loop_member(meet.basis, p) == (
                reduction_loop_member(l1.basis, p) and reduction_loop_member(l2.basis, p)
            )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), generating_sets(d))))
    def test_hnf_matches_smallest_pivot_oracle(self, drawn):
        d, vectors = drawn
        basis = hermite_normal_form(vectors, d)
        assert basis == smallest_pivot_hnf(vectors, d)
        assert_canonical(basis, d)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), generating_sets(d), generating_sets(d))))
    def test_intersection_matches_smallest_pivot_oracle(self, drawn):
        d, v1, v2 = drawn
        l1, l2 = lattice_from(v1, d), lattice_from(v2, d)
        meet = lattice_intersect(l1, l2).basis
        assert meet == smallest_pivot_meet(l1.basis, l2.basis, d)
        assert_canonical(meet, d)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), generating_sets(d))),
        st.lists(st.integers(-6, 6), min_size=8, max_size=8),
    )
    def test_member_matches_reduction_loop_oracle(self, drawn, ks):
        # a combination of the vectors lies in the lattice their HNF basis
        # spans, by the reduction loop
        d, vectors = drawn
        lat = lattice_from(vectors, d)
        p = tuple(sum(k * v[j] for k, v in zip(ks, vectors)) for j in range(d))
        assert reduction_loop_member(lat.basis, p)

    @pytest.mark.parametrize(
        "v1,v2",
        [
            ([], [(1, 0), (0, 1)]),
            ([(2, 3), (1, 1)], []),
            ([], []),
        ],
    )
    def test_intersection_with_the_zero_lattice(self, v1, v2):
        meet = lattice_intersect(lattice_from(v1, 2), lattice_from(v2, 2))
        assert (meet.dimension, meet.basis) == (2, ())

    def test_intersection_with_rank_deficient_side(self):
        # three generators of the line through (2, 2, 0): Z x Z x 3Z holds
        # all of it, 3Z x Z x 0 only its multiples of (6, 6, 0)
        plane = lattice_from([(1, 0, 0), (0, 1, 0), (0, 0, 3)])
        line = lattice_from([(2, 2, 0), (4, 4, 0), (-2, -2, 0)])
        assert line.rank == 1
        assert lattice_intersect(plane, line).basis == ((2, 2, 0),)
        assert lattice_intersect(line, plane).basis == ((2, 2, 0),)
        coarse = lattice_from([(3, 0, 0), (0, 1, 0)])
        assert lattice_intersect(coarse, line).basis == ((6, 6, 0),)

    def test_hnf_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hermite_normal_form([(1, 2)], 3)

    def test_empty_generating_set_needs_a_dimension(self):
        with pytest.raises(ValueError):
            lattice_from([])

    def test_intersection_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lattice_intersect(lattice_from([(2,)]), lattice_from([(1, 0)]))


class TestBox:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_full_is_every_point(self, d):
        for extent in itertools.product(range(1, 5), repeat=d):
            box = _Box(extent)
            every = itertools.product(*(range(e) for e in extent))
            assert box.full == box.mask(list(zip(*every))), extent

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_below_is_the_down_set(self, d):
        for extent in itertools.product(range(1, 5), repeat=d):
            box = _Box(extent)
            for p in itertools.product(*(range(e) for e in extent)):
                down = itertools.product(*(range(v + 1) for v in p))
                assert box.below(p) == box.mask(list(zip(*down))), (extent, p)
        # the conductor of no gaps is 0, and the box below it is empty
        assert _Box((2,) * d).below((-1,) * d) == 0

    @staticmethod
    def _check_fit(extent, points):
        c, box, mask = _Box(extent).fit(_Box(extent).mask(list(zip(*points))))
        d = len(extent)
        expected = tuple(1 + max(p[i] for p in points) for i in range(d)) if points else (0,) * d
        assert c == expected
        assert box.extent == tuple(2 * max(v, 1) for v in expected)
        assert mask == box.mask(list(zip(*points)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fit_moves_points_into_the_conductor_box(self, data):
        d = data.draw(st.integers(1, 3))
        extent = data.draw(st.tuples(*[st.integers(1, 7)] * d))
        every = list(itertools.product(*(range(e) for e in extent)))
        self._check_fit(extent, data.draw(st.sets(st.sampled_from(every))))

    @pytest.mark.parametrize("extent", [(1,), (9,), (3, 1), (1, 4), (2, 5, 3), (1, 1, 1)])
    def test_fit_empty_and_far_corner(self, extent):
        self._check_fit(extent, set())
        self._check_fit(extent, {tuple(e - 1 for e in extent)})

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_points_matches_point_per_index(self, data):
        # bits past the box decode the same way: coordinate 0 past its
        # extent, or another coordinate in the padding of its row
        d = data.draw(st.integers(1, 4))
        box = _Box(data.draw(st.tuples(*[st.integers(1, 5)] * d)))
        mask = data.draw(st.integers(0, 4 * box.full))
        if data.draw(st.booleans()):
            mask &= box.full
        expected = [box.point(i) for i in range(mask.bit_length()) if mask >> i & 1]
        assert box.points(mask) == expected


class TestGrlexSorted:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(-3, 6)] * d), max_size=30)
        )
    )
    def test_matches_grlex_key(self, points):
        assert grlex_sorted(points) == sorted(points, key=GRLEX.key)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mask_points_need_only_the_degree(self, data):
        # the points of a box mask decode in lex order
        d = data.draw(st.integers(1, 4))
        box = _Box(data.draw(st.tuples(*[st.integers(1, 5)] * d)))
        mask = data.draw(st.integers(0, box.full)) & box.full
        assert box.grlex_points(mask) == sorted(box.points(mask), key=GRLEX.key)


class CountingFull(int):
    """A box's ``full`` mask that counts the ANDs taken with it: the
    reflected AND of an int subclass runs before int's own."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.ands = 0
        return self

    def __rand__(self, other):
        self.ands += 1
        return int(self) & other


class TestGenerated:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_closure(self, data):
        d = data.draw(st.integers(1, 3))
        extent = data.draw(st.tuples(*[st.integers(1, (40, 9, 5)[d - 1])] * d))
        # entries up to twice the extent, so some generators lie outside
        # the box, and some rows past it would alias without the limit
        point = st.tuples(*[st.integers(0, 2 * e) for e in extent]).filter(any)
        gens = data.draw(st.lists(point, min_size=1, max_size=5))
        # redundant members: sums of two listed generators
        gens += [tuple(map(sum, zip(g, h))) for g, h in data.draw(
            st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)), max_size=3)
        )]
        gens = data.draw(st.permutations(gens))
        box = _Box(extent)
        members = closure_in_box(gens, [e - 1 for e in extent])
        assert _generated(box, gens) == box.mask(list(zip(*members)))
        # in grlex order the generators that shift are the minimal ones
        # inside the box: no sum of the other generators
        listed, kept = grlex_sorted(set(gens)), []
        assert _generated(box, listed, kept) == box.mask(list(zip(*members)))
        assert kept == [
            g
            for g in listed
            if all(map(operator.lt, g, extent))
            and g not in closure_in_box([h for h in listed if h != g], g)
        ]

    def test_multiples_stop_at_the_box_edge(self):
        # 2 * (0, 4) leaves the box; shifted onto (0, 4) it would carry
        # into the row x_0 = 1 as (1, 2)
        box = _Box((3, 5))
        assert box.points(_generated(box, [(0, 4), (0, 3)])) == [(0, 0), (0, 3), (0, 4)]

    @pytest.mark.parametrize(
        "extent,gens",
        [
            # the zero coordinate on the axis of extent 1 must not cap the
            # multiples of (2, 3, 0) at 1: (4, 6, 0) is a member
            ((6, 7, 1), [(2, 3, 0)]),
            ((6, 7, 1), [(2, 3, 0), (2, 6, 9), (4, 1, 1), (4, 2, 0), (4, 4, 11)]),
            ((9,), [(4,), (3,), (12,)]),
            ((1,), [(1,)]),
            # outside the box on one axis only
            ((3, 5), [(0, 9), (1, 2), (0, 2)]),
            # every generator outside the box, or none: the mask is 1
            ((3, 5), [(0, 9)]),
            ((3, 5), [(3, 0), (0, 5), (4, 1)]),
            ((4,), [(4,), (9,)]),
            ((2, 2, 2), []),
        ],
    )
    def test_edge_cases_match_closure(self, extent, gens):
        box = _Box(extent)
        assert _generated(box, gens) == box.mask(list(zip(*closure_in_box(gens, [e - 1 for e in extent]))))

    @pytest.mark.parametrize(
        "extent,gens,extra",
        [
            ((30,), [(4,), (7,)], (11,)),
            ((12, 12), [(3, 0), (0, 2), (1, 1)], (4, 1)),
            ((12, 12), [(3, 0), (0, 2), (1, 1)], (3, 0)),
            ((5, 6, 7), [(1, 0, 0), (0, 2, 0), (0, 0, 3)], (1, 2, 3)),
        ],
    )
    def test_member_generator_costs_no_shift(self, extent, gens, extra):
        counts = []
        for listed in (gens, gens + [extra]):
            box = _Box(extent)
            box.full = CountingFull(box.full)
            counts.append((_generated(box, listed), box.full.ands))
        assert counts[0] == counts[1] and counts[0][1] > 0


class TestCountPreceding:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_enumeration(self, data):
        d = data.draw(st.integers(1, 4))
        p = data.draw(st.tuples(*[st.integers(0, (40, 12, 7, 5)[d - 1])] * d))
        perm = data.draw(st.none() | st.permutations(range(d)))
        for kind in ("grlex", "lex") if d == 1 else ("grlex",):
            order = TermOrder(kind, perm)
            assert count_preceding(order, p) == sum(1 for _ in enumerate_preceding(order, p))

    def test_lex_rejected_in_dimension_two(self):
        with pytest.raises(OrderNotPredecessorFinite):
            count_preceding(LEX, (1, 2))
