"""Shared fixtures: worked example semigroups and independent oracles.

The oracles here deliberately avoid the library's own algorithms: membership
is forward closure from zero, gap sets come from window scans over that
closure, Arf witnesses are searched by raw triple loops, and the Hermite
normal form takes the smallest pivot, and the simplicial d = 2 oracle
(``simplicial_oracle``) reads Ap(S, E), PF and the Cohen-Macaulay and
Buchsbaum tests off sets of points. The census (``frobenius_tree``) is
built on the library's kernels and checked against known counts, and the
Arf oracles run the library's chain sums step by step: one validated
semigroup per derived step, and the derived stage in members form. The PI
verdict and the minimal generators have a membership call per pair or per
generator (``pair_loop_is_pi``, ``per_generator_minimalize``).
"""

import functools
import itertools
import random
import signal
import types
from math import prod

import pytest
from hypothesis import strategies as st

from csemigroups import AffineSemigroup, GapSemigroup, from_generators
from csemigroups.arf import PIStatus, _chain_sums
from csemigroups.errors import DimensionMismatch, NotClosed, OrderNotPredecessorFinite
from csemigroups.frobenius import frobenius_element
from csemigroups.lattice import GRLEX, _Box, _generated, partial_leq
from csemigroups.membership import MEMBER_BOX_BITS, multiplicity

# a test that runs longer fails, named, instead of hanging the suite;
# pytest --durations=10 shows how far below this the slowest tests stay
TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    """Arms a SIGALRM timer for each test, where the platform has one."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def overrun(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Worked example generator lists used across the suite.
GENS_S2 = [(0, 1), (3, 0), (4, 0), (1, 4), (5, 0), (2, 7)]
GENS_S3 = [(1, 0), (1, 1), (1, 2), (0, 3), (0, 4), (0, 5)]
GENS_S4 = [(0, 1), (3, 0), (4, 0), (1, 5), (5, 0), (2, 9)]
GENS_S5 = [(0, 1), (4, 0), (5, 0), (6, 0), (7, 0), (1, 4), (2, 7), (3, 10)]
GENS_ARF = [(0, 1), (3, 0), (5, 0), (1, 3), (2, 3)]
GENS_PI = [(6, 12), (8, 16), (9, 18), (10, 20), (11, 22), (13, 26)]
GENS_SAP31 = [(3, 0), (0, 3), (5, 2), (2, 5)]

ALL_PAPER_GENS = {
    "s2": GENS_S2,
    "s3": GENS_S3,
    "s4": GENS_S4,
    "s5": GENS_S5,
    "arf77": GENS_ARF,
    "pi": GENS_PI,
    "sap31": GENS_SAP31,
}


def closure_in_box(gens, hi):
    """Forward-closure membership oracle: all generator sums inside [0, hi]."""
    d = len(hi)
    members = {(0,) * d}
    frontier = [(0,) * d]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if all(x <= h for x, h in zip(q, hi)) and q not in members:
                    members.add(q)
                    nxt.append(q)
        frontier = nxt
    return members


def count_member_calls(monkeypatch):
    """Record every point handed to AffineSemigroup.is_member (``in`` too)."""
    calls = []
    real = AffineSemigroup.is_member

    def counted(self, p):
        calls.append(p)
        return real(self, p)

    monkeypatch.setattr(AffineSemigroup, "is_member", counted)
    return calls


def count_constructions(monkeypatch):
    """Record the dimension of every AffineSemigroup constructed."""
    calls = []
    real = AffineSemigroup.__init__

    def counted(self, dimension, generators):
        calls.append(dimension)
        real(self, dimension, generators)

    monkeypatch.setattr(AffineSemigroup, "__init__", counted)
    return calls


def pair_loop_is_pi(sem):
    """The PI verdict asked pair by pair: m in S, then each g + h - m for
    the generator pairs g <= h (the Hilbert basis in gap form), every one
    a membership call."""
    m, attained = multiplicity(sem)
    if not attained:
        return PIStatus(m, False, None)
    gens = sem.generators if isinstance(sem, AffineSemigroup) else sem.hilbert_basis
    for i, g in enumerate(gens):
        for h in gens[i:]:
            if tuple(a + b - c for a, b, c in zip(g, h, m)) not in sem:
                return PIStatus(m, True, False)
    return PIStatus(m, True, True)


def per_generator_minimalize(gens, dimension):
    """The inputs that are no sum of the other inputs below them, each asked
    as a membership call in the semigroup of those others."""
    gens = AffineSemigroup(dimension, gens).generators
    kept = []
    for g in gens:
        below = [h for h in gens if h != g and partial_leq(h, g)]
        if not below or g not in AffineSemigroup(dimension, below):
            kept.append(g)
    return AffineSemigroup(dimension, kept)


def enumerate_box(lo, hi):
    """All points lo <= p <= hi, in row-major order (last coordinate fastest)."""
    if len(lo) != len(hi):
        raise DimensionMismatch(f"dimension {len(lo)} vs {len(hi)}")
    if not partial_leq(lo, hi):
        raise ValueError(f"box is empty: {lo} is not below {hi}")
    return itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])


def compositions(total, parts):
    """All tuples in N^parts with coordinate sum ``total``, first coordinate ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_preceding(order, p):
    """All q in N^d with q strictly preceding p, each exactly once: the
    oracle of ``lattice.count_preceding``.

    Only defined for predecessor-finite orders (checked eagerly). For grlex
    the predecessors are every point of lower degree plus the lex-smaller
    points of equal degree; yielded degree by degree.
    """
    d = len(p)
    if not order.is_predecessor_finite(d):
        raise OrderNotPredecessorFinite(f"{order.kind} in dimension {d}")

    def generate():
        if d == 1:
            yield from ((v,) for v in range(p[0]))
            return
        deg = sum(p)
        for s in range(deg + 1):
            for q in compositions(s, d):
                if s < deg or order.key(q) < order.key(p):
                    yield q

    return generate()


def whole_box_closure_pass(box, gap_mask):
    """The Hilbert basis of the conductor box's members in graded-lex
    order, or NotClosed: one pass over the whole box [0, 2c), the oracle of
    the pass over [0, c) that validates a gap set."""
    if gap_mask & 1:
        raise NotClosed(box.point(0), box.point(0))
    members = box.full & ~gap_mask
    left = members & ~1
    basis = 0
    while left:
        low = left & -left
        i = low.bit_length() - 1
        sums = members << i
        clash = sums & gap_mask
        if clash:
            raise NotClosed(box.point((clash & -clash).bit_length() - 1), box.point(i))
        basis |= low
        left &= ~sums
    return tuple(sorted(box.points(basis), key=sum))


def smallest_pivot_reduce_rows(rows, ncols):
    """In-place row HNF of the first ``ncols`` columns by the smallest
    pivot, returning the rank: the oracle of ``lattice._reduce_rows``. Per
    column, the row with the least nonzero entry is swapped up and reduces
    the rows below, until they clear; then the pivot is made positive and
    the rows above are reduced into [0, pivot). Every step acts on whole
    rows, so columns past ``ncols`` follow along."""

    def combine(i, j, q):
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]

    m = len(rows)
    r = 0
    for c in range(ncols):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            done = True
            for i in range(r + 1, m):
                if rows[i][c] != 0:
                    combine(i, r, rows[i][c] // rows[r][c])
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if rows[r][c] == 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-v for v in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                combine(i, r, q)
        r += 1
    return r


def smallest_pivot_hnf(vectors, dimension):
    """The canonical row-HNF basis of the span of ``vectors``, by
    ``smallest_pivot_reduce_rows``."""
    rows = [list(v) for v in vectors]
    rank = smallest_pivot_reduce_rows(rows, dimension)
    return tuple(tuple(row) for row in rows[:rank])


def smallest_pivot_meet(basis1, basis2, dimension):
    """The canonical basis of the meet of two lattices given by HNF bases:
    the rows of basis1 (each doubled) and of -basis2 (each padded with
    zeros) reduced on the first ``dimension`` columns, then the HNF of the
    second halves of the rows that vanish there."""
    rows = [list(row) * 2 for row in basis1]
    rows += [[-v for v in row] + [0] * dimension for row in basis2]
    rank = smallest_pivot_reduce_rows(rows, dimension)
    return smallest_pivot_hnf([row[dimension:] for row in rows[rank:]], dimension)


def reduction_loop_member(basis, p):
    """p in the lattice of an HNF basis, by reducing p against the rows in
    turn: each pivot must divide what is left in its column, and nothing
    may be left at the end."""
    res = list(p)
    for row in basis:
        c = next(i for i, v in enumerate(row) if v != 0)
        q, rem = divmod(res[c], row[c])
        if rem:
            return False
        res = [a - q * b for a, b in zip(res, row)]
    return not any(res)


@functools.lru_cache(maxsize=None)
def frobenius_tree(dimension, max_genus):
    """Every full-cone semigroup of N^d of genus at most ``max_genus``, one
    tuple per genus, by the Frobenius tree: the root is N^d, and the
    children of S are S \\ {h} for each Hilbert-basis element h after the
    graded-lex Frobenius element F(S), so each semigroup appears exactly
    once. h lies below 2c, inside the box of S."""
    level = (GapSemigroup(_Box((2,) * dimension), 0),)
    levels = [level]
    for _ in range(max_genus):
        children = []
        for s in level:
            last = GRLEX.key(frobenius_element(s)) if s.gap_mask else None
            for h in s.hilbert_basis:
                if last is None or GRLEX.key(h) > last:
                    children.append(GapSemigroup(s.box, s.gap_mask | 1 << s.box.index(h)))
        level = tuple(children)
        levels.append(level)
    return tuple(levels)


def box_points(hi):
    return itertools.product(*[range(h + 1) for h in hi])


def census_windows():
    """(gs, points): every ``frobenius_tree`` semigroup up to genus 5 in
    d = 2 and up to genus 3 in d = 3, with the points of [-1, 2c]^d.
    Subtracting a member or a gap from these points lands both inside N^d
    and outside it."""
    for d, genus in ((2, 5), (3, 3)):
        for level in frobenius_tree(d, genus):
            for gs in level:
                yield gs, list(itertools.product(*[range(-1, 2 * c + 1) for c in gs.conductor]))


def in_gap_complement(gs, p):
    """p in S by the definition: a point of N^d that is not a gap."""
    return min(p) >= 0 and tuple(p) not in gs.gaps


def arf_violation(member, window):
    """Raw triple scan: a chain x <= y <= z of members with y+z-x outside."""
    pts = [p for p in box_points(window) if member(p)]
    for x in pts:
        for y in pts:
            if not all(a <= b for a, b in zip(x, y)):
                continue
            for z in pts:
                if not all(a <= b for a, b in zip(y, z)):
                    continue
                v = tuple(yi + zi - xi for xi, yi, zi in zip(x, y, z))
                if not member(v):
                    return (x, y, z)
    return None


def per_step_derived(gs):
    """The derived monoid of gs, built and validated as a semigroup: the
    gaps of the conductor box that no chain sum of its members reaches."""
    box, gaps = gs.box, gs.gap_mask
    left = gaps
    for sums in _chain_sums(box, box.full & ~gaps, [c - 1 for c in gs.conductor]):
        left &= ~sums
    return GapSemigroup(box, left)


def per_step_arf_closure(gs):
    """(closure, steps): ``per_step_derived`` until the genus stays, each
    step a semigroup of its own."""
    current, steps = gs, 0
    while True:
        nxt = per_step_derived(current)
        if nxt.genus == current.genus:
            return current, steps
        current, steps = nxt, steps + 1


def members_form_stage(box, gens, window, k):
    """The mask of the k-th derived stage of the monoid generated by gens
    inside the box: the members gain the chain sums z + u <= window that
    land in the box, k times or until they stop growing."""
    stage = _generated(box, gens)
    for _ in range(k):
        new = stage
        for sums in _chain_sums(box, stage, window):
            new |= sums & box.full
        if new == stage:
            break
        stage = new
    return stage


@functools.lru_cache(maxsize=None)
def gap_universe(bound):
    """All complement-closed gap sets inside the box [0, bound], as bitmasks.

    Returns (points, valid_masks): ``points`` indexes the nonzero box points
    and ``valid_masks`` lists every subset whose complement is a monoid. A
    subset is valid iff each of its gaps has, in every split into two
    nonzero parts, at least one part inside the subset.
    """
    points = sorted(p for p in box_points(bound) if any(p))
    index = {p: i for i, p in enumerate(points)}
    pair_table = []
    for g in points:
        pairs = []
        for x in box_points(g):
            if x == (0,) * len(g) or x == g:
                continue
            y = tuple(a - b for a, b in zip(g, x))
            if index[x] <= index[y]:
                pairs.append((index[x], index[y]))
        pair_table.append(pairs)
    valid = []
    for mask in range(1 << len(points)):
        ok = True
        probe = mask
        while probe and ok:
            i = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            for j, k in pair_table[i]:
                if not (mask >> j & 1 or mask >> k & 1):
                    ok = False
                    break
        if ok:
            valid.append(mask)
    return tuple(points), tuple(valid)


def mask_to_points(points, mask):
    return frozenset(p for i, p in enumerate(points) if mask >> i & 1)


@pytest.fixture(scope="session")
def s2():
    return from_generators(AffineSemigroup(2, GENS_S2))


@pytest.fixture(scope="session")
def s3():
    return from_generators(AffineSemigroup(2, GENS_S3))


@pytest.fixture(scope="session")
def s4():
    return from_generators(AffineSemigroup(2, GENS_S4))


@pytest.fixture(scope="session")
def s5():
    return from_generators(AffineSemigroup(2, GENS_S5))


@pytest.fixture(scope="session")
def s77():
    return from_generators(AffineSemigroup(2, GENS_ARF))


@st.composite
def generator_lists(draw):
    """Generator lists in d = 1..3: free ones, points on one ray (no full
    cone, like GENS_PI), and free ones with a coordinate none of them uses."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["free", "ray", "unused"]))
    vector = st.tuples(*[st.integers(0, 5)] * d)
    if kind == "ray":
        v = draw(vector.filter(any))
        multiples = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        gens = [tuple(n * a for a in v) for n in multiples]
    else:
        gens = draw(st.lists(vector, min_size=1, max_size=6))
        if kind == "unused":
            j = draw(st.integers(0, d - 1))
            gens = [g[:j] + (0,) + g[j + 1 :] for g in gens]
        gens = [g for g in gens if any(g)] or [(1,) * d]
    return d, gens


# the default budget, and ones so small that most points are decided by
# descent into a box grown only part of the way
BOX_BUDGETS = st.sampled_from([MEMBER_BOX_BITS, 8, 64, 256])


@st.composite
def full_cone_lists(draw):
    """Full-cone generator lists in d = 1..3 with small entries. In d >= 2 a
    third keep every generator but the pure axis-0 ones off the row x_1 = 0
    and give those a common factor, so a gap line runs along axis 0. Half
    get one more generator, redundant and far out."""
    d = draw(st.integers(1, 3))
    if d == 1:
        return d, [(v,) for v in draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))]
    top = 4 if d == 2 else 3
    line = draw(st.integers(0, 2)) == 0
    gens = []
    for i in range(d):
        factor = 2 if line and i == 0 else 1
        for v in draw(st.lists(st.integers(1, top), min_size=1, max_size=3)):
            gens.append(tuple(factor * v if j == i else 0 for j in range(d)))
    mixed = draw(st.lists(st.tuples(*[st.integers(0, top)] * d), max_size=2 * d))
    if line:
        # unit generators off axis 0 and a step of 1 along it leave, most
        # often, only the lines along axis 0
        gens += [tuple(int(j == i) for j in range(d)) for i in range(1, d)]
        mixed = [(1,) + mixed[0][1:]] + mixed[1:] if mixed else []
        mixed = [g[:1] + (max(g[1], 1),) + g[2:] for g in mixed]
    gens += [g for g in mixed if any(g)]
    if draw(st.booleans()):
        # a redundant generator far out: one of them plus many copies of a
        # pure one
        g = draw(st.sampled_from(gens))
        h = draw(st.sampled_from([h for h in gens if sum(h) == max(h)]))
        big = draw(st.integers(10**3, 10**5))
        gens.append(tuple(a + big * b for a, b in zip(g, h)))
    return d, gens


@st.composite
def finite_gap_sets(draw):
    """Gap sets in d = 1..3: a drawn full-cone list plus every point of total
    degree m..2m-1. Each point of degree at least m is then a sum of those,
    so the gaps are finite and lie below degree m; the drawn list shapes
    them."""
    d, gens = draw(full_cone_lists())
    m = draw(st.integers(2, (16, 8, 5)[d - 1]))
    band = [p for p in box_points((2 * m - 1,) * d) if m <= sum(p) < 2 * m]
    return from_generators(gens + band)


def simplicial_list(randint):
    """A d = 2 list with pure generators (a, 0) and (0, b) and one to three
    interior generators, drawn by ``randint(lo, hi)``; its gaps may be
    infinite. Half the lists are uniform, and mostly Cohen-Macaulay. The
    other half are graded: a = b and the interior points lie on the line
    x + y = a, half of them with both ends (1, a - 1) and (a - 1, 1), as in
    Macaulay's k[s^4, s^3 t, s t^3, t^4]. That is where the lists that are
    not Cohen-Macaulay, Buchsbaum or not, come from."""
    if randint(0, 1):
        a = randint(3, 8)
        line = [(x, a - x) for x in range(1, a)]
        interior = {line[randint(0, len(line) - 1)] for _ in range(randint(1, 3))}
        if randint(0, 1):
            interior |= {line[0], line[-1]}
        return [(a, 0), (0, a)] + sorted(interior)
    a, b = randint(2, 6), randint(2, 6)
    return [(a, 0), (0, b)] + [(randint(1, 8), randint(1, 8)) for _ in range(randint(1, 3))]


@st.composite
def simplicial_lists(draw):
    """``simplicial_list`` drawn by hypothesis."""
    return simplicial_list(lambda lo, hi: draw(st.integers(lo, hi)))


# a fixed sample of the same lists, one seed each
SIMPLICIAL_SAMPLE = [simplicial_list(random.Random(seed).randint) for seed in range(200)]


def simplicial_oracle(gens):
    """Ap(S, E), the index [G(S) : <E>], PF, S' \\ S and T \\ S of
    S = <gens> in N^2, by their definitions on sets of points. E is the
    least pure generator n_i of each axis; the gaps may be infinite.

    A point is a member iff it is 0 or a generator below it leaves a member
    (memoized). Ap(S, E) is the members s with s - n_i outside S for both i.
    It is closed under summands: for members u, v with u - n_i in S,
    u + v - n_i is in S. So every Ap point is a sum of generators whose
    partial sums are Ap points, and a walk from 0 that adds generators and
    keeps the Ap points finds them all; it ends, as Ap(S, E) is finite for
    simplicial S.

    Every member is an Ap point w plus k_1 n_1 + k_2 n_2, k_i >= 0. So a
    non-member x with x + k n_1 in S has x + k n_1 = w + k_1 n_1 + k_2 n_2
    with k_1 < k: x_1 <= w_1 - n_1, and x_2 >= 0. With top the largest
    coordinates of Ap, every x below lies in the window [0, top - n]:
      - PF: x not in S and x + g in S for every generator g (then x + s is
        in S for every nonzero member s, and x is in G(S));
      - S' \\ S: x not in S with x + n_1 and x + n_2 in S;
      - T \\ S, T = (S - N n_1) & (S - N n_2): x not in S with x + k n_i
        in S for some k, for each i. If one k does, so does every k with
        x_i + k n_i >= top_i, so one such point per axis decides it.
    The index is n_1 n_2 over the product of the HNF pivots of the
    generators (``smallest_pivot_hnf``).
    """
    gens = [tuple(g) for g in gens]
    n = [min(g[i] for g in gens if g[i] == sum(g) > 0) for i in range(2)]
    E = [(n[0], 0), (0, n[1])]

    def plus(p, q):
        return (p[0] + q[0], p[1] + q[1])

    @functools.lru_cache(maxsize=None)
    def member(p):
        if min(p) < 0:
            return False
        return not any(p) or any(member((p[0] - g[0], p[1] - g[1])) for g in gens)

    def apery(s):
        return member(s) and not any(member((s[0] - e[0], s[1] - e[1])) for e in E)

    ap = frontier = {(0, 0)}
    while frontier:
        frontier = {q for q in (plus(w, g) for w in frontier for g in gens) if q not in ap and apery(q)}
        ap = ap | frontier
    top = [max(col) for col in zip(*ap)]

    def reaches(x, i):
        while x[i] < top[i]:
            x = plus(x, E[i])
        return member(x)

    window = itertools.product(*(range(t - m + 1) for t, m in zip(top, n)))
    low = [x for x in window if not member(x)]
    pivots = prod(row[i] for i, row in enumerate(smallest_pivot_hnf(gens, 2)))
    return types.SimpleNamespace(
        apery=ap,
        index=n[0] * n[1] // pivots,
        pf={x for x in low if all(member(plus(x, g)) for g in gens)},
        s_prime={x for x in low if all(member(plus(x, e)) for e in E)},
        t={x for x in low if reaches(x, 0) and reaches(x, 1)},
    )
