"""Gluings and parametric families.

Provides gluing validation with the pseudo-Frobenius product formula, the
two-parameter four-generator family with its certified pseudo-Frobenius
subset, windowed Apery verification for that family, the glued extension of
the family to every embedding dimension >= 4, and scaled numerical
semigroups.

The certified-set and windowed Apery verifications each read one box of
generator sums (``lattice._generated``), not points one at a time; the box
comes from ``membership._window``, which raises BudgetExceeded past the
membership cap. Every result is an immutable ``lattice._Record``, built by
position or by name and serialized from its fields (``to_json``).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from . import lattice
from .errors import BadParams, DimensionMismatch, EmptyPF, NotAGluing, NotMinimal
from .frobenius import pseudo_frobenius
from .gapsemigroup import from_generators
from .lattice import Point, _Record, _generated, grlex_sorted, lattice_from, lattice_intersect
from .membership import AffineSemigroup, _bit, _sums, _window, minimalize


class GluingSpec(_Record):
    """Two semigroups in the same N^d and the proposed gluing element."""

    _fields = ("s1", "s2", "s")

    def __init__(self, s1: AffineSemigroup, s2: AffineSemigroup, s: Sequence[int]):
        s = tuple(s)
        if s1.dimension != s2.dimension or len(s) != s1.dimension:
            raise DimensionMismatch("gluing inputs must share one ambient dimension")
        super().__init__(s1, s2, s)


def glue(spec: GluingSpec) -> AffineSemigroup:
    """Validate the gluing conditions and return the union-generated semigroup.

    The element s must belong to both factors, and the groups they generate
    must intersect in exactly the multiples of s (rank-1 lattice whose
    canonical basis vector is s itself).
    """
    if not spec.s1.is_member(spec.s):
        raise NotAGluing("sNotInS1")
    if not spec.s2.is_member(spec.s):
        raise NotAGluing("sNotInS2")
    meet = lattice_intersect(
        lattice_from(spec.s1.generators, spec.s1.dimension),
        lattice_from(spec.s2.generators, spec.s2.dimension),
    )
    if meet.rank != 1:
        raise NotAGluing("LatticeRankNot1")
    if meet.basis[0] != spec.s:
        raise NotAGluing("LatticeGeneratorMismatch")
    return minimalize(spec.s1.generators + spec.s2.generators, spec.s1.dimension)


class GluedPF(_Record):
    """The sums f + g + s, grlex sorted, and how many of them coincide."""

    _fields = ("points", "collisions")


def glued_pf(pf1: Sequence[Sequence[int]], pf2: Sequence[Sequence[int]], s: Sequence[int]) -> GluedPF:
    """Pseudo-Frobenius set of a gluing: all sums f + g + s over the factors.

    The cardinality is the product of the factor cardinalities unless sums
    collide; the collision count is reported alongside.
    """
    pf1 = [tuple(f) for f in pf1]
    pf2 = [tuple(g) for g in pf2]
    if not pf1:
        raise EmptyPF(1)
    if not pf2:
        raise EmptyPF(2)
    s = tuple(s)
    sums = {lattice.add(lattice.add(f, g), s) for f in pf1 for g in pf2}
    return GluedPF(tuple(grlex_sorted(sums)), len(pf1) * len(pf2) - len(sums))


def _check_family_params(a: int, p: int) -> None:
    if a < 3 or a % 2 == 0 or p < 1:
        raise BadParams(f"need odd a >= 3 and p >= 1, got a={a}, p={p}")


def _family_generators(a: int, p: int) -> list[Point]:
    q = a**p
    return [(a, 0), (0, q), (a + 2, 2), (2, 2 + q)]


def family_sap(a: int, p: int) -> AffineSemigroup:
    """The four-generator plane semigroup with parameters (a, p), a odd >= 3."""
    _check_family_params(a, p)
    return AffineSemigroup(2, _family_generators(a, p))


def delta_set(a: int, p: int) -> tuple[Point, ...]:
    """The a^p - 1 certified pseudo-Frobenius elements of the (a, p) family."""
    _check_family_params(a, p)
    q = a**p
    return tuple(
        (q * (a + 2) - (l + 2) * a - 2, q * (l + 2) - 2) for l in range(q - 1)
    )


class DeltaWitness(_Record):
    """One certified element f: f is outside S, f + g is inside S per
    generator g, and the four closed forms hold."""

    _fields = ("element", "outside", "shifts_inside", "closed_forms_match")


class DeltaVerification(_Record):
    """Whether every witness passes, and the witnesses in ``delta_set`` order."""

    _fields = ("ok", "witnesses")


def verify_delta_pf(a: int, p: int) -> DeltaVerification:
    """Check each family element of the certified set pointwise.

    For each candidate f: f itself is outside the semigroup, f plus every
    generator is inside, and the four closed-form representations of those
    shifts hold as integer identities:

        f + (a,0)       = (a^p-l-1)(a+2,2) + l(2,a^p+2)
        f + (0,a^p)     = (a^p-l-2)(a+2,2) + (l+1)(2,a^p+2)
        f + (a+2,2)     = (a^{p-1}(a+2)-l-1)(a,0) + (l+2)(0,a^p)
        f + (2,2+a^p)   = (a^{p-1}(a+2)-l-2)(a,0) + (l+3)(0,a^p)

    Every flag is one bit of the generator sums in one box that holds the
    far corner of every f + g; the bit of f + g is at index(f) + index(g).
    A box past the membership cap raises BudgetExceeded before any flag is
    read. The closed forms are checked coordinate by coordinate.
    """
    deltas = delta_set(a, p)
    q = a**p
    r = a ** (p - 1) * (a + 2)
    gens = _family_generators(a, p)
    extent = tuple(max(f[i] for f in deltas) + max(g[i] for g in gens) + 1 for i in (0, 1))
    box = _window(extent, "membership")
    bits = _sums(box, gens)
    shifts_at = [box.index(g) for g in gens]
    u, v = a + 2, q + 2  # the generators are (a, 0), (0, q), (u, 2), (2, v)
    witnesses = []
    for l, f in enumerate(deltas):
        x, y = f
        i = box.index(f)
        outside = not _bit(bits, i)
        shifts = tuple(_bit(bits, i + s) for s in shifts_at)
        forms = (
            x + a == (q - l - 1) * u + 2 * l and y == 2 * (q - l - 1) + l * v,
            x == (q - l - 2) * u + 2 * (l + 1) and y + q == 2 * (q - l - 2) + (l + 1) * v,
            x + u == (r - l - 1) * a and y + 2 == (l + 2) * q,
            x + 2 == (r - l - 2) * a and y + v == (l + 3) * q,
        )
        witnesses.append(DeltaWitness(f, outside, shifts, all(forms)))
    ok = all(w.outside and all(w.shifts_inside) and w.closed_forms_match for w in witnesses)
    return DeltaVerification(ok, tuple(witnesses))


class AperyWindowReport(_Record):
    """The closed-form Apery points, the Apery points the window scan finds,
    and whether the two agree inside the window."""

    _fields = ("formula_side", "window_scan", "consistent")


def apery_sap_window(a: int, p: int, window: Sequence[int]) -> AperyWindowReport:
    """Compare the closed-form Apery set of the axis pair with a window scan.

    formula_side lists every combination alpha*(a+2,2) + alpha'*(2,2+a^p)
    with alpha + alpha' < a^p; each is verified to be a member whose two
    axis-differences leave the semigroup. window_scan lists every point
    below ``window`` satisfying the Apery condition directly. The two agree
    inside the window; the formula side may extend beyond it.

    Both read one box that holds the window and the formula's far corner
    ((a^p-1)(a+2), (a^p-1)(a^p+2)). With M the generator sums in it, the
    Apery set there is M & ~(M << (a,0)) & ~(M << (0,a^p)); the formula
    side must lie in it and the window scan is its part below ``window``.
    A box past the membership cap raises BudgetExceeded.
    """
    _check_family_params(a, p)
    window = tuple(window)
    if len(window) != 2:
        raise DimensionMismatch("window must be a plane point")
    if min(window) < 0:
        raise ValueError(f"box is empty: {(0, 0)} is not below {window}")
    q = a**p
    g1, g2, _, _ = gens = _family_generators(a, p)
    extent = (max((q - 1) * (a + 2), window[0]) + 1, max((q - 1) * (q + 2), window[1]) + 1)
    box = _window(extent, "Apery")
    members = _generated(box, gens)
    ap = members & ~(members << box.index(g1)) & ~(members << box.index(g2))
    formula = [
        # alpha * (a + 2, 2) + alpha2 * (2, q + 2)
        (alpha * (a + 2) + 2 * alpha2, 2 * alpha + alpha2 * (q + 2))
        for alpha in range(q)
        for alpha2 in range(q - alpha)
    ]
    formula_mask = box.mask(formula)
    scan = ap & box.below(window)
    return AperyWindowReport(
        tuple(grlex_sorted(formula)),
        tuple(box.grlex_points(scan)),
        not (formula_mask & ~ap or scan & ~formula_mask),
    )


class SapsFamily(_Record):
    """The glued semigroup, its certified PF lower bound nu * (a^p - 1), the
    scale mu, the numerical factor's PF count nu, and the gluing element."""

    _fields = ("semigroup", "pf_lower_bound", "mu", "nu", "gluing_element")


def family_saps(a: int, p: int, numerical_gens: Sequence[int]) -> SapsFamily:
    """Glued family member of embedding dimension len(numerical_gens) + 4.

    Scales the (a, p) family by mu = sum of the numerical generators and
    adjoins the numerical semigroup pushed onto the ray through (a, a^p).
    The gluing conditions are verified, not assumed. The certified
    pseudo-Frobenius lower bound is nu * (a^p - 1) where nu counts the
    pseudo-Frobenius elements of the numerical factor.
    """
    _check_family_params(a, p)
    ngens = sorted({int(n) for n in numerical_gens})
    if not ngens or ngens[0] < 1:
        raise BadParams("numerical generators must be positive integers")
    g = gcd(*ngens)
    if g != 1:
        raise BadParams(f"numerical generators must have gcd 1, got {g}")
    minimal = minimalize([(n,) for n in ngens], 1)
    if len(minimal.generators) != len(ngens):
        raise NotMinimal(f"{ngens} is not a minimal generating set")
    if ngens == [1]:
        # N has no gaps, and its generator (a, a^p) is the gluing element
        raise EmptyPF(2)
    q = a**p
    mu = sum(ngens)
    ray = (a, q)
    scaled_family = AffineSemigroup(2, [lattice.scale(mu, v) for v in _family_generators(a, p)])
    scaled_numerical = scale_numerical(ngens, ray)
    s = lattice.scale(mu, ray)
    glued = glue(GluingSpec(scaled_family, scaled_numerical, s))
    if len(glued.generators) != len(ngens) + 4:
        raise RuntimeError(
            f"glued family has embedding dimension {len(glued.generators)},"
            f" expected {len(ngens) + 4}"
        )
    nu = len(pseudo_frobenius(from_generators([(n,) for n in ngens])))
    return SapsFamily(glued, nu * (q - 1), mu, nu, s)


def scale_numerical(numerical_gens: Sequence[int], a: Sequence[int]) -> AffineSemigroup:
    """Push a numerical semigroup onto the ray through a: generators n_i * a."""
    a = tuple(a)
    if lattice.is_zero(a) or not lattice.is_natural(a):
        raise ValueError("the ray vector must be a nonzero point of N^d")
    gens = [lattice.scale(int(n), a) for n in numerical_gens]
    return AffineSemigroup(len(a), gens)
