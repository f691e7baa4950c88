"""Acceptance suite: every golden criterion at its stated tolerance.

All expectations are exact (integer combinatorics, no tolerances). Each
criterion prints one PASS line on success; a failed assertion surfaces
through pytest as the FAIL line.
"""

import random

import pytest

from conftest import (
    ALL_PAPER_GENS,
    GENS_ARF,
    GENS_PI,
    GENS_S2,
    GENS_S3,
    GENS_S4,
    GENS_S5,
    arf_violation,
    box_points,
    closure_in_box,
    gap_universe,
    mask_to_points,
)
from csemigroups.arf import (
    PIMonoid,
    arf_closure,
    arf_derived,
    is_arf,
    is_arf_pi,
    is_pi,
    pi_decompose,
    prop710_check,
)
from csemigroups.conjectures import buchsbaum_report, wilf_report
from csemigroups.constructions import (
    GluingSpec,
    apery_sap_window,
    family_sap,
    glue,
    glued_pf,
    verify_delta_pf,
)
from csemigroups.frobenius import (
    cardinality_identity,
    classify,
    frobenius_element,
    pseudo_frobenius,
)
from csemigroups.errors import NotClosed
from csemigroups.gapsemigroup import from_gaps, from_generators
from csemigroups.lattice import GRLEX
from csemigroups.membership import AffineSemigroup, minimalize

S2_GAPS = {
    (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2),
    (1, 3), (2, 3), (2, 4), (2, 5), (2, 6),
}
S77_DERIVED = {
    (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2),
}


def test_criterion_1_gap_set_and_pf():
    gs = from_generators(AffineSemigroup(2, GENS_S2))
    assert gs.gaps == frozenset(S2_GAPS)
    assert pseudo_frobenius(gs) == ((1, 3), (2, 6))
    print("ACCEPTANCE 1 PASS: eleven-gap example has the exact gap set and PF pair")


def test_criterion_2_buchsbaum():
    gs = from_generators(AffineSemigroup(2, GENS_S3))
    report = buchsbaum_report(gs)
    assert report.d_set == ((0, 1), (0, 2))
    assert report.pf == ((0, 1), (0, 2))
    assert report.is_buchsbaum
    print("ACCEPTANCE 2 PASS: doubled-ray set equals PF and the test reports Buchsbaum")


def test_criterion_3_pseudo_symmetric_example():
    gs = from_generators(AffineSemigroup(2, GENS_S4))
    report = classify(gs, GRLEX)
    assert report.pf == ((1, 4), (2, 8))
    assert report.frobenius == (2, 8)
    assert report.pseudo_symmetric and report.almost_symmetric
    assert report.omega_extra == ((1, 4),)
    assert report.betti_type == len(report.omega_extra) + 1 == 2
    print("ACCEPTANCE 3 PASS: Betti-type-2 example classifies pseudo- and almost-symmetric")


def test_criterion_4_wilf_numbers():
    gs = from_generators(AffineSemigroup(2, GENS_S5))
    assert gs.genus == 21
    assert pseudo_frobenius(gs) == ((1, 3), (2, 6), (3, 9))
    assert frobenius_element(gs, GRLEX) == (3, 9)
    report = wilf_report(gs, GRLEX)
    assert report.sporadic == 61
    assert report.n_frobenius == 82
    assert report.embedding_dimension == 8
    assert report.holds and report.n_frobenius + 1 == 83
    assert report.sporadic * report.embedding_dimension == 488
    assert cardinality_identity(gs, GRLEX) == (19, 19)
    print("ACCEPTANCE 4 PASS: Betti-type-3 example reproduces 21/61/82/8 and 83 <= 488")


@pytest.mark.parametrize("a,p", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_criterion_5_delta_verification(a, p):
    result = verify_delta_pf(a, p)
    assert result.ok
    assert len(result.witnesses) == a**p - 1
    print(f"ACCEPTANCE 5 PASS: ({a},{p}) certified PF subset of size {a**p - 1}")


@pytest.mark.parametrize("a,p", [(3, 1), (3, 2)])
def test_criterion_5_apery_windows(a, p):
    report = apery_sap_window(a, p, (60, 60))
    assert report.consistent
    assert (0, 0) in report.formula_side
    print(f"ACCEPTANCE 5 PASS: ({a},{p}) Apery window scan consistent on (60,60)")


def test_criterion_6_gluing_two_routes():
    s1 = AffineSemigroup(1, [(6,), (10,), (14,)])
    s2 = AffineSemigroup(1, [(14,), (21,)])
    glued = glue(GluingSpec(s1, s2, (14,)))
    assert glued.generators == ((6,), (10,), (14,), (21,))
    direct = pseudo_frobenius(from_generators(glued))
    pf1 = [(2 * f[0],) for f in pseudo_frobenius(from_generators([(3,), (5,), (7,)]))]
    pf2 = [(7 * f[0],) for f in pseudo_frobenius(from_generators([(2,), (3,)]))]
    formula = glued_pf(pf1, pf2, (14,))
    assert direct == formula.points == ((25,), (29,))
    print("ACCEPTANCE 6 PASS: gluing product formula and direct PF both give {25, 29}")


def test_criterion_7_arf_and_pi():
    staircase = from_generators(AffineSemigroup(2, [(0, 1), (1, 2), (2, 0), (3, 0)]))
    assert staircase.gaps == frozenset({(1, 0), (1, 1)})
    assert is_arf(staircase)

    s77 = from_generators(AffineSemigroup(2, GENS_ARF))
    derived = arf_derived(s77)
    assert derived.gaps == frozenset(S77_DERIVED)
    closure, steps = arf_closure(s77)
    assert steps == 1 and closure == derived

    assert is_arf_pi(PIMonoid((2, 2), staircase))

    sem = AffineSemigroup(2, GENS_PI)
    pim = pi_decompose(sem)
    assert pim.offset == (6, 12)
    base = AffineSemigroup(2, [(2, 4), (3, 6)])
    for p in box_points((30, 60)):
        diff = (p[0] - 6, p[1] - 12)
        expected = p == (0, 0) or (min(diff) >= 0 and base.is_member(diff))
        assert pim.contains(p) == expected == sem.is_member(p)
    print("ACCEPTANCE 7 PASS: Arf examples, shifted monoid, and PI decomposition check out")


def test_criterion_8_membership_brute_force():
    for name, gens in sorted(ALL_PAPER_GENS.items()):
        sem = AffineSemigroup(2, gens) if len(gens[0]) == 2 else AffineSemigroup(1, gens)
        oracle = closure_in_box(gens, (40, 40))
        for p in box_points((12, 12)):
            assert sem.is_member(p) == (p in oracle), (name, p)
    print("ACCEPTANCE 8a PASS: membership agrees with brute-force combination search")


def test_criterion_8_complement_closure_revalidation():
    constructed = [
        from_generators(AffineSemigroup(2, gens))
        for name, gens in sorted(ALL_PAPER_GENS.items())
        if name not in ("pi", "sap31")  # those two have infinite gap sets
    ]
    constructed.append(from_gaps(2, [(1, 0), (1, 1)]))
    constructed.extend(arf_derived(gs) for gs in list(constructed))
    for gs in constructed:
        assert from_gaps(gs.dimension, gs.gaps) == gs
    print("ACCEPTANCE 8b PASS: every constructed gap set revalidates complement closure")


def test_criterion_8_closure_minimality_full_corpus():
    # every complement-closed gap set inside [0,3]^2 (32768 candidate masks)
    points, valid = gap_universe((3, 3))
    semigroups = {
        mask: from_gaps(2, mask_to_points(points, mask)) for mask in valid
    }
    arf_flag = {mask: is_arf(gs) for mask, gs in semigroups.items()}
    checked = 0
    for mask, gs in semigroups.items():
        derived = arf_derived(gs)
        assert derived.gaps <= gs.gaps  # derived monoid only grows the member set
        closure, _ = arf_closure(gs)
        again, steps = arf_closure(closure)
        assert steps == 0 and again == closure  # idempotent
        union = 0
        sub = mask
        while True:
            if arf_flag.get(sub):
                union |= sub
            if sub == 0:
                break
            sub = (sub - 1) & mask
        assert closure.gaps == mask_to_points(points, union)
        checked += 1
    assert checked == len(valid) and checked > 2000
    print(
        f"ACCEPTANCE 8c PASS: closure equals brute-force Arf intersection on all"
        f" {checked} valid gap sets in [0,3]^2"
    )


def _shifted_member(gs, offset):
    def member(p):
        if all(v == 0 for v in p):
            return True
        q = tuple(a - b for a, b in zip(p, offset))
        return all(v >= 0 for v in q) and gs.contains(q)

    return member


def _shifted_is_arf_direct(gs, offset):
    """Arf test of (offset + S) with 0 adjoined, from the shifted predicate.

    A chain violation y + z - x cannot use x = 0 (y + z is a sum of two
    members and stays inside), so all three points dominate the offset and
    the violating value lies in offset + gaps(S); it suffices to search each
    such point for a chain witness inside its own box.
    """
    member = _shifted_member(gs, offset)
    for h in gs.gaps:
        g = tuple(a + b for a, b in zip(offset, h))
        pts = [p for p in box_points(g) if member(p)]
        for x in pts:
            for y in pts:
                if not all(a <= b for a, b in zip(x, y)):
                    continue
                z = tuple(gi + xi - yi for gi, xi, yi in zip(g, x, y))
                if (
                    all(v >= 0 for v in z)
                    and all(a <= b for a, b in zip(y, z))
                    and member(z)
                ):
                    return False  # witness shows g joins the derived monoid
    return True


def test_criterion_8_shift_equivalence_randomized():
    points, valid = gap_universe((3, 3))
    rng = random.Random(2024)
    # (4,*) and (*,4) dominate every conductor of this universe, so the
    # candidate list always meets the member set
    candidates = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 3), (4, 4), (4, 2), (2, 4)]
    checked = 0
    for _ in range(100):
        gs = from_gaps(2, mask_to_points(points, rng.choice(valid)))
        offset = rng.choice([p for p in candidates if gs.contains(p)])
        direct = _shifted_is_arf_direct(gs, offset)
        assert direct == is_arf(gs) == is_arf_pi(PIMonoid(offset, gs))
        if checked < 10:
            # raw triple scan over a window, fully definition-shaped
            window = tuple(o + 2 * c + 1 for o, c in zip(offset, gs.conductor))
            raw = arf_violation(_shifted_member(gs, offset), window) is None
            assert raw == direct
        checked += 1
    assert checked == 100
    print("ACCEPTANCE 8d PASS: shift equivalence on 100 randomized instances")


PROP710_CORPUS = [
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
]


def test_criterion_8_arf_implies_pi():
    # plane gap semigroups never attain their multiplicity (both axes reach
    # far out, so the infimum is the origin); the statement bites in
    # dimension one, where every gap semigroup attains it
    checked = 0
    for mask in range(1 << 6):
        gaps = [(v + 1,) for v in range(6) if mask >> v & 1]
        try:
            gs = from_gaps(1, gaps)
        except NotClosed:
            continue
        status = is_pi(gs)
        if gs.gaps and is_arf(gs):
            assert status.attained and status.is_pi
            checked += 1
    for a, gens in PROP710_CORPUS:
        closure, _ = arf_closure(from_generators([(a,)] + [(a + g,) for g in gens]))
        status = is_pi(closure)
        assert status.attained and status.is_pi
        checked += 1
    assert checked > 20
    print(f"ACCEPTANCE 8e PASS: Arf implies PI on {checked} attained-multiplicity instances")




def test_criterion_8_shifted_closure_formula():
    for a, gens in PROP710_CORPUS:
        assert prop710_check((a,), [(g,) for g in gens]), (a, gens)
    print(
        f"ACCEPTANCE 8f PASS: shifted-closure formula on {len(PROP710_CORPUS)}"
        " hypothesis-satisfying instances"
    )


@pytest.mark.parametrize("a,p,bound", [(3, 1, 2), (3, 2, 8), (3, 3, 26)])
def test_criterion_9_betti_type_growth(a, p, bound):
    sem = minimalize(family_sap(a, p).generators)
    assert len(sem.generators) == 4
    result = verify_delta_pf(a, p)
    assert result.ok
    assert len(result.witnesses) == bound == a**p - 1
    print(
        f"ACCEPTANCE 9 PASS: ({a},{p}) embedding dimension 4 with certified"
        f" Betti-type lower bound {bound}"
    )
