"""Seeded query lists for the three workloads, each with its answer check.

A query is one `csg --json ...` argv list, the exit code it must give, a
class label (for the latency breakdown in the README) and a check that
compares the parsed JSON answer with a computation from ``oracle``. Every
input is made here from the seed; `csg` receives only the generated argv
and the files written into the run's input directory.
"""

from __future__ import annotations

import json
import os
import random
from math import gcd

import oracle as ref

WORKLOADS = ("scan", "box", "descent")

# The full-cone generator lists of the paper's worked examples.
PAPER = {
    "s2": [(0, 1), (3, 0), (4, 0), (1, 4), (5, 0), (2, 7)],
    "s3": [(1, 0), (1, 1), (1, 2), (0, 3), (0, 4), (0, 5)],
    "s4": [(0, 1), (3, 0), (4, 0), (1, 5), (5, 0), (2, 9)],
    "s5": [(0, 1), (4, 0), (5, 0), (6, 0), (7, 0), (1, 4), (2, 7), (3, 10)],
    "arf77": [(0, 1), (3, 0), (5, 0), (1, 3), (2, 3)],
}
GENS_PI = [(6, 12), (8, 16), (9, 18), (10, 20), (11, 22), (13, 26)]
GENS_SAP31 = [(3, 0), (0, 3), (5, 2), (2, 5)]

# Each malformed file must give exit code 2 with a usage error.
MALFORMED = {
    "no-d": {"gaps": [[1], [2], [3]]},
    "float": {"d": 1, "gaps": [[1.5]]},
    "string": {"d": 2, "gaps": [[1, "a"]]},
}


class Query:
    __slots__ = ("argv", "expect", "label", "check")

    def __init__(self, argv, label, check, expect=0):
        self.argv = ["--json"] + [str(a) for a in argv]
        self.expect = expect
        self.label = label
        self.check = check


def fmt(points):
    return ";".join("(" + ",".join(str(v) for v in p) + ")" for p in points)


def fmt1(values):
    return ";".join(str(v) for v in values)


def expect(answer):
    """A check that compares the answer with ``answer()``, computed only
    when the check runs (after the timed passes)."""

    def check(out):
        want = answer()
        return None if out == want else f"expected {json.dumps(want)[:200]}"

    return check


# ---------------------------------------------------------------------------
# Input families
# ---------------------------------------------------------------------------


def degree_band(d, k):
    """Generators of D_d(k): N^d minus every point of degree below k."""
    return [p for p in ref.box((2 * k - 1,) * d) if k <= sum(p) <= 2 * k - 1]


def random_downset(rng, d, c, genus_lo, genus_hi):
    """Gap set of a random staircase: a down-set of N^d minus 0 whose
    conductor is c on every axis and whose size lies in [genus_lo, genus_hi]."""
    while True:
        corners = [tuple(c - 1 if j == i else 0 for j in range(d)) for i in range(d)]
        corners += [tuple(rng.randrange(c) for _ in range(d)) for _ in range(rng.randint(2, 2 + c))]
        down = set()
        for corner in corners:
            down.update(ref.box(corner))
        down.discard((0,) * d)
        if genus_lo <= len(down) <= genus_hi:
            return sorted(down, key=ref.grlex_key)


def random_numerical(rng, lo, hi, genus_lo, genus_hi):
    """Three generators a < b < c with gcd(a, b) = 1 and genus in the band."""
    while True:
        a = rng.randint(lo, hi)
        b = rng.randint(a + 1, a + a // 2)
        c = rng.randint(b + 1, b + a // 2)
        if gcd(a, b) != 1 or c % a == 0:
            continue
        gaps = ref.numerical_gaps([a, b, c])
        if genus_lo <= len(gaps) <= genus_hi:
            return (a, b, c), gaps


def pi_numerical(rng, m_lo, m_hi):
    """A numerical PI semigroup {0} + (m + T), T = <m, t1, t2>.

    Its minimal generators are m + w for w in the Apery set of T at m.
    """
    while True:
        m = rng.randint(m_lo, m_hi)
        t1 = rng.randint(2, m - 1)
        t2 = rng.randint(t1 + 1, m + t1)
        if gcd(m, t1) != 1 or t2 % t1 == 0:
            continue
        tgaps = set(ref.numerical_gaps([m, t1, t2]))
        top = max(tgaps, default=0) + m
        apery = [w for w in range(top + 1) if w not in tgaps and (w < m or w - m in tgaps)]
        gens = sorted(m + w for w in apery)
        sgaps = list(range(1, m)) + [m + g for g in sorted(tgaps)]
        return m, gens, sgaps


# ---------------------------------------------------------------------------
# scan: `csg gaps` on generator lists (the slice scan does the work)
# ---------------------------------------------------------------------------


def check_scan(gens):
    """The reported gap set is proved by closure of the generators in
    [0, 2cc): every point there with a coordinate i at least c_i is a
    member, and by splitting off cc_i e_i so is every point beyond the box;
    below c the closure is exact."""

    def check(out):
        d = len(gens[0])
        c = tuple(out["conductor"])
        if len(c) != d or any(v < 0 for v in c):
            return "bad conductor"
        cc = tuple(max(v, 1) for v in c)
        hi = tuple(2 * v - 1 for v in cc)
        vol = 1
        for v in hi:
            vol *= v + 1
        if vol > 4_000_000:
            return f"conductor {c} too large to check"
        members = ref.closure(gens, hi)
        gaps = []
        for p in ref.box(hi):
            if p in members:
                continue
            if not all(a < b for a, b in zip(p, c)):
                return f"{p} is beyond the conductor but not a member"
            gaps.append(p)
        want_gaps = ref.grlex_sorted(gaps)
        if out["gaps"] != want_gaps or out["d"] != d:
            return "gap set differs from the closure"
        if out["genus"] != len(gaps):
            return "genus differs"
        want_c = [1 + max(g[i] for g in gaps) for i in range(d)] if gaps else [0] * d
        if list(c) != want_c:
            return "conductor is not canonical"
        inbox = [g for g in gens if ref.leq(g, hi)]
        basis = ref.minimal_generators(inbox, lambda p: tuple(p) in members)
        if out["hilbert_basis"] != basis:
            return "Hilbert basis differs"
        return None

    return check


def scan_queries(seed, small=False):
    """D_2(k), D_3(k), the paper corpus and seeded staircases.

    The list is balanced around D_2(7), asked five times (spread over the
    pass, so its samples see the whole pass): the 15 queries below it (the
    small fixed inputs and the conductor-4 and conductor-2 staircases) are
    at least twice as fast and the 15 above it (the conductor-9 and -10
    staircases and the larger fixed inputs) at least 1.5 times slower. So
    the median query is D_2(7) and the 90th percentile (the fourth from
    the top of 35) is D_2(11), both fixed inputs, whatever the seed;
    the seeded staircases move only their side of the list.
    """
    rng = random.Random(f"scan-{seed}")
    entries = []  # (label, generator list)
    d2 = (1, 2, 4, 6) if small else (2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14)
    d3 = (2, 3) if small else (2, 3, 4, 5)
    entries += [(f"D2({k})", degree_band(2, k)) for k in d2]
    entries += [(f"D3({k})", degree_band(3, k)) for k in d3]
    entries += [(name, gens) for name, gens in PAPER.items()]
    # (dimension, conductor, genus band, lists): the minimal generators
    # and/or the minimal ones padded with redundant members, shuffled
    both = ("min", "pad")
    shapes = [(2, 4, 5, 9, both)] if small else [
        (2, 4, 5, 9, both), (3, 2, 3, 6, both), (2, 9, 28, 45, both), (2, 9, 28, 45, both),
        (2, 10, 35, 55, both), (2, 10, 35, 55, ("min",)),
    ]
    for d, c, lo, hi, lists in shapes:
        gaps = random_downset(rng, d, c, lo, hi)
        gs = ref.GapSet(d, gaps)
        minimal = [tuple(g) for g in gs.hilbert()]
        entries.append((f"stair{d}d-c{c}-min", minimal))
        if "pad" in lists:
            extra = [p for p in ref.box((2 * c - 1,) * d) if any(p) and gs.member(p) and p not in set(minimal)]
            padded = minimal + rng.sample(extra, min(len(extra), len(minimal) // 2))
            rng.shuffle(padded)
            entries.append((f"stair{d}d-c{c}-pad", padded))
    if not small:
        median = ("D2(7)", degree_band(2, 7))
        for i in (0, 9, 18, 27):
            entries.insert(i, median)
    return [Query(["gaps", "--gens", fmt(gens)], label, check_scan(gens)) for label, gens in entries]


# ---------------------------------------------------------------------------
# box: queries on explicit gap sets (no scan; validation and box walks)
# ---------------------------------------------------------------------------


# action -> (csg arguments, expected answer); both take the GapSet
GAP_ACTIONS = {
    "gaps": (lambda gs: ["gaps"], lambda gs: {
        "d": gs.d, "gaps": ref.grlex_sorted(gs.gaps), "conductor": list(gs.c),
        "genus": len(gs.gaps), "hilbert_basis": gs.hilbert(),
    }),
    "pf": (lambda gs: ["pf"], lambda gs: {"pf": gs.pf(), "betti_type": len(gs.pf())}),
    "classify": (lambda gs: ["classify"], ref.GapSet.classify),
    "wilf": (lambda gs: ["wilf"], ref.GapSet.wilf),
    "buchsbaum": (lambda gs: ["buchsbaum"], ref.GapSet.buchsbaum),
    "apery": (
        lambda gs: ["apery", "--elements", fmt(gs.rays())],
        lambda gs: {"elements": ref.grlex_sorted(gs.rays()), "apery": gs.apery(gs.rays())},
    ),
    "pf-ideal": (lambda gs: ["identity", "pf-ideal"], lambda gs: {"pf": gs.pf(), "matches_direct": True}),
    "cardinality": (lambda gs: ["identity", "cardinality"], ref.GapSet.cardinality),
    "arf-check": (lambda gs: ["arf", "check"], lambda gs: {"is_arf": gs.arf_violation() is None}),
    "pi-check": (lambda gs: ["pi", "check"], ref.GapSet.pi),
    "pi-decompose": (lambda gs: ["pi", "decompose"], lambda gs: {
        "offset": gs.pi()["multiplicity"], "base": {"d": gs.d, "gaps": gs.pi_base_gaps()},
    }),
}


def gap_queries(gs, source, actions, label):
    """One query per action on the gap set ``gs``, given as ``source`` argv."""
    out = []
    for action in actions:
        if action == "arf-closure":
            out.append(Query(["arf", "closure"] + source, label, lambda o, gs=gs: check_arf_closure(gs, o)))
            continue
        args, answer = GAP_ACTIONS[action]
        out.append(Query(args(gs) + source, label, expect(lambda gs=gs, answer=answer: answer(gs))))
    return out


def check_arf_closure(gs, out):
    """The closure contains the input, is a monoid and passes the
    brute-force Arf test."""
    closure = ref.GapSet(gs.d, [tuple(g) for g in out["gaps"]])
    if out["d"] != gs.d or not closure.gaps <= gs.gaps:
        return "closure does not contain the input"
    if out["gaps"] != ref.grlex_sorted(closure.gaps):
        return "closure gaps are not sorted"
    if not isinstance(out["steps"], int) or out["steps"] < 0:
        return "bad step count"
    if not closure.is_monoid():
        return "closure is not a monoid"
    if closure.arf_violation() is not None:
        return f"closure is not Arf: {closure.arf_violation()}"
    return None


ALL_GAP_ACTIONS = ("gaps", "pf", "classify", "wilf", "apery", "pf-ideal", "cardinality", "arf-check", "pi-check")


def box_queries(seed, small=False, input_dir="."):
    rng = random.Random(f"box-{seed}")
    queries = []

    def write(name, data):
        path = os.path.join(input_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    bands = [(13, 17, 40, 60)] if small else [(23, 29, 110, 130), (29, 37, 230, 250), (37, 43, 360, 380)]
    for i, (lo, hi, glo, ghi) in enumerate(bands):
        gens, gaps = random_numerical(rng, lo, hi, glo, ghi)
        gs = ref.GapSet(1, [(g,) for g in gaps])
        inline = ["--gaps", fmt1(gaps)]
        path = write(f"num{i}.json", {"d": 1, "gaps": [[g] for g in gaps]})
        label = f"num-g{glo}"
        queries += gap_queries(gs, ["--file", path], ["gaps"], label)
        queries += gap_queries(gs, inline, ALL_GAP_ACTIONS[1:], label)

    shapes = [(6, 12, 20)] if small else [(8, 30, 36), (11, 55, 65), (14, 95, 105)]
    for i, (c, glo, ghi) in enumerate(shapes):
        gaps = random_downset(rng, 2, c, glo, ghi)
        gs = ref.GapSet(2, gaps)
        inline = ["--gaps", fmt(gaps)]
        path = write(f"stair{i}.json", {"d": 2, "gaps": [list(g) for g in gaps]})
        label = f"stair-c{c}"
        queries += gap_queries(gs, ["--file", path], ["gaps"], label)
        queries += gap_queries(gs, inline, ALL_GAP_ACTIONS[1:] + ("buchsbaum",), label)

    names = ["s2", "arf77"] if small else list(PAPER)
    for name in names:
        gens = PAPER[name]
        # every gap of the five lies below (10, 10); `scan` proves their gap sets
        members = ref.closure(gens, (15, 15))
        gaps = [p for p in ref.box((15, 15)) if p not in members]
        gs = ref.GapSet(2, gaps)
        queries += gap_queries(gs, ["--gaps", fmt(gaps)], ["pf", "classify", "wilf", "buchsbaum", "arf-check", "arf-closure"], f"paper-{name}")

    for i in range(1 if small else 3):
        gens, gaps = random_numerical(rng, 7, 13, 10, 40)
        gs = ref.GapSet(1, [(g,) for g in gaps])
        queries += gap_queries(gs, ["--gaps", fmt1(gaps)], ["arf-closure", "arf-check"], "num-arf")

    for i in range(1 if small else 2):
        m, _, sgaps = pi_numerical(rng, 9, 16)
        gs = ref.GapSet(1, [(g,) for g in sgaps])
        queries += gap_queries(gs, ["--gaps", fmt1(sgaps)], ["pi-check", "pi-decompose"], "num-pi")

    for name, data in MALFORMED.items():
        path = write(f"malformed-{name}.json", data)
        queries.append(Query(["gaps", "--file", path], "malformed", None, expect=2))
    return queries


# ---------------------------------------------------------------------------
# descent: generator lists that build no gap set (membership, HNF lattices)
# ---------------------------------------------------------------------------


def member_axis(p, axis, others):
    """Is p in <axis multiples, others>? ``axis`` holds one pure multiple
    per coordinate; each combination of the other generators below p is
    tried, and the rest must split into axis multiples."""
    p = tuple(p)
    if any(v < 0 for v in p):
        return False
    if not others:
        return all(v % m == 0 for v, m in zip(p, axis))
    g, rest = others[0], others[1:]
    k = 0
    while all(a >= k * b for a, b in zip(p, g)):
        if member_axis(tuple(a - k * b for a, b in zip(p, g)), axis, rest):
            return True
        k += 1
    return False


def family_gens(a, p):
    q = a**p
    return [(a, 0), (0, q), (a + 2, 2), (2, 2 + q)]


def check_family_sap(a, p, window):
    q = a**p
    gens = family_gens(a, p)

    def member(x):
        return member_axis(x, (a, q), gens[2:])

    formula = {
        (i * (a + 2) + j * 2, i * 2 + j * (2 + q)) for i in range(q) for j in range(q - i)
    }
    win = ref.Generated(gens, window)

    def apery(b):
        return win.member(b) and not any(win.member(tuple(x - y for x, y in zip(b, g))) for g in gens[:2])

    scan = [b for b in ref.box(window) if apery(b)]

    def check(out):
        if out["generators"] != ref.grlex_sorted(gens):
            return "family generators differ"
        delta = [tuple(f) for f in out["delta"]]
        if len(delta) != q - 1 or out["delta_size"] != q - 1 or out["delta_verified"] is not True:
            return "delta set size or verification flag wrong"
        for f in delta:
            if member(f) or not all(member(tuple(x + y for x, y in zip(f, g))) for g in gens):
                return f"delta element {f} is not pseudo-Frobenius"
        aw = out["apery_window"]
        if aw["window_scan"] != ref.grlex_sorted(scan):
            return "window scan differs from brute force"
        if aw["formula_side"] != ref.grlex_sorted(formula) or aw["consistent"] is not True:
            return "formula side differs"
        return None

    return check


def check_family_saps(a, p, ngens):
    q = a**p
    mu = sum(ngens)
    want = ref.grlex_sorted([(mu * x, mu * y) for x, y in family_gens(a, p)] + [(n * a, n * q) for n in ngens])
    nu = ref.num_pf_count(ngens)

    def check(out):
        if out["embedding_dimension"] != len(ngens) + 4 or out["generators"] != want:
            return "glued family generators differ"
        if out["mu"] != mu or out["nu"] != nu or out["pf_lower_bound"] != nu * (q - 1):
            return "family counts differ"
        if out["gluing_element"] != [mu * a, mu * q]:
            return "gluing element differs"
        return None

    return check


def random_gluing(rng):
    """Numerical gluing b1*T1 + b2*T2: gcd(b1, b2) = 1, b2 in T1, b1 in T2.

    The groups are b1 Z and b2 Z, which meet in b1 b2 Z, and s = b1 b2 lies
    in both factors, so every instance is a valid gluing.
    """
    while True:
        t1 = sorted(rng.sample(range(3, 12), 2))
        t2 = sorted(rng.sample(range(3, 12), 2))
        if gcd(*t1) != 1 or gcd(*t2) != 1:
            continue
        g1 = set(ref.numerical_gaps(t1))
        g2 = set(ref.numerical_gaps(t2))
        b1 = rng.randint(max(t2) + 1, max(t2) + 15)
        b2 = rng.randint(max(t1) + 1, max(t1) + 15)
        if gcd(b1, b2) != 1 or b1 in g2 or b2 in g1:
            continue
        return [b1 * t for t in t1], [b2 * t for t in t2], b1 * b2


def descent_queries(seed, small=False, input_dir="."):
    rng = random.Random(f"descent-{seed}")
    queries = []

    def member_queries(gens, points, label):
        hi = tuple(max(p[i] for p in points) for i in range(2))
        sem = ref.Generated(gens, hi)
        for pt in points:
            want = {"point": list(pt), "member": sem.member(pt)}
            queries.append(Query(["member", "--gens", fmt(gens), "--point", fmt([pt])], label, expect(lambda want=want: want)))

    # <(3,0),(0,3),(5,2),(2,5)> generates the lattice x = y (mod 3), so
    # (x, x+1) is never a member and the descent walks its whole cone: the
    # cost of such a query follows its area and not the seed. Members are
    # found by a short descent and make the cheap end of the list.
    ladder = (10, 30) if small else (10, 20, 35, 50, 70, 90, 110, 130, 190)
    far = [(r, r + 1) for r in ladder]
    near = []
    for _ in range(2 if small else 8):
        a, b, c, e = (rng.randint(0, 12) for _ in range(4))
        near.append((3 * a + 5 * c + 2 * e, 3 * b + 2 * c + 5 * e))
    member_queries(GENS_SAP31, far + near, "member-sap31")
    if not small:
        heavy = [(x, x + 1) for x in (150 + rng.randint(0, 4) for _ in range(6))]
        member_queries(GENS_SAP31, heavy, "member-sap31-r150")
    for _ in range(1 if small else 3):
        while True:
            gens = [(rng.randint(2, 5), 0), (0, rng.randint(2, 5))] + [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(2)]
            if len(set(gens)) == 4:
                break
        points = [(rng.randint(5, 40), rng.randint(5, 40)) for _ in range(4)]
        member_queries(gens, points, "member-rand")

    sap_params = [(3, 1, 30)] if small else [(3, 1, 30), (3, 2, 45), (5, 1, 45), (5, 2, 35), (3, 3, 35)]
    for a, p, w in sap_params:
        w += rng.randint(0, 5)
        queries.append(Query(
            ["family", "sap", "-a", a, "-p", p, "--verify", "--window", fmt([(w, w)])],
            "family-sap", check_family_sap(a, p, (w, w)),
        ))

    for _ in range(1 if small else 4):
        a = rng.choice((3, 5, 7))
        p = rng.choice((1, 2))
        # With p = 1 the family lattice holds (1, 1), so the two groups meet
        # in mu (a, q) / a when a divides mu and the CLI rightly answers
        # NotAGluing; gcd(mu, a) = 1 keeps every instance a gluing.
        while True:
            ngens = sorted(rng.sample(range(2, 12), rng.randint(2, 3)))
            if gcd(*ngens) == 1 and gcd(sum(ngens), a) == 1 and len(ref.Generated([(n,) for n in ngens], (max(ngens),)).minimal()) == len(ngens):
                break
        queries.append(Query(
            ["family", "saps", "-a", a, "-p", p, "--numerical", fmt1(ngens)],
            "family-saps", check_family_saps(a, p, ngens),
        ))

    for i in range(1 if small else 4):
        s1, s2, s = random_gluing(rng)
        f1 = os.path.join(input_dir, f"glue{i}-s1.json")
        f2 = os.path.join(input_dir, f"glue{i}-s2.json")
        for path, gens in ((f1, s1), (f2, s2)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"d": 1, "gens": [[g] for g in gens]}, fh)
        union = ref.Generated([(g,) for g in s1 + s2], (max(s1 + s2),))
        want = {"d": 1, "generators": union.minimal(), "s": [s]}
        queries.append(Query(["glue", "--s1", f1, "--s2", f2, "--s", f"[{s}]"], "glue", expect(lambda want=want: want)))

    pi_lists = [GENS_PI]
    for _ in range(0 if small else 3):
        m, gens, _ = pi_numerical(rng, 5, 8)
        v = rng.choice(((1, 2), (1, 1)))
        pi_lists.append([(g * v[0], g * v[1]) for g in gens])
    for gens in pi_lists:
        window = tuple(2 * max(g[i] for g in gens) for i in range(2))
        sem = ref.Generated(gens, tuple(2 * w for w in window))
        status = sem.pi(window)
        queries.append(Query(["pi", "check", "--gens", fmt(gens)], "pi-gens", expect(lambda want=status: want)))
        m = tuple(status["multiplicity"])
        shifted = [tuple(a - b for a, b in zip(g, m)) for g in gens if tuple(g) != m] + [m]
        base = ref.Generated(shifted, sem.hi).minimal()
        want = {"offset": list(m), "base": {"d": 2, "gens": base}}
        queries.append(Query(["pi", "decompose", "--gens", fmt(gens)], "pi-gens", expect(lambda want=want: want)))
    return queries


def make(workload, seed, small=False, input_dir="."):
    if workload == "scan":
        return scan_queries(seed, small)
    if workload == "box":
        return box_queries(seed, small, input_dir)
    if workload == "descent":
        return descent_queries(seed, small, input_dir)
    raise ValueError(f"unknown workload {workload!r}")
