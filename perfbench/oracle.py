"""Reference computations that the benchmark checks `csg` answers against.

Nothing here imports csemigroups. Membership comes either straight from a
gap set or from forward closure of a generator list inside a box; every
invariant is then recomputed from its definition by brute force over a box.
Each function states why its box is large enough.
"""

from __future__ import annotations

import itertools
from math import gcd


def box(hi):
    """All points p with 0 <= p <= hi, last coordinate fastest."""
    return itertools.product(*[range(h + 1) for h in hi])


def leq(p, q):
    return all(a <= b for a, b in zip(p, q))


def grlex_key(p):
    return (sum(p),) + tuple(p)


def grlex_sorted(points):
    return [list(p) for p in sorted({tuple(p) for p in points}, key=grlex_key)]


def closure(gens, hi):
    """Members of the monoid generated by ``gens`` inside the box [0, hi].

    Generators are nonnegative, so every sum that reaches a point of the box
    passes only through points of the box: the result is exact there.
    """
    d = len(hi)
    zero = (0,) * d
    members = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in gens if leq(g, hi)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if q not in members and leq(q, hi):
                    members.add(q)
                    nxt.append(q)
        frontier = nxt
    return members


def splits(s, member):
    """True iff s = x + (s - x) with x and s - x nonzero members."""
    zero = (0,) * len(s)
    for x in box(s):
        if x == zero or x == s:
            continue
        if member(x) and member(tuple(a - b for a, b in zip(s, x))):
            return True
    return False


def minimal_generators(gens, member):
    """S* minus (S* + S*) restricted to a generating list: every minimal
    generator of a monoid lies in each of its generating sets."""
    return grlex_sorted(g for g in {tuple(g) for g in gens} if not splits(g, member))


def numerical_gaps(gens):
    """Gaps of the numerical semigroup <gens> (gcd 1), by closure in [0, a*b].

    With a the least and b the greatest generator, every integer from
    (a-1)(b-1) is a member (Schur's bound), so the box holds every gap. No
    two generators need be coprime: <6, 10, 15> has gcd 1 all the same.
    """
    gens = sorted(set(gens))
    if gcd(*gens) != 1:
        raise ValueError(f"generators {gens} have a common divisor")
    a, b = gens[0], gens[-1]
    members = closure([(g,) for g in gens], (a * b,))
    return [x for x in range(a * b) if (x,) not in members]


def num_pf_count(gens):
    """Number of pseudo-Frobenius numbers of <gens>: gaps f with f + s a
    member for every generator s (a sum of generators then follows)."""
    gaps = set(numerical_gaps(gens))
    return sum(1 for f in gaps if all(f + s not in gaps for s in gens))


def grlex_predecessors(F):
    """All q in N^d with q strictly before F in graded-lex order."""
    key = grlex_key(F)
    deg = sum(F)
    for q in box((deg,) * len(F)):
        if grlex_key(q) < key:
            yield q


class GapSet:
    """A cofinite monoid given by its gap set; the reference for `box`.

    ``c`` is the canonical conductor (one above the gap maxima), so every
    point with some coordinate i at least c_i is a member. ``cc`` replaces
    zero coordinates by one so that the boxes below are never empty.
    """

    def __init__(self, d, gaps):
        self.d = d
        self.gaps = frozenset(tuple(g) for g in gaps)
        self.c = tuple(1 + max(g[i] for g in self.gaps) for i in range(d)) if self.gaps else (0,) * d
        self.cc = tuple(max(v, 1) for v in self.c)
        self._cache = {}

    def member(self, p):
        return all(v >= 0 for v in p) and tuple(p) not in self.gaps

    def is_monoid(self):
        """No gap splits into two nonzero members (and 0 is no gap)."""
        if (0,) * self.d in self.gaps:
            return False
        return not any(splits(g, self.member) for g in self.gaps)

    def hilbert(self):
        """Nonzero members of [0, 2cc) that do not split.

        A member s with s_i >= 2cc_i splits as cc_i e_i + (s - cc_i e_i):
        both parts have coordinate i at least c_i, so both are members.
        """
        if "hilbert" not in self._cache:
            hi = tuple(2 * v - 1 for v in self.cc)
            zero = (0,) * self.d
            if self.d == 1:
                mem = [x for x in range(1, hi[0] + 1) if self.member((x,))]
                memset = set(mem)
                out = []
                for s in mem:
                    if not any(s - x in memset for x in mem if 2 * x <= s):
                        out.append((s,))
            else:
                out = [
                    s
                    for s in box(hi)
                    if s != zero and self.member(s) and not splits(s, self.member)
                ]
            self._cache["hilbert"] = grlex_sorted(out)
        return self._cache["hilbert"]

    def pf(self):
        """Gaps f with f + s a member for every nonzero member s.

        Only s < c (componentwise) needs testing: if some s_i >= c_i then
        (f + s)_i >= c_i and f + s is a member.
        """
        if "pf" not in self._cache:
            if not self.gaps:
                self._cache["pf"] = []
            else:
                zero = (0,) * self.d
                small = [s for s in box(tuple(v - 1 for v in self.c)) if s != zero and self.member(s)]
                self._cache["pf"] = grlex_sorted(
                    f
                    for f in self.gaps
                    if all(self.member(tuple(a + b for a, b in zip(f, s))) for s in small)
                )
        return self._cache["pf"]

    def frobenius(self):
        return max(self.gaps, key=grlex_key)

    def omega_extra(self):
        F = self.frobenius()
        return grlex_sorted(g for g in self.gaps if not self.member(tuple(a - b for a, b in zip(F, g))))

    def classify(self):
        pf = [tuple(p) for p in self.pf()]
        F = self.frobenius()
        prime = [p for p in pf if p != F]
        half = tuple(v // 2 for v in F) if all(v % 2 == 0 for v in F) else None
        symmetric = pf == [F]
        pseudo = half is not None and set(pf) == {F, half}
        return {
            "pf": [list(p) for p in pf],
            "betti_type": len(pf),
            "frobenius": list(F),
            "pf_prime": [list(p) for p in prime],
            "omega_extra": self.omega_extra(),
            "classification": {
                "symmetric": symmetric,
                "pseudo_symmetric": pseudo,
                "almost_symmetric": bool(prime)
                and all(tuple(a - b for a, b in zip(F, g)) in set(prime) for g in prime),
                "irreducible": symmetric or pseudo,
                "pf_prime_dominated": all(leq(f, F) for f in prime),
            },
        }

    def wilf(self):
        F = self.frobenius()
        sporadic = sum(1 for q in grlex_predecessors(F) if self.member(q))
        e = len(self.hilbert())
        n = len(self.gaps) + sporadic
        return {
            "embedding_dimension": e,
            "genus": len(self.gaps),
            "sporadic": sporadic,
            "n_frobenius": n,
            "holds": sporadic * e >= n + 1,
            "frobenius": list(F),
        }

    def rays(self):
        """Least positive multiple of each axis that is a member (at most c_i)."""
        out = []
        for i in range(self.d):
            k = 1
            while not self.member(tuple(k if j == i else 0 for j in range(self.d))):
                k += 1
            out.append(tuple(k if j == i else 0 for j in range(self.d)))
        return out

    def buchsbaum(self):
        """Gaps g with g + 2r_i and g + 2r_j members for two distinct rays.

        A cofinite monoid contains c_i e_i and (c_i + 1) e_i for every i, so
        the group it generates is all of Z^d and every gap lies in it.
        """
        rays = self.rays()
        d_set = []
        for g in sorted(self.gaps, key=grlex_key):
            ok = [self.member(tuple(a + 2 * b for a, b in zip(g, r))) for r in rays]
            if any(ok[i] and ok[j] for i, j in itertools.combinations(range(len(rays)), 2)):
                d_set.append(list(g))
        pf = self.pf()
        return {
            "d_set": d_set,
            "pf": pf,
            "is_buchsbaum": d_set == pf,
            "extremal_rays": [list(r) for r in rays],
        }

    def apery(self, elements):
        """Members b with b - a outside S for every witness a.

        With m_j e_j a witness on axis j, any b with b_j >= m_j + c_j has
        b - m_j e_j a member, so the box [0, m + c) holds the whole set.
        """
        E = [tuple(a) for a in elements]
        hi = []
        for j in range(self.d):
            m = min(a[j] for a in E if a[j] > 0 and all(v == 0 for i, v in enumerate(a) if i != j))
            hi.append(m + self.c[j] - 1)
        out = [
            b
            for b in box(tuple(hi))
            if self.member(b) and all(not self.member(tuple(x - y for x, y in zip(b, a))) for a in E)
        ]
        return grlex_sorted(out)

    def cardinality(self):
        F = self.frobenius()
        prime = [p for p in self.pf() if tuple(p) != F]
        lhs = len(self.gaps) - len(prime)
        rhs = sum(1 for p in box(F) if self.member(p))
        return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}

    def arf_violation(self):
        """Members x <= y <= z with y + z - x a gap g, or None.

        Then z = g - (y - x) <= g, so z, y and x all lie below some gap.
        """
        member = self.member
        for g in sorted(self.gaps, key=grlex_key):
            below = [p for p in box(g) if member(p)]
            for z in below:
                for y in below:
                    if not leq(y, z):
                        continue
                    x = tuple(a + b - c for a, b, c in zip(y, z, g))
                    if all(v >= 0 for v in x) and leq(x, y) and member(x):
                        return x, y, z
        return None

    def multiplicity(self):
        """Componentwise infimum of the nonzero members.

        Every coordinate minimum is attained inside [0, 2cc): the axis
        multiples cc_j e_j are members and cc_j e_j <= 2cc - 1.
        """
        zero = (0,) * self.d
        hi = tuple(2 * v - 1 for v in self.cc)
        mem = [s for s in box(hi) if s != zero and self.member(s)]
        return tuple(min(s[i] for s in mem) for i in range(self.d))

    def pi(self):
        """PI status: x + y - m a nonzero member for all nonzero members x, y.

        Nonzero members are at least m. If x_i >= m_i + c_i then
        (x + y - m)_i >= c_i, so only x, y in [m, m + c) need testing.
        """
        m = self.multiplicity()
        attained = any(m) and self.member(m)
        if not attained:
            return {"multiplicity": list(m), "attained": False, "is_pi": None}
        hi = tuple(a + b - 1 for a, b in zip(m, self.cc))
        cand = [s for s in box(hi) if any(s) and self.member(s) and leq(m, s)]
        ok = all(
            self.member(tuple(a + b - c for a, b, c in zip(x, y, m))) for x in cand for y in cand
        )
        return {"multiplicity": list(m), "attained": True, "is_pi": ok}

    def pi_base_gaps(self):
        """Gaps of T = {q >= 0 : m + q in S}: the q with m + q a gap."""
        m = self.multiplicity()
        return grlex_sorted(
            tuple(a - b for a, b in zip(g, m)) for g in self.gaps if leq(m, g)
        )


class Generated:
    """A monoid given by generators; membership from closure in one box."""

    def __init__(self, gens, hi):
        self.gens = [tuple(g) for g in gens]
        self.d = len(self.gens[0])
        self.hi = tuple(hi)
        self.members = closure(self.gens, self.hi)

    def member(self, p):
        p = tuple(p)
        if not all(v >= 0 for v in p):
            return False
        if not leq(p, self.hi):
            raise ValueError(f"point {p} is outside the reference box {self.hi}")
        return p in self.members

    def minimal(self):
        return minimal_generators(self.gens, self.member)

    def multiplicity(self):
        """Each coordinate of a nonempty generator sum is at least the least
        generator coordinate, so the infimum is the generator minimum."""
        return tuple(min(g[i] for g in self.gens) for i in range(self.d))

    def pi(self, window):
        """PI status by testing x + y - m for all nonzero members x, y of a
        window that holds every generator.

        Every tested pair is a necessary condition, and the window holds the
        generator pairs, which suffice (x + y - m for sums of generators
        reduces to generator pairs), so the window test is exact.
        """
        m = self.multiplicity()
        attained = any(m) and self.member(m)
        if not attained:
            return {"multiplicity": list(m), "attained": False, "is_pi": None}
        cand = [s for s in box(window) if any(s) and self.member(s)]
        ok = all(self.member(tuple(a + b - c for a, b, c in zip(x, y, m))) for x in cand for y in cand)
        return {"multiplicity": list(m), "attained": True, "is_pi": ok}
