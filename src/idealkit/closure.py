"""Integral closure of monomial ideals via exact Newton-polyhedron facets.

A monomial lies in the integral closure of a monomial ideal exactly when
its exponent vector lies in the Newton polyhedron, the convex hull of the
generator exponents plus the nonnegative orthant.  The facet system is
computed over the integers: Fourier-Motzkin elimination of the convex
multipliers yields a complete inequality description, each candidate normal
is tightened to the best bound it attains on the generator points, and only
normals whose tight face has affine dimension n-1 survive (an exact rank
test), so the emitted system is irredundant.  Everything downstream --
closure generators, containment scans of closure powers -- is integer
arithmetic against those facets.

The scans over closure powers stop early by one lemma.  Let s be the number
of variables that occur in I's minimal generators.  Then

    closure(I^(n+1)) = I * closure(I^n)    for every n >= s - 1

(compare Huneke-Swanson, *Integral Closure of Ideals, Rings, and Modules*,
ch. 1).  Proof, by Caratheodory.  Let V be the generator exponents; they lie
in the s-dimensional coordinate subspace of I's support.  A monomial x^a of
closure(I^(n+1)) has a = c + r with r >= 0 and c in (n+1) * conv(V).  Move c
down one coordinate axis of that subspace until it meets the boundary of
(n+1) * conv(V): c stays <= a and now lies on a face of dimension <= s - 1,
so c = sum(l_i * v_i) with at most s of the l_i nonzero and sum(l_i) = n + 1.
If n >= s - 1, then n + 1 >= s and some l_i >= 1, so a - v_i = (c - v_i) + r
is a nonnegative lattice point of n * NP(I): x^a = x^(v_i) * x^(a - v_i)
with x^(a - v_i) in closure(I^n).  The reverse containment always holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ResourceCapError, RingMismatchError
from .linalg import rank_int
from .monomials import MonomialIdeal, _minimal_points

_FM_ROW_CAP = 200_000


def _primitive(row):
    g = 0
    for v in row:
        g = gcd(g, v)
    if g > 1:
        return tuple(v // g for v in row)
    return tuple(row)


def _is_unit_row(row):
    # a kept nonnegativity row: one +1 coefficient, no constant
    return row[-1] == 0 and sum(row[:-1]) == 1 and all(v in (0, 1) for v in row[:-1])


def _prune(rows):
    out = set()
    for row in rows:
        row = _primitive(row)
        if all(v >= 0 for v in row) and not _is_unit_row(row):
            # implied by the retained v >= 0 rows
            continue
        out.add(row)
    return out


def _fourier_motzkin(points, n):
    """Project out the multiplier variables; returns integer (coeffs, const) rows.

    Row layout is (x_0..x_{n-1}, l_0..l_{s-1}, const) with meaning
    ``sum(c*v) + const >= 0``.  Using sum(l) >= 1 instead of == 1 is exact
    here because generator exponents are nonnegative, so scaling the
    multipliers down only lowers the convex combination.
    """
    s = len(points)
    width = n + s + 1
    rows = set()
    for j in range(n):
        row = [0] * width
        row[j] = 1
        for i, p in enumerate(points):
            row[n + i] = -p[j]
        rows.add(tuple(row))
    rows.update(tuple(int(i == j) for i in range(width)) for j in range(n + s))
    row = [0] * width
    for i in range(s):
        row[n + i] = 1
    row[-1] = -1
    rows.add(tuple(row))

    remaining = list(range(n, n + s))
    while remaining:
        col = min(
            remaining,
            key=lambda c: sum(1 for r in rows if r[c] > 0)
            * sum(1 for r in rows if r[c] < 0),
        )
        remaining.remove(col)
        pos = [r for r in rows if r[col] > 0]
        neg = [r for r in rows if r[col] < 0]
        keep = [r for r in rows if r[col] == 0]
        # the step's row count is known before any row is formed
        if len(keep) + len(pos) * len(neg) > _FM_ROW_CAP:
            raise ResourceCapError("facet elimination exceeded the row cap")
        new = []
        for p in pos:
            for q in neg:
                a, b = p[col], q[col]
                new.append(tuple(-b * x + a * y for x, y in zip(p, q)))
        rows = _prune(keep + new)
    return rows


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Exact facet description of conv(points) + the nonnegative orthant.

    Facets are (coeffs, bound) pairs meaning ``sum(c_j * a_j) >= bound``,
    with primitive integer coefficients, componentwise c >= 0, sorted.
    """

    ring: object
    points: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]

    def contains(self, vector):
        if len(vector) != self.ring.n:
            raise ValueError("vector length does not match the ring")
        for coeffs, bound in self.facets:
            if sum(c * v for c, v in zip(coeffs, vector)) < bound:
                return False
        return True

    def denominator_lcm(self):
        """lcm of facet bounds: the denominators when facets are scaled to rhs 1."""
        out = 1
        for _, bound in self.facets:
            if bound > 0:
                out = out * bound // gcd(out, bound)
        return out


def newton_polyhedron(ideal):
    """Facet system of the Newton polyhedron of a nonzero monomial ideal."""
    if ideal.is_zero:
        raise ValueError("zero ideal has an empty Newton polyhedron")
    n = ideal.ring.n
    points = ideal.rows
    rows = _fourier_motzkin(points, n)

    candidates = set()
    for row in rows:
        coeffs = row[:n]
        if any(v < 0 for v in coeffs):
            raise RuntimeError("internal error: mixed-sign facet candidate")
        if any(coeffs):
            candidates.add(_primitive(coeffs))
    candidates.update(tuple(int(i == j) for i in range(n)) for j in range(n))

    facets = []
    for coeffs in candidates:
        values = [sum(c * p[j] for j, c in enumerate(coeffs)) for p in points]
        bound = min(values)
        tight = [p for p, v in zip(points, values) if v == bound]
        base = tight[0]
        dirs = [tuple(a - b for a, b in zip(p, base)) for p in tight[1:]]
        dirs += [tuple(int(i == j) for i in range(n)) for j, c in enumerate(coeffs) if c == 0]
        if rank_int(dirs) == n - 1:
            facets.append((coeffs, bound))
    facets = tuple(sorted(set(facets)))
    return NewtonPolyhedron(ideal.ring, points, facets)


def is_integral(monomial, ideal):
    """Is the monomial integral over the ideal (i.e. in its closure)?"""
    if monomial.ring != ideal.ring:
        raise RingMismatchError("monomial from a different ring")
    return newton_polyhedron(ideal).contains(monomial.exponents)


def integral_closure(ideal):
    """Integral closure: minimal lattice points of the Newton polyhedron,
    i.e. of the system c . a >= b over its facets (c, b)."""
    return _power_closure(ideal.ring, newton_polyhedron(ideal).facets, 1)


def _power_closure(ring, facets, n):
    """closure(I^n) from the facets of I's Newton polyhedron: the polyhedron
    of I^n is n times I's, so its facets are I's with every bound times n."""
    return _minimal_points(ring, [(c, n * b) for c, b in facets])


@dataclass(frozen=True)
class BsCheck:
    """Result of a containment scan closure(I^n) within I^(n-ell+1)."""

    ell: int
    n_max: int
    ok: bool
    failure: tuple[int, object] | None

    def to_json(self):
        return {
            "ell": self.ell,
            "n_max": self.n_max,
            "ok": self.ok,
            "failure": None
            if self.failure is None
            else {"n": self.failure[0], "monomial": str(self.failure[1])},
        }


def briancon_skoda_check(ideal, ell, n_max):
    """Verify closure(I^n) within I^(n-ell+1) for every n in [ell, n_max].

    Only n <= max(ell, s - 1) is scanned.  If the containment holds at some
    n >= s - 1, the module lemma gives closure(I^(n+1)) = I * closure(I^n)
    within I * I^(n-ell+1) = I^(n+1-ell+1), so it holds at n + 1 and, by
    induction, at every later n.  The first failure therefore lies in the
    scanned range, and an answer that holds, holds for every n >= ell once
    n_max >= s - 1.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a proper nonzero ideal")
    if ell < 1 or n_max < ell:
        raise ValueError("need 1 <= ell <= n_max")
    facets = newton_polyhedron(ideal).facets
    # s is the number of variables in the support; target is I^(n-ell+1)
    last = min(n_max, max(ell, sum(map(any, zip(*ideal.rows))) - 1))
    for n, target in zip(range(ell, last + 1), ideal.ladder(ideal, last - ell)):
        g = target.first_outside(_power_closure(ideal.ring, facets, n))
        if g is not None:
            return BsCheck(ell, n_max, False, (n, g))
    return BsCheck(ell, n_max, True, None)


def uniform_bs_number(ideal, n_max):
    """Least k >= 0 with closure(I^n) within I^(n-k) for all k <= n <= n_max.

    Let k_n be the least k <= n with closure(I^n) within I^(n-k); k = n works
    because I^0 is the unit ideal.  A larger k gives a larger I^(n-k), so a
    shift k serves n exactly when k >= k_n, and the answer is the largest k_n.
    For n >= s - 1 the module lemma gives closure(I^(n+1)) = I * closure(I^n)
    within I^(n+1-k_n), so k_(n+1) <= k_n: only n <= max(1, s - 1) is
    scanned, and the answer holds for every n once n_max >= s - 1.  One
    running shift, raised while I^(n-k) misses closure(I^n), ends at that
    maximum.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a proper nonzero ideal")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    # s is the number of variables in the support
    last = min(n_max, max(1, sum(map(any, zip(*ideal.rows))) - 1))
    powers = list(MonomialIdeal.unit(ideal.ring).ladder(ideal, last))
    facets = newton_polyhedron(ideal).facets
    k = 0
    for n in range(1, last + 1):
        closed = _power_closure(ideal.ring, facets, n)
        while not powers[n - k].contains_ideal(closed):
            k += 1
    return k
