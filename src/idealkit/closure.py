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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ResourceCapError, RingMismatchError
from .linalg import rank_int
from .monomials import _ideal_from_rows, _minimal_points

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
        new = []
        for p in pos:
            for q in neg:
                a, b = p[col], q[col]
                new.append(tuple(-b * x + a * y for x, y in zip(p, q)))
        rows = _prune(keep + new)
        if len(rows) > _FM_ROW_CAP:
            raise ResourceCapError("facet elimination exceeded the row cap")
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
    points = tuple(g.exponents for g in ideal.generators)
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
    return _ideal_from_rows(ring, _minimal_points(ring.n, [(c, n * b) for c, b in facets]))


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
    """Verify closure(I^n) within I^(n-ell+1) for every n in [ell, n_max]."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a proper nonzero ideal")
    if ell < 1 or n_max < ell:
        raise ValueError("need 1 <= ell <= n_max")
    facets = newton_polyhedron(ideal).facets
    for n in range(ell, n_max + 1):
        closed = _power_closure(ideal.ring, facets, n)
        target = ideal.power(n - ell + 1)
        for g in closed.generators:
            if g not in target:
                return BsCheck(ell, n_max, False, (n, g))
    return BsCheck(ell, n_max, True, None)


def uniform_bs_number(ideal, n_max):
    """Least k >= 0 with closure(I^n) within I^(n-k) for all k <= n <= n_max.

    Bounded evidence only: the answer is a statement about the scanned range,
    not a proof for all n.  I^0 is the unit ideal, so k = n_max always
    succeeds and the search terminates.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a proper nonzero ideal")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    powers = {j: ideal.power(j) for j in range(0, n_max + 1)}
    facets = newton_polyhedron(ideal).facets
    closures = {n: _power_closure(ideal.ring, facets, n) for n in range(1, n_max + 1)}
    for k in range(n_max + 1):
        if all(
            powers[n - k].contains_ideal(closures[n])
            for n in range(max(k, 1), n_max + 1)
        ):
            return k
    raise RuntimeError("internal error: k = n_max must succeed")
