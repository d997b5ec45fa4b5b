"""Brute-force oracles shared across the test modules.

Each routine recomputes an answer by direct enumeration, so the fast
implementations have something independent to disagree with.
"""

from fractions import Fraction
from itertools import product

from idealkit import (
    Monomial,
    MonomialIdeal,
    minimal_primes,
    newton_polyhedron,
    parse_ring,
)


def numbered_ring(n):
    return parse_ring(", ".join(f"x{i}" for i in range(1, n + 1)))


def compositions(total, parts):
    """Exponent tuples of length parts summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def scan_member(ideal, exps):
    # raw divisibility against the generator list, no pruning tricks
    return any(
        all(a <= b for a, b in zip(gen.exponents, exps))
        for gen in ideal.generators
    )


def standard_count(ideal, degree):
    """Count the degree-d monomials outside the ideal one at a time."""
    return sum(
        1
        for exps in compositions(degree, ideal.ring.n)
        if not scan_member(ideal, exps)
    )


def intersect_fold(ideals):
    acc = ideals[0]
    for other in ideals[1:]:
        acc = acc.intersect(other)
    return acc


def symbolic_by_intersection(ideal, k):
    """The defining intersection of k-th prime powers, folded pairwise."""
    return intersect_fold([p.ideal().power(k) for p in minimal_primes(ideal)])


def _ideal_of_rows(ring, rows):
    return MonomialIdeal.from_generators(ring, [Monomial(ring, r) for r in rows])


def symbolic_by_box_scan(ideal, k):
    """I^(k) from the lattice points of [0,k]^n over the primes' variables.

    A point is kept when every prime's exponent sum reaches k and every
    positive coordinate sits in some prime whose sum is exactly k.  No
    minimal generator needs an exponent above k: dropping a unit from such
    a coordinate keeps every constraint satisfied.
    """
    primes = [set(p.indices) for p in minimal_primes(ideal)]
    used = sorted(set().union(*primes))
    rows = []
    for point in product(range(k + 1), repeat=len(used)):
        exps = dict(zip(used, point))
        sums = [sum(exps[v] for v in p) for p in primes]
        if any(s < k for s in sums):
            continue
        tight = [p for p, s in zip(primes, sums) if s == k]
        if all(e == 0 or any(v in p for p in tight) for v, e in exps.items()):
            row = [0] * ideal.ring.n
            for v, e in exps.items():
                row[v] = e
            rows.append(tuple(row))
    return _ideal_of_rows(ideal.ring, rows)


def closure_by_box_scan(ideal):
    """Integral closure from the Newton polyhedron's points in a box.

    Minimal generators are bounded coordinatewise by the largest generator
    exponent: a point beyond that has a full unit of slack in the offending
    coordinate and so is not divisibility-minimal.
    """
    poly = newton_polyhedron(ideal)
    box = [max(p[j] for p in poly.points) for j in range(ideal.ring.n)]
    rows = [pt for pt in product(*(range(b + 1) for b in box)) if poly.contains(pt)]
    return _ideal_of_rows(ideal.ring, rows)


def rank_by_fractions(rows):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def closure_certificate(ideal, exps, m_max):
    """Bounded search for a power certificate (x^a)^m in I^m.

    A hit proves x^a lies in the integral closure; misses below m_max
    prove nothing on their own.
    """
    for m in range(1, m_max + 1):
        scaled = tuple(e * m for e in exps)
        if scan_member(ideal.power(m), scaled):
            return True
    return False
