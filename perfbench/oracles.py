"""Cheap answer checks that share no code with the library.

Each check returns None when the answer passes, else a one-line reason.
They run off the clock, once per distinct op, after the timed passes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement


def _supports(ideal):
    return [frozenset(i for i, e in enumerate(g.exponents) if e) for g in ideal.generators]


def _minimal_covers(supports, n):
    covers = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if all(s & sup for sup in supports) and not any(c <= s for c in covers):
                covers.append(s)
    return covers


def symbolic_witness(ideal, k, witness):
    """The witness lies in I^(k) but not in I^k, for square-free I."""
    n = ideal.ring.n
    for cover in _minimal_covers(_supports(ideal), n):
        if sum(witness[i] for i in cover) < k:
            return f"witness {witness} misses the prime {sorted(cover)} to order {k}"
    rows = [g.exponents for g in ideal.generators]
    for combo in combinations_with_replacement(rows, k):
        product = [sum(col) for col in zip(*combo)]
        if all(p <= w for p, w in zip(product, witness)):
            return f"witness {witness} is divisible by a product of {k} generators"
    return None


def betti_matches_numerator(table, numerator):
    """Alternating Betti sums reproduce the Hilbert series numerator."""
    alternating = tuple(table.alternating_numerator())
    if alternating != tuple(numerator):
        return f"alternating Betti sums {alternating} != numerator {tuple(numerator)}"
    return None


def _grevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _lex(exps):
    return tuple(exps)


def reduces_to_zero(generators, basis, order_kind, p):
    """Every generator reduces to zero modulo the basis (division algorithm).

    Coefficients are Fractions over Q (``p == 0``) or ints mod p.
    """
    key = _lex if order_kind == "lex" else _grevlex
    polys = [_dict_of(g, p) for g in basis]
    leads = [max(q, key=key) for q in polys]
    for index, g in enumerate(generators):
        work = _dict_of(g, p)
        while work:
            lead = max(work, key=key)
            for q, lq in zip(polys, leads):
                if all(a >= b for a, b in zip(lead, lq)):
                    break
            else:
                return f"generator {index} leaves the term {lead} unreduced"
            factor = _div(work[lead], q[lq], p)
            shift = tuple(a - b for a, b in zip(lead, lq))
            for exps, c in q.items():
                t = tuple(a + b for a, b in zip(shift, exps))
                v = work.get(t, 0) - factor * c
                if p:
                    v %= p
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
    return None


def _dict_of(poly, p):
    out = {}
    for exps, c in poly.terms:
        out[tuple(exps)] = int(c) % p if p else Fraction(c)
    return out


def _div(a, b, p):
    if p:
        return a * pow(b, p - 2, p) % p
    return a / b
