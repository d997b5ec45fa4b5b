"""Artin-Rees containment data for pairs of monomial ideals.

For ideals I and N the n-th Artin-Rees defect is the least k with
I^n intersect N  within  I^(n-k) * N; the containment weakens as k grows,
so a linear descent from k = n (where it always holds) finds the least k.
The second half searches for power mismatches I^ell != J^(ell-k) * I^k for
a subideal J of I, the obstruction pattern behind uniform bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomials import MonomialIdeal


@dataclass(frozen=True)
class ArReport:
    """Per-exponent least containment shifts and their maximum."""

    ideal: MonomialIdeal
    sub: MonomialIdeal
    n_max: int
    least_k: tuple[int, ...]
    ar_number: int

    def to_json(self):
        return {
            "ideal": str(self.ideal),
            "sub": str(self.sub),
            "n_max": self.n_max,
            "least_k": list(self.least_k),
            "ar_number": self.ar_number,
        }


def artin_rees_number(ideal, sub, n_max):
    """Least k_n with I^n intersect N within I^(n-k_n) N, for n = 1..n_max."""
    ideal._check(sub)
    if sub.is_zero:
        raise ValueError("the submodule ideal must be nonzero")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    shifted = list(sub.ladder(ideal, n_max))  # I^j N, j = 0..n_max
    least = []
    for n, power in enumerate(ideal.ladder(ideal, n_max - 1), 1):
        meet = power & sub
        k = n
        while k > 0 and shifted[n - k + 1].contains_ideal(meet):
            k -= 1
        least.append(k)
    return ArReport(ideal, sub, n_max, tuple(least), max(least))


def ar_counterexample_search(ideal, sub, k, ell_max):
    """First ell in (k, ell_max] with I^ell != J^(ell-k) I^k, plus a witness.

    Requires J within I, so the product side always sits inside I^ell and a
    mismatch is witnessed by a generator of I^ell outside the product.
    Returns (ell, witness) or None when the scan is clean.
    """
    ideal._check(sub)
    if not ideal.contains_ideal(sub):
        raise ValueError("the second ideal must sit inside the first")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if ell_max < k + 1:
        raise ValueError("ell_max must be at least k + 1")
    ik = ideal.power(k)
    # I^ell and J^(ell-k) I^k; at ell = k both are I^k
    sides = zip(ik.ladder(ideal, ell_max - k), ik.ladder(sub, ell_max - k))
    for ell, (lhs, rhs) in enumerate(sides, k):
        if lhs != rhs:
            witness = rhs.first_outside(lhs)
            if witness is None:
                raise RuntimeError("internal error: mismatch without witness")
            return ell, witness
    return None
