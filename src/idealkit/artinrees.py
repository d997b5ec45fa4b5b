"""Artin-Rees containment data for pairs of monomial ideals.

For ideals I and N the n-th Artin-Rees defect is the least k with
I^n intersect N  within  I^(n-k) * N; the containment weakens as k grows,
so a linear descent from any k where it holds finds the least k.  It holds
at k = n, and past the largest degree D of a generator of N it holds at the
previous defect (the pigeonhole lemma of ``artin_rees_number``).
The second half compares I^(k+1) with J * I^k for a subideal J of I; when
they agree, I^ell = J^(ell-k) * I^k for every ell > k.
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
    """Least k_n with I^n intersect N within I^(n-k_n) N, for n = 1..n_max.

    Let D be the largest degree of a minimal generator of N.  Then

        I^(n+1) intersect N = I * (I^n intersect N)    for every n >= D.

    Proof, by pigeonhole.  A generator of I^(n+1) intersect N is
    x^c = lcm(x^a, x^b) with a = v_1 + ... + v_(n+1), each v_i a generator
    exponent of I, and b one of N.  If c - v_i >= b for some i, then
    x^c = x^(v_i) * x^(c - v_i) with x^(c - v_i) in I^n intersect N, as
    c - v_i >= a - v_i too.  In coordinate j, an index failing
    c_j - v_ij >= b_j has v_ij >= c_j - b_j + 1, and the v_ij sum to
    a_j <= c_j.  As c_j >= b_j, b_j + 1 failing indices would sum to at
    least (b_j + 1)(c_j - b_j + 1) = b_j (c_j - b_j) + c_j + 1 > c_j, so at
    most b_j fail there.  At most deg b <= D indices fail in all, and some
    v_i works once n + 1 > D.

    Hence, for n >= D, I^(n+1) intersect N lies in I * I^(n-k_n) N, so
    k_(n+1) <= k_n, with k_0 = 0 as I^0 intersect N = N.  The descent for
    each n > D starts at k_(n-1), not at n, and no k_n exceeds the largest
    k_n with n <= max(1, D): the reported Artin-Rees number up to n_max is
    the uniform Artin-Rees number of the pair whenever n_max >= D.

    The same identity forms I^n intersect N for n > max(1, D) as the
    product of I with the previous one, so the powers of I stop at
    I^max(1, D) and only the intersections up to there are formed.
    """
    ideal._check(sub)
    if sub.is_zero:
        raise ValueError("the submodule ideal must be nonzero")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    shifted = list(sub.ladder(ideal, n_max))  # I^j N, j = 0..n_max
    top = max(map(sum, sub.rows))  # D
    powers = ideal.ladder(ideal, min(n_max, max(1, top)) - 1)  # I^n, n <= max(1, D)
    least, meet = [0], None  # k_0: I^0 intersect N = N
    for n in range(1, n_max + 1):
        meet = next(powers) & sub if n <= max(1, top) else ideal * meet
        k = least[-1] if n > top else n
        while k > 0 and shifted[n - k + 1].contains_ideal(meet):
            k -= 1
        least.append(k)
    return ArReport(ideal, sub, n_max, tuple(least[1:]), max(least))


def ar_counterexample_search(ideal, sub, k, ell_max):
    """First ell > k with I^ell != J^(ell-k) I^k and a witness, or None.

    J must sit inside I, so a mismatch is witnessed by a generator of I^ell
    outside the product.  If I^(k+1) = J I^k then, by induction, I^(ell+1) =
    I J^(ell-k) I^k = J^(ell-k) I^(k+1) = J^(ell+1-k) I^k: only ell = k + 1
    is compared, None holds for every ell, and ``ell_max`` is only validated.
    """
    ideal._check(sub)
    if not ideal.contains_ideal(sub):
        raise ValueError("the second ideal must sit inside the first")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if ell_max < k + 1:
        raise ValueError("ell_max must be at least k + 1")
    ik = ideal.power(k)
    lhs, rhs = ik * ideal, ik * sub
    if lhs == rhs:
        return None
    witness = rhs.first_outside(lhs)
    if witness is None:
        raise RuntimeError("internal error: mismatch without witness")
    return k + 1, witness
