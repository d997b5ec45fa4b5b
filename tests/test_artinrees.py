"""Containment numbers for ideal pairs and the two-variable mismatch family."""

import pytest

from idealkit import (
    MonomialIdeal,
    ar_counterexample_search,
    artin_rees_number,
    parse_ideal,
    parse_ring,
    random_ideal,
    rng_from_seed,
)
from helpers import artin_rees_number_by_intersections, numbered_ring

R2 = parse_ring("x, y")


def family(n):
    ideal = parse_ideal(R2, f"x^{n}, y^{n}, x^{n - 1}*y")
    sub = parse_ideal(R2, f"x^{n}, y^{n}")
    return ideal, sub


def test_artin_rees_number_goldens():
    report = artin_rees_number(parse_ideal(R2, "x, y"), parse_ideal(R2, "x"), 5)
    assert report.ar_number == 1
    report = artin_rees_number(parse_ideal(R2, "x, y"), MonomialIdeal.unit(R2), 5)
    assert report.ar_number == 0
    report = artin_rees_number(parse_ideal(R2, "x^2"), parse_ideal(R2, "y"), 4)
    assert report.ar_number == 0


def test_artin_rees_number_rejects_zero_submodule():
    with pytest.raises(ValueError):
        artin_rees_number(parse_ideal(R2, "x, y"), MonomialIdeal.zero(R2), 3)


def test_mismatch_found_below_the_boundary():
    ideal, sub = family(3)
    ell, witness = ar_counterexample_search(ideal, sub, 1, 6)
    assert ell == 2 and str(witness) == "x^4*y^2"
    ideal, sub = family(4)
    ell, witness = ar_counterexample_search(ideal, sub, 2, 8)
    assert ell == 3 and str(witness) == "x^9*y^3"
    ell, witness = ar_counterexample_search(ideal, sub, 1, 8)
    assert ell == 2 and str(witness) == "x^6*y^2"


def test_no_mismatch_at_or_above_the_boundary():
    # the third generator to the n-th power equals a product of the other
    # two, so every factorization can shed mixed factors down to n-1 of
    # them: searches at k >= n-1 must come back empty
    for n in (2, 3, 4):
        ideal, sub = family(n)
        assert ar_counterexample_search(ideal, sub, n - 1, 3 * n) is None
        assert ar_counterexample_search(ideal, sub, n, 3 * n) is None


def test_search_with_equal_ideals_finds_nothing():
    ideal, _ = family(3)
    assert ar_counterexample_search(ideal, ideal, 2, 6) is None


def test_search_validates_inputs():
    ideal, sub = family(3)
    with pytest.raises(ValueError):
        ar_counterexample_search(sub, ideal, 1, 6)  # sub must sit inside ideal
    with pytest.raises(ValueError):
        ar_counterexample_search(ideal, sub, 3, 3)  # ell_max below k + 1


def test_witnesses_separate_the_two_sides():
    ideal, sub = family(3)
    ell, witness = ar_counterexample_search(ideal, sub, 1, 6)
    assert witness in ideal.power(ell)
    assert witness not in sub.power(ell - 1) * ideal


def test_weak_artin_rees_on_corpus():
    rng = rng_from_seed("idealkit:artinrees:weak")
    for _ in range(30):
        ring = numbered_ring(rng.randint(2, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=3)
        sub = random_ideal(rng, ring, max_generators=3, max_degree=3)
        report = artin_rees_number(ideal, sub, 5)
        assert 0 <= report.ar_number <= 5
        assert report.to_json()["ar_number"] == report.ar_number


def test_empirical_number_is_monotone_in_the_horizon():
    rng = rng_from_seed("idealkit:artinrees:monotone")
    for _ in range(20):
        ring = numbered_ring(2)
        ideal = random_ideal(rng, ring, max_generators=3, max_degree=3)
        sub = random_ideal(rng, ring, max_generators=2, max_degree=3)
        short = artin_rees_number(ideal, sub, 3).ar_number
        long = artin_rees_number(ideal, sub, 6).ar_number
        assert short <= long


def test_meets_grow_by_one_factor_from_the_submodule_degree_on():
    # the pigeonhole lemma: I^(n+1) meet N = I * (I^n meet N) for n >= D,
    # D the largest generator degree of N
    rng = rng_from_seed("idealkit:artinrees:pigeonhole")
    for _ in range(100):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=3, max_degree=3)
        sub = random_ideal(rng, ring, max_generators=3, max_degree=3)
        top = max(map(sum, sub.rows))
        for n in (top, top + 1):
            assert ideal.power(n + 1) & sub == ideal * (ideal.power(n) & sub), (ideal, sub, n)


def test_artin_rees_descent_shortcut_starts_past_the_degree():
    # D = 2: k_2 = 2 > k_1, so starting the shortcut at n = D would give 1
    report = artin_rees_number(parse_ideal(R2, "x*y"), parse_ideal(R2, "y^2"), 5)
    assert report.least_k == (1, 2, 2, 2, 2) and report.ar_number == 2
    # D = 0: the unit ideal meets I^n in I^n itself
    report = artin_rees_number(parse_ideal(R2, "x^2, y"), MonomialIdeal.unit(R2), 4)
    assert report.least_k == (0, 0, 0, 0)


def test_product_recurrence_matches_the_intersection_loop():
    # past D the meets come from products with I, and the powers stop at
    # I^max(1, D); least_k must be what an intersection at every n gives
    rng = rng_from_seed("idealkit:artinrees:recurrence")
    past = 0
    for _ in range(200):
        ring = numbered_ring(3)
        ideal = random_ideal(rng, ring, max_generators=3, max_degree=3)
        sub = random_ideal(rng, ring, max_generators=3, max_degree=rng.randint(1, 3))
        n_max = rng.randint(1, 6)
        report = artin_rees_number(ideal, sub, n_max)
        assert report == artin_rees_number_by_intersections(ideal, sub, n_max), (ideal, sub)
        past += n_max > max(map(sum, sub.rows))
    assert past >= 50
