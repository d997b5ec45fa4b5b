"""Newton polyhedra, integral closure, and the power-containment theorem."""

import pytest

from idealkit import (
    briancon_skoda_check,
    integral_closure,
    is_integral,
    newton_polyhedron,
    parse_ideal,
    parse_monomial,
    parse_ring,
    random_ideal,
    rng_from_seed,
    uniform_bs_number,
)
from helpers import (
    closure_by_box_scan,
    closure_certificate,
    compositions,
    numbered_ring,
    scan_member,
)

R2 = parse_ring("x, y")


def test_newton_polyhedron_membership():
    region = newton_polyhedron(parse_ideal(R2, "x^3, y^3"))
    assert region.contains((3, 0)) and region.contains((2, 1))
    assert not region.contains((1, 1))
    line = newton_polyhedron(parse_ideal(R2, "x"))
    assert line.contains((1, 0)) and line.contains((5, 3))
    assert not line.contains((0, 9))
    quad = newton_polyhedron(parse_ideal(R2, "x^2, x*y, y^2"))
    assert quad.contains((1, 1))
    assert not quad.contains((1, 0))
    assert region.denominator_lcm() >= 1


def test_is_integral_examples():
    squares = parse_ideal(R2, "x^2, y^2")
    assert is_integral(parse_monomial(R2, "x*y"), squares)
    assert not is_integral(parse_monomial(R2, "x"), squares)
    for gen in squares.generators:
        assert is_integral(gen, squares)


def test_closure_goldens():
    assert integral_closure(parse_ideal(R2, "x^3, y^3")) == parse_ideal(
        R2, "x^3, x^2*y, x*y^2, y^3"
    )
    assert integral_closure(parse_ideal(R2, "x, y")) == parse_ideal(R2, "x, y")
    assert integral_closure(parse_ideal(R2, "x^4, x^2*y, y^3")) == parse_ideal(
        R2, "x^4, x^2*y, x*y^2, y^3"
    )


def test_closure_of_two_pure_powers_is_power_of_maximal():
    for d in range(2, 7):
        closed = integral_closure(parse_ideal(R2, f"x^{d}, y^{d}"))
        assert closed == parse_ideal(R2, "x, y").power(d)


def test_closure_is_idempotent_and_monotone():
    rng = rng_from_seed("idealkit:closure:lattice")
    for _ in range(60):
        ring = numbered_ring(rng.randint(2, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=5)
        closed = integral_closure(ideal)
        assert closed.contains_ideal(ideal)
        assert integral_closure(closed) == closed
        bigger = random_ideal(rng, ring, max_generators=2, max_degree=4)
        merged = ring.ideal(str(ideal) + ", " + str(bigger))
        assert integral_closure(merged).contains_ideal(closed)


def test_closure_matches_certificate_oracle():
    # sound direction everywhere, completeness on a bounded box
    rng = rng_from_seed("idealkit:closure:oracle")
    for _ in range(25):
        ring = numbered_ring(rng.randint(2, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=4)
        closed = integral_closure(ideal)
        cap = min(24, max(1, newton_polyhedron(ideal).denominator_lcm()))
        for degree in range(0, 9):
            for exps in compositions(degree, ring.n):
                certified = closure_certificate(ideal, exps, cap)
                member = scan_member(closed, exps)
                assert certified == member


def test_closure_matches_box_scan_oracle():
    # with four variables, a facet lost to a wrong rank shows up here
    rng = rng_from_seed("idealkit:closure:box")
    for _ in range(400):
        ring = numbered_ring(rng.randint(2, 4))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=5)
        assert integral_closure(ideal) == closure_by_box_scan(ideal)


def test_facet_found_by_exact_rank():
    ring = parse_ring("x0, x1, x2, x3")
    ideal = parse_ideal(ring, "x1^2*x2^4*x3^2, x0^3*x1^2*x2, x1*x2*x3^3")
    assert ((2, 0, 0, 3), 6) in newton_polyhedron(ideal).facets
    # every generator has x0 or x3, so no power of x1^4*x2^10 lands in I^m
    assert not is_integral(parse_monomial(ring, "x1^4*x2^10"), ideal)


def test_briancon_skoda_goldens():
    assert briancon_skoda_check(parse_ideal(R2, "x^3, y^3"), 2, 5).ok
    assert briancon_skoda_check(parse_ideal(R2, "x, y"), 1, 4).ok
    report = briancon_skoda_check(parse_ideal(R2, "x^3, y^3"), 2, 5)
    assert report.ell == 2 and report.n_max == 5 and report.failure is None


def test_briancon_skoda_on_random_two_generator_ideals():
    rng = rng_from_seed("idealkit:closure:bs")
    for _ in range(40):
        ring = numbered_ring(rng.randint(2, 3))
        ideal = random_ideal(rng, ring, max_generators=2, max_degree=5)
        count = len(ideal.generators)
        assert briancon_skoda_check(ideal, count, 4).ok


def test_uniform_bs_numbers():
    assert uniform_bs_number(parse_ideal(R2, "x, y"), 5) == 0
    assert uniform_bs_number(parse_ideal(R2, "x^3, y^3"), 5) == 1
    assert uniform_bs_number(parse_ideal(R2, "x^2, x*y, y^2"), 5) == 0


def test_power_scans_match_closures_of_computed_powers():
    # both scans take closure(I^n) from I's facets scaled by n; the
    # reference computes each power and its own Newton polyhedron
    rng = rng_from_seed("idealkit:closure:powers")
    for _ in range(60):
        ring = numbered_ring(rng.randint(2, 3))
        ideal = random_ideal(rng, ring, max_generators=3, max_degree=3)
        closures = {n: integral_closure(ideal.power(n)) for n in range(1, 4)}
        k = next(k for k in range(4) if all(
            ideal.power(n - k).contains_ideal(closures[n]) for n in range(max(k, 1), 4)))
        assert uniform_bs_number(ideal, 3) == k
        for ell in (1, 2):
            failure = next(((n, g) for n in range(ell, 4) for g in closures[n].generators
                            if g not in ideal.power(n - ell + 1)), None)
            assert briancon_skoda_check(ideal, ell, 3).failure == failure
