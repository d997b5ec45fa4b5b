"""Newton polyhedra, integral closure, and the power-containment theorem."""

import pytest

from idealkit import (
    ResourceCapError,
    briancon_skoda_check,
    closure,
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
from idealkit import monomials
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


def test_power_closure_minimalizes_once_per_facet(monkeypatch):
    # one fold per facet, each minimalized once, except the facets with
    # bound 0: every row satisfies them, so they fold first and leave {0};
    # the fold of the last facet leaves the minimal generators
    calls = []
    minimal_rows = monomials._minimal_rows

    def record(rows, layout, kept=()):
        found = minimal_rows(rows, layout, kept)
        calls.append(layout.lex_rows(sorted([*kept, *found])))
        return found

    monkeypatch.setattr(monomials, "_minimal_rows", record)
    ideal = parse_ideal(parse_ring("x, y, z"), "x^3*y, y^2*z^2, x*z^4, x^2*y^2*z")
    facets = newton_polyhedron(ideal).facets
    assert [b for _, b in facets].count(0) == 3
    for n in (1, 2, 3):
        calls.clear()
        closed = closure._power_closure(ideal.ring, facets, n)
        assert len(calls) == len(facets) - 3
        assert [g.exponents for g in closed.generators] == calls[-1][::-1]


def test_elimination_refuses_a_step_before_forming_its_rows(monkeypatch):
    # eliminating J^2's multipliers hands _prune 13, 14, 17, 25, 55, 43 rows
    ring = parse_ring("x1, x2, x3")
    square = parse_ideal(ring, "x1^3*x3^2, x1*x2^2*x3, x1*x2*x3^2").power(2)
    cap = 30
    monkeypatch.setattr(closure, "_FM_ROW_CAP", cap)
    sizes = []
    prune = closure._prune
    monkeypatch.setattr(closure, "_prune", lambda rows: sizes.append(len(rows)) or prune(rows))
    with pytest.raises(ResourceCapError, match="facet elimination exceeded the row cap"):
        newton_polyhedron(square)
    assert sizes and max(sizes) <= cap


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


def test_closure_powers_grow_by_one_factor_from_the_support_size_on():
    # the lemma both scans stop by: closure(I^(n+1)) = I * closure(I^n) for
    # n >= s - 1, s the number of variables in I's support
    rng = rng_from_seed("idealkit:closure:caratheodory")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 5))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=4)
        s = sum(map(any, zip(*ideal.rows)))
        facets = newton_polyhedron(ideal).facets
        for n in (s - 1, s):
            assert closure._power_closure(ring, facets, n + 1) == (
                ideal * closure._power_closure(ring, facets, n)), (ideal, n)


def test_uniform_bs_number_needs_the_last_power_before_the_bound():
    # k_1 = 1 and k_2 = 2 in three variables: the scan must reach n = s - 1
    ideal = parse_ideal(parse_ring("x, y, z"), "x^4, y^3, z^3")
    assert uniform_bs_number(ideal, 1) == 1
    for n_max in range(2, 9):
        assert uniform_bs_number(ideal, n_max) == 2


def test_briancon_skoda_first_fails_at_the_bound():
    # four variables: n = s - 1 = 3 is the last power scanned, and the
    # first failure is there
    ring = parse_ring("x, y, z, w")
    ideal = parse_ideal(ring, "x^4*y^3, x^4*y*z^2, x*y^4*z^2, w^4")
    assert briancon_skoda_check(ideal, 2, 2).ok
    for n_max in (3, 4, 7):
        report = briancon_skoda_check(ideal, 2, n_max)
        assert report.to_json() == {"ell": 2, "n_max": n_max, "ok": False,
                                    "failure": {"n": 3, "monomial": "x^7*y^6*z^3*w^3"}}
    # three variables, ell = 1: the closure of (x^2, y^3, z^7) is closed,
    # its square is not, and n = s - 1 = 2 is the last power scanned
    ring = parse_ring("x, y, z")
    ideal = integral_closure(parse_ideal(ring, "x^2, y^3, z^7"))
    assert str(ideal) == "z^7, y*z^5, x*z^4, y^2*z^3, x*y*z^2, x*y^2, y^3, x^2"
    assert briancon_skoda_check(ideal, 1, 1).ok
    for n_max in (2, 3, 6):
        assert briancon_skoda_check(ideal, 1, n_max).failure == (
            2, parse_monomial(ring, "x*y^2*z^6"))
