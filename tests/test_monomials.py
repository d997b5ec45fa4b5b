"""Monomial and ideal arithmetic, pinned examples plus enumeration oracles."""

import pytest

from idealkit import (
    Monomial,
    MonomialIdeal,
    ParseError,
    ResourceCapError,
    RingMismatchError,
    parse_ideal,
    parse_monomial,
    parse_ring,
    random_ideal,
    random_monomial,
    rng_from_seed,
)
from helpers import numbered_ring, scan_member

R2 = parse_ring("x, y")
R3 = parse_ring("x, y, z")
TRIANGLE = parse_ideal(R3, "x*y, x*z, y*z")


def test_divisibility_basics():
    one = parse_monomial(R2, "1")
    x = parse_monomial(R2, "x")
    x2y = parse_monomial(R2, "x^2*y")
    xy3 = parse_monomial(R2, "x*y^3")
    assert x.divides(x2y)
    assert not x2y.divides(xy3)
    assert one.divides(x) and one.divides(x2y) and one.divides(one)


def test_monomial_algebra():
    a = parse_monomial(R2, "x^2*y")
    b = parse_monomial(R2, "x*y^3")
    assert str(a * b) == "x^3*y^4"
    assert str(a.lcm(b)) == "x^2*y^3"
    assert str(a.gcd(b)) == "x*y"
    assert (a * b) / b == a
    assert str(b.squarefree_part()) == "x*y"
    assert a.degree == 3 and a.support == frozenset({0, 1})
    with pytest.raises(ValueError):
        parse_monomial(R2, "y") / parse_monomial(R2, "x")


def test_minimal_generators_prune_multiples():
    assert parse_ideal(R2, "x^2, x^2*y, y") == parse_ideal(R2, "x^2, y")
    assert MonomialIdeal.from_generators(R2, []).is_zero
    assert [str(g) for g in TRIANGLE.generators] == ["x*y", "x*z", "y*z"]


def test_canonical_generator_order_is_degree_then_exponents():
    ideal = parse_ideal(R3, "y*z, x^3, x*y")
    assert str(ideal) == "x^3, x*y, y*z"


def test_contains():
    assert parse_monomial(R3, "x^2*y") in TRIANGLE
    assert parse_monomial(R3, "x*y*z") in TRIANGLE
    assert parse_monomial(R2, "x*y") not in parse_ideal(R2, "x^2, y^2")
    assert not MonomialIdeal.zero(R2).contains(parse_monomial(R2, "x"))
    assert parse_monomial(R2, "1") in MonomialIdeal.unit(R2)


def test_product_golden():
    square = TRIANGLE * TRIANGLE
    assert square == parse_ideal(
        R3, "x^2*y^2, x^2*y*z, x^2*z^2, x*y^2*z, x*y*z^2, y^2*z^2"
    )
    assert parse_ideal(R2, "x") * parse_ideal(R2, "y") == parse_ideal(R2, "x*y")
    assert TRIANGLE.power(1) == TRIANGLE
    assert TRIANGLE ** 2 == square


def test_intersection_golden():
    assert parse_ideal(R2, "x") & parse_ideal(R2, "y") == parse_ideal(R2, "x*y")
    meet = parse_ideal(R3, "x, y") & parse_ideal(R3, "x, z") & parse_ideal(R3, "y, z")
    assert meet == TRIANGLE
    assert parse_ideal(R2, "x^2, y").intersect(parse_ideal(R2, "x")) == parse_ideal(
        R2, "x^2, x*y"
    )


def test_colon_golden():
    assert parse_ideal(R2, "x^2*y").colon(parse_monomial(R2, "x")) == parse_ideal(
        R2, "x*y"
    )
    assert TRIANGLE.colon(parse_monomial(R3, "x")) == parse_ideal(R3, "y, z")
    assert TRIANGLE.colon(parse_monomial(R3, "1")) == TRIANGLE


def test_radical_golden():
    assert parse_ideal(R2, "x^2, y^3").radical() == parse_ideal(R2, "x, y")
    assert TRIANGLE.radical() == TRIANGLE
    assert parse_ideal(R2, "x^2*y").radical() == parse_ideal(R2, "x*y")


def test_minor_golden():
    assert TRIANGLE.minor(zeros=("z",)) == parse_ideal(R2, "x*y")
    assert TRIANGLE.minor(ones=("z",)) == parse_ideal(R2, "x, y")
    assert TRIANGLE.minor() == TRIANGLE
    with pytest.raises(ValueError):
        TRIANGLE.minor(zeros=("x",), ones=("x",))


def test_power_of_maximal_ideal_generator_count():
    maximal = parse_ideal(R2, "x, y")
    for power in (1, 2, 5, 9):
        assert len(maximal.power(power).generators) == power + 1


def test_parse_round_trip():
    rng = rng_from_seed("idealkit:monomials:roundtrip")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=6, max_degree=5)
        assert parse_ideal(ring, str(ideal)) == ideal
        probe = random_monomial(rng, ring, 6)
        assert parse_monomial(ring, str(probe)) == probe


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_monomial(R2, "x^")
    with pytest.raises(ParseError):
        parse_ideal(R2, "x, w")
    with pytest.raises(ParseError):
        parse_ring("x,, y")


def test_cross_ring_operations_are_rejected():
    with pytest.raises(RingMismatchError):
        parse_ideal(R2, "x").intersect(parse_ideal(R3, "x"))
    with pytest.raises(RingMismatchError):
        parse_monomial(R2, "x").divides(parse_monomial(R3, "x"))


def test_exponent_cap_guard():
    with pytest.raises(ResourceCapError):
        parse_ideal(R2, "x^600000").power(2)


def test_pairing_cap_trips_before_forming_rows(monkeypatch):
    # 3 x 3 generator pairs exceed a cap of 8; 3 x 2 pairs stay within it
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 8)
    two = parse_ideal(R3, "x, y")
    assert TRIANGLE * two == parse_ideal(R3, "x^2*y, x*y^2, x^2*z, x*y*z, y^2*z")
    assert TRIANGLE & two == TRIANGLE
    with pytest.raises(ResourceCapError, match="product would make over 8 rows"):
        TRIANGLE * TRIANGLE
    with pytest.raises(ResourceCapError, match="intersection would make over 8 rows"):
        TRIANGLE & TRIANGLE
    with pytest.raises(ResourceCapError):
        TRIANGLE.power(2)


def test_product_membership_matches_pairwise_scan():
    rng = rng_from_seed("idealkit:monomials:product")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 3))
        left = random_ideal(rng, ring, max_generators=4, max_degree=4)
        right = random_ideal(rng, ring, max_generators=4, max_degree=4)
        probe = random_monomial(rng, ring, 8)
        direct = any(
            all(a + b <= c for a, b, c in zip(g.exponents, h.exponents, probe.exponents))
            for g in left.generators
            for h in right.generators
        )
        assert (left * right).contains(probe) == direct


def test_intersection_membership_is_conjunction():
    rng = rng_from_seed("idealkit:monomials:intersect")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 3))
        left = random_ideal(rng, ring, max_generators=4, max_degree=4)
        right = random_ideal(rng, ring, max_generators=4, max_degree=4)
        meet = left.intersect(right)
        probe = random_monomial(rng, ring, 8)
        assert meet.contains(probe) == (left.contains(probe) and right.contains(probe))


def test_colon_membership_matches_definition():
    rng = rng_from_seed("idealkit:monomials:colon")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=4)
        divisor = random_monomial(rng, ring, 3)
        quotient = ideal.colon(divisor)
        probe = random_monomial(rng, ring, 6)
        assert quotient.contains(probe) == ideal.contains(probe * divisor)


def test_radical_membership_matches_power_scan():
    # x^a lies in the radical iff a high power of it lands in the ideal;
    # the max generator exponent bounds how high is high enough
    rng = rng_from_seed("idealkit:monomials:radical")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=4)
        bound = max(max(g.exponents) for g in ideal.generators)
        probe = random_monomial(rng, ring, 4)
        scaled = tuple(e * bound for e in probe.exponents)
        assert ideal.radical().contains(probe) == scan_member(ideal, scaled)


def test_power_is_iterated_product():
    rng = rng_from_seed("idealkit:monomials:power")
    for _ in range(60):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=3)
        assert ideal.power(2) == ideal * ideal
        assert ideal.power(3) == ideal * ideal * ideal
        assert ideal.power(2) * ideal.power(1) == ideal.power(3)


def test_generators_are_always_minimal_antichains():
    rng = rng_from_seed("idealkit:monomials:antichain")
    for _ in range(100):
        ring = numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=6, max_degree=5)
        square = ideal * ideal
        gens = square.generators
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                assert i == j or not g.divides(h)
