"""Exact Buchberger engine, membership questions, and the bound families.

The reduced-basis goldens were computed independently (hand runs and a
second computer algebra system) before being frozen here.
"""

from fractions import Fraction

import pytest

from idealkit import (
    GroebnerBasis,
    MonomialOrder,
    ParseError,
    Polynomial,
    QQ,
    ResourceCapError,
    RingMismatchError,
    buchberger,
    frobenius_containment_check,
    frobenius_power,
    ideal_member,
    jacobian_ideal,
    kollar_bound,
    kollar_family,
    kollar_sharpness,
    local_ideal_member,
    mather_index,
    normal_form,
    parse_field,
    parse_ideal,
    parse_polynomial,
    parse_ring,
    power_membership_index,
    radical_member,
    random_homogeneous,
    random_ideal,
    random_monomial,
    rng_from_seed,
)
from helpers import numbered_ring

R2 = parse_ring("x, y")
R3 = parse_ring("x, y, z")


def poly(text, ring=R2, field=QQ, order=None):
    return parse_polynomial(ring, text, field=field, order=order)


def basis_strings(gens):
    return [str(p) for p in buchberger(gens)]


def test_polynomial_parsing_round_trip():
    for text in ("x^2 - y", "1/2*x*y + 3", "x^3*y^2 - 2*x + 1", "-x + y"):
        f = poly(text)
        assert poly(str(f)) == f


def test_polynomial_parse_errors():
    with pytest.raises(ParseError):
        poly("x^")
    with pytest.raises(ParseError):
        poly("x + + y")
    with pytest.raises(ParseError):
        poly("1/0*x")
    with pytest.raises(ParseError):
        poly("w + 1")


def test_polynomial_arithmetic():
    f = poly("x + y")
    assert f * f == poly("x^2 + 2*x*y + y^2")
    assert f**3 == poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
    assert f - f == Polynomial.zero(R2, QQ, f.order)
    assert (f * f).total_degree() == 2
    assert poly("2*x + 4").monic() == poly("x + 2")


def test_characteristic_two_squares_are_frobenius():
    f2 = parse_field("fp:2")
    f = poly("x + y", field=f2)
    assert f * f == poly("x^2 + y^2", field=f2)


def test_order_distinguishes_leading_terms():
    mixed = parse_polynomial(R3, "x^2*z + x*y^2")
    assert mixed.leading_monomial() == (1, 2, 0)  # graded reverse lex
    lex = parse_polynomial(R3, "x^2*z + x*y^2", order=MonomialOrder.lex(R3))
    assert lex.leading_monomial() == (2, 0, 1)


def test_cross_order_arithmetic_is_rejected():
    plain = poly("x + y")
    other = poly("x + y", order=MonomialOrder.lex(R2))
    with pytest.raises(RingMismatchError):
        plain + other


def test_reduced_basis_goldens():
    assert basis_strings([poly("x^2 - y"), poly("y^2 - 1")]) == [
        "y^2 - 1",
        "x^2 - y",
    ]
    assert basis_strings([poly("x")]) == ["x"]
    assert basis_strings([Polynomial.zero(R2, QQ, poly("x").order)]) == []

    lex = MonomialOrder.lex(R2)
    two = buchberger(
        [poly("x^2 + 2*x*y^2", order=lex), poly("x*y + 2*y^3 - 1", order=lex)]
    )
    assert [str(p) for p in two] == ["y^3 - 1/2", "x"]

    swapped = MonomialOrder.lex(R2, permutation=(1, 0))  # y before x
    basis = buchberger(
        [poly("2*x^2*y + y^2", order=swapped), poly("2*x^3 + x*y - 1", order=swapped)]
    )
    assert [str(p) for p in basis] == ["x^3 - 1/2", "y"]

    lex3 = MonomialOrder.lex(R3)
    twisted = buchberger(
        [
            parse_polynomial(R3, "-x^2 + y", order=lex3),
            parse_polynomial(R3, "-x^3 + z", order=lex3),
        ]
    )
    assert [str(p) for p in twisted] == [
        "y^3 - z^2",
        "x*z - y^2",
        "x*y - z",
        "x^2 - y",
    ]

    curve = buchberger([poly("x^3 - 2*x*y"), poly("x^2*y + x - 2*y^2")])
    assert [str(p) for p in curve] == ["y^2 - 1/2*x", "x*y", "x^2"]


def test_unit_ideal_detection():
    basis = buchberger([poly("x"), poly("x + 1")])
    assert basis.is_unit_ideal()
    assert not buchberger([poly("x^2 - y")]).is_unit_ideal()


def test_normal_form_golden():
    basis = buchberger([poly("x^2"), poly("y^2")])
    remainder = normal_form(poly("x^2 + 2*x*y + y^2"), basis)
    assert str(remainder) == "2*x*y"
    assert not ideal_member(poly("x^2 + 2*x*y + y^2"), basis)
    assert ideal_member(poly("x^2 + y^2"), basis)
    assert not ideal_member(poly("1"), basis)


def test_normal_form_is_idempotent_and_linear():
    rng = rng_from_seed("idealkit:groebner:nf")
    basis = buchberger([poly("x^2 - y"), poly("y^3 - x")])
    for _ in range(60):
        f = random_homogeneous(rng, R2, QQ, rng.randint(1, 5), order=basis.order)
        g = random_homogeneous(rng, R2, QQ, rng.randint(1, 5), order=basis.order)
        nf = normal_form(f, basis)
        assert normal_form(nf, basis) == nf
        total = normal_form(f + g, basis)
        assert total == normal_form(normal_form(f, basis) + normal_form(g, basis), basis)
        assert ideal_member(f - nf, basis)


def test_membership_matches_monomial_engine():
    rng = rng_from_seed("idealkit:groebner:monomial")
    for _ in range(40):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=4)
        order = MonomialOrder.grevlex(ring)
        gens = [
            Polynomial.monomial(ring, QQ, order, g.exponents)
            for g in ideal.generators
        ]
        basis = buchberger(gens)
        for _probe in range(10):
            probe = random_monomial(rng, ring, 6)
            monomial_poly = Polynomial.monomial(ring, QQ, order, probe.exponents)
            assert ideal_member(monomial_poly, basis) == ideal.contains(probe)


def test_certified_basis_rejects_foreign_polynomials():
    basis = buchberger([poly("x^2 - y")])
    with pytest.raises(RingMismatchError):
        basis.normal_form(parse_polynomial(R3, "x"))


def test_resource_caps_abort():
    with pytest.raises(ResourceCapError):
        buchberger([poly("x^7 - y"), poly("x*y^7 - 1")], max_degree=6)
    with pytest.raises(ResourceCapError):
        buchberger(
            [poly("x^3 - y^2"), poly("x*y^4 - x - 1"), poly("y^6 - x^5")],
            max_basis=2,
        )


def test_radical_membership():
    assert radical_member(poly("x"), [poly("x^2")])
    assert not radical_member(poly("y"), [poly("x")])
    assert radical_member(poly("x + y"), [poly("x + y") ** 3])
    f5 = parse_field("fp:5")
    assert radical_member(poly("x", field=f5), [poly("x^5", field=f5)])


def test_power_membership_goldens():
    assert power_membership_index(poly("x + y"), [poly("x^2"), poly("y^2")], 5) == 3
    assert power_membership_index(poly("x^2"), [poly("x^2"), poly("y^2")], 5) == 1
    assert power_membership_index(poly("x"), [poly("x^4")], 6) == 4
    assert power_membership_index(poly("x + y"), [poly("x^2"), poly("y^2")], 2) is None


def test_local_membership_sees_unit_factors():
    # x^2 = (x^2 + x^3) * unit in the local ring, but not globally
    target = poly("x^2")
    gens = [poly("x^2 + x^3")]
    assert not ideal_member(target, buchberger(gens))
    assert local_ideal_member(target, gens)
    assert not local_ideal_member(poly("x"), gens)
    assert local_ideal_member(poly("x^5 - x^2*y"), gens)


def test_jacobian_goldens():
    assert [str(p) for p in jacobian_ideal(poly("x^2 + y^2"))] == ["2*x", "2*y"]
    assert [str(p) for p in jacobian_ideal(poly("x^3*y"))] == ["3*x^2*y", "x^3"]
    constant = jacobian_ideal(poly("5"))
    assert all(p.is_zero for p in constant)


def test_jacobian_warns_in_positive_characteristic():
    f2 = parse_field("fp:2")
    with pytest.warns(RuntimeWarning):
        parts = jacobian_ideal(poly("x^2", field=f2))
    assert all(p.is_zero for p in parts)


def test_mather_index_euler_and_beyond():
    assert mather_index(poly("x^2 + y^2")).index == 1
    deep = mather_index(poly("x^5 + y^5 + x^3*y^3"))
    assert deep.index == 2
    assert deep.within_uniform_bound
    with pytest.raises(ValueError):
        mather_index(poly("x + 1"))
    with pytest.raises(ValueError):
        mather_index(Polynomial.zero(R2, QQ, poly("x").order))
    assert mather_index(poly("x^5 + y^5 + x^3*y^3"), 1).index is None
    for n_max in (0, -1):  # an empty search must not read as "no index"
        with pytest.raises(ValueError, match="n_max"):
            mather_index(poly("x^2 + y^2"), n_max)


def test_homogeneous_polynomials_have_index_one():
    rng = rng_from_seed("idealkit:groebner:euler")
    for _ in range(30):
        ring = numbered_ring(rng.randint(1, 3))
        f = random_homogeneous(rng, ring, QQ, rng.randint(1, 4))
        assert mather_index(f).index == 1


def test_kollar_family_and_sharpness():
    family = kollar_family(3, 2)
    assert [str(p) for p in family] == ["x1^2", "-x2^2 + x1*x3"]
    report = kollar_sharpness(3, 2)
    assert report.found == 4 and report.predicted == 4 and report.matches
    assert kollar_sharpness(3, 3).found == 9
    target = Polynomial.variable(family[0].ring, QQ, family[0].order, 1)
    basis = buchberger(family)
    for d in (1, 2, 3):
        assert not basis.contains(target**d)
    assert radical_member(target, family)
    with pytest.raises(ValueError):
        kollar_family(2, 2)


def test_kollar_bound_arithmetic():
    assert kollar_bound((3, 3, 3), 3).bound == 27
    report = kollar_bound((4, 5), 3)
    assert report.bound == 20 and report.q == 2
    assert kollar_bound((7,), 4).bound == 7
    assert not kollar_bound((2, 2), 2).within_hypothesis
    with pytest.raises(ValueError):
        kollar_bound((), 2)


def test_frobenius_power_goldens():
    f2 = parse_field("fp:2")
    gens = [poly("x", field=f2), poly("y", field=f2)]
    assert [str(p) for p in frobenius_power(gens, 2, 1)] == ["x^2", "y^2"]
    assert frobenius_power(gens, 2, 0) == gens
    mixed = [poly("x + y", field=f2)]
    assert [str(p) for p in frobenius_power(mixed, 2, 1)] == ["x^2 + y^2"]
    with pytest.raises(ValueError):
        frobenius_power([poly("x")], 2, 1)  # rational coefficients


def test_frobenius_containment():
    f2 = parse_field("fp:2")
    gens = [poly("x", field=f2), poly("y", field=f2)]
    report = frobenius_containment_check(gens, 2, 2, 1)
    assert report.contained and report.exponent == 4
    assert report.products_checked == 5
    f3 = parse_field("fp:3")
    r3gens = [
        parse_polynomial(R3, text, field=f3) for text in ("x", "y", "z")
    ]
    assert frobenius_containment_check(r3gens, 3, 3, 1).contained
    with pytest.raises(ValueError):
        frobenius_containment_check(gens, 3, 2, 1)  # t must match the count
    # e and the characteristic are checked before p^e sizes the product count
    with pytest.raises(ValueError, match="nonnegative"):
        frobenius_containment_check(gens, 2, 2, -1)
    with pytest.raises(ValueError, match="characteristic"):
        frobenius_containment_check(gens, 2, 3, 40)
