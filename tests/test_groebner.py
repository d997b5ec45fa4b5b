"""Exact Buchberger engine, membership questions, and the bound families.

The reduced-basis goldens were computed independently (hand runs and a
second computer algebra system) before being frozen here.

The certificate reduces only the S-pairs that ``_certificate_pairs`` keeps,
chosen on packed lead fields; ``certificate_pairs_differential`` holds that
choice to ``helpers.certificate_pairs_by_tuples``, list for list.
A seeded differential holds it to the all-pairs certificate it replaced,
``helpers.certify_all_pairs``, on reduced bases over QQ, GF(32003) and
GF(2) in lex and grevlex, as computed and after one corruption: a perturbed
tail coefficient, a dropped element or an extra element.  Both must pass,
or both raise with the same message.  Run it at larger sizes with::

    PYTHONPATH=src:tests python -c "import test_groebner as t; print(t.certificate_differential(SEED, COUNT))"

Over QQ the engine certifies on primitive integer polynomials.  A second
differential, ``rational_certificate_differential``, corrupts rational
bases so that scaling could hide an error if it were wrong: a tail
coefficient moved by 1/2 must fail, an element scaled by 2/3 (still a
Groebner basis) must pass, and ``_certify``, ``certify_all_pairs`` and
``helpers.certify_by_fractions``, which computes on Fractions alone, must
agree.

The Frobenius containment check forms and reduces its products on packed
keys.  ``frobenius_differential`` holds its whole ``FrobeniusCheck`` to
``helpers.frobenius_check_by_polynomials``, the Polynomial loop it
replaced, on seeded non-monomial ideals over GF(2), GF(3) and GF(5) in
lex, permuted lex and grevlex, with e = 0, 1, 2.  Run it at larger sizes
with::

    PYTHONPATH=src:tests python -c "import test_groebner as t; print(t.frobenius_differential(SEED, COUNT))"
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from idealkit import (
    GroebnerBasis,
    MonomialOrder,
    ParseError,
    Polynomial,
    PrimeField,
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
from idealkit import groebner
from idealkit.monomials import PackedLayout
from helpers import (
    certificate_pairs_by_fields,
    certificate_pairs_by_tuples,
    certify_all_pairs,
    certify_by_fractions,
    compositions,
    cyclic_system,
    frobenius_check_by_polynomials,
    numbered_ring,
    random_rational_poly,
    random_sparse_poly,
)

R2 = parse_ring("x, y")
R3 = parse_ring("x, y, z")
GFP = PrimeField(32003)
CERTIFICATE_FIELDS = (QQ, GFP, PrimeField(2))
CERTIFICATE_BASES = 300
FROBENIUS_FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5))
FROBENIUS_CAP = 200
FROBENIUS_CASES = 216


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


def test_certificate_fires_on_a_dropped_basis_element(monkeypatch):
    # {y^2 - 1} passes the S-polynomial check but misses x^2 - y
    interreduce = groebner._interreduce
    monkeypatch.setattr(
        groebner, "_interreduce", lambda reducers, active: interreduce(reducers, active)[:-1])
    with pytest.raises(RuntimeError, match="^internal error: an input generator"):
        buchberger([poly("x^2 - y"), poly("y^2 - 1")])
    assert len(buchberger([poly("x^2 - y"), poly("y^2 - 1")], certify=False)) == 1


def test_certificate_fires_on_a_perturbed_tail_coefficient(monkeypatch):
    interreduce = groebner._interreduce

    def perturbed(reducers, active):
        out = interreduce(reducers, active)
        last = out[-1]  # x^2 - y, which becomes x^2 - 2*y
        terms = list(last.terms)
        terms[1] = (terms[1][0], 2 * terms[1][1])
        out[-1] = Polynomial(last.ring, last.field, last.order, terms)
        return out

    monkeypatch.setattr(groebner, "_interreduce", perturbed)
    lex3 = MonomialOrder.lex(R3)
    twisted = [
        parse_polynomial(R3, "-x^2 + y", order=lex3),
        parse_polynomial(R3, "-x^3 + z", order=lex3),
    ]
    with pytest.raises(RuntimeError, match="^internal error: an S-polynomial"):
        buchberger(twisted)


def _corrupt(rng, polys, gens, corruption):
    """``polys`` after ``corruption``; "perturb" needs an element with a tail."""
    polys = list(polys)
    if corruption == "perturb":
        i = rng.choice([i for i, p in enumerate(polys) if len(p.terms) > 1])
        p = polys[i]
        terms = list(p.terms)
        t = rng.randrange(1, len(terms))
        exps, coeff = terms[t]
        terms[t] = (exps, p.field.add(coeff, p.field.one))  # over GF(2) it vanishes
        polys[i] = Polynomial(p.ring, p.field, p.order, terms)
    elif corruption == "drop":
        del polys[rng.randrange(len(polys))]
    elif corruption == "extra":
        g = gens[0]
        extra = random_sparse_poly(rng, g.ring, g.field, g.order, 3, rng.randint(1, 3), 1)
        if rng.random() < 0.5:
            extra = rng.choice(gens) * extra  # inside the ideal
        if not extra.is_zero:
            polys.insert(rng.randint(0, len(polys)), extra)
    return polys


def _certificate_outcome(certify, gb, gens):
    try:
        certify(gb, gens)
    except RuntimeError as exc:
        return str(exc)
    return "pass"


def certificate_differential(seed, count):
    """Certify ``count`` seeded bases with ``groebner._certify`` and with
    ``helpers.certify_all_pairs``, and fail on any difference.

    Each basis is the reduced basis of 2-4 random polynomials on 2-4
    variables, the corruption cycling through none, perturb, drop and
    extra within each field and order.  Returns a ``Counter`` of (corruption, outcome), plus the pairs
    the two certificates formed under "pairs" and "all pairs" and the
    coprime ones among all pairs under "coprime".
    """
    rng = random.Random(seed)
    kinds = Counter()
    corruptions = ("none", "perturb", "drop", "extra")
    done = 0
    while done < count:
        # every 24 bases take each (corruption, field, order) once
        field = CERTIFICATE_FIELDS[done // 4 % 3]
        ring = numbered_ring(rng.randint(2, 4))
        kind = ("lex", "grevlex")[done // 12 % 2]
        order = getattr(MonomialOrder, kind)(ring)
        # no constant terms, so the ideal is never the unit ideal
        gens = [
            random_sparse_poly(rng, ring, field, order, rng.randint(2, 3), rng.randint(2, 4), 1)
            for _ in range(rng.randint(2, 4))
        ]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        try:
            polys = buchberger(gens, max_basis=40, max_degree=10, certify=False).polys
        except ResourceCapError:
            continue
        corruption = corruptions[done % 4]
        if corruption == "perturb" and all(len(p.terms) == 1 for p in polys):
            continue
        done += 1
        polys = _corrupt(rng, polys, gens, corruption)
        gb = GroebnerBasis(ring, field, order, tuple(polys), certified=False)
        got = _certificate_outcome(groebner._certify, gb, gens)
        want = _certificate_outcome(certify_all_pairs, gb, gens)
        assert got == want, (seed, done, corruption, [str(p) for p in polys], got, want)
        kinds[corruption, got] += 1
        leads = [p.terms[0][0] for p in polys]
        layout = groebner._layout(order, max(map(sum, leads), default=0))
        pairs = certificate_pairs_by_fields(layout, leads)
        assert pairs == certificate_pairs_by_tuples(leads), (seed, done, leads)
        kinds["pairs"] += len(pairs)
        kinds["all pairs"] += comb(len(leads), 2)
        kinds["coprime"] += sum(
            not any(map(min, a, b)) for a, b in combinations(leads, 2)
        )
    return kinds


def test_pruned_certificate_agrees_with_all_pairs():
    kinds = certificate_differential(seed=23, count=CERTIFICATE_BASES)
    s_fail = "internal error: an S-polynomial of the reduced basis does not reduce to zero"
    gen_fail = ("internal error: an input generator does not reduce to zero "
                "against the reduced basis")
    # the sample reaches every outcome each corruption can have
    for key in (
        ("none", "pass"),
        ("perturb", s_fail), ("perturb", gen_fail),
        ("drop", gen_fail),
        ("extra", "pass"), ("extra", s_fail),
    ):
        assert kinds[key] > 0, (key, kinds)
    assert kinds["none", "pass"] == CERTIFICATE_BASES // 4
    # the chain criterion leaves out pairs that are not coprime
    assert kinds["pairs"] + kinds["coprime"] < kinds["all pairs"], kinds


def rational_certificate_differential(seed, count):
    """Certify ``count`` corrupted rational bases three ways and fail on
    any difference, or on an outcome the corruption does not allow.

    Each basis is the reduced basis of 2-3 random rational polynomials
    (``helpers.random_rational_poly``, no constant terms) on 2-3
    variables, in lex and grevlex by turns.  Then one element is changed:
    "half" adds 1/2 to a tail coefficient, which takes the element out of
    the ideal, so the basis must fail; "scale" multiplies it by 2/3, which
    keeps a Groebner basis of the same ideal, so it must pass.  Returns a
    ``Counter`` of (corruption, outcome).
    """
    rng = random.Random(seed)
    kinds = Counter()
    done = 0
    while done < count:
        ring = numbered_ring(rng.randint(2, 3))
        kind = ("lex", "grevlex")[done // 2 % 2]
        order = getattr(MonomialOrder, kind)(ring)
        gens = [
            random_rational_poly(rng, ring, order, rng.randint(2, 3), rng.randint(2, 3), 1)
            for _ in range(rng.randint(2, 3))
        ]
        try:
            polys = list(buchberger(gens, max_basis=40, max_degree=10, certify=False).polys)
        except ResourceCapError:
            continue
        corruption = ("half", "scale")[done % 2]
        tailed = [i for i, p in enumerate(polys) if len(p.terms) > 1]
        if corruption == "half" and not tailed:
            continue
        done += 1
        if corruption == "half":
            p = polys[rng.choice(tailed)]
            terms = list(p.terms)
            t = rng.randrange(1, len(terms))
            terms[t] = (terms[t][0], terms[t][1] + Fraction(1, 2))
            polys[polys.index(p)] = Polynomial(ring, QQ, order, terms)
        else:
            i = rng.randrange(len(polys))
            polys[i] = polys[i].scale(Fraction(2, 3))
        gb = GroebnerBasis(ring, QQ, order, tuple(polys), certified=False)
        outcomes = [
            _certificate_outcome(certify, gb, gens)
            for certify in (groebner._certify, certify_all_pairs, certify_by_fractions)
        ]
        assert len(set(outcomes)) == 1, (seed, done, [str(p) for p in polys], outcomes)
        assert (outcomes[0] == "pass") == (corruption == "scale"), (seed, done, outcomes)
        kinds[corruption, outcomes[0]] += 1
    return kinds


def test_rational_certificate_sees_through_scaling():
    kinds = rational_certificate_differential(seed=25, count=120)
    s_fail = "internal error: an S-polynomial of the reduced basis does not reduce to zero"
    gen_fail = ("internal error: an input generator does not reduce to zero "
                "against the reduced basis")
    assert kinds["scale", "pass"] == 60
    assert kinds["half", s_fail] > 0 and kinds["half", gen_fail] > 0, kinds


def test_certificate_pairs_skip_coprime_and_chained_pairs():
    for kind in ("lex", "grevlex"):
        layout = PackedLayout.fitting(kind, (0, 1), 6)
        # x^2 and y are coprime; y divides lcm(x^2, x*y) = x^2*y, but
        # lcm(x^2, y) is that same lcm, so (0, 2) is kept
        leads = [(2, 0), (0, 1), (1, 1)]
        assert certificate_pairs_by_fields(layout, leads) == [(0, 2), (1, 2)]
        # x^2*y^2 divides x^3*y^3 = lcm(x^3*y, x*y^3), and its lcms with
        # both are proper divisors of it, so (0, 2) is left out
        leads = [(3, 1), (2, 2), (1, 3)]
        assert certificate_pairs_by_fields(layout, leads) == [(0, 1), (1, 2)]


def _random_leads(rng, n, cap):
    """2-8 leading exponent tuples on n variables, each exponent 0, 1, cap
    or between, then by turns a repeat of one of them or a pure power,
    coprime to every lead without that variable."""
    leads = [tuple(rng.choice((0, 0, 1, cap, rng.randint(0, cap))) for _ in range(n))
             for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.5:
        leads.insert(rng.randint(0, len(leads)), rng.choice(leads))
    else:
        power = [0] * n
        power[rng.randrange(n)] = rng.randint(1, cap)
        leads.insert(rng.randint(0, len(leads)), tuple(power))
    return leads


def certificate_pairs_differential(seed, count):
    """``groebner._certificate_pairs`` on packed fields against
    ``helpers.certificate_pairs_by_tuples`` on ``count`` seeded lead sets,
    and fail unless the ordered pair lists are identical.

    Each set has 2-5 variables, a lex or grevlex layout over a random
    variable order whose cap is 1, 3, 7 or 63, or that layout made wider,
    and leads from ``_random_leads``.  Returns a ``Counter`` of what was
    reached.
    """
    rng = random.Random(seed)
    seen = Counter()
    for index in range(count):
        n = rng.randint(2, 5)
        kind = ("lex", "grevlex")[index % 2]
        layout = PackedLayout.fitting(kind, tuple(rng.sample(range(n), n)),
                                      rng.choice((1, 3, 7, 63)))
        if index // 2 % 2:
            layout = layout.wider()
        leads = _random_leads(rng, n, layout.cap)
        got = certificate_pairs_by_fields(layout, leads)
        assert got == certificate_pairs_by_tuples(leads), (seed, index, layout, leads)
        everything = list(combinations(range(len(leads)), 2))
        coprime = [(i, j) for i, j in everything if not any(map(min, leads[i], leads[j]))]
        seen[kind, n, index // 2 % 2] += 1
        seen["at cap"] += any(layout.cap in e for e in leads)
        seen["repeated"] += len(set(leads)) < len(leads)
        seen["coprime"] += bool(coprime)
        seen["chained"] += len(got) + len(coprime) < len(everything)
        seen["kept"] += bool(got)
    return seen


def test_packed_certificate_pairs_match_the_tuple_selection():
    seen = certificate_pairs_differential(seed=34, count=2400)
    assert all(seen[kind, n, wider] for kind in ("lex", "grevlex")
               for n in range(2, 6) for wider in (0, 1)), seen
    for key in ("at cap", "repeated", "coprime", "chained", "kept"):
        assert seen[key] > 100, (key, seen)


def _cyclic_gens(n, kind):
    ring_text, texts = cyclic_system(n)
    ring = parse_ring(ring_text)
    order = getattr(MonomialOrder, kind)(ring)
    return [parse_polynomial(ring, t, GFP, order) for t in texts]


@pytest.fixture(scope="module")
def cyclic6():
    gens = _cyclic_gens(6, "grevlex")
    return gens, buchberger(gens, certify=False)


@pytest.mark.parametrize("n, kind, certified, pairs", [
    (4, "grevlex", 11, 21), (4, "lex", 7, 15), (5, "grevlex", 58, 190), (6, "grevlex", 209, 990),
])
def test_certificate_pair_counts(monkeypatch, cyclic6, n, kind, certified, pairs):
    if n == 6:
        gens, gb = cyclic6
    else:
        gens = _cyclic_gens(n, kind)
        gb = buchberger(gens, certify=False)
    calls = []
    s_polynomial = groebner._s_polynomial
    monkeypatch.setattr(
        groebner, "_s_polynomial", lambda *args: calls.append(1) or s_polynomial(*args)
    )
    groebner._certify(gb, gens)
    assert (len(calls), comb(len(gb), 2)) == (certified, pairs)


def test_certified_cyclic6_matches_the_uncertified_basis(cyclic6):
    gens, plain = cyclic6
    gb = buchberger(gens)
    assert gb.certified and len(gb) == 45
    assert gb.polys == plain.polys
    certify_all_pairs(gb, gens)


def test_pair_criteria_skip_pairs_without_changing_the_basis(monkeypatch):
    # reducing every non-coprime pair would form 35 S-polynomials on
    # cyclic-4; the Gebauer-Moeller criteria leave 8, as each input enters
    # as a normal form against the ones before it
    calls = []
    s_polynomial = groebner._s_polynomial
    monkeypatch.setattr(
        groebner, "_s_polynomial", lambda *args: calls.append(1) or s_polynomial(*args)
    )
    ring = parse_ring("a, b, c, d")
    texts = ["a + b + c + d", "a*b + b*c + c*d + d*a",
             "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]
    basis = buchberger([parse_polynomial(ring, t) for t in texts], certify=False)
    assert [str(p) for p in basis] == [
        "a + b + c + d",
        "b^2 + 2*b*d + d^2",
        "b*c^2 + c^2*d - b*d^2 - d^3",
        "b*c*d^2 + c^2*d^2 - b*d^3 + c*d^3 - d^4 - 1",
        "b*d^4 + d^5 - b - d",
        "c^3*d^2 + c^2*d^3 - c - d",
        "c^2*d^4 + b*c - b*d + c*d - 2*d^2",
    ]
    assert len(calls) == 8


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
    with pytest.raises(RingMismatchError):
        frobenius_containment_check(
            [gens[0], poly("y", field=f2, order=MonomialOrder.lex(R2))], 2, 2, 1)
    # e and the characteristic are checked before p^e sizes the product count
    with pytest.raises(ValueError, match="nonnegative"):
        frobenius_containment_check(gens, 2, 2, -1)
    with pytest.raises(ValueError, match="characteristic"):
        frobenius_containment_check(gens, 2, 3, 40)


def test_frobenius_containment_with_a_long_power_chain():
    # x^2048 is one product, but 2048 multiplications away from x^0
    f2 = parse_field("fp:2")
    report = frobenius_containment_check([poly("x", field=f2)], 1, 2, 11)
    assert report.contained and report.exponent == 2048
    assert report.products_checked == 1


def test_frobenius_power_chain_counts_against_the_cap():
    # one product, but 2^30 multiplications to form it
    f2 = parse_field("fp:2")
    with pytest.raises(ResourceCapError, match="needs 1073741824 products, over the cap 20000"):
        frobenius_containment_check([poly("x", field=f2)], 1, 2, 30)


def test_frobenius_grid_reduces_every_product():
    # the benchmark's grid: every generator of I^(t*p^e) is formed and
    # reduced, none is skipped on the strength of the pigeonhole argument
    for ring in (R2, R3):
        for p in (2, 3, 5):
            field = PrimeField(p)
            gens = [Polynomial.variable(ring, field, MonomialOrder.grevlex(ring), i)
                    for i in range(ring.n)]
            t = len(gens)
            for e in (1, 2):
                report = frobenius_containment_check(gens, t, p, e)
                assert report.contained and report.failure is None
                assert report.products_checked == comb(t * p**e + t - 1, t - 1)


def _frobenius_outcome(check, gens, p, e):
    try:
        return check(gens, len(gens), p, e, max_products=FROBENIUS_CAP)
    except ResourceCapError as exc:
        return str(exc)


def frobenius_differential(seed, count):
    """Run ``count`` seeded containment checks through
    ``frobenius_containment_check`` and ``helpers.frobenius_check_by_polynomials``,
    and fail unless both return the same ``FrobeniusCheck`` or refuse with
    the same message.

    Each ideal has 1-3 generators of 1-3 distinct random terms of degree 1-3
    on 1-3 variables, the first with two terms or more.  The field cycles
    through GF(2), GF(3) and GF(5), the order through lex, lex on a random
    permutation and grevlex, and e through 0, 1 and 2; one case in four has
    a zero generator in place of one drawn, and another a nonzero constant.  ``FROBENIUS_CAP`` refuses the largest.
    Returns a ``Counter`` of (variant, outcome), outcome "contained",
    "refused" or "failed".
    """
    rng = random.Random(seed)
    kinds = Counter()
    for done in range(count):
        field = FROBENIUS_FIELDS[done % 3]
        ring = numbered_ring(rng.randint(1, 3))
        kind = ("lex", "permuted lex", "grevlex")[done // 3 % 3]
        permutation = list(range(ring.n))
        if kind == "permuted lex":
            rng.shuffle(permutation)
        order = getattr(MonomialOrder, kind.split()[-1])(ring, permutation)
        e = done // 9 % 3
        monomials = [m for d in (1, 2, 3) for m in compositions(d, ring.n)]
        # the first generator has two terms or more, so the ideal is not monomial
        sizes = [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        gens = [
            Polynomial(ring, field, order, {
                m: rng.randrange(1, field.characteristic)
                for m in rng.sample(monomials, min(terms, len(monomials)))
            })
            for terms in sizes
        ]
        variant = ("drawn", "zero", "drawn", "constant")[done % 4]
        if variant == "zero":
            gens[rng.randrange(len(gens))] = Polynomial.zero(ring, field, order)
        elif variant == "constant":
            c = rng.randrange(1, field.characteristic)
            gens[rng.randrange(len(gens))] = Polynomial.constant(ring, field, order, c)
        p = field.characteristic
        got = _frobenius_outcome(frobenius_containment_check, gens, p, e)
        want = _frobenius_outcome(frobenius_check_by_polynomials, gens, p, e)
        assert got == want, (seed, done, [str(g) for g in gens], str(order), p, e, got, want)
        if isinstance(got, str):
            kinds[variant, "refused"] += 1
        else:
            kinds[variant, "contained" if got.contained else "failed"] += 1
    return kinds


def test_frobenius_check_agrees_with_the_polynomial_loop():
    kinds = frobenius_differential(seed=31, count=FROBENIUS_CASES)
    # the pigeonhole step holds for every ideal, zero and unit ones included
    assert not any(outcome == "failed" for _, outcome in kinds), kinds
    for variant in ("drawn", "zero", "constant"):
        assert kinds[variant, "contained"] > 0, kinds
    assert sum(n for (_, outcome), n in kinds.items() if outcome == "refused") > 0, kinds


def test_frobenius_failure_branch_agrees_with_the_polynomial_loop(monkeypatch):
    # a bracket basis missing an element: the first product outside it is
    # the same split on both paths, after the same number of products
    interreduce = groebner._interreduce
    monkeypatch.setattr(
        groebner, "_interreduce", lambda reducers, active: interreduce(reducers, active)[:-1])
    kinds = frobenius_differential(seed=37, count=FROBENIUS_CASES)
    assert kinds["drawn", "failed"] > 0, kinds
    lex = MonomialOrder.lex(R2)
    cases = [
        ([Polynomial.variable(ring, PrimeField(p), MonomialOrder.grevlex(ring), i)
          for i in range(ring.n)], p)
        for ring in (R2, R3) for p in (2, 3)
    ]
    # this one also overflows its first lex layout
    cases.append(([poly(text, field=PrimeField(5), order=lex) for text in ("x^2", "x*y - y^3")], 5))
    for gens, p in cases:
        got = frobenius_containment_check(gens, len(gens), p, 1)
        assert not got.contained
        assert got == frobenius_check_by_polynomials(gens, len(gens), p, 1)


def test_frobenius_check_widens_a_lex_layout_and_starts_over(monkeypatch):
    # the products fit the first layout, but a lex reducer such as
    # x^q - y^(3q) lifts a reduced term's y exponent past its cap
    lex = MonomialOrder.lex(R2)
    widths = []
    reducers = GroebnerBasis._reducers

    def spy(gb, layout):
        widths.append(layout.width)
        return reducers(gb, layout)

    monkeypatch.setattr(GroebnerBasis, "_reducers", spy)
    for texts, p, width in (
        (("x - y^3", "x^2 - y"), 2, 5),
        (("x - y^3", "x^2 - y"), 5, 6),
        (("x^2 - y", "x + y^2"), 3, 5),
        (("x - y^2", "x^2"), 3, 5),
    ):
        gens = [poly(text, field=PrimeField(p), order=lex) for text in texts]
        widths.clear()
        got = frobenius_containment_check(gens, 2, p, 1)
        assert widths == [width, 2 * width]
        assert got == frobenius_check_by_polynomials(gens, 2, p, 1)
        assert got.contained and got.products_checked == 2 * p + 1
