"""Differential oracle: reduced Groebner bases against sympy's.

sympy is a test-only dependency; without it this module is skipped.  Both
sides are made monic before comparing, and sympy's symmetric residues
modulo p are mapped into [0, p), so equal ideals give equal sets.
"""

from fractions import Fraction

import pytest

from idealkit import (
    MonomialOrder,
    Polynomial,
    PrimeField,
    QQ,
    buchberger,
    parse_polynomial,
    parse_ring,
    random_homogeneous,
    rng_from_seed,
)
from helpers import cyclic_system, numbered_ring

sympy = pytest.importorskip("sympy")

P = 32003
GFP = PrimeField(P)
SEEDED_SYSTEMS = 112

CYCLIC4 = ["a + b + c + d", "a*b + b*c + c*d + d*a",
           "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]
KATSURA3 = ["a + 2*b + 2*c + 2*d - 1", "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
            "2*a*b + 2*b*c + 2*c*d - b", "b^2 + 2*a*c + 2*b*d - c"]


def _to_sympy(poly, symbols):
    expr = sympy.Integer(0)
    for exps, coeff in poly.terms:
        c = sympy.Rational(coeff.numerator, coeff.denominator) if isinstance(
            coeff, Fraction) else sympy.Integer(coeff)
        expr += c * sympy.Mul(*[s**e for s, e in zip(symbols, exps)])
    return expr


def _from_sympy(poly, ring, field, order):
    terms = {}
    for exps, coeff in poly.terms():
        if field.characteristic:
            terms[exps] = int(coeff) % field.characteristic
        else:
            terms[exps] = Fraction(int(coeff.p), int(coeff.q))
    return Polynomial(ring, field, order, terms).monic()


def _sympy_basis(gens, kind):
    ring, field, order = gens[0].ring, gens[0].field, gens[0].order
    symbols = sympy.symbols(ring.variables)
    options = {"order": kind}
    if field.characteristic:
        options["modulus"] = field.characteristic
    basis = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, **options)
    return sorted(str(_from_sympy(p, ring, field, order)) for p in basis.polys)


def _ours(gens):
    return sorted(str(p) for p in buchberger(gens))


def _random_system(index):
    rng = rng_from_seed(f"idealkit:groebner:sympy:{index}")
    ring = numbered_ring(rng.randint(2, 4))
    field = (QQ, GFP)[index % 2]
    kind = ("lex", "grevlex")[index // 2 % 2]
    order = getattr(MonomialOrder, kind)(ring)
    gens = []
    for _ in range(rng.randint(1, 4)):
        # a random top form of degree 1-3, plus some lower-degree forms
        poly = random_homogeneous(rng, ring, field, rng.randint(1, 3), max_terms=3, order=order)
        for d in range(poly.total_degree()):
            if rng.random() < 0.5:
                poly = poly + random_homogeneous(rng, ring, field, d, max_terms=2, order=order)
        gens.append(poly.monic())
    return kind, gens


@pytest.mark.parametrize("block", range(4))
def test_seeded_systems_match_sympy(block):
    # each block holds one (field, order) pair: 28 systems apiece
    for index in range(block, SEEDED_SYSTEMS, 4):
        kind, gens = _random_system(index)
        assert _ours(gens) == _sympy_basis(gens, kind), index


@pytest.mark.parametrize("name", ["cyclic-4", "katsura-3", "cyclic-5"])
def test_named_systems_match_sympy_over_gf_p(name):
    if name == "cyclic-5":
        ring_text, texts = cyclic_system(5)
    else:
        ring_text, texts = "a,b,c,d", CYCLIC4 if name == "cyclic-4" else KATSURA3
    ring = parse_ring(ring_text)
    order = MonomialOrder.grevlex(ring)
    gens = [parse_polynomial(ring, t, GFP, order).monic() for t in texts]
    assert _ours(gens) == _sympy_basis(gens, "grevlex")


@pytest.mark.parametrize("field", [GFP, QQ], ids=str)
def test_certified_cyclic5_matches_sympy(field):
    ring_text, texts = cyclic_system(5)
    ring = parse_ring(ring_text)
    order = MonomialOrder.grevlex(ring)
    gens = [parse_polynomial(ring, t, field, order) for t in texts]
    gb = buchberger(gens)
    assert gb.certified
    assert sorted(str(p) for p in gb) == _sympy_basis(gens, "grevlex")
