"""The packed Groebner engine against the tuple-key reducer it replaced.

Inside the engine a monomial is one int whose integer order is the term
order (``monomials.PackedLayout``).  ``helpers.reduce_by_tuples`` is the
reducer on exponent tuples and order keys; both reduce the largest term by
the first listed divisor, so their remainders agree term for term, also
against lists that are not Groebner bases.
"""

from operator import le, lt

import pytest

from idealkit import (
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    PrimeField,
    QQ,
    ResourceCapError,
    buchberger,
    groebner,
    parse_polynomial,
    parse_ring,
    rng_from_seed,
)
from helpers import numbered_ring, random_sparse_poly, reduce_by_tuples

FIELDS = (QQ, PrimeField(32003), PrimeField(2))
SYSTEMS = 100  # two reductions each


def _case(index):
    """A seeded reducer list and two polynomials to reduce against it.

    The list is the reduced basis of a random system (or the system itself
    when the basis hits a cap), with its last 0-2 elements dropped, so
    some remainders are not zero, and on odd systems every element scaled
    so that leading coefficients are not 1.
    """
    rng = rng_from_seed(f"idealkit:groebner:packed:{index}")
    field = FIELDS[index % 3]
    ring = numbered_ring(rng.randint(2, 4))
    permutation = rng.sample(range(ring.n), ring.n)
    kind = ("lex", "grevlex")[index // 3 % 2]
    order = getattr(MonomialOrder, kind)(ring, permutation)
    gens = [
        random_sparse_poly(rng, ring, field, order, rng.randint(1, 3), rng.randint(1, 4))
        for _ in range(rng.randint(1, 3))
    ]
    gens = [g for g in gens if not g.is_zero]
    gens = gens or [Polynomial.constant(ring, field, order, 1)]
    try:
        polys = list(buchberger(gens, max_basis=40, max_degree=12, certify=False))
    except ResourceCapError:
        polys = gens
    polys = polys[: len(polys) - index % 3] or polys[:1]
    if index % 2:
        polys = [p.scale(rng.choice([2, 3, 5, 7])) for p in polys]
        polys = [p for p in polys if not p.is_zero] or gens[:1]
    targets = [
        gens[0] * random_sparse_poly(rng, ring, field, order, 2, 3),
        random_sparse_poly(rng, ring, field, order, 5, 6),
    ]
    return ring, field, order, polys, targets


@pytest.mark.parametrize("block", range(4))
def test_packed_reduction_matches_the_tuple_reducer(block):
    for index in range(block, SYSTEMS, 4):
        ring, field, order, polys, targets = _case(index)
        basis = GroebnerBasis(ring, field, order, tuple(polys), certified=False)
        for f in targets:
            want = reduce_by_tuples(f, polys)
            assert basis.normal_form(f).terms == want.terms, index
            assert basis.contains(f) == want.is_zero, index


def test_differential_cases_cover_every_field_order_and_remainder():
    seen = set()
    for index in range(SYSTEMS):
        ring, field, order, polys, targets = _case(index)
        for f in targets:
            zero = reduce_by_tuples(f, polys).is_zero
            seen.add((field.characteristic, order.kind, zero))
    assert seen == {(p, kind, zero) for p in (0, 32003, 2)
                    for kind in ("lex", "grevlex") for zero in (False, True)}


def test_lex_overflow_widens_and_matches_the_tuple_reducer():
    ring = parse_ring("x, y")
    lex = MonomialOrder.lex(ring)
    gb = buchberger([parse_polynomial(ring, "x - y^40", order=lex)])
    f = parse_polynomial(ring, "x^10", order=lex)
    first = gb._layout(f.total_degree())
    assert first.cap < 400
    # on the layout sized for the inputs the reduction refuses, never wraps
    with pytest.raises(groebner._FieldOverflow):
        groebner._reduce_full(
            groebner._pack(f, first),
            groebner._Reducers(first, [groebner._pack(p, first) for p in gb.polys]),
        )
    remainder = gb.normal_form(f)
    assert str(remainder) == "y^400"
    assert remainder.terms == reduce_by_tuples(f, gb.polys).terms
    assert gb._packing[0].width == 2 * first.width


def test_interreduction_receives_a_minimal_basis(monkeypatch):
    # every element enters Buchberger as a normal form against the ones
    # before it, so the active set handed to interreduction is minimal;
    # what interreduction returns is reduced, in ascending lead order
    argument_leads, results = [], []
    interreduce = groebner._interreduce

    def spy(basis):
        argument_leads.append([p.layout.unpack(p.terms[0][0]) for p in basis])
        results.append(interreduce(basis))
        return results[-1]

    monkeypatch.setattr(groebner, "_interreduce", spy)
    fields = (QQ, PrimeField(32003), PrimeField(2), PrimeField(3))
    answered, several = set(), 0
    for index in range(240):
        rng = rng_from_seed(f"idealkit:groebner:minimal:{index}")
        field = fields[index % 4]
        ring = numbered_ring(rng.randint(1, 4))
        kind = ("lex", "grevlex")[index // 4 % 2]
        order = getattr(MonomialOrder, kind)(ring, rng.sample(range(ring.n), ring.n))
        gens = [
            random_sparse_poly(rng, ring, field, order, rng.randint(1, 3), rng.randint(1, 4))
            for _ in range(rng.randint(1, 4))
        ]
        argument_leads.clear()
        results.clear()
        try:
            buchberger(gens, max_basis=60, max_degree=12, certify=False)
        except ResourceCapError:
            continue
        answered.add((index, field.characteristic, kind))
        for leads in argument_leads:
            for a in leads:
                for b in leads:
                    assert a is b or not all(map(le, a, b)), (index, a, b)
        for out in results:
            several += len(out) > 1
            assert all(p.leading_coefficient() == field.one for p in out), index
            keys = [order.key(p.leading_monomial()) for p in out]
            assert all(map(lt, keys, keys[1:])), index
            for q in out:
                lead = q.leading_monomial()
                for p in out:
                    assert p is q or not any(
                        all(map(le, lead, e)) for e, _ in p.terms), (index, lead)
    assert len(answered) >= 200 and several >= 30
    assert {(p, kind) for _, p, kind in answered} == {
        (p, kind) for p in (0, 32003, 2, 3) for kind in ("lex", "grevlex")}


def test_lex_normal_form_past_half_the_cap_widens_before_pairing(monkeypatch):
    # the inputs size a 5-bit layout (cap 15), but x^4*y enters as its
    # normal form y*w^12 against x - w^3: degree 13, past cap // 2.  Paired
    # with y - w^7 it makes the S-polynomial w^19, whose exponent no longer
    # fits, so the element must widen the layout as it enters
    widths, overflows = [], []
    run, reduce_full = groebner._buchberger_on, groebner._reduce_full

    def spy_run(inputs, layout, *caps):
        widths.append(layout.width)
        return run(inputs, layout, *caps)

    def spy_reduce(f, reducers):
        try:
            return reduce_full(f, reducers)
        except groebner._FieldOverflow:
            overflows.append(f)
            raise

    monkeypatch.setattr(groebner, "_buchberger_on", spy_run)
    monkeypatch.setattr(groebner, "_reduce_full", spy_reduce)
    ring = parse_ring("x, y, w")
    lex = MonomialOrder.lex(ring)
    gens = [parse_polynomial(ring, t, order=lex)
            for t in ("x - w^3", "x^4*y", "y - w^7", "w^5")]
    gb = buchberger(gens, max_degree=7)
    assert widths == [5, 10]
    assert not overflows  # the widening came from the check on entry
    assert gb.certified
    assert str(gb) == "{w^5, y, x - w^3}"


def test_grevlex_normal_form_past_the_kept_cap_repacks():
    ring = parse_ring("x, y")
    gb = buchberger([parse_polynomial(ring, t) for t in ("x^2 - y", "y^2 - 1")])
    small = parse_polynomial(ring, "x^3 + x*y")
    assert gb.normal_form(small).terms == reduce_by_tuples(small, gb.polys).terms
    kept = gb._packing[0]
    big = parse_polynomial(ring, "x^100 + 3*x^41*y^59 - y^7")
    assert big.total_degree() > kept.cap
    assert gb.normal_form(big).terms == reduce_by_tuples(big, gb.polys).terms
    wide = gb._packing[0]
    assert wide is not kept and wide.cap >= 100
    # a later polynomial within the wider cap reuses the kept packing
    assert gb.contains(small * big - small * big)
    assert gb._packing[0] is wide


def test_least_degree_of_a_multiple_sees_a_unit_cofactor():
    # local_ideal_member reads q(0) != 0 off h = q*f as h starting in f's degree
    seen = set()
    for index in range(120):
        rng = rng_from_seed(f"idealkit:groebner:least-degree:{index}")
        field = (QQ, PrimeField(32003), PrimeField(3))[index % 3]
        ring = numbered_ring(rng.randint(1, 4))
        kind = rng.choice(("lex", "grevlex"))
        order = getattr(MonomialOrder, kind)(ring, rng.sample(range(ring.n), ring.n))
        f = random_sparse_poly(rng, ring, field, order, 3, rng.randint(1, 4))
        q = random_sparse_poly(rng, ring, field, order, 3, rng.randint(1, 4))
        if rng.random() < 0.5:
            q = q + Polynomial.constant(ring, field, order, rng.randint(1, 2))
        if f.is_zero or q.is_zero:
            continue
        unit = q.constant_term() != field.zero
        assert (groebner._least_degree(q * f) == groebner._least_degree(f)) == unit
        seen.add((field.characteristic, kind, unit))
    assert seen == {(p, kind, unit) for p in (0, 32003, 3)
                    for kind in ("lex", "grevlex") for unit in (False, True)}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_monomial_products_match_the_general_product(field):
    for index in range(40):
        rng = rng_from_seed(f"idealkit:groebner:monomial-product:{index}")
        ring = numbered_ring(rng.randint(1, 4))
        kind = ("lex", "grevlex")[index % 2]
        order = getattr(MonomialOrder, kind)(ring, rng.sample(range(ring.n), ring.n))
        many = random_sparse_poly(rng, ring, field, order, 4, rng.randint(0, 6))
        mono = random_sparse_poly(rng, ring, field, order, 4, 1)
        acc = {}
        for ea, ca in many.terms:
            for eb, cb in mono.terms:
                e = tuple(a + b for a, b in zip(ea, eb))
                acc[e] = field.add(acc.get(e, field.zero), field.mul(ca, cb))
        want = Polynomial(ring, field, order, acc)
        assert (many * mono).terms == want.terms, index
        assert (mono * many).terms == want.terms, index
