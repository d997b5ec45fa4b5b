"""The packed Groebner engine against the tuple-key reducer it replaced.

Inside the engine a monomial is one int whose integer order is the term
order (``monomials.PackedLayout``).  ``helpers.reduce_by_tuples`` is the
reducer on exponent tuples and order keys; both reduce the largest term by
the first listed divisor, so their remainders agree term for term, also
against lists that are not Groebner bases.

Over QQ the engine computes on integer polynomials over one denominator.
A seeded differential holds it to ``reduce_by_tuples``, which computes
on Fractions, with rational coefficients: denominators 2-9, 40-digit
numerators, negative leads and reducer lists scaled by 3/7.  Run it at
larger sizes with::

    PYTHONPATH=src:tests python -c "import test_groebner_packed as t; print(t.rational_differential(SEED, COUNT))"

``_reduce_full`` settles a one-term input without its loop when the term
stays or a tailless reducer removes it.  ``one_term_differential`` holds
one-term inputs to ``reduce_by_tuples`` over QQ, GF(2) and GF(32003), with
lex steps that must still overflow and widen.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd
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
from helpers import (
    cyclic_system,
    interreduce_by_increments,
    numbered_ring,
    random_rational_poly,
    random_sparse_poly,
    reduce_by_tuples,
)

FIELDS = (QQ, PrimeField(32003), PrimeField(2))
SYSTEMS = 100  # two reductions each
RATIONAL_CASES = 600  # two reductions each


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


def rational_differential(seed, count):
    """Reduce two seeded rational polynomials against each of ``count``
    seeded reducer lists with ``GroebnerBasis.normal_form`` and
    ``contains``, and with ``helpers.reduce_by_tuples``, and fail on any
    difference.

    A list is the reduced basis of 1-3 random polynomials on 2-4
    variables (or the polynomials themselves when the basis hits a cap),
    its last 0-2 elements dropped; in turn it is kept as it is, every
    element is scaled by 3/7, or every element by -1, -5/2 or 2, so that
    some leads are negative.  Returns a ``Counter`` of what was reached.
    """
    rng = random.Random(seed)
    seen = Counter()
    for index in range(count):
        ring = numbered_ring(rng.randint(2, 4))
        kind = ("lex", "grevlex")[index // 3 % 2]
        order = getattr(MonomialOrder, kind)(ring, rng.sample(range(ring.n), ring.n))
        gens = [
            random_rational_poly(rng, ring, order, rng.randint(1, 3), rng.randint(1, 4))
            for _ in range(rng.randint(1, 3))
        ]
        try:
            polys = list(buchberger(gens, max_basis=40, max_degree=12, certify=False))
        except ResourceCapError:
            polys = gens
        polys = polys[: len(polys) - rng.randint(0, 2)] or polys[:1]
        shape = ("as computed", "scaled by 3/7", "signs")[index % 3]
        if shape == "scaled by 3/7":
            polys = [p.scale(Fraction(3, 7)) for p in polys]
        elif shape == "signs":
            polys = [p.scale(rng.choice((-1, Fraction(-5, 2), 2))) for p in polys]
        seen[shape] += 1
        seen["negative lead"] += any(p.leading_coefficient() < 0 for p in polys)
        basis = GroebnerBasis(ring, QQ, order, tuple(polys), certified=False)
        targets = [
            gens[0] * random_rational_poly(rng, ring, order, 2, 3),
            random_rational_poly(rng, ring, order, 5, 6),
        ]
        for f in targets:
            want = reduce_by_tuples(f, polys)
            got = basis.normal_form(f)
            assert got.terms == want.terms, (seed, index, str(f), [str(p) for p in polys])
            assert basis.contains(f) == want.is_zero, (seed, index)
            seen[kind, "zero" if want.is_zero else "nonzero"] += 1
            seen["40-digit"] += any(abs(c.numerator) >= 10**39 for _, c in f.terms)
            seen["fractional remainder"] += any(c.denominator > 1 for _, c in got.terms)
    return seen


def test_rational_reduction_matches_the_fraction_reducer():
    seen = rational_differential(seed=25, count=RATIONAL_CASES)
    for key in ("as computed", "scaled by 3/7", "signs", "negative lead",
                "40-digit", "fractional remainder"):
        assert seen[key] > 0, (key, seen)
    for kind in ("lex", "grevlex"):
        for zero in ("zero", "nonzero"):
            assert seen[kind, zero] > 0, (kind, zero, seen)


def test_qq_reducers_hold_primitive_integer_polynomials(monkeypatch):
    # over QQ every element the engine reduces by (the Buchberger loop,
    # interreduction, the certificate and kept normal-form packings) is an
    # integer polynomial with coprime coefficients and a positive lead;
    # over GF(p) it is monic with residues in [0, p); the basis a caller
    # sees is monic either way, with Fraction coefficients over QQ
    entries = []
    add = groebner._Reducers.add

    def spy(self, g):
        entries.append(g)
        return add(self, g)

    monkeypatch.setattr(groebner._Reducers, "add", spy)
    ring_text, texts = cyclic_system(4)
    ring = parse_ring(ring_text)
    katsura3 = ["a + 2*b + 2*c + 2*d - 1", "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
                "2*a*b + 2*b*c + 2*c*d - b", "b^2 + 2*a*c + 2*b*d - c"]
    systems = []
    for field in (QQ, PrimeField(32003)):
        for kind in ("lex", "grevlex"):
            order = getattr(MonomialOrder, kind)(ring)
            for system in (texts, katsura3):
                systems.append([parse_polynomial(ring, t, field, order) for t in system])
    rng = random.Random(25)
    for _ in range(40):
        small = numbered_ring(rng.randint(2, 3))
        order = MonomialOrder.grevlex(small)
        systems.append([random_rational_poly(rng, small, order, rng.randint(1, 3), 3)
                        for _ in range(rng.randint(2, 3))])
    leads, answered = Counter(), 0
    for gens in systems:
        field = gens[0].field
        entries.clear()
        try:
            gb = buchberger(gens, max_basis=40, max_degree=12)
        except ResourceCapError:
            continue
        answered += 1
        gb.normal_form(gens[0] * gens[-1] + gens[0])
        assert entries
        for g in entries:
            coeffs = [c for _, c in g.terms]
            assert all(type(c) is int for c in coeffs), [str(p) for p in gens]
            if field.characteristic:
                assert coeffs[0] == 1 and all(0 < c < field.characteristic for c in coeffs)
            else:
                assert gcd(*coeffs) == 1 and coeffs[0] > 0, [str(p) for p in gens]
                leads[coeffs[0] > 1] += 1
        for p in gb.polys:
            assert p.leading_coefficient() == 1
            if not field.characteristic:
                assert all(type(c) is Fraction for _, c in p.terms)
    assert answered >= 30 and leads[True] > 0 and leads[False] > 0, (answered, leads)


ONE_TERM_FIELDS = (QQ, PrimeField(2), PrimeField(32003))
ONE_TERM_CASES = ("irreducible", "monomial reducer", "reducer with a tail", "lex overflow")


def _one_term_case(rng, field, case):
    """(term, reducers, layout) of one ``one_term_differential`` case: a
    one-term polynomial whose coefficient, over QQ, has a denominator of
    2-9, and reducers of which, for the divisible cases, the first that
    divides the term has the named shape."""
    ring = numbered_ring(rng.randint(2, 4))
    kind = "lex" if case == "lex overflow" else rng.choice(("lex", "grevlex"))
    order = getattr(MonomialOrder, kind)(ring, rng.sample(range(ring.n), ring.n))
    coeff = rng.choice((-1, 1)) * rng.randint(1, 9)
    if not field.characteristic:
        coeff = Fraction(coeff, rng.randint(2, 9))
    if case == "lex overflow":
        # x_top - x_last^a: each step trades one x_top for x_last^a, which
        # soon passes a cap sized for the inputs alone
        top, last = order.permutation[0], order.permutation[-1]
        a = rng.randint(3, 9)
        exps = [0] * ring.n
        exps[top], exps[last] = rng.randint(2, 4), rng.randint(0, a)
        reducer = {tuple(a * (i == last) for i in range(ring.n)): -1,
                   tuple(int(i == top) for i in range(ring.n)): 1}
        reducers = [Polynomial(ring, field, order, reducer)]
    else:
        reducers = [random_sparse_poly(rng, ring, field, order, 3, rng.randint(1, 3), 1)
                    for _ in range(rng.randint(1, 3))]
        reducers = [g for g in reducers if not g.is_zero]
        if rng.random() < 0.5:
            reducers = [g.scale(rng.choice((2, 3, Fraction(3, 7)))) for g in reducers]
            reducers = [g for g in reducers if not g.is_zero]
        exps = [rng.randint(0, 3) for _ in range(ring.n)]
        if case != "irreducible":
            tails = [g for g in reducers if (len(g.terms) > 1) == (case == "reducer with a tail")]
            if not tails:
                return None
            lead = rng.choice(tails).leading_monomial()
            exps = [e + rng.randint(0, 1) for e in lead]
    f = Polynomial(ring, field, order, {tuple(exps): coeff})
    if f.is_zero or not reducers:
        return None
    bound = max(g.total_degree() for g in reducers + [f])
    return f, reducers, groebner._layout(order, bound)


def _first_divisor(f, reducers):
    lead = f.leading_monomial()
    return next((g for g in reducers if all(map(le, g.leading_monomial(), lead))), None)


def one_term_differential(seed, count):
    """``_reduce_full`` on ``count`` seeded one-term packed inputs against
    ``helpers.reduce_by_tuples``, over QQ, GF(2) and GF(32003) by turns,
    and fail on any difference.

    The cases come by turns from ``ONE_TERM_CASES``: an irreducible term,
    one whose first divisor is a monomial, one whose first divisor has a
    tail, and a lex term whose reduction must raise ``_FieldOverflow`` on
    the layout sized for the inputs and, rerun by ``_widening``, match the
    oracle on a wider one.  A case whose first divisor is not the one named
    counts under the shape it has.  Returns a ``Counter`` of (field,
    shape) reached.
    """
    rng = random.Random(seed)
    seen = Counter()
    index = 0
    while index < count:
        field = ONE_TERM_FIELDS[index % 3]
        case = ONE_TERM_CASES[index // 3 % 4]
        made = _one_term_case(rng, field, case)
        if made is None:
            continue
        index += 1
        f, polys, layout = made
        want = reduce_by_tuples(f, polys)

        def run(layout):
            reducers = groebner._Reducers(
                f.ring, f.order, layout, [groebner._pack(g, layout) for g in polys])
            return groebner._reduce_full(groebner._pack(f, layout), reducers), reducers

        if case == "lex overflow":
            with pytest.raises(groebner._FieldOverflow):
                run(layout)
            shape = case
        else:
            divisor = _first_divisor(f, polys)
            shape = ("irreducible" if divisor is None else
                     "monomial reducer" if len(divisor.terms) == 1 else "reducer with a tail")
        got, reducers = groebner._widening(run, layout)
        assert got.unpack(reducers).terms == want.terms, (
            seed, index, str(f), [str(g) for g in polys])
        if field.characteristic:
            assert all(0 < c < field.characteristic for _, c in got.terms), (seed, index)
        seen[field.characteristic, shape] += 1
        seen["denominator"] += got.denominator > 1
    return seen


def test_one_term_normal_forms_match_the_tuple_reducer():
    seen = one_term_differential(seed=34, count=600)
    for p in (0, 2, 32003):
        for shape in ONE_TERM_CASES:
            assert seen[p, shape] > 0, (p, shape, seen)
    assert seen["denominator"] > 0, seen


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
            groebner._Reducers(gb.ring, gb.order, first,
                               [groebner._pack(p, first) for p in gb.polys]),
        )
    remainder = gb.normal_form(f)
    assert str(remainder) == "y^400"
    assert remainder.terms == reduce_by_tuples(f, gb.polys).terms
    assert gb._packing.layout.width == 2 * first.width


def _interreduction_systems():
    """(label, generators) of the interreduction differential: 240 seeded
    systems over QQ and GF(32003), GF(2), GF(3) in permuted lex and
    grevlex, then the lex inputs of the overflow test above, whose basis
    {y^400, x - y^40} no layout sized for the inputs holds."""
    fields = (QQ, PrimeField(32003), PrimeField(2), PrimeField(3))
    for index in range(240):
        rng = rng_from_seed(f"idealkit:groebner:minimal:{index}")
        field = fields[index % 4]
        ring = numbered_ring(rng.randint(1, 4))
        kind = ("lex", "grevlex")[index // 4 % 2]
        order = getattr(MonomialOrder, kind)(ring, rng.sample(range(ring.n), ring.n))
        yield index, [
            random_sparse_poly(rng, ring, field, order, rng.randint(1, 3), rng.randint(1, 4))
            for _ in range(rng.randint(1, 4))
        ]
    ring = parse_ring("x, y")
    lex = MonomialOrder.lex(ring)
    for texts in (("x - y^40",), ("x - y^40", "x^10")):
        yield texts, [parse_polynomial(ring, t, order=lex) for t in texts]


def _interreduced_bases(monkeypatch, interreduce):
    """{label: reduced basis or None at a cap} under ``interreduce``, and
    the number of ``PackedLayout.wider`` calls they took."""
    widenings = []
    wider = groebner.PackedLayout.wider

    def counted(layout):
        widenings.append(layout.width)
        return wider(layout)

    monkeypatch.setattr(groebner.PackedLayout, "wider", counted)
    monkeypatch.setattr(groebner, "_interreduce", interreduce)
    bases = {}
    for label, gens in _interreduction_systems():
        try:
            bases[label] = buchberger(gens, max_basis=60, max_degree=12, certify=False)
        except ResourceCapError:
            bases[label] = None
    return bases, len(widenings)


def test_interreduction_receives_a_minimal_basis(monkeypatch):
    # every element enters Buchberger as a normal form against the ones
    # before it, so the active set handed to interreduction is minimal;
    # what interreduction returns is reduced, in ascending lead order, and
    # term for term what the incremental reference makes of the same set
    argument_leads, results = [], []
    interreduce = groebner._interreduce

    def spy(reducers, active):
        basis = [reducers.polys[i] for i in active]
        argument_leads.append([reducers.layout.unpack(p.terms[0][0]) for p in basis])
        results.append(interreduce(reducers, active))
        return results[-1]

    def reference(reducers, active):
        return interreduce_by_increments([reducers.polys[i] for i in active], reducers)

    got, widened = _interreduced_bases(monkeypatch, spy)
    want, widened_by_reference = _interreduced_bases(monkeypatch, reference)
    assert got.keys() == want.keys()
    for label, gb in got.items():
        if gb is None:
            assert want[label] is None, label
            continue
        assert [p.terms for p in gb] == [p.terms for p in want[label]], label
    assert widened <= widened_by_reference
    assert str(got["x - y^40", "x^10"]) == "{y^400, x - y^40}"
    several = 0
    for leads in argument_leads:
        for a in leads:
            for b in leads:
                assert a is b or not all(map(le, a, b)), (a, b)
    for out in results:
        several += len(out) > 1
        assert all(p.leading_coefficient() == p.field.one for p in out)
        keys = [p.order.key(p.leading_monomial()) for p in out]
        assert all(map(lt, keys, keys[1:]))
        for q in out:
            lead = q.leading_monomial()
            for p in out:
                assert p is q or not any(all(map(le, lead, e)) for e, _ in p.terms), lead
    answered = {(label, gb.field.characteristic, gb.order.kind)
                for label, gb in got.items() if gb is not None and isinstance(label, int)}
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
    kept = gb._packing.layout
    big = parse_polynomial(ring, "x^100 + 3*x^41*y^59 - y^7")
    assert big.total_degree() > kept.cap
    assert gb.normal_form(big).terms == reduce_by_tuples(big, gb.polys).terms
    wide = gb._packing.layout
    assert wide is not kept and wide.cap >= 100
    # a later polynomial within the wider cap reuses the kept packing
    assert gb.contains(small * big - small * big)
    assert gb._packing.layout is wide


def test_certified_basis_is_packed_by_its_first_normal_form():
    # the certificate packs the returned Polynomials for itself and keeps
    # nothing on the basis; the first membership test packs it, the next
    # reuses that packing
    ring = parse_ring("x, y")
    gens = [parse_polynomial(ring, t) for t in ("x^2 - y", "y^2 - 1")]
    gb = buchberger(gens)
    assert gb.certified and gb._packing is None
    assert gb.contains(gens[0] * gens[1])
    layout, reducers = gb._packing.layout, gb._packing
    assert not gb.contains(parse_polynomial(ring, "x*y + 1"))
    assert gb._packing.layout is layout and gb._packing is reducers


# degrees of the calls on each kept basis, falling and rising past its caps
LIFECYCLE_DEGREES = (5, 1, 20, 3, 0, 40, 12, 2)


def _lifecycle_bases():
    """(rng, basis): 40 seeded reduced bases over QQ and GF(32003), in
    permuted lex and grevlex, then the lex basis {x - y^40}, on which x^10
    overflows."""
    fields = (QQ, PrimeField(32003))
    for index in range(40):
        rng = rng_from_seed(f"idealkit:groebner:kept-packing:{index}")
        field = fields[index % 2]
        ring = numbered_ring(rng.randint(2, 3))
        kind = ("lex", "grevlex")[index // 2 % 2]
        order = getattr(MonomialOrder, kind)(ring, rng.sample(range(ring.n), ring.n))
        # no constant terms, so no basis is {1}
        gens = [random_sparse_poly(rng, ring, field, order, rng.randint(1, 3), 3, least=1)
                for _ in range(rng.randint(1, 3))]
        yield rng, buchberger(gens)
    ring = parse_ring("x, y")
    lex = MonomialOrder.lex(ring)
    yield random.Random(35), buchberger([parse_polynomial(ring, "x - y^40", order=lex)])


def test_kept_packing_is_rebuilt_only_past_its_cap_or_on_a_lex_overflow(monkeypatch):
    # a sequence of normal forms and membership tests on one basis packs it
    # once, then again only when a polynomial's degree passes the kept cap
    # or a lex reduction overflows the kept fields; every answer matches the
    # tuple reducer and unpacks into the basis's ring, field and order
    built, overflows = [], []
    make_reducers, reduce_full = groebner._Reducers, groebner._reduce_full

    def counted(*args):
        built.append(args[2])
        return make_reducers(*args)

    def spy_reduce(f, reducers):
        try:
            return reduce_full(f, reducers)
        except groebner._FieldOverflow:
            overflows.append(f)
            raise

    monkeypatch.setattr(groebner, "_Reducers", counted)
    monkeypatch.setattr(groebner, "_reduce_full", spy_reduce)
    seen = Counter()
    for rng, gb in _lifecycle_bases():
        ring, field, order = gb.ring, gb.field, gb.order
        calls = []
        for degree in LIFECYCLE_DEGREES:
            f = random_sparse_poly(rng, ring, field, order, degree, 3, least=degree)
            cofactor = random_sparse_poly(rng, ring, field, order, degree, 2)
            calls += [("normal_form", f), ("contains", cofactor * rng.choice(gb.polys))]
        if ring.variables == ("x", "y"):
            # x^10 reduces to y^400, which overflows the kept lex fields
            calls.insert(3, ("normal_form", parse_polynomial(ring, "x^10", order=order)))
        for name, f in calls:
            kept = gb._packing
            passes = kept is None or f.total_degree() > kept.layout.cap
            built.clear()
            overflows.clear()
            got = getattr(gb, name)(f)
            want = reduce_by_tuples(f, gb.polys)
            if name == "contains":
                assert got is True and want.is_zero, (str(gb), str(f))
            else:
                assert got.terms == want.terms, (str(gb), str(f))
                assert (got.ring, got.field, got.order) == (ring, field, order)
            assert len(built) == passes + len(overflows), (str(gb), str(f), name)
            if built:
                assert gb._packing.layout is built[-1]
            else:
                assert gb._packing is kept
            seen[order.kind, "overflow"] += len(overflows)
            seen[order.kind, "past the cap"] += passes and kept is not None
            seen[order.kind, "kept"] += not built
            seen[field.characteristic] += 1
    assert seen["grevlex", "overflow"] == 0
    for key in (("lex", "overflow"), ("lex", "past the cap"), ("grevlex", "past the cap"),
                ("lex", "kept"), ("grevlex", "kept"), 0, 32003):
        assert seen[key] > 0, (key, seen)


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
