"""What the benchmark's tracer reads from the stage functions it wraps.

``perfbench/tracer.py`` wraps ``groebner._reduce_full`` by rebinding the
module attribute, books each call under the field of ``args[0]`` and
counts the results that are zero; the certificate-corruption tests patch
``groebner._interreduce`` and edit the Polynomials it returns.  These
tests wrap both the same way during a ``buchberger`` call, and
``_reduce_full`` also at every other entry point that packs what it
reduces: ``GroebnerBasis.normal_form`` and ``contains`` (through a lex
widening and a grevlex repack), ``_certify`` and the Frobenius check.  The tracer's
``invariants.lcm_lattice.points`` is ``len`` of what
``invariants._lcm_lattice`` returns, one exponent tuple per lattice point,
which a test pins during a ``graded_betti`` call.  It reads the variables
of a symbolic power's minimal primes as ``set().union(*result)`` of what
``symbolic._prime_index_sets`` returns, so that must be iterables of
variable indices; a test pins it during a ``symbolic_power`` call.  Its
``invariants.numerator.calls`` counts calls through the module attribute
``invariants._numerator``: each ``hilbert_series`` enters it once, its own
recursion never does, and it returns a list of ints.  The last test checks
that a numerator corrupted through that attribute, or through
``_colon_numerator``, still makes ``invariants hilbert`` exit 4 on an ideal
that pivots.

``monomials.minimalize.*`` wraps the function object bound as
``monomials._minimal_rows`` wherever an idealkit module binds it, reads
``len`` of its first argument as ``rows_in`` and ``len`` of its result as
``rows_out``.  A test rebinds it the same way and pins that products, each
lattice-point fold, parsing and each Hilbert pivot colon reach it, with a
sized first argument and a list no longer than that.

``groebner.reduce.calls`` and ``groebner.spoly.calls`` count calls through
the module attributes ``groebner._reduce_full`` and ``_s_polynomial``
(called as ``(f, g, layout)``), and
``groebner.certify.*`` those of ``_certify``.  A test rebinds all three and
pins how often a certified ``buchberger`` calls the first two, in its loop
and inside ``_certify``, on cyclic-4, katsura-3 and the first three
dense-cubic systems of ``perfbench/workloads.py`` (copied here as text) in
both fields and orders: a cheaper call must not become more calls.  When an
engine change legitimately makes fewer calls, re-pin the counts.
"""

import sys

import pytest

from idealkit import (
    Graph,
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    PrimeField,
    QQ,
    buchberger,
    edge_ideal,
    frobenius_containment_check,
    graded_betti,
    groebner,
    hilbert_series,
    invariants,
    minimal_primes,
    monomials,
    parse_ideal,
    parse_polynomial,
    parse_ring,
    symbolic,
    symbolic_power,
)
from idealkit.cli import main
from helpers import corrupt_numerator

CYCLIC4 = ["a + b + c + d", "a*b + b*c + c*d + d*a",
           "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]


def _cyclic4(field, kind):
    ring = parse_ring("a, b, c, d")
    order = getattr(MonomialOrder, kind)(ring)
    return [parse_polynomial(ring, t, field, order) for t in CYCLIC4]


def test_reduce_full_shows_the_field_and_zero_results(monkeypatch):
    real = groebner._reduce_full
    seen = []

    def traced(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append((args[0].field.characteristic, result.is_zero))
        return result

    monkeypatch.setattr(groebner, "_reduce_full", traced)

    def check(field, call):
        seen.clear()
        call()
        assert {p for p, _ in seen} == {field.characteristic}
        assert {zero for _, zero in seen} == {False, True}

    xy = parse_ring("x, y")
    lex = MonomialOrder.lex(xy)
    for field in (QQ, PrimeField(32003)):
        for kind in ("lex", "grevlex"):
            check(field, lambda: buchberger(_cyclic4(field, kind)))
        # x^10 reduces to y^400, past the layout sized for the inputs
        widened = buchberger([parse_polynomial(xy, "x - y^40", field, lex)])
        check(field, lambda: (
            widened.normal_form(parse_polynomial(xy, "x^10", field, lex)),
            widened.contains(parse_polynomial(xy, "x^10 - y^400", field, lex))))
        # x^100 repacks the basis past the cap its first normal form kept
        gens = [parse_polynomial(xy, t, field) for t in ("x^2 - y", "y^2 - 1")]
        repacked = buchberger(gens)
        small = parse_polynomial(xy, "x^3 + x*y", field)
        check(field, lambda: (
            repacked.normal_form(small),
            repacked.normal_form(parse_polynomial(xy, "x^100 + 3*x^41*y^59 - y^7", field)),
            repacked.contains(small * gens[0])))
        # the certificate of a basis, then of the basis less one element
        cyclic = _cyclic4(field, "grevlex")
        gb = buchberger(cyclic, certify=False)
        dropped = GroebnerBasis(gb.ring, gb.field, gb.order, gb.polys[:-1], False)

        def certify():
            groebner._certify(gb, cyclic)
            with pytest.raises(RuntimeError):
                groebner._certify(dropped, cyclic)

        check(field, certify)
    gf5 = PrimeField(5)
    gens = [parse_polynomial(xy, t, gf5) for t in ("x + y^2", "x*y")]
    check(gf5, lambda: frobenius_containment_check(gens, 2, 5, 1))


def test_interreduce_returns_polynomials(monkeypatch):
    real = groebner._interreduce
    returned = []

    def recorded(reducers, active):
        returned.append(real(reducers, active))
        return returned[-1]

    monkeypatch.setattr(groebner, "_interreduce", recorded)
    gb = buchberger(_cyclic4(PrimeField(32003), "grevlex"))
    assert len(returned) == 1
    assert all(isinstance(p, Polynomial) for p in returned[0])
    assert list(gb) == returned[0]


def test_lcm_lattice_returns_a_set_of_exponent_tuples(monkeypatch):
    real = invariants._lcm_lattice
    returned = []

    def recorded(rows):
        returned.append(real(rows))
        return returned[-1]

    monkeypatch.setattr(invariants, "_lcm_lattice", recorded)
    ideal = edge_ideal(Graph.cycle(5))
    graded_betti(ideal)
    assert len(returned) == 1
    lattice = returned[0]
    assert type(lattice) is set
    assert all(type(a) is tuple and len(a) == 5 and all(type(e) is int for e in a)
               for a in lattice)
    # the unions of edges of the 5-cycle: 5 edges, 5 paths of two edges,
    # 5 of three and the whole cycle
    assert len(lattice) == 16


def test_prime_index_sets_returns_iterables_of_variable_indices(monkeypatch):
    real = symbolic._prime_index_sets
    returned = []

    def recorded(ideal):
        returned.append(real(ideal))
        return returned[-1]

    monkeypatch.setattr(symbolic, "_prime_index_sets", recorded)
    # the 6-cycle has five minimal primes: its two color classes and three
    # covers of four vertices, returned in the order of minimal_primes
    ideal = edge_ideal(Graph.cycle(6))
    symbolic_power(ideal, 2)
    assert len(returned) == 1
    primes = returned[0]
    assert len(primes) == 5
    assert all(type(i) is int and 0 <= i < 6 for p in primes for i in p)
    assert [tuple(sorted(p)) for p in primes] == [p.indices for p in minimal_primes(ideal)]
    assert set().union(*primes) == set(range(6))


def test_hilbert_series_enters_the_numerator_once(monkeypatch):
    real = invariants._numerator
    returned = []

    def recorded(rows, n):
        returned.append(real(rows, n))
        return returned[-1]

    monkeypatch.setattr(invariants, "_numerator", recorded)
    xyz = parse_ring("x, y, z")
    table = parse_ideal(xyz, "x^2, y^3, z^4, x*y*z")
    staircase = parse_ideal(parse_ring("x, y"), ", ".join(f"x^{i}*y^{40 - i}" for i in range(41)))
    # leaves, a two-variable leaf, components and deep pivots
    ideals = [parse_ideal(xyz, "x*y, x*z, y*z"), staircase, table.power(5),
              edge_ideal(Graph.cycle(10)), edge_ideal(Graph.cycle(30))]
    for ideal in ideals:
        returned.clear()
        series = hilbert_series(ideal)
        assert len(returned) == 1
        assert type(returned[0]) is list and all(type(c) is int for c in returned[0])
        assert tuple(returned[0]) == series.numerator


@pytest.mark.parametrize("name", ["_numerator", "_colon_numerator"])
def test_corrupt_numerator_exits_four_on_an_ideal_that_pivots(capsys, monkeypatch, name):
    corrupt_numerator(monkeypatch, name, 2)
    ring = ",".join(f"x{i}" for i in range(1, 9))
    ideal = ", ".join(f"x{i}*x{i % 8 + 1}" for i in range(1, 9))
    code = main(["invariants", "hilbert", "--ring", ring, "--ideal", ideal])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == "internal error: series disagrees with direct count at degree 2\n"


def test_every_minimalization_reaches_the_kernel_attribute(monkeypatch):
    real = monomials._minimal_rows
    callers = []

    def traced(rows, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        size = len(rows)
        result = real(rows, *args)
        assert type(result) is list and len(result) <= size
        return result

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "idealkit":
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, traced)
    ring = parse_ring("x, y, z")
    triangle, factor = parse_ideal(ring, "x*y, x*z, y*z"), parse_ideal(ring, "x, y^2")
    assert callers == ["_ideal_from_rows"] * 2
    callers.clear()
    triangle * factor
    triangle * triangle
    assert callers == ["__mul__", "__mul__"]
    # one fold per minimal prime, none of whose bounds is 0
    for ideal, k in ((triangle, 2), (edge_ideal(Graph.cycle(5)), 3)):
        callers.clear()
        symbolic_power(ideal, k)
        assert callers == ["_minimal_points"] * len(minimal_primes(ideal))
    # the 6-cycle's root, then one pivot: I + p has five rows and I : p
    # four, so both are leaves
    cycle = edge_ideal(Graph.cycle(6))
    callers.clear()
    invariants._numerator(cycle.rows, 6)
    assert callers == ["_numerator"] * 2


# the groebner-systems texts of cyclic-4, katsura-3 and dense-cubic:0 to :2
WORKLOAD_SYSTEMS = [
    ("cyclic-4", "a,b,c,d", "; ".join(CYCLIC4)),
    ("katsura-3", "a,b,c,d",
     "a + 2*b + 2*c + 2*d - 1; a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a; "
     "2*a*b + 2*b*c + 2*c*d - b; b^2 + 2*a*c + 2*b*d - c"),
    ("dense-cubic:0", "x1,x2,x3",
     "4*x1^2 - 4*x1*x3 - 2*x1; - 2*x1^2 + x1 - 3*x3; - x1*x2 - 3*x1*x3 + x1"),
    ("dense-cubic:1", "x1,x2,x3",
     "5*x1*x2*x3 + 4*x1*x3 - 4*x2; - 3*x2^2 + 4*x2 + 2*x3; - 5*x1^2 - 5*x2^2 - 2*x3"),
    ("dense-cubic:2", "x1,x2,x3",
     "- 4*x1*x2*x3 + 4*x1*x3 - 5*x2^2*x3; - 5*x1*x2 + x2*x3 + 4*x2; "
     "- 4*x1 - 2*x2^2 + 3*x3"),
]


def _workload_systems():
    """(label, generators) of ``WORKLOAD_SYSTEMS`` over QQ and GF(32003),
    in lex and grevlex."""
    for label, ring_text, text in WORKLOAD_SYSTEMS:
        ring = parse_ring(ring_text)
        for field in (QQ, PrimeField(32003)):
            for kind in ("lex", "grevlex"):
                order = getattr(MonomialOrder, kind)(ring)
                yield (label, field.characteristic, kind), [
                    parse_polynomial(ring, part, field, order) for part in text.split(";")]


# calls of _reduce_full and _s_polynomial in one certified buchberger: in
# the loop and interreduction, then in _certify; these were counted while
# the certificate still chose its pairs on exponent tuples and one-term
# inputs still took the reduction loop; fewer calls after an engine change
# are re-pinned, more are a regression
WORK_COUNTS = {
    ("cyclic-4", 0, "lex"): (21, 11, 11, 7),
    ("cyclic-4", 0, "grevlex"): (19, 8, 15, 11),
    ("cyclic-4", 32003, "lex"): (21, 11, 11, 7),
    ("cyclic-4", 32003, "grevlex"): (19, 8, 15, 11),
    ("katsura-3", 0, "lex"): (39, 31, 4, 0),
    ("katsura-3", 0, "grevlex"): (19, 8, 13, 9),
    ("katsura-3", 32003, "lex"): (39, 31, 4, 0),
    ("katsura-3", 32003, "grevlex"): (19, 8, 13, 9),
    ("dense-cubic:0", 0, "lex"): (14, 6, 10, 7),
    ("dense-cubic:0", 0, "grevlex"): (14, 6, 10, 7),
    ("dense-cubic:0", 32003, "lex"): (14, 6, 10, 7),
    ("dense-cubic:0", 32003, "grevlex"): (14, 6, 10, 7),
    ("dense-cubic:1", 0, "lex"): (25, 18, 5, 2),
    ("dense-cubic:1", 0, "grevlex"): (17, 8, 12, 9),
    ("dense-cubic:1", 32003, "lex"): (25, 18, 5, 2),
    ("dense-cubic:1", 32003, "grevlex"): (17, 8, 12, 9),
    ("dense-cubic:2", 0, "lex"): (16, 9, 5, 2),
    ("dense-cubic:2", 0, "grevlex"): (18, 9, 12, 9),
    ("dense-cubic:2", 32003, "lex"): (16, 9, 5, 2),
    ("dense-cubic:2", 32003, "grevlex"): (18, 9, 12, 9),
}


def test_buchberger_work_counts_through_the_module_attributes(monkeypatch):
    counts, inside = {}, [False]
    real_certify = groebner._certify

    def certify(*args):
        inside[0] = True
        try:
            return real_certify(*args)
        finally:
            inside[0] = False

    def counted(name):
        real = getattr(groebner, name)

        def traced(*args, **kwargs):
            counts[name, inside[0]] = counts.get((name, inside[0]), 0) + 1
            return real(*args, **kwargs)

        return traced

    monkeypatch.setattr(groebner, "_certify", certify)
    for name in ("_reduce_full", "_s_polynomial"):
        monkeypatch.setattr(groebner, name, counted(name))
    got = {}
    for label, gens in _workload_systems():
        counts.clear()
        buchberger(gens)
        got[label] = tuple(counts.get((name, inside), 0) for inside in (False, True)
                           for name in ("_reduce_full", "_s_polynomial"))
    assert got == WORK_COUNTS, got
