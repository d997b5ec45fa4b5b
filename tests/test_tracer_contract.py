"""What the benchmark's tracer reads from the stage functions it wraps.

``perfbench/tracer.py`` wraps ``groebner._reduce_full`` by rebinding the
module attribute, books each call under the field of ``args[0]`` and
counts the results that are zero; the certificate-corruption tests patch
``groebner._interreduce`` and edit the Polynomials it returns.  These
tests wrap both the same way during a ``buchberger`` call.  The tracer's
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
"""

import sys

import pytest

from idealkit import (
    Graph,
    MonomialOrder,
    Polynomial,
    PrimeField,
    QQ,
    buchberger,
    edge_ideal,
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
    for field in (QQ, PrimeField(32003)):
        for kind in ("lex", "grevlex"):
            seen.clear()
            buchberger(_cyclic4(field, kind))
            assert {p for p, _ in seen} == {field.characteristic}
            assert {zero for _, zero in seen} == {False, True}


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
