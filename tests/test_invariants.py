"""Hilbert data, graded Betti numbers, and the identities tying them together."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from idealkit import (
    QQ,
    Graph,
    Monomial,
    MonomialIdeal,
    PrimeField,
    ResourceCapError,
    dimension_multiplicity,
    edge_ideal,
    graded_betti,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    is_cohen_macaulay,
    minimal_primes,
    codim,
    parse_field,
    parse_ideal,
    parse_ring,
    pure_resolution_multiplicity,
    random_ideal,
    random_squarefree_ideal,
    rng_from_seed,
    stillman_monomial_check,
    verify_betti_hilbert_identity,
)
from idealkit import invariants
from idealkit.cli import main
from idealkit.linalg import rank_over
from helpers import (
    betti_by_subset_scan,
    colon_numerator_by_tuples,
    compositions,
    corrupt_numerator,
    lcm_lattice_by_frontier,
    numbered_ring,
    reduced_homology_by_elimination,
    standard_count,
    standard_counts_by_inclusion_exclusion,
)

R2 = parse_ring("x, y")
R3 = parse_ring("x, y, z")
TRIANGLE = parse_ideal(R3, "x*y, x*z, y*z")


def test_hilbert_function_goldens():
    zero = MonomialIdeal.zero(R3)
    assert hilbert_function(zero, 2) == comb(4, 2)
    for d in (1, 2, 5):
        assert hilbert_function(TRIANGLE, d) == 3
    maximal = parse_ideal(R3, "x, y, z")
    assert hilbert_function(maximal, 0) == 1
    for d in (1, 2, 3):
        assert hilbert_function(maximal, d) == 0


def test_hilbert_function_matches_enumeration():
    rng = rng_from_seed("idealkit:invariants:hilbert")
    for _ in range(80):
        ring = numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=8, max_degree=5)
        for d in range(0, 7):
            assert hilbert_function(ideal, d) == standard_count(ideal, d)


def test_hilbert_series_goldens():
    assert hilbert_series(MonomialIdeal.zero(R3)).numerator == (1,)
    assert hilbert_series(parse_ideal(R3, "x^2*y")).numerator == (1, 0, 0, -1)
    series = hilbert_series(TRIANGLE)
    assert series.numerator == (1, 0, -3, 2)
    assert str(series) == "(1 - 3*z^2 + 2*z^3) / (1 - z)^3"
    for d in range(0, 8):
        assert series.coefficient(d) == hilbert_function(TRIANGLE, d)


def test_hilbert_polynomial_goldens():
    line = hilbert_polynomial(MonomialIdeal.zero(R2))
    assert line.stability == 0
    assert [line(d) for d in (0, 1, 5)] == [1, 2, 6]
    assert line.coefficients() == (Fraction(1), Fraction(1))

    constant = hilbert_polynomial(TRIANGLE)
    assert constant(10) == 3 and constant.coefficients() == (Fraction(3),)

    finite = hilbert_polynomial(parse_ideal(R2, "x^2, x*y, y^2"))
    assert finite(5) == 0
    assert finite.stability == 2
    assert hilbert_function(parse_ideal(R2, "x^2, x*y, y^2"), 0) == 1
    assert hilbert_function(parse_ideal(R2, "x^2, x*y, y^2"), 1) == 2


def test_polynomial_agrees_with_function_past_stability():
    rng = rng_from_seed("idealkit:invariants:stability")
    for _ in range(50):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=5, max_degree=4)
        poly = hilbert_polynomial(ideal)
        for d in range(poly.stability, poly.stability + 6):
            assert poly(d) == hilbert_function(ideal, d)


def test_dimension_and_multiplicity():
    assert dimension_multiplicity(TRIANGLE) == (1, 3)
    assert dimension_multiplicity(parse_ideal(R2, "x^3")) == (1, 3)
    cube = parse_ideal(R2, "x^3, x^2*y, x*y^2, y^3")
    assert dimension_multiplicity(cube) == (0, 6)
    with pytest.raises(ValueError):
        dimension_multiplicity(MonomialIdeal.unit(R2))


def test_multiplicity_counts_minimal_primes_for_squarefree():
    rng = rng_from_seed("idealkit:invariants:mult")
    for _ in range(40):
        ring = numbered_ring(rng.randint(2, 4))
        ideal = random_squarefree_ideal(rng, ring, max_generators=5)
        dim, mult = dimension_multiplicity(ideal)
        c = codim(ideal)
        expected = sum(1 for p in minimal_primes(ideal) if len(p.names) == c)
        assert dim == ring.n - c
        assert mult == expected


def test_koszul_betti_table():
    for n in range(1, 6):
        ring = numbered_ring(n)
        table = graded_betti(ring.ideal(", ".join(ring.variables)))
        assert table.as_dict() == {(i, i): comb(n, i) for i in range(n + 1)}
        assert table.proj_dim() == n
        assert table.regularity() == 0


def test_zero_ideal_betti_table():
    assert graded_betti(MonomialIdeal.zero(R3)).as_dict() == {(0, 0): 1}


def test_triangle_betti_table():
    table = graded_betti(TRIANGLE)
    assert table.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert table.proj_dim() == 2
    assert table.regularity() == 1
    over_f2 = graded_betti(TRIANGLE, parse_field("fp:2"))
    assert over_f2.as_dict() == table.as_dict()


def test_cube_betti_table_is_pure():
    cube = parse_ideal(R2, "x^3, x^2*y, x*y^2, y^3")
    table = graded_betti(cube)
    assert table.as_dict() == {(0, 0): 1, (1, 3): 4, (2, 4): 3}
    assert pure_resolution_multiplicity(table, 2) == Fraction(6)


def test_pure_resolution_multiplicity():
    assert pure_resolution_multiplicity(graded_betti(TRIANGLE), 2) == Fraction(3)
    koszul = graded_betti(parse_ideal(R3, "x, y, z"))
    assert pure_resolution_multiplicity(koszul, 3) == Fraction(1)
    mixed = graded_betti(parse_ideal(R2, "x^2, x*y"))
    assert pure_resolution_multiplicity(mixed, 1) is None


def test_betti_hilbert_identity_on_corpus():
    rng = rng_from_seed("idealkit:invariants:identity")
    f2 = parse_field("fp:2")
    for _ in range(60):
        ring = numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=8, max_degree=5)
        assert verify_betti_hilbert_identity(ideal)
        assert verify_betti_hilbert_identity(ideal, field=f2)


def test_cohen_macaulay_verdicts():
    assert is_cohen_macaulay(TRIANGLE)
    assert not is_cohen_macaulay(parse_ideal(R3, "x*y, x*z"))
    assert is_cohen_macaulay(parse_ideal(R3, "x"))


def test_bound_chain_on_corpus():
    rng = rng_from_seed("idealkit:invariants:bounds")
    for _ in range(50):
        ring = numbered_ring(rng.randint(2, 4))
        ideal = random_ideal(rng, ring, max_generators=6, max_degree=4)
        table = graded_betti(ideal)
        assert codim(ideal.radical()) <= table.proj_dim() <= ring.n
        assert stillman_monomial_check(ideal)


def test_table_render_and_json():
    table = graded_betti(TRIANGLE)
    text = table.render()
    assert "3" in text and "2" in text and "." in text
    payload = table.to_json()
    assert payload["field"] == "QQ"
    assert payload["proj_dim"] == 2 and payload["regularity"] == 1
    assert [1, 2, 3] in payload["entries"]


def _rows(ideal):
    return [g.exponents for g in ideal.generators]


def _check_corpus():
    """200 seeded ideals in 2-5 variables; every tenth has 13 generators,
    all of one degree, so none is dropped as a multiple."""
    rng = rng_from_seed("idealkit:invariants:colon")
    ideals = []
    for index in range(200):
        ring = numbered_ring(rng.randint(2, 5))
        if index % 10 == 0:
            ring = numbered_ring(rng.randint(4, 5))
            rows = rng.sample(list(compositions(3, ring.n)), 13)
            ideals.append(MonomialIdeal.from_generators(
                ring, [Monomial(ring, r) for r in rows]))
        else:
            ideals.append(random_ideal(rng, ring, max_generators=8, max_degree=5))
    return ideals


CYCLE10 = edge_ideal(Graph.cycle(10))
TABLE = parse_ideal(R3, "x^2, y^3, z^4, x*y*z")
# numerator 1 - 2z^2 + z^4, Hilbert polynomial 4d from degree 1
TWO_EDGES = parse_ideal(parse_ring("x, y, z, w"), "x*y, z*w")
STAIRCASE301 = parse_ideal(R2, ", ".join(f"x^{i}*y^{300 - i}" for i in range(301)))


def test_standard_counts_match_enumeration_and_inclusion_exclusion():
    ideals = _check_corpus()
    assert sum(len(i.generators) > 12 for i in ideals) == 20
    for ideal in ideals:
        rows, n = _rows(ideal), ideal.ring.n
        degrees = list(range(len(invariants._numerator(rows, n)) + 2))
        counts = invariants._standard_counts(rows, n, degrees)
        assert counts == standard_counts_by_inclusion_exclusion(rows, n, degrees)
        assert counts[:7] == [standard_count(ideal, d) for d in degrees[:7]]


def test_colon_numerator_matches_pivot_numerator():
    extra = [CYCLE10.power(2), TABLE.power(6), STAIRCASE301]
    for ideal in _check_corpus() + extra:
        rows, n = _rows(ideal), ideal.ring.n
        assert invariants._strip(invariants._colon_numerator(rows, n)) == \
            invariants._strip(invariants._numerator(rows, n))


# run in a child process: hilbert_series and both numerators of each ideal
_COPRIME_SCRIPT = """
import json
from idealkit import hilbert_series, invariants, parse_ideal, parse_ring
for count, size in ((30, 1), (20, 2)):
    names = [f"x{i}" for i in range(1, count * size + 1)]
    gens = ["*".join(names[i:i + size]) for i in range(0, len(names), size)]
    ideal = parse_ideal(parse_ring(",".join(names)), ",".join(gens))
    rows, n = [g.exponents for g in ideal.generators], ideal.ring.n
    print(json.dumps([list(hilbert_series(ideal).numerator),
                      invariants._strip(invariants._colon_numerator(rows, n)),
                      invariants._strip(invariants._numerator(rows, n))]))
"""


def test_pairwise_coprime_generators_answer_within_a_time_limit():
    # (x1..x30) and a 20-edge matching: every generator shares no variable
    # with those before it, so J : m = J at each step of the colon check,
    # which without its memo doubles its work per generator (hours here).
    # A child process runs them, so a regression fails this test by its
    # time limit instead of stalling the suite.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _COPRIME_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line, (count, degree) in zip(lines, ((30, 1), (20, 2))):
        series, colon, pivot = json.loads(line)
        # prod (1 - z^degree) over the generators
        want = [0] * (count * degree + 1)
        for i in range(count + 1):
            want[i * degree] = (-1) ** i * comb(count, i)
        assert series == colon == pivot == want


def test_pivot_recursion_cap_stops_the_fifty_cycle_within_a_time_limit():
    # the pivot recursion reads about four times the rows per five more
    # cycle vertices; C40 reads 3,213,239 and answers, C50 would take minutes
    src = Path(__file__).resolve().parents[1] / "src"
    n = 50
    ring = ",".join(f"x{i}" for i in range(1, n + 1))
    ideal = ", ".join(f"x{i}*x{i % n + 1}" for i in range(1, n + 1))
    done = subprocess.run(
        [sys.executable, "-m", "idealkit", "invariants", "hilbert", "--ring", ring,
         "--ideal", ideal], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        f"resource cap: Hilbert pivot recursion read over {invariants._PIVOT_CAP} rows\n")


def test_pivot_recursion_cap_counts_rows_read(monkeypatch):
    # (x^2, x*y, y^2): the root reads 3 rows and splits once into two
    # coprime leaves of 2 rows each
    rows = _rows(parse_ideal(parse_ring("x, y"), "x^2, x*y, y^2"))
    monkeypatch.setattr(invariants, "_PIVOT_CAP", 7)
    assert invariants._strip(invariants._numerator(rows, 2)) == [1, 0, -3, 2]
    monkeypatch.setattr(invariants, "_PIVOT_CAP", 6)
    with pytest.raises(ResourceCapError, match="^Hilbert pivot recursion read over 6 rows$"):
        invariants._numerator(rows, 2)


def test_colon_recursion_cap_counts_rows_read(monkeypatch):
    # (y^2, x*y, x^2) join in that order: y^2 : x*y reads 1 row, and
    # (y^2, x*y) : x^2 reads 2, whose colon rows y, y^2 minimalize with one
    # more read
    rows = _rows(parse_ideal(parse_ring("x, y"), "x^2, x*y, y^2"))
    monkeypatch.setattr(invariants, "_COLON_CAP", 4)
    assert invariants._strip(invariants._colon_numerator(rows, 2)) == [1, 0, -3, 2]
    monkeypatch.setattr(invariants, "_COLON_CAP", 3)
    with pytest.raises(ResourceCapError, match="^Hilbert colon recursion read over 3 rows$"):
        invariants._colon_numerator(rows, 2)


def test_colon_recursion_cap_stops_a_large_maximal_ideal():
    # (x1..x200) is one pivot leaf, but its colon check minimalizes every
    # prefix against each later variable, 67M reads
    ring = numbered_ring(200)
    with pytest.raises(ResourceCapError,
                       match=f"^Hilbert colon recursion read over {invariants._COLON_CAP} rows$"):
        hilbert_series(parse_ideal(ring, ", ".join(ring.variables)))


def _oracle_corpus():
    """The 200 ideals of _check_corpus plus 200 seeded row lists on 1-5
    variables, unminimalized, with repeats, multiples and sometimes the unit
    row."""
    rng = rng_from_seed("idealkit:invariants:packed")
    lists = [(_rows(ideal), ideal.ring.n) for ideal in _check_corpus()]
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(1, 9))]
        rows += rng.sample(rows, rng.randint(0, len(rows)))
        lists.append((rows, n))
    return lists


def test_packed_colon_numerator_matches_tuple_recursion():
    lists = _oracle_corpus()
    assert any(not any(r) for rows, _ in lists for r in rows)
    for rows, n in lists:
        assert invariants._colon_numerator(rows, n) == colon_numerator_by_tuples(rows, n)
    for ideal in (CYCLE10.power(2), TABLE.power(6), STAIRCASE301):
        rows, n = _rows(ideal), ideal.ring.n
        assert invariants._colon_numerator(rows, n) == colon_numerator_by_tuples(rows, n)


def test_one_pass_lattice_matches_frontier_rounds():
    for rows, n in _oracle_corpus():
        lattice = invariants._lcm_lattice(rows)
        assert lattice == lcm_lattice_by_frontier(rows)
        assert all(type(a) is tuple and len(a) == n for a in lattice)


def test_betti_matches_subset_scan_builder():
    rng = rng_from_seed("idealkit:invariants:faces")
    ideals = [edge_ideal(Graph.cycle(n)) for n in range(5, 10)]
    for _ in range(40):
        ring = numbered_ring(rng.randint(2, 5))
        ideals.append(random_ideal(rng, ring, max_generators=7, max_degree=4))
    for ideal in ideals:
        for field in (QQ, PrimeField(32003)):
            assert graded_betti(ideal, field).as_dict() == betti_by_subset_scan(ideal, field)


@pytest.mark.parametrize("name", ["_numerator", "_colon_numerator"])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_self_check_fires_on_a_corrupt_numerator(monkeypatch, name, index):
    corrupt_numerator(monkeypatch, name, index)
    with pytest.raises(RuntimeError, match="internal error: series disagrees"):
        hilbert_series(TRIANGLE)


@pytest.mark.parametrize("name", ["_numerator", "_colon_numerator"])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_self_check_names_the_corrupt_degree(monkeypatch, name, index):
    corrupt_numerator(monkeypatch, name, index)
    with pytest.raises(RuntimeError, match=f"at degree {index}$"):
        hilbert_series(TRIANGLE)


@pytest.mark.parametrize("name", ["_numerator", "_colon_numerator"])
def test_hilbert_function_answers_from_the_checked_numerator(monkeypatch, name):
    corrupt_numerator(monkeypatch, name, 1)
    with pytest.raises(RuntimeError, match="internal error: series disagrees .* at degree 1$"):
        hilbert_function(TRIANGLE, 2)


@pytest.mark.parametrize("extra", [2, 3, 7])
def test_self_check_fires_past_the_numerator(monkeypatch, extra):
    # a check term past degree len + 1 changes the series only there
    degree = len(hilbert_series(TRIANGLE).numerator) + extra
    real = invariants._colon_numerator

    def corrupt(rows, n):
        out = real(rows, n)
        return out + [0] * (degree - len(out)) + [1]

    monkeypatch.setattr(invariants, "_colon_numerator", corrupt)
    with pytest.raises(RuntimeError, match=f"series disagrees .* at degree {degree}$"):
        hilbert_series(TRIANGLE)


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.mark.parametrize("ideal", [STAIRCASE301, CYCLE10.power(3)],
                         ids=["staircase301", "C10^3"])
def test_check_answers_at_default_recursion_limit(default_recursion_limit, ideal):
    # hilbert_series raises unless the colon-recursion counts agree
    assert hilbert_series(ideal).numerator[0] == 1


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_pivot_recursion_needs_no_stack():
    # the pivot recursion on the staircase is 300 levels deep
    want = hilbert_series(STAIRCASE301)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        got = hilbert_series(STAIRCASE301)
    finally:
        sys.setrecursionlimit(old)
    assert got == want


@pytest.mark.parametrize("ideal", [TRIANGLE, CYCLE10.power(2), TABLE],
                         ids=["triangle", "C10^2", "table"])
def test_hilbert_polynomial_counts_once_for_its_check(monkeypatch, ideal):
    # the polynomial's samples come from the checked series, not from counts
    real = invariants._colon_numerator
    runs = []
    monkeypatch.setattr(invariants, "_colon_numerator",
                        lambda rows, n: runs.append(n) or real(rows, n))
    monkeypatch.setattr(invariants, "_standard_counts",
                        lambda *args: pytest.fail("counted degree by degree"))
    hilbert_polynomial(ideal)
    assert len(runs) == 1


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_polynomial_check_fires_on_a_corrupt_count(monkeypatch, index):
    # the polynomial is sampled at the n degrees from its stability degree on
    real = invariants.HilbertSeries.coefficient
    for ideal in (TABLE, TWO_EDGES):
        if index >= ideal.ring.n:
            continue
        degree = hilbert_polynomial(ideal).stability + index
        with monkeypatch.context() as patch:
            patch.setattr(invariants.HilbertSeries, "coefficient",
                          lambda self, d: real(self, d) + (d == degree))
            with pytest.raises(RuntimeError, match=(
                    f"internal error: polynomial disagrees with function at degree {degree}$")):
                hilbert_polynomial(ideal)


def test_polynomial_check_fires_on_a_corrupt_expansion(monkeypatch, capsys):
    poly = hilbert_polynomial(TWO_EDGES)
    assert (poly.numerator, poly.stability, str(poly)) == ((1, 0, -2, 0, 1), 1, "4*d")
    # 3! p(d) plus 6 (d - 1)(d - 2)(d - 3): right at the first three samples,
    # d = 1, 2, 3, wrong at the fourth
    real = invariants.HilbertPolynomial._scaled.func
    extra = (-36, 66, -36, 6)
    monkeypatch.setattr(invariants.HilbertPolynomial, "_scaled", property(
        lambda self: tuple(a + b for a, b in zip(real(self) + (0, 0), extra))))
    code = main(["invariants", "hilbert", "--ring", "x,y,z,w", "--ideal", "x*y, z*w"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        4, "", "internal error: polynomial disagrees with function at degree 4\n")


def test_hilbert_series_of_c10_square_is_checked_quickly():
    start = time.perf_counter()
    series = hilbert_series(CYCLE10.power(2))
    assert time.perf_counter() - start < 5
    assert series.coefficient(4) == standard_count(CYCLE10.power(2), 4)


def _faces_of(facets):
    """All faces of the complex with these facet bitmasks, the empty face
    included."""
    faces = {0}
    for facet in facets:
        sub = facet
        while sub:
            faces.add(sub)
            sub = (sub - 1) & facet
    return faces


def _vertex_sets(faces):
    return [frozenset(i for i in range(f.bit_length()) if f >> i & 1) for f in faces]


FIELDS = (QQ, PrimeField(2), PrimeField(32003))


def test_core_keeps_reduced_homology():
    rng = rng_from_seed("idealkit:invariants:core")
    collapsed = 0
    for _ in range(300):
        vertices = rng.randint(1, 8)
        facets = [rng.randrange(1 << vertices) for _ in range(rng.randint(1, 7))]
        core = invariants._core(facets)
        assert _faces_of(core) <= _faces_of(facets)
        assert not any(f != g and f & g == f for f in core for g in core)
        if len(core) > 1:
            # a core: no vertex has another vertex in every facet through it
            span = 0
            for f in core:
                span |= f
            for v in range(vertices):
                bit = 1 << v
                if span & bit:
                    common = -1
                    for f in core:
                        if f & bit:
                            common &= f
                    assert common == bit
        collapsed += len(_faces_of(core)) < len(_faces_of(facets))
        full = _vertex_sets(_faces_of(facets))
        for field in FIELDS:
            assert invariants._homology_dims(_faces_of(core), field) == \
                reduced_homology_by_elimination(full, field)
    assert collapsed > 100


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
def test_simplex_boundaries_are_cores_with_one_homology_class(field):
    # the boundary of a simplex on m vertices, its m facets of m - 1
    # vertices spread over 12 bits, is its own core, with reduced homology
    # one copy of the field in dimension m - 2 ({empty face} for m = 1)
    rng = rng_from_seed("idealkit:invariants:sphere")
    for m in range(1, 8):
        vertices = [1 << b for b in rng.sample(range(12), m)]
        facets = [sum(vertices) ^ v for v in vertices] if m > 1 else [0]
        assert sorted(invariants._core(facets)) == sorted(facets)
        assert invariants._homology_dims(_faces_of(facets), field) == {m - 2: 1}


# the 6-vertex real projective plane: every vertex link is a 5-cycle, so no
# vertex is dominated and H_1 has 2-torsion
RP2 = [sum(1 << v for v in t) for t in (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3))]


def test_projective_plane_pins_torsion(monkeypatch):
    assert sorted(invariants._core(RP2)) == sorted(RP2)
    faces = _faces_of(RP2)
    dense = []

    def counted(rows, field):
        dense.append(field.label)
        return rank_over(rows, field)

    monkeypatch.setattr(invariants, "rank_over", counted)
    assert invariants._homology_dims(faces, QQ) == {}
    # over Q no unit-pivot elimination can rank the 2-torsion boundary alone
    assert dense == ["QQ"]
    assert invariants._homology_dims(faces, PrimeField(2)) == {1: 1, 2: 1}
    assert invariants._homology_dims(faces, PrimeField(32003)) == {}
    assert dense == ["QQ"]
    for field in FIELDS:
        assert reduced_homology_by_elimination(_vertex_sets(faces), field) == \
            invariants._homology_dims(faces, field)


# graded_betti(I(C12)) as computed by the dense-rank implementation this
# one replaced (about 10 s there)
CYCLE12_BETTI = {
    (0, 0): 1, (1, 2): 12, (2, 3): 12, (2, 4): 42, (3, 5): 84, (3, 6): 40,
    (4, 6): 42, (4, 7): 120, (4, 8): 3, (5, 8): 120, (5, 9): 12, (6, 9): 40,
    (6, 10): 18, (7, 11): 12, (8, 12): 2,
}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=lambda f: f.label)
def test_cycle12_betti_table(field):
    ideal = edge_ideal(Graph.cycle(12))
    start = time.perf_counter()
    table = graded_betti(ideal, field)
    assert time.perf_counter() - start < 5
    assert table.as_dict() == CYCLE12_BETTI
    assert table.alternating_numerator() == hilbert_series(ideal).numerator


# Beyarslan, Ha and Trung, "Regularity of powers of forests and cycles",
# J. Algebraic Combin. 42 (2015): reg(I(C_n)^s) = 2s + floor(n/3) - 1 for
# n >= 5 and s >= 2, and reg(I(P_n)^s) = 2s + floor((n+1)/3) - 1 for s >= 1,
# where reg(I) = reg(S/I) + 1
REGULARITY_CASES = (
    [("cycle", n, 2) for n in range(5, 10)]
    + [("cycle", n, 3) for n in range(5, 8)]
    + [("path", n, s) for n in range(3, 9) for s in (1, 2, 3) if n < 8 or s < 3]
)


def test_regularity_of_powers_of_cycles_and_paths():
    start = time.perf_counter()
    for kind, n, s in REGULARITY_CASES:
        ideal = edge_ideal(getattr(Graph, kind)(n)).power(s)
        table = graded_betti(ideal)
        offset = n // 3 if kind == "cycle" else (n + 1) // 3
        assert table.regularity() + 1 == 2 * s + offset - 1, (kind, n, s)
    assert time.perf_counter() - start < 3


def test_betti_bound_is_the_lcm_lattice_not_the_generator_count():
    quintics = parse_ideal(R3, "x, y, z").power(5)
    assert len(quintics.rows) == 21
    assert verify_betti_hilbert_identity(quintics)
    assert is_cohen_macaulay(quintics)
    assert stillman_monomial_check(quintics)
    with pytest.raises(ResourceCapError, match="^21 generators exceed the enumeration cap 20$"):
        graded_betti(quintics, max_generators=20)
