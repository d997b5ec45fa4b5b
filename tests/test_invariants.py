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
    pivot_numerator_by_tuples,
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


def _cycle_request(n):
    ring = ",".join(f"x{i}" for i in range(1, n + 1))
    ideal = ", ".join(f"x{i}*x{i % n + 1}" for i in range(1, n + 1))
    return ["invariants", "mult", "--ring", ring, "--ideal", ideal]


def test_multiplicity_of_long_cycles_lists_only_the_least_covers(capsys):
    # an even cycle has exactly two covers of least size, its colour
    # classes; the cross-check counts those alone, not every minimal prime
    for n in (30, 40):
        start = time.perf_counter()
        assert main(_cycle_request(n)) == 0
        assert time.perf_counter() - start < 20
        assert capsys.readouterr() == (f"dimension {n // 2}, multiplicity 2\n", "")


def _extra_cover(monkeypatch):
    real = invariants._covers
    monkeypatch.setattr(invariants, "_covers", lambda supports, limit: [
        *real(supports, limit), 0])


def _higher_codim(monkeypatch):
    real = invariants._codim
    monkeypatch.setattr(invariants, "_codim", lambda ideal: real(ideal) + 1)


@pytest.mark.parametrize("corrupt", [_extra_cover, _higher_codim], ids=["count", "height"])
def test_multiplicity_check_fires_on_a_corrupt_cover_count(monkeypatch, capsys, corrupt):
    corrupt(monkeypatch)
    message = ("internal error: series dimension data disagrees with the prime "
               "decomposition")
    for ideal in (TRIANGLE, edge_ideal(Graph.cycle(6))):
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            dimension_multiplicity(ideal)
    assert main(_cycle_request(6)) == 4
    assert capsys.readouterr() == ("", message + "\n")


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


def _differential_corpus():
    """(rows, n, oracle) triples: the 200 ideals of _check_corpus, C10^2;
    400 seeded row lists on 1-6 variables, with pure powers, repeats and
    multiples; 40 two-variable lists; 40 lists on 2-4 variable-disjoint
    blocks; C6..C50; staircases of 21 to 1501 generators and (x, y, z)^30;
    (x^2, y^3, z^4, x*y*z)^k for k <= 8.  ``oracle`` is false where the
    tuple pivot oracle would take seconds."""
    rng = rng_from_seed("idealkit:invariants:bigatti")
    lists = [(_rows(ideal), ideal.ring.n, True) for ideal in _check_corpus()]
    lists.append((_rows(CYCLE10.power(2)), 10, True))
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 10))]
        rows += rng.choices(rows, k=rng.randint(0, 2))
        for j in rng.sample(range(n), rng.randint(0, n)):
            rows.append(tuple(rng.randint(1, 6) if i == j else 0 for i in range(n)))
        lists.append((rows, n, True))
    for _ in range(40):
        rows = [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(rng.randint(1, 30))]
        lists.append((rows, 2, True))
    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        n, rows, start = sum(sizes), [], 0
        for size in sizes:
            for _ in range(rng.randint(1, 5)):
                row = [0] * n
                for i in range(start, start + size):
                    row[i] = rng.randint(0, 3)
                rows.append(tuple(row))
            start += size
        lists.append((rows, n, True))
    for n in range(6, 51):
        lists.append((_rows(edge_ideal(Graph.cycle(n))), n, n <= 25))
    for count in (21, 41, 61, 81, 101, 301, 501, 1001, 1501):
        text = ", ".join(f"x^{i}*y^{count - 1 - i}" for i in range(count))
        lists.append((_rows(parse_ideal(R2, text)), 2, count <= 501))
    cube = ", ".join(f"x^{i}*y^{j}*z^{30 - i - j}" for i in range(31) for j in range(31 - i))
    lists.append((_rows(parse_ideal(R3, cube)), 3, True))
    for k in range(1, 9):
        lists.append((_rows(TABLE.power(k)), 3, True))
    return lists


def test_colon_numerator_matches_pivot_numerator():
    lists = _differential_corpus()
    assert sum(oracle for _, _, oracle in lists) == 717
    for rows, n, oracle in lists:
        got = invariants._numerator(rows, n)
        assert got == invariants._strip(invariants._colon_numerator(rows, n)), rows
        if oracle:
            assert got == invariants._strip(pivot_numerator_by_tuples(rows, n)), rows


HUGE_CYCLE = "x^1000000*y, y^999999*z, z^1000000*x"


@pytest.mark.parametrize("text", ["x^1000000, y^1000000, z^1000000", HUGE_CYCLE],
                         ids=["powers", "cycle"])
def test_huge_exponents_match_the_tuple_oracle(text):
    rows = _rows(parse_ideal(R3, text))
    assert invariants._numerator(rows, 3) == \
        invariants._strip(pivot_numerator_by_tuples(rows, 3))


def test_component_products_cost_per_nonzero_term(monkeypatch):
    # two variable-disjoint copies of the huge 3-cycle: the numerator is the
    # square of the 3-cycle's 6 terms, and no sparse product on the way
    # pairs more than 6 x 6 terms, though its degree is 5,999,998
    rows = _rows(parse_ideal(R3, HUGE_CYCLE))
    terms = {d: c for d, c in enumerate(invariants._numerator(rows, 3)) if c}
    square = {}
    for a, c in terms.items():
        for b, d in terms.items():
            square[a + b] = square.get(a + b, 0) + c * d
    square = {d: c for d, c in square.items() if c}
    real, sizes = invariants._times, []

    def times(p, q):
        sizes.append(len(p) * len(q))
        return real(p, q)

    monkeypatch.setattr(invariants, "_times", times)
    doubled = [r + (0, 0, 0) for r in rows] + [(0, 0, 0) + r for r in rows]
    got = invariants._numerator(doubled, 6)
    assert {d: c for d, c in enumerate(got) if c} == square
    assert len(square) == 17 and 0 < max(sizes) <= len(terms) ** 2 == 36


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


def _cycle_text(n):
    """Ring and ideal text of the edge ideal of the n-cycle."""
    return (",".join(f"x{i}" for i in range(1, n + 1)),
            ", ".join(f"x{i}*x{i % n + 1}" for i in range(1, n + 1)))


def test_fifty_cycle_answers_through_the_cli_within_a_time_limit():
    # C50 reads 6,388 pivot rows and its colon check answers too; a child
    # process runs it, so a regression fails by the time limit
    src = Path(__file__).resolve().parents[1] / "src"
    ring, ideal = _cycle_text(50)
    done = subprocess.run(
        [sys.executable, "-m", "idealkit", "invariants", "hilbert", "--ring", ring,
         "--ideal", ideal], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("series: (1 - 50*z^2 + 50*z^3 + 1125*z^4 - ")


def test_pivot_recursion_cap_stops_the_fifty_cycle_in_process(capsys, monkeypatch):
    # C50's pivot recursion reads 6,388 rows: with the cap there the CLI
    # answers, and one row below it exits 3 naming the cap
    ring, ideal = _cycle_text(50)
    argv = ["invariants", "hilbert", "--ring", ring, "--ideal", ideal]
    monkeypatch.setattr(invariants, "_PIVOT_CAP", 6388)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(invariants, "_PIVOT_CAP", 6387)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "resource cap: Hilbert pivot recursion read over 6387 rows\n"


def test_pivot_recursion_cap_counts_rows_read(monkeypatch):
    # C6 reads its 6 rows and pivots on x1: I + (x1) is x1 and the path
    # x2..x6 (5 rows), and I : x1 is x2, x6, x3*x4, x4*x5 (4 rows); both are
    # products of leaves, so the recursion reads 15 rows
    rows = _rows(edge_ideal(Graph.cycle(6)))
    monkeypatch.setattr(invariants, "_PIVOT_CAP", 15)
    assert invariants._numerator(rows, 6) == [1, 0, -6, 6, 3, -6, 2]
    monkeypatch.setattr(invariants, "_PIVOT_CAP", 14)
    with pytest.raises(ResourceCapError, match="^Hilbert pivot recursion read over 14 rows$"):
        invariants._numerator(rows, 6)


@pytest.mark.parametrize("ideal,reads", [
    (edge_ideal(Graph.cycle(40)), 3908),
    (parse_ideal(R2, ", ".join(f"x^{i}*y^{1500 - i}" for i in range(1501))), 1501),
    (parse_ideal(R3, ", ".join(f"x^{i}*y^{j}*z^{30 - i - j}"
                               for i in range(31) for j in range(31 - i))), 3506),
    (TABLE.power(8), 1062),
], ids=["C40", "staircase1501", "xyz^30", "table^8"])
def test_pivot_recursion_reads_a_pinned_number_of_rows(monkeypatch, ideal, reads):
    # the least-exponent tuple recursion read 3,213,239 rows on C40 and
    # about 1.1M on the staircase, which is now one two-variable leaf; with
    # the median pivot kept but the least exponent taken, (x, y, z)^30 would
    # read 5,977 and the table power 1,362
    rows, n = _rows(ideal), ideal.ring.n
    monkeypatch.setattr(invariants, "_PIVOT_CAP", reads)
    want = invariants._numerator(rows, n)
    assert want == invariants._strip(invariants._colon_numerator(rows, n))
    monkeypatch.setattr(invariants, "_PIVOT_CAP", reads - 1)
    with pytest.raises(ResourceCapError, match=f"^Hilbert pivot recursion read over {reads - 1} rows$"):
        invariants._numerator(rows, n)


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
    # the staircase is one leaf of the pivot recursion, and 300 levels of
    # the tuple oracle's
    want = hilbert_series(STAIRCASE301)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        got = hilbert_series(STAIRCASE301)
    finally:
        sys.setrecursionlimit(old)
    assert got == want


def test_deep_pivot_recursion_needs_no_stack():
    # C120 pivots along a path: its explicit stack holds up to 117 entries,
    # which as Python calls would pass this limit
    rows = _rows(edge_ideal(Graph.cycle(120)))
    want = invariants._numerator(rows, 120)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        got = invariants._numerator(rows, 120)
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
