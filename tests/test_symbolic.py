"""Symbolic powers, minimal primes, packing, and the bipartite edge theorem."""

import pytest

from idealkit import (
    Graph,
    ResourceCapError,
    edge_ideal,
    is_bipartite,
    is_packed,
    max_disjoint_monomials,
    minimal_primes,
    codim,
    dim_quotient,
    parse_graph,
    parse_ideal,
    parse_ring,
    random_squarefree_ideal,
    rng_from_seed,
    symbolic_equals_ordinary,
    symbolic_power,
    verify_edge_theorem,
)
from helpers import numbered_ring, symbolic_by_box_scan, symbolic_by_intersection

R3 = parse_ring("x, y, z")
TRIANGLE = parse_ideal(R3, "x*y, x*z, y*z")
NAMED_GRAPHS = [
    Graph.cycle(6),
    Graph.cycle(7),
    Graph.cycle(8),
    Graph.path(7),
    Graph.complete(4),
    Graph.complete(5),
    Graph.complete_bipartite(2, 3),
    Graph.complete_bipartite(3, 3),
]


def test_minimal_primes_golden():
    assert [p.names for p in minimal_primes(TRIANGLE)] == [
        ("x", "y"),
        ("x", "z"),
        ("y", "z"),
    ]
    only = minimal_primes(parse_ideal(R3, "x"))
    assert [p.names for p in only] == [("x",)]
    r4 = parse_ring("x, y, z, w")
    two_edges = parse_ideal(r4, "x*y, z*w")
    assert sorted(p.names for p in minimal_primes(two_edges)) == [
        ("x", "w"),
        ("x", "z"),
        ("y", "w"),
        ("y", "z"),
    ]


def test_codim_and_dim():
    assert codim(TRIANGLE) == 2
    assert dim_quotient(TRIANGLE) == 1
    assert codim(parse_ideal(R3, "x")) == 1
    assert codim(parse_ideal(R3, "x, y, z")) == 3
    assert dim_quotient(parse_ideal(R3, "x, y, z")) == 0


def test_symbolic_square_of_triangle():
    square = symbolic_power(TRIANGLE, 2)
    assert square == parse_ideal(R3, "x^2*y^2, x^2*z^2, y^2*z^2, x*y*z")
    assert str(square) == "x^2*y^2, x^2*z^2, y^2*z^2, x*y*z"


def test_symbolic_equals_ordinary_witness():
    equal, witness = symbolic_equals_ordinary(TRIANGLE, 2)
    assert not equal
    assert str(witness) == "x*y*z"
    assert witness in symbolic_power(TRIANGLE, 2)
    assert witness not in TRIANGLE.power(2)
    equal, witness = symbolic_equals_ordinary(parse_ideal(R3, "x, y"), 3)
    assert equal and witness is None


def test_four_cycle_powers_are_symbolic():
    square = edge_ideal(Graph.cycle(4))
    for k in (2, 3, 4):
        equal, _ = symbolic_equals_ordinary(square, k)
        assert equal


def test_symbolic_matches_intersection_oracle():
    rng = rng_from_seed("idealkit:symbolic:oracle")
    for _ in range(60):
        ring = numbered_ring(rng.randint(2, 4))
        ideal = random_squarefree_ideal(rng, ring, max_generators=5)
        if ideal.is_unit:
            continue
        for k in (1, 2, 3):
            assert symbolic_power(ideal, k) == symbolic_by_intersection(ideal, k)


def test_symbolic_matches_both_oracles():
    rng = rng_from_seed("idealkit:symbolic:box")
    for _ in range(60):
        ring = numbered_ring(rng.randint(2, 5))
        ideal = random_squarefree_ideal(rng, ring, max_generators=6)
        if ideal.is_unit:
            continue
        for k in (1, 2, 3):
            power = symbolic_power(ideal, k)
            assert power == symbolic_by_box_scan(ideal, k)
            assert power == symbolic_by_intersection(ideal, k)


def test_symbolic_oracles_on_named_graphs():
    for graph in NAMED_GRAPHS:
        ideal = edge_ideal(graph)
        for k in (2, 3) if graph.vertex_count < 8 else (2,):
            power = symbolic_power(ideal, k)
            assert power == symbolic_by_box_scan(ideal, k)
            assert power == symbolic_by_intersection(ideal, k)


def test_symbolic_power_work_cap():
    # the first fold alone makes k + 1 rows; the second passes the cap
    with pytest.raises(ResourceCapError):
        symbolic_power(TRIANGLE, 10**5)


def test_first_symbolic_power_is_the_ideal():
    rng = rng_from_seed("idealkit:symbolic:identity")
    for _ in range(60):
        ring = numbered_ring(rng.randint(2, 4))
        ideal = random_squarefree_ideal(rng, ring, max_generators=5)
        if ideal.is_unit:
            continue
        assert symbolic_power(ideal, 1) == ideal


def test_symbolic_contains_ordinary_and_semigroup():
    rng = rng_from_seed("idealkit:symbolic:semigroup")
    for _ in range(40):
        ring = numbered_ring(rng.randint(2, 4))
        ideal = random_squarefree_ideal(rng, ring, max_generators=4)
        if ideal.is_unit:
            continue
        for a in (1, 2):
            assert symbolic_power(ideal, a).contains_ideal(ideal.power(a))
            for b in (1, 2, 3):
                if a + b > 5:
                    continue
                product = symbolic_power(ideal, a) * symbolic_power(ideal, b)
                assert symbolic_power(ideal, a + b).contains_ideal(product)


def test_max_disjoint_monomials():
    count, picks = max_disjoint_monomials(TRIANGLE)
    assert count == 1 and len(picks) == 1
    r4 = parse_ring("x, y, z, w")
    count, picks = max_disjoint_monomials(parse_ideal(r4, "x*y, z*w"))
    assert count == 2
    assert not (picks[0].support & picks[1].support)
    assert max_disjoint_monomials(parse_ideal(R3, "x, y, z"))[0] == 3


def test_is_packed():
    packed, failure = is_packed(TRIANGLE)
    assert not packed
    # the failing minor is the ideal itself: codim 2 but only 1 disjoint monomial
    assert failure.zeros == () and failure.ones == ()
    assert failure.codim == 2 and failure.disjoint == 1
    assert is_packed(edge_ideal(Graph.cycle(4)))[0]
    assert is_packed(parse_ideal(R3, "x"))[0]


def test_edge_ideal_construction():
    assert edge_ideal(Graph.cycle(3), R3) == TRIANGLE
    r2 = parse_ring("x, y")
    assert edge_ideal(Graph(2, ((0, 1),)), r2) == parse_ideal(r2, "x*y")
    path = edge_ideal(Graph.path(3), R3)
    assert path == parse_ideal(R3, "x*y, y*z")
    with pytest.raises(ValueError):
        edge_ideal(Graph(3, ()))


def test_graph_parsing_and_canonical_edges():
    graph = parse_graph("graph 4\n1 2\n2 3\n3 4\n4 1")
    assert graph == Graph.cycle(4)
    assert graph.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    with pytest.raises(Exception):
        parse_graph("4: 1-2")


def test_bipartite_detection():
    ok, coloring = is_bipartite(Graph.cycle(4))
    assert ok
    assert all(coloring[u] != coloring[v] for u, v in Graph.cycle(4).edges)
    ok, cycle = is_bipartite(Graph.cycle(3))
    assert not ok
    assert len(cycle) % 2 == 1
    assert is_bipartite(Graph(3, ()))[0]


def test_edge_theorem_goldens():
    report = verify_edge_theorem(Graph.cycle(3), 2)
    assert report.to_json() == {
        "bipartite": False,
        "packed": False,
        "equal_up_to": 1,
        "witness": "x1*x2*x3",
        "k_max": 2,
        "agree": True,
    }
    report = verify_edge_theorem(Graph.cycle(4), 3)
    assert report.bipartite and report.packed and report.all_equal
    assert report.agree
    # C5 separates only at k=3: x1*..*x5 = (x1*x2)(x3*x4)*x5 puts the
    # would-be degree-5 witness inside I^2, so a horizon of 2 is too short
    # and the three verdicts genuinely disagree there.
    report = verify_edge_theorem(Graph.cycle(5), 2)
    assert not report.bipartite and not report.packed
    assert report.all_equal and report.equal_up_to == 2
    assert not report.agree
    report = verify_edge_theorem(Graph.cycle(5), 3)
    assert not report.all_equal and report.witness is not None
    assert str(report.witness) == "x1*x2*x3*x4*x5"
    assert report.agree


def test_edge_theorem_on_named_graphs():
    # theorem agreement for k up to 4 on a small zoo, comfortably past C6
    for graph in NAMED_GRAPHS:
        assert verify_edge_theorem(graph, 4).agree


def test_packing_is_necessary_for_equality():
    # one direction of the equivalence, scanned on the random corpus
    rng = rng_from_seed("idealkit:symbolic:packing")
    for _ in range(40):
        ring = numbered_ring(rng.randint(2, 4))
        ideal = random_squarefree_ideal(rng, ring, max_generators=4)
        if ideal.is_unit:
            continue
        if all(symbolic_equals_ordinary(ideal, k)[0] for k in (2, 3, 4)):
            assert is_packed(ideal)[0]
