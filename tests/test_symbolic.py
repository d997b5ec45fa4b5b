"""Symbolic powers, minimal primes, packing, and the bipartite edge theorem."""

import sys
import time
from collections import Counter
from itertools import combinations

import pytest

from idealkit import (
    Graph,
    Monomial,
    MonomialIdeal,
    ResourceCapError,
    Ring,
    connected_graph_reps,
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
    random_ideal,
    random_squarefree_ideal,
    rng_from_seed,
    symbolic_equals_ordinary,
    symbolic_power,
    verify_edge_theorem,
)
from idealkit import monomials, symbolic
from idealkit.monomials import _minimal_lifts
from idealkit.symbolic import _core, _cover_number, _max_disjoint, _support_masks
from helpers import (
    codim_by_subsets,
    disjoint_by_subsets,
    is_packed_by_scan,
    minimal_covers_by_subsets,
    minimal_points_by_tuples,
    numbered_ring,
    packed_by_minor_ideals,
    random_hypergraph_ideal,
    symbolic_by_box_scan,
    symbolic_by_intersection,
)

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


def test_symbolic_power_refuses_large_k_quickly():
    # the one fold would make C(k + 2, 2) rows; counting them stops once
    # the first weights' choices alone pass the cap
    ideal = parse_ideal(parse_ring("x, y, z"), "x, y, z")
    start = time.perf_counter()
    for k in (32_000, 10**6):
        with pytest.raises(ResourceCapError, match="^lattice-point search made over 500000 rows$"):
            symbolic_power(ideal, k)
    assert time.perf_counter() - start < 5


def test_symbolic_power_caps_refuse_alike_with_the_lift_cache(monkeypatch):
    # lift keys kept from earlier calls are counted as formed ones are, so
    # the cap refuses at the tuple folds' count with the same message
    # whether the cache was cleared or filled by a power just before
    real_cap = monomials._POINT_WORK_CAP

    def fresh(warm, ideal, k):
        monkeypatch.setattr(monomials, "_POINT_WORK_CAP", real_cap)
        monomials._LIFTS.clear()
        if warm:
            symbolic_power(ideal, k)

    for warm in (False, True):
        for graph in NAMED_GRAPHS:
            ideal = edge_ideal(graph)
            for k in (2, 3):
                system = [(tuple(int(j in p.indices) for j in range(graph.vertex_count)), k)
                          for p in minimal_primes(ideal)]
                rows, made = minimal_points_by_tuples(graph.vertex_count, system)
                fresh(warm, ideal, k)
                monkeypatch.setattr(monomials, "_POINT_WORK_CAP", made - 1)
                with pytest.raises(ResourceCapError,
                                   match=f"^lattice-point search made over {made - 1} rows$"):
                    symbolic_power(ideal, k)
                fresh(warm, ideal, k)
                monkeypatch.setattr(monomials, "_POINT_WORK_CAP", made)
                assert symbolic_power(ideal, k).rows == tuple(reversed(rows))
        maximal = parse_ideal(R3, "x, y, z")
        for ideal, k in ((TRIANGLE, 10**5), (maximal, 32_000), (maximal, 10**6)):
            fresh(warm, ideal, 2)
            with pytest.raises(ResourceCapError,
                               match="^lattice-point search made over 500000 rows$"):
                symbolic_power(ideal, k)


def test_symbolic_power_minimalizes_once_per_prime(monkeypatch):
    # one fold per minimal prime, each minimalized once; the fold of the
    # last minimal prime leaves the minimal generators
    calls = []
    minimal_rows = monomials._minimal_rows

    def record(rows, layout, kept=()):
        found = minimal_rows(rows, layout, kept)
        calls.append(layout.lex_rows(sorted([*kept, *found])))
        return found

    monkeypatch.setattr(monomials, "_minimal_rows", record)
    for ideal, k in ((TRIANGLE, 2), (edge_ideal(Graph.cycle(5)), 3), (TRIANGLE, 1)):
        primes = minimal_primes(ideal)
        calls.clear()
        power = symbolic_power(ideal, k)
        assert len(calls) == len(primes)
        assert [g.exponents for g in power.generators] == calls[-1][::-1]


def test_symbolic_power_past_the_exponent_cap_raises_on_return():
    # the rows are checked as the ideal is made, not when generators or
    # text are asked for
    with pytest.raises(ResourceCapError, match=r"^exponent 1000001 exceeds cap 1000000$"):
        symbolic_power(parse_ideal(parse_ring("x, y"), "x*y"), monomials.DEFAULT_EXPONENT_CAP + 1)


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


def test_disjoint_search_on_many_generators():
    # 1,287 generators: the search once recursed once per generator
    ring = numbered_ring(13)
    ideal = MonomialIdeal(
        ring, tuple(tuple(int(i in c) for i in range(13)) for c in combinations(range(13), 5))
    )
    gens = ideal.generators
    first = next(g for g in gens[1:] if not g.support & gens[0].support)
    assert max_disjoint_monomials(ideal) == (2, (gens[0], first))
    packed, failure = is_packed(ideal)
    assert not packed
    assert (failure.zeros, failure.ones, failure.codim, failure.disjoint) == ((), (), 9, 2)


def test_is_packed():
    packed, failure = is_packed(TRIANGLE)
    assert not packed
    # the failing minor is the ideal itself: codim 2 but only 1 disjoint monomial
    assert failure.zeros == () and failure.ones == ()
    assert failure.codim == 2 and failure.disjoint == 1
    assert is_packed(edge_ideal(Graph.cycle(4)))[0]
    assert is_packed(parse_ideal(R3, "x"))[0]


def _packing_corpus():
    for n in range(2, 7):
        for graph in connected_graph_reps(n):
            yield edge_ideal(graph)
    for graph in NAMED_GRAPHS:
        yield edge_ideal(graph)
    # hypergraphs: supports of one to three variables
    rng = rng_from_seed("idealkit:symbolic:packed")
    for _ in range(300):
        ring = numbered_ring(rng.randint(4, 5))
        yield random_hypergraph_ideal(rng, ring, max_generators=8, max_support=3)


def test_packing_kernels_match_subset_oracles():
    for ideal in _packing_corpus():
        assert is_packed(ideal) == packed_by_minor_ideals(ideal), ideal
        assert codim(ideal) == codim_by_subsets(ideal), ideal
        assert max_disjoint_monomials(ideal) == disjoint_by_subsets(ideal), ideal
        primes = [p.indices for p in minimal_primes(ideal)]
        assert primes == minimal_covers_by_subsets(ideal), ideal


def test_disjoint_search_stops_at_its_goal():
    # asked for goal disjoint masks, the search finds such a family exactly
    # when the largest one has at least goal masks
    rng = rng_from_seed("idealkit:symbolic:disjoint-goal")
    for _ in range(300):
        n = rng.randint(1, 8)
        masks = tuple({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 8))})
        best, _ = _max_disjoint(masks)
        for goal in range(1, best + 2):
            count, picks = _max_disjoint(masks, goal)
            if goal > best:
                assert (count, picks) == (0, ()), (masks, goal)
                continue
            assert count == goal == len(picks), (masks, goal)
            used = 0
            for i in picks:
                assert not masks[i] & used
                used |= masks[i]


def test_cover_deepening_starts_at_a_disjoint_family():
    # the greedy family is disjoint, so it bounds the cover number from below
    rng = rng_from_seed("idealkit:symbolic:cover-start")
    for _ in range(300):
        n = rng.randint(1, 8)
        masks = tuple({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 8))})
        cover, greedy = _cover_number(masks)
        assert greedy <= _max_disjoint(masks)[0] <= cover
        assert cover == min(bin(c).count("1") for c in range(1 << n)
                            if all(c & m for m in masks))


def test_codim_of_non_squarefree_ideals_matches_subset_oracle():
    rng = rng_from_seed("idealkit:symbolic:codim")
    for _ in range(100):
        ideal = random_ideal(rng, numbered_ring(rng.randint(2, 5)), 5, 4)
        assert codim(ideal) == codim_by_subsets(ideal), ideal


def test_packed_iff_bipartite_on_larger_graphs():
    # Simis-Vasconcelos-Villarreal: an edge ideal is packed iff the graph is bipartite
    for graph in (Graph.cycle(9), Graph.cycle(10), Graph.path(10)):
        assert is_packed(edge_ideal(graph))[0] == is_bipartite(graph)[0]


def test_packedness_minor_cap(monkeypatch):
    # the 4-vertex path is packed, so the core search visits every core of
    # its minors: the path, its two 2-edge paths and its three edges.  Each
    # forms both children of every variable it covers, 2 * |core| masks
    # apiece: 4 * 6 + 2 * 3 * 4 + 3 * 2 * 2 = 60 in all
    path = edge_ideal(Graph.path(4))
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 59)
    with pytest.raises(ResourceCapError,
                       match="packedness check formed over 59 minor generators"):
        is_packed(path)
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 60)
    assert is_packed(path) == (True, None)


def _sweep_graphs():
    """The graphs of the edge-theorem sweep: every connected graph on 2 to 6
    vertices, then five longer cycles and paths."""
    graphs = [graph for n in range(2, 7) for graph in connected_graph_reps(n)]
    return graphs + [Graph.cycle(7), Graph.cycle(8), Graph.path(5), Graph.path(6),
                     Graph.path(7)]


def test_packedness_on_the_sweep_graphs_matches_the_scan():
    graphs = _sweep_graphs()
    assert len(graphs) == 147
    verdicts = [is_packed(edge_ideal(graph)) for graph in graphs]
    assert verdicts == [is_packed_by_scan(edge_ideal(graph)) for graph in graphs]
    assert sum(packed for packed, _ in verdicts) == 31


def test_edge_theorem_reports_name_the_failing_minor_only_when_read(monkeypatch):
    # a report decides packedness on the cores alone: the scan that names
    # the failing minor runs on the first read of packed_failure, once
    scans = []
    first_failure = symbolic._first_failure

    def counted(ideal, supports, formed):
        scans.append(ideal)
        return first_failure(ideal, supports, formed)

    monkeypatch.setattr(symbolic, "_first_failure", counted)
    graphs = _sweep_graphs()
    reports = [verify_edge_theorem(graph, 3) for graph in graphs]
    assert scans == []
    verdicts = [is_packed(edge_ideal(graph)) for graph in graphs]
    assert [report.packed for report in reports] == [packed for packed, _ in verdicts]
    scans.clear()
    failures = [failure for _, failure in verdicts]
    assert [report.packed_failure for report in reports] == failures
    assert len(scans) == sum(not packed for packed, _ in verdicts) == 116
    assert [report.packed_failure for report in reports] == failures
    assert len(scans) == 116


def test_edge_theorem_answers_where_only_the_naming_scan_passes_the_cap(monkeypatch):
    # the net, a triangle with a pendant edge at each vertex, has 3 disjoint
    # edges and a least cover of 3 vertices; its first failing minor drops
    # the pendant vertices.  The core search forms 154 masks up to its
    # failing core and the powers stop at k = 2 within that count, while
    # the ordered scan forms 994 before it names the minor
    net = Graph(6, ((0, 1), (0, 2), (1, 2), (0, 5), (1, 4), (2, 3)))
    ideal = edge_ideal(net)
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 153)
    with pytest.raises(ResourceCapError, match="^packedness check formed over 153 minor"):
        verify_edge_theorem(net, 3)
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 154)
    report = verify_edge_theorem(net, 3)
    assert (report.bipartite, report.packed, report.equal_up_to) == (False, False, 1)
    assert report.agree
    for cap in (154, 993):
        monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", cap)
        message = f"^packedness check formed over {cap} minor generators$"
        with pytest.raises(ResourceCapError, match=message):
            is_packed(ideal)
        with pytest.raises(ResourceCapError, match=message):
            report.packed_failure
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 994)
    assert report.packed_failure == is_packed(ideal)[1]
    assert (report.packed_failure.zeros, report.packed_failure.ones) == (("x4", "x5", "x6"), ())


def _odd_cycle_ideal(rng, ring):
    """A square-free ideal holding an odd cycle of edges on some variables,
    and a few more supports of one to four variables."""
    n = ring.n
    length = rng.choice([k for k in (3, 5, 7) if k <= n])
    cycle = rng.sample(range(n), length)
    supports = [{cycle[i], cycle[(i + 1) % length]} for i in range(length)]
    for _ in range(rng.randint(0, 4)):
        supports.append(set(rng.sample(range(n), rng.randint(1, min(4, n)))))
    return MonomialIdeal.from_generators(
        ring, [Monomial(ring, tuple(int(i in sup) for i in range(n))) for sup in supports])


def test_packedness_decision_matches_the_scan_on_seeded_ideals():
    # the core search decides; the scan names the failure, so every verdict
    # and every MinorFailure equals the scan's own
    rng = rng_from_seed("idealkit:symbolic:packed-cores")
    verdicts = Counter()
    for i in range(2100):
        ring = numbered_ring(rng.randint(3 if i % 3 == 0 else 2, 8))
        if i % 3 == 0:
            ideal = _odd_cycle_ideal(rng, ring)
        else:
            ideal = random_hypergraph_ideal(rng, ring, max_generators=rng.randint(1, 9),
                                            max_support=4)
        got = is_packed(ideal)
        assert got == is_packed_by_scan(ideal), ideal
        verdicts[got[0]] += 1
    assert verdicts[False] >= 300 and verdicts[True] >= 1000, verdicts


def test_cores_drop_singletons_and_what_they_divide():
    x, y, z, w = 1, 2, 4, 8
    assert _core([x, x | y, y | z, x | y | z, z | w]) == {y | z, z | w}
    assert _core([x, y]) == frozenset() and _core([]) == frozenset()
    assert _core([x | y, x | y, y | z | w, y | z]) == {x | y, y | z}
    ring = numbered_ring(1200)
    maximal = MonomialIdeal.from_generators(ring, [ring.variable(v) for v in ring.variables])
    assert _core(_support_masks(maximal.rows)) == frozenset()
    assert is_packed(maximal) == (True, None)


def test_core_search_counts_the_masks_it_forms(monkeypatch):
    # the counts of the packed paths and cycles, each checked at its cap
    for graph, formed in ((Graph.path(10), 10_044), (Graph.path(11), 21_260),
                          (Graph.cycle(10), 14_880)):
        ideal = edge_ideal(graph)
        monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", formed - 1)
        with pytest.raises(ResourceCapError, match=f"formed over {formed - 1} minor"):
            is_packed(ideal)
        monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", formed)
        assert is_packed(ideal) == (True, None)


def test_failing_search_and_scan_share_one_count(monkeypatch):
    # the triangle fails at its own core before forming a mask, so the scan
    # counts from 0: its first pair, (), forms the 3 generators
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 2)
    with pytest.raises(ResourceCapError, match="formed over 2 minor generators"):
        is_packed(TRIANGLE)
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 3)
    assert not is_packed(TRIANGLE)[0]


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


def test_edge_theorem_on_the_ten_cycle():
    # Simis-Vasconcelos-Villarreal: C10 is bipartite, so I^(k) = I^k for
    # every k
    report = verify_edge_theorem(Graph.cycle(10), 4)
    assert report.bipartite and report.packed
    assert report.equal_up_to == 4 and report.agree


def test_edge_theorem_on_the_nine_cycle():
    # the odd cycle C_(2m+1) first separates symbolic and ordinary powers
    # at k = m + 1: every vertex cover has m + 1 vertices, so the vertex
    # product lies in the symbolic power, but its degree 2m + 1 is below
    # the 2m + 2 where the ordinary power starts
    report = verify_edge_theorem(Graph.cycle(9), 5)
    assert not report.bipartite and not report.packed
    assert report.equal_up_to == 4
    assert str(report.witness) == "x1*x2*x3*x4*x5*x6*x7*x8*x9"
    assert report.agree


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


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def test_searches_on_a_maximal_ideal_need_no_stack(default_recursion_limit):
    # the cover searches go one level per variable, 1,200 levels deep, and
    # a symbolic power lifts over all 1,200 variables at once
    ring = Ring(tuple(f"x{i}" for i in range(1200)))
    ideal = MonomialIdeal.from_generators(ring, map(ring.variable, ring.variables))
    assert [p.indices for p in minimal_primes(ideal)] == [tuple(range(1200))]
    assert codim(ideal) == 1200
    lifts = _minimal_lifts((1,) * 1200, 2)
    assert next(lifts) == (0,) * 1199 + (2,)
    assert next(lifts) == (0,) * 1198 + (1, 1)
    # C(1201, 2) = 720,600 lifts: refused before any is formed
    with pytest.raises(ResourceCapError, match="^lattice-point search made over 500000 rows$"):
        symbolic_power(ideal, 2)
