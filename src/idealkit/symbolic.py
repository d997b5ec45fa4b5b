"""Minimal primes and symbolic powers of square-free monomial ideals.

The minimal primes of a square-free monomial ideal are exactly the minimal
vertex covers of the hypergraph formed by the generator supports, so the
decomposition here is a covering search, the codimension is the least cover
size, and the k-th symbolic power is the intersection of the k-th powers of
the cover primes.  On top of that sit the packedness test (every minor
admits codim-many generators with pairwise disjoint supports) and the
edge-ideal dictionary between graphs and their square-free quadratic ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ParseError
from .monomials import Monomial, MonomialIdeal, Ring, _ideal_from_rows, _minimal_points


@dataclass(frozen=True)
class PrimeComponent:
    """A monomial prime, i.e. an ideal generated by a set of variables."""

    ring: Ring
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))
        if not self.indices:
            raise ValueError("a prime component needs at least one variable")

    @property
    def names(self):
        return tuple(self.ring.variables[i] for i in self.indices)

    def ideal(self):
        variables = map(self.ring.variable, self.names)
        return MonomialIdeal.from_generators(self.ring, variables)

    def __len__(self):
        return len(self.indices)

    def __str__(self):
        return "(" + ", ".join(self.names) + ")"


def _require_squarefree_proper(ideal):
    if ideal.is_zero:
        raise ValueError("zero ideal")
    if ideal.is_unit:
        raise ValueError("unit ideal")
    if not ideal.is_squarefree:
        raise ValueError("ideal is not square-free")


def _minimal_covers(supports):
    """All inclusion-minimal vertex covers of a list of nonempty vertex sets.

    Branch on the first uncovered set; forbidding the earlier branch
    vertices avoids revisiting the same cover along permuted paths.  The
    search can still emit non-minimal covers, so filter at the end.
    """
    found = set()

    def rec(chosen, forbidden):
        uncovered = None
        for sup in supports:
            if not (sup & chosen):
                uncovered = sup
                break
        if uncovered is None:
            found.add(frozenset(chosen))
            return
        if uncovered <= forbidden:
            return
        banned = set(forbidden)
        for v in sorted(uncovered):
            if v in banned:
                continue
            chosen.add(v)
            rec(chosen, banned)
            chosen.remove(v)
            banned.add(v)

    rec(set(), frozenset())
    by_size = sorted(found, key=len)
    minimal = []
    for cover in by_size:
        if not any(kept < cover for kept in minimal):
            minimal.append(cover)
    return minimal


def minimal_primes(ideal):
    """Minimal primes of a square-free proper nonzero monomial ideal."""
    _require_squarefree_proper(ideal)
    supports = [g.support for g in ideal.generators]
    covers = _minimal_covers(supports)
    primes = [PrimeComponent(ideal.ring, tuple(c)) for c in covers]
    primes.sort(key=lambda p: (len(p), p.indices))
    return tuple(primes)


def codim(ideal):
    """Codimension (height); the zero ideal has codimension 0 by convention."""
    if ideal.is_unit:
        raise ValueError("unit ideal has no codimension")
    if ideal.is_zero:
        return 0
    return min(len(p) for p in minimal_primes(ideal.radical()))


def dim_quotient(ideal):
    """Krull dimension of the quotient by the ideal."""
    return ideal.ring.n - codim(ideal)


def _prime_index_sets(ideal):
    return [set(p.indices) for p in minimal_primes(ideal)]


def symbolic_power(ideal, k):
    """k-th symbolic power: the intersection of p^k over the minimal primes p.

    A monomial lies in p^k exactly when its exponents over p's variables sum
    to at least k, so the minimal generators are the minimal lattice points
    of the system "sum of a over p >= k" for every minimal prime p.
    """
    if k < 1:
        raise ValueError("symbolic power needs k >= 1")
    n = ideal.ring.n
    primes = _prime_index_sets(ideal)
    system = [(tuple(int(j in p) for j in range(n)), k) for p in primes]
    return _ideal_from_rows(ideal.ring, _minimal_points(n, system))


def symbolic_equals_ordinary(ideal, k):
    """Compare I^(k) with I^k; on inequality return a witness monomial.

    The ordinary power always sits inside the symbolic one, so the witness
    is the first canonical generator of I^(k) outside I^k.
    """
    return _power_witness(symbolic_power(ideal, k), ideal.power(k))


def _power_witness(sym, ordinary):
    """(equal, witness) for computed I^(k) and I^k."""
    if sym == ordinary:
        return True, None
    for g in sym.generators:
        if g not in ordinary:
            return False, g
    raise RuntimeError("internal error: unequal ideals without a witness")


def max_disjoint_monomials(ideal):
    """Largest set of generators with pairwise disjoint supports.

    Exhaustive branch-and-bound; desk-scale generator counts only.
    """
    _require_squarefree_proper(ideal)
    gens = ideal.generators
    sups = [g.support for g in gens]
    best = [0, ()]

    def rec(i, used_vars, chosen):
        if len(chosen) + (len(gens) - i) <= best[0]:
            return
        if i == len(gens):
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                best[1] = tuple(chosen)
            return
        if not (sups[i] & used_vars):
            chosen.append(i)
            rec(i + 1, used_vars | sups[i], chosen)
            chosen.pop()
        rec(i + 1, used_vars, chosen)

    rec(0, frozenset(), [])
    return best[0], tuple(gens[i] for i in best[1])


@dataclass(frozen=True)
class MinorFailure:
    """A minor witnessing failure of packedness."""

    zeros: tuple[str, ...]
    ones: tuple[str, ...]
    ideal: MonomialIdeal
    codim: int
    disjoint: int

    def __str__(self):
        return (
            f"minor zeros={list(self.zeros)} ones={list(self.ones)}: "
            f"codim {self.codim} but only {self.disjoint} disjoint generators"
        )


def is_packed(ideal):
    """Check packedness over every (zeros, ones) minor.

    Minors are visited smallest reduction first, lexicographically over the
    (zeros, ones) name pairs, so the returned failure is canonical.  Minors
    that collapse to the zero or unit ideal are vacuous and skipped, as are
    assignments touching every variable.
    """
    _require_squarefree_proper(ideal)
    variables = ideal.ring.variables
    seen = set()
    for total in range(len(variables)):
        for zcount in range(total + 1):
            for zeros in combinations(variables, zcount):
                rest = [v for v in variables if v not in zeros]
                for ones in combinations(rest, total - zcount):
                    minor = ideal.minor(zeros=zeros, ones=ones)
                    if minor.is_zero or minor.is_unit:
                        continue
                    key = (minor.ring.variables, minor.generators)
                    if key in seen:
                        continue
                    seen.add(key)
                    c = codim(minor)
                    d, _ = max_disjoint_monomials(minor)
                    if d < c:
                        return False, MinorFailure(zeros, ones, minor, c, d)
    return True, None


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        canon = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError("edge endpoint out of range")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError("duplicate edge")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @classmethod
    def cycle(cls, n):
        return cls(n, tuple((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def path(cls, n):
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @classmethod
    def complete(cls, n):
        return cls(n, tuple(combinations(range(n), 2)))

    @classmethod
    def complete_bipartite(cls, a, b):
        return cls(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))

    def neighbors(self, v):
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)


def parse_graph(text):
    """Parse the graph format: a ``graph <n>`` header, then 1-indexed edges."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty graph description")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "graph" or not head[1].isdigit():
        raise ParseError("expected header 'graph <vertex count>'")
    n = int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"edge {ln!r} out of range for {n} vertices")
        edges.append((u - 1, v - 1))
    return Graph(n, tuple(edges))


def edge_ideal(graph, ring=None):
    """The edge ideal: one square-free quadric x_u * x_v per edge."""
    if not graph.edges:
        raise ValueError("graph has no edges, so its edge ideal is zero")
    if ring is None:
        ring = Ring(tuple(f"x{i + 1}" for i in range(graph.vertex_count)))
    elif ring.n != graph.vertex_count:
        raise ValueError("ring size does not match the vertex count")
    rows = [tuple(int(j in edge) for j in range(ring.n)) for edge in graph.edges]
    return _ideal_from_rows(ring, rows)


def is_bipartite(graph):
    """2-color by BFS; returns (True, coloring) or (False, odd cycle)."""
    color = {}
    parent = {}
    for start in range(graph.vertex_count):
        if start in color:
            continue
        color[start] = 0
        parent[start] = None
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in graph.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, _odd_cycle(parent, u, w)
    return True, dict(sorted(color.items()))


def _odd_cycle(parent, u, v):
    # walk both endpoints up the BFS forest to their lowest common ancestor
    anc_u = [u]
    while parent[anc_u[-1]] is not None:
        anc_u.append(parent[anc_u[-1]])
    pos = {vertex: i for i, vertex in enumerate(anc_u)}
    walk_v = [v]
    while walk_v[-1] not in pos:
        walk_v.append(parent[walk_v[-1]])
    meet = walk_v[-1]
    path_u = anc_u[: pos[meet] + 1]
    cycle = list(reversed(path_u)) + walk_v[:-1]
    return cycle


@dataclass(frozen=True)
class EdgeTheoremReport:
    """Agreement data for the three edge-ideal characterizations."""

    graph: Graph
    k_max: int
    bipartite: bool
    bipartite_witness: object
    packed: bool
    packed_failure: MinorFailure | None
    equal_up_to: int
    witness: Monomial | None

    @property
    def all_equal(self):
        return self.equal_up_to == self.k_max

    @property
    def agree(self):
        return self.bipartite == self.packed == self.all_equal

    def to_json(self):
        return {
            "bipartite": self.bipartite,
            "packed": self.packed,
            "equal_up_to": self.equal_up_to,
            "witness": None if self.witness is None else str(self.witness),
            "k_max": self.k_max,
            "agree": self.agree,
        }


def verify_edge_theorem(graph, k_max, ring=None):
    """Check bipartite == packed == (symbolic power equals ordinary, k <= k_max)."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    ideal = edge_ideal(graph, ring)
    bip, bip_wit = is_bipartite(graph)
    packed, packed_fail = is_packed(ideal)
    equal_up_to = k_max
    witness = None
    for k in range(2, k_max + 1):
        eq, wit = symbolic_equals_ordinary(ideal, k)
        if not eq:
            equal_up_to = k - 1
            witness = wit
            break
    return EdgeTheoremReport(
        graph, k_max, bip, bip_wit, packed, packed_fail, equal_up_to, witness
    )
