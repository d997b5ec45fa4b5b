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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, compress, islice

from . import monomials
from .errors import ParseError, ResourceCapError
from .monomials import Monomial, MonomialIdeal, Ring, _ideal_from_rows, _int_text
from .monomials import _minimal_points


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


def _support_masks(rows):
    """The supports of exponent rows as ints: bit i is set when r_i > 0."""
    bits = [1 << i for i in range(len(rows[0]))] if rows else []
    return [sum(compress(bits, r)) for r in rows]


def _mask_indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _minimal_masks(masks):
    """Inclusion-minimal members of a collection of distinct masks.

    In ascending popcount order every subset comes before its supersets,
    and two distinct masks of one popcount never contain one another.
    """
    kept = []
    for m in sorted(masks, key=int.bit_count):
        if all(k & ~m for k in kept):
            kept.append(m)
    return kept


def _covers(supports, limit=None):
    """Vertex covers of nonempty support masks, as masks, every minimal one
    among them.

    Branch on each vertex of the first uncovered support, lowest first;
    forbidding the earlier branch vertices avoids revisiting the same cover
    along permuted paths.  A minimal cover C is reached by always taking the
    lowest vertex of the support in C, so with ``limit`` a branch is cut
    once it holds that many vertices, and a cover is found exactly when one
    of at most ``limit`` vertices exists.  The search keeps its own stack,
    and a branch resumes its scan for an uncovered support after the one it
    branched on.
    """
    m = len(supports)
    stack = [(0, 0, 0)]  # (first support to scan, chosen, forbidden)
    while stack:
        i, chosen, forbidden = stack.pop()
        while i < m and supports[i] & chosen:
            i += 1
        if i == m:
            yield chosen
            continue
        if chosen.bit_count() == limit:
            continue
        free = supports[i] & ~forbidden
        while free:
            v = free & -free
            free ^= v
            stack.append((i + 1, chosen | v, forbidden))
            forbidden |= v


def _minimal_covers(supports):
    """All inclusion-minimal vertex covers of nonempty support masks, as
    masks: the covers of the branching search, which can also emit
    non-minimal ones, filtered."""
    return _minimal_masks(set(_covers(supports)))


def _cover_number(supports):
    """(t, g): the least size t of a vertex cover of nonempty support masks,
    and the size g <= t of a family of pairwise disjoint supports.

    t is the least size at which some cover exists, found by iterative
    deepening: ``_covers`` with that size as its limit.  Pairwise disjoint
    supports need a cover vertex each, so the deepening starts at g, the
    size of such a family chosen greedily in ascending popcount order;
    g == t proves that t disjoint supports exist.  No cover is listed.
    """
    supports = sorted(supports, key=int.bit_count)
    used, g = 0, 0
    for sup in supports:
        if not sup & used:
            used |= sup
            g += 1
    t = g
    while next(_covers(supports, t), None) is None:
        t += 1
    return t, g


def _max_disjoint(supports, goal=None):
    """(count, indices) of a largest family of pairwise disjoint masks.

    Exhaustive branch-and-bound over take-or-skip in list order, taking
    first, so the indices are the lexicographically least largest family.
    The search keeps its own stack.  A branch is cut unless it can beat the
    best family so far: from position i, at most the remaining masks can be
    added, and at most popcount(free variables) // (least popcount among
    masks i..) of them, as disjoint masks use disjoint variables.

    With ``goal`` the search only asks whether ``goal`` disjoint masks
    exist: it starts as if a family of goal - 1 were known, so it cuts every
    branch that cannot reach goal, and returns the first family of goal
    masks it finds, or (0, ()) when there is none.
    """
    m = len(supports)
    least = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        size = supports[i].bit_count()
        least[i] = size if i == m - 1 else min(size, least[i + 1])
    universe = 0
    for sup in supports:
        universe |= sup
    best, best_picks = (0, ()) if goal is None else (goal - 1, ())
    stack = [(0, 0, ())]
    while stack:
        i, used, chosen = stack.pop()
        if len(chosen) == goal:
            return goal, chosen
        room = m - i
        if least[i]:
            room = min(room, (universe & ~used).bit_count() // least[i])
        if len(chosen) + room <= best:
            continue
        if i == m:
            best, best_picks = len(chosen), chosen
            continue
        # popped last, so the skip branch runs after the take branch
        stack.append((i + 1, used, chosen))
        if not supports[i] & used:
            stack.append((i + 1, used | supports[i], chosen + (i,)))
    return (best, best_picks) if goal is None else (0, ())


def _prime_indices(ideal):
    """The variable indices of each minimal prime, as ascending tuples,
    fewest first and then lexicographically."""
    _require_squarefree_proper(ideal)
    covers = [_mask_indices(c) for c in _minimal_covers(_support_masks(ideal.rows))]
    covers.sort(key=lambda c: (len(c), c))
    return covers


def minimal_primes(ideal):
    """Minimal primes of a square-free proper nonzero monomial ideal."""
    return tuple(PrimeComponent(ideal.ring, c) for c in _prime_indices(ideal))


def codim(ideal):
    """Codimension (height); the zero ideal has codimension 0 by convention.

    The height is the least size of a cover of the generator supports,
    which are the radical's generators up to non-minimal ones.
    """
    if ideal.is_unit:
        raise ValueError("unit ideal has no codimension")
    if ideal.is_zero:
        return 0
    return _cover_number(_support_masks(ideal.rows))[0]


def dim_quotient(ideal):
    """Krull dimension of the quotient by the ideal."""
    return ideal.ring.n - codim(ideal)


def _prime_index_sets(ideal):
    """The minimal primes as sets of variable indices, in the order of
    ``minimal_primes``, with no ``PrimeComponent`` built."""
    return [set(c) for c in _prime_indices(ideal)]


def symbolic_power(ideal, k):
    """k-th symbolic power: the intersection of p^k over the minimal primes p.

    A monomial lies in p^k exactly when its exponents over p's variables sum
    to at least k, so the minimal generators are the minimal lattice points
    of the system "sum of a over p >= k" for every minimal prime p.
    """
    if k < 1:
        raise ValueError("symbolic power needs k >= 1")
    return _power_of_primes(ideal.ring, _prime_index_sets(ideal), k)


def _power_of_primes(ring, primes, k):
    """The intersection of p^k over the primes p, given as index sets."""
    system = [(tuple(int(j in p) for j in range(ring.n)), k) for p in primes]
    return _minimal_points(ring, system)


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
    witness = ordinary.first_outside(sym)
    if witness is None:
        raise RuntimeError("internal error: unequal ideals without a witness")
    return False, witness


def max_disjoint_monomials(ideal):
    """Largest set of generators with pairwise disjoint supports.

    Exhaustive branch-and-bound; desk-scale generator counts only.
    """
    _require_squarefree_proper(ideal)
    rows = ideal.rows
    count, picks = _max_disjoint(_support_masks(rows))
    return count, tuple(Monomial(ideal.ring, rows[i]) for i in picks)


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


def _core(masks):
    """The core of support masks: the inclusion-minimal ones, singletons
    removed.  A mask that meets a singleton contains it, so it goes too."""
    singles = 0
    for m in masks:
        if not m & m - 1:
            singles |= m
    return frozenset(_minimal_masks([m for m in masks if not m & singles]))


def _excess_cover(masks):
    """The cover number of the masks when it exceeds their largest number
    of pairwise disjoint masks, else 0."""
    c, greedy = _cover_number(masks)
    return c if greedy < c and not _max_disjoint(masks, c)[0] else 0


def _count_formed(formed, more):
    """``formed`` + ``more`` minor generators, refused past the cap."""
    formed += more
    if formed > monomials._POINT_WORK_CAP:
        raise ResourceCapError(
            f"packedness check formed over {monomials._POINT_WORK_CAP} minor generators")
    return formed


def is_packed(ideal):
    """Check packedness over every (zeros, ones) minor: (True, None) when
    the ideal is packed, else (False, the first failing ``MinorFailure``).

    Two parts run in turn.  ``_packed_by_cores`` decides, on the cores of
    the minors, and forms no ideal.  Only when it finds a failing core does
    ``_first_failure`` run, the ordered scan that names the first failing
    minor; a caller that needs only the verdict, as ``verify_edge_theorem``
    does, calls the decision alone.

    Minors are visited by the scan smallest reduction first,
    lexicographically over the (zeros, ones) name pairs, so the returned
    failure is canonical.  Each minor is formed on generator support masks,
    as the set of ``g & ~ones`` over the generators g missing every zero;
    minors that collapse to the zero or unit ideal are vacuous and skipped,
    as are assignments touching every variable.  The set need not be
    minimal: non-minimal masks change neither the cover number nor the
    largest disjoint count.  A mask set already checked is not checked
    again, and each is decided as a core is (see ``_packed_by_cores``).
    Only the failing minor is built as an ideal, and only its exact
    disjoint count is computed.

    Forming more than ``_POINT_WORK_CAP`` minor generators, over the search
    and the scan together, raises ``ResourceCapError``: the scan counts on
    from where the search stopped, and each of its 3^n - 2^n pairs forms
    one per generator missing every zero.
    """
    _require_squarefree_proper(ideal)
    supports = _support_masks(ideal.rows)
    packed, formed = _packed_by_cores(supports)
    if packed:
        return True, None
    failure = _first_failure(ideal, supports, formed)
    if failure is None:
        raise RuntimeError("internal error: a failing core without a failing minor")
    return False, failure


def _packed_by_cores(supports):
    """(packed, formed): whether the ideal with these generator support
    masks is packed, decided on the cores of its minors, and how many minor
    generators the search formed.

    The core of a set of support masks is its inclusion-minimal masks,
    singletons removed, and a minor passes exactly when its core does:

    - minimalizing changes neither the cover number nor the largest
      disjoint count (see ``is_packed``);
    - a minimal singleton {u} adds one to both, as u is in every cover and
      {u} is disjoint from every other minimal mask;
    - minimalizing and dropping singletons commute with setting one
      variable to 0 or to 1;
    - every minor of a zero or unit minor is zero or unit again.

    So the cores reached from the generators' core by setting one variable
    of a core's union at a time, to 0 (masks holding it dropped) or to 1
    (it cleared from every mask), are exactly the cores of the non-vacuous
    minors: a variable outside the union leaves the core as it is, and one
    whose singleton was dropped would make the minor the unit ideal.  The
    search keeps its own stack, checks each distinct core once, and stops
    at the first that fails; an empty core, all of whose minor's minimal
    masks are singletons, passes.  When every core passes, the ideal is
    packed.

    The search counts the masks of both children of a core before forming
    them, and past ``_POINT_WORK_CAP`` raises ``ResourceCapError``.  A core
    is decided by two bounded searches: ``_cover_number`` deepens to the
    least c with a cover of c vertices, starting from a greedy disjoint
    family, and when that family falls short of c, ``_max_disjoint`` asks
    only whether c disjoint masks exist and stops at the first family it
    finds.
    """
    first = _core(supports)
    stack, seen, formed = [first], {first}, 0
    while stack:
        core = stack.pop()
        if _excess_cover(tuple(core)):
            return False, formed
        union = 0
        for m in core:
            union |= m
        while union:
            v = union & -union
            union ^= v
            formed = _count_formed(formed, 2 * len(core))
            # dropping masks leaves an antichain without singletons: a core
            zero = frozenset([m for m in core if not m & v])
            for child in (zero, _core([m & ~v for m in core])):
                if child and child not in seen:
                    seen.add(child)
                    stack.append(child)
    return True, formed


def _first_failure(ideal, supports, formed):
    """The first failing minor of the ordered scan of ``is_packed``, or None;
    ``formed`` minor generators are already counted against the cap."""
    n = ideal.ring.n
    bits = [1 << i for i in range(n)]
    seen = set()
    for total in range(n):
        for zcount in range(total + 1):
            for zeros in combinations(bits, zcount):
                zmask = sum(zeros)
                alive = [g for g in supports if not g & zmask]
                rest = [b for b in bits if not b & zmask]
                for ones in combinations(rest, total - zcount):
                    formed = _count_formed(formed, len(alive))
                    keep = ~sum(ones)
                    minor = frozenset([g & keep for g in alive])
                    if not minor or 0 in minor or minor in seen:
                        continue
                    seen.add(minor)
                    masks = tuple(minor)
                    c = _excess_cover(masks)
                    if c:
                        d, _ = _max_disjoint(masks)
                        names = ideal.ring.variables
                        zeros = tuple(names[b.bit_length() - 1] for b in zeros)
                        ones = tuple(names[b.bit_length() - 1] for b in ones)
                        built = ideal.minor(zeros=zeros, ones=ones)
                        return MinorFailure(zeros, ones, built, c, d)
    return None


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
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty graph description")
    at, head = lines[0][0], lines[0][1].split()
    if len(head) != 2 or head[0] != "graph" or not head[1].isdecimal():
        raise ParseError("expected header 'graph <vertex count>'")
    n = int(_int_text(head[1], f"number on graph line {at}"))
    edges = []
    for at, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ParseError(f"bad edge line {ln!r}")
        u, v = (int(_int_text(p, f"number on graph line {at}")) for p in parts)
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
    """Agreement data for the three edge-ideal characterizations.

    ``packed`` is the verdict of the core search alone.  The failing minor
    that names a non-packed verdict is not formed with the report:
    ``packed_failure`` is ``is_packed(ideal)[1]``, computed on its first
    read and kept, so it raises what ``is_packed`` raises, such as the
    ``ResourceCapError`` of a scan past the cap, and a read that raises
    keeps nothing.
    """

    graph: Graph
    k_max: int
    bipartite: bool
    bipartite_witness: object
    packed: bool
    equal_up_to: int
    witness: Monomial | None
    ideal: MonomialIdeal = field(repr=False)

    @cached_property
    def packed_failure(self):
        """The first failing minor of the ideal, or None when it is packed."""
        return None if self.packed else is_packed(self.ideal)[1]

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
    """Check bipartite == packed == (symbolic power equals ordinary, k <= k_max).

    Packedness is decided by ``_packed_by_cores`` alone: the scan that
    names a failing minor runs only if ``packed_failure`` is read, so the
    report forms no minor ideal, and a graph whose naming scan would pass
    the cap still gets a report.  The powers are compared for k = 2, 3, ..
    in turn and stop at the first k where they differ.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    ideal = edge_ideal(graph, ring)
    bip, bip_wit = is_bipartite(graph)
    packed, _ = _packed_by_cores(_support_masks(ideal.rows))
    equal_up_to = k_max
    witness = None
    primes = _prime_index_sets(ideal)
    powers = islice(ideal.ladder(ideal, k_max - 1), 1, None)  # I^2..I^k_max
    for k, ordinary in zip(range(2, k_max + 1), powers):
        eq, wit = _power_witness(_power_of_primes(ideal.ring, primes, k), ordinary)
        if not eq:
            equal_up_to = k - 1
            witness = wit
            break
    return EdgeTheoremReport(graph, k_max, bip, bip_wit, packed, equal_up_to, witness, ideal)
