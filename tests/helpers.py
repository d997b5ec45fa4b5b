"""Brute-force oracles shared across the test modules.

Each routine recomputes an answer by direct enumeration, or by the plainer
implementation a faster one replaced, so the fast implementations have
something independent to disagree with.  ``corrupt_numerator`` corrupts an
intermediate instead, so a self-check has to fire.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations, product, zip_longest
from math import comb, isqrt
from operator import add, le, mul, neg, sub

from idealkit import (
    QQ,
    ArReport,
    BsCheck,
    FrobeniusCheck,
    MinorFailure,
    Monomial,
    MonomialIdeal,
    MonomialOrder,
    Polynomial,
    ResourceCapError,
    buchberger,
    frobenius_power,
    invariants,
    minimal_primes,
    newton_polyhedron,
    parse_ring,
)
from idealkit.cli import _answer, _parser
from idealkit.closure import _power_closure
from idealkit.errors import ParseError
from idealkit.groebner import (
    _Reducers,
    _certificate_pairs,
    _in_order,
    _layout,
    _pack,
    _reduce_full,
    _s_polynomial,
    _widening,
)
from idealkit.linalg import rank_over
from idealkit import monomials
from idealkit.monomials import _NAME_RE, _colon_row
from idealkit.symbolic import _cover_number, _max_disjoint


def numbered_ring(n):
    return parse_ring(", ".join(f"x{i}" for i in range(1, n + 1)))


def is_prime_by_trial_division(p):
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def compositions(total, parts):
    """Exponent tuples of length parts summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def scan_member(ideal, exps):
    # raw divisibility against the generator list, no pruning tricks
    return any(
        all(a <= b for a, b in zip(gen.exponents, exps))
        for gen in ideal.generators
    )


def standard_count(ideal, degree):
    """Count the degree-d monomials outside the ideal one at a time."""
    return sum(
        1
        for exps in compositions(degree, ideal.ring.n)
        if not scan_member(ideal, exps)
    )


def standard_counts_by_inclusion_exclusion(rows, n, degrees):
    """Degree-d standard-monomial counts of the ideal on ``rows``: the sum
    over generator subsets T of (-1)^|T| times the number of degree-d
    multiples of lcm(T)."""
    weight = {0: 1}
    lcms = [(0,) * n] * (1 << len(rows))
    for mask in range(1, 1 << len(rows)):
        low = (mask & -mask).bit_length() - 1
        lcms[mask] = tuple(max(a, b) for a, b in zip(lcms[mask ^ (1 << low)], rows[low]))
        d = sum(lcms[mask])
        weight[d] = weight.get(d, 0) + (-1) ** bin(mask).count("1")
    return [
        sum(w * comb(n - 1 + d - deg, n - 1) for deg, w in weight.items() if deg <= d)
        for d in degrees
    ]


def minimal_rows_by_scan(rows):
    """Divisibility-minimal antichain of exponent tuples, in ascending
    (degree, tuple) order: each row is tested against every kept row of
    lower degree, one pair at a time."""
    kept, lower, degree = [], [], None
    for d, r in sorted((sum(t), t) for t in set(rows)):
        if d != degree:
            degree, lower = d, kept[:]
        if not any(all(a <= b for a, b in zip(k, r)) for k in lower):
            kept.append(r)
    return kept


def product_by_tuples(left, right):
    """``left * right`` on exponent tuples, the implementation the keyed
    product replaced: every sum of two generators, a square's unordered
    pairs once, minimalized by ``minimal_rows_by_scan``; the pairing cap
    and the exponent cap are checked before any row is formed."""
    left._check_pairs(right, "product")
    cap = monomials.DEFAULT_EXPONENT_CAP
    a_rows, b_rows = left.rows, right.rows
    if a_rows and b_rows and any(
        a + b > cap for a, b in zip(map(max, zip(*a_rows)), map(max, zip(*b_rows)))
    ):
        raise ResourceCapError(f"exponent exceeds cap {cap} in product")
    if right is left:
        rows = {tuple(map(add, a, b)) for i, a in enumerate(a_rows) for b in a_rows[i:]}
    else:
        rows = {tuple(map(add, a, b)) for a in a_rows for b in b_rows}
    return MonomialIdeal(left.ring, tuple(minimal_rows_by_scan(rows)[::-1]))


def first_outside_by_minimalization(big, small):
    """``big.first_outside(small)`` by one joint minimalization: small's
    generators divide none of each other, so minimalizing them together
    with big's keeps one exactly when no row of big divides it."""
    big._check(small)
    rows = big.rows
    outside = set(minimal_rows_by_scan(rows + small.rows)).difference(rows)
    return next((Monomial(big.ring, r) for r in small.rows if r in outside), None)


def minimal_lifts_by_recursion(weights, deficit):
    """``_minimal_lifts`` as the recursion it was written as: r_0 takes
    0..t - 1 with t = ceil(deficit / w_0), each followed by the lifts of the
    rest, then t with zeros after it."""
    w, rest = weights[0], weights[1:]
    top = max(0, -(-deficit // w))
    if rest:
        for first in range(top):
            for tail in minimal_lifts_by_recursion(rest, deficit - w * first):
                yield (first,) + tail
    yield (top,) + (0,) * len(rest)


def minimal_points_by_tuples(n, inequalities):
    """(rows, made) of the lattice-point folds on exponent tuples, the
    plainer implementation the packed-key folds replaced: the rows are the
    minimal solutions of c . a >= b for all (c, b), in ascending (degree,
    tuple) order, and made counts every lifted row over all folds.

    Each fold lifts every row g by the lifts of its deficit b - c . g and
    minimalizes all of them with ``minimal_rows_by_scan``; the inequality
    the fewest rows violate goes first, ties in list order.
    """
    rows, made, pending = [(0,) * n], 0, list(inequalities)
    while pending:
        coeffs, bound = min(pending, key=lambda q: sum(
            sum(map(mul, q[0], g)) < q[1] for g in rows))
        pending.remove((coeffs, bound))
        support = [j for j, c in enumerate(coeffs) if c]
        weights = [coeffs[j] for j in support]
        lifted = []
        for g in rows:
            deficit = bound - sum(map(mul, coeffs, g))
            for r in minimal_lifts_by_recursion(weights, deficit):
                made += 1
                row = list(g)
                for j, x in zip(support, r):
                    row[j] += x
                lifted.append(tuple(row))
        rows = minimal_rows_by_scan(lifted)
    return rows, made


def intersect_fold(ideals):
    acc = ideals[0]
    for other in ideals[1:]:
        acc = acc.intersect(other)
    return acc


def symbolic_by_intersection(ideal, k):
    """The defining intersection of k-th prime powers, folded pairwise."""
    return intersect_fold([p.ideal().power(k) for p in minimal_primes(ideal)])


def _ideal_of_rows(ring, rows):
    return MonomialIdeal.from_generators(ring, [Monomial(ring, r) for r in rows])


def symbolic_by_box_scan(ideal, k):
    """I^(k) from the lattice points of [0,k]^n over the primes' variables.

    A point is kept when every prime's exponent sum reaches k and every
    positive coordinate sits in some prime whose sum is exactly k.  No
    minimal generator needs an exponent above k: dropping a unit from such
    a coordinate keeps every constraint satisfied.
    """
    primes = [set(p.indices) for p in minimal_primes(ideal)]
    used = sorted(set().union(*primes))
    rows = []
    for point in product(range(k + 1), repeat=len(used)):
        exps = dict(zip(used, point))
        sums = [sum(exps[v] for v in p) for p in primes]
        if any(s < k for s in sums):
            continue
        tight = [p for p, s in zip(primes, sums) if s == k]
        if all(e == 0 or any(v in p for p in tight) for v, e in exps.items()):
            row = [0] * ideal.ring.n
            for v, e in exps.items():
                row[v] = e
            rows.append(tuple(row))
    return _ideal_of_rows(ideal.ring, rows)


def closure_by_box_scan(ideal):
    """Integral closure from the Newton polyhedron's points in a box.

    Minimal generators are bounded coordinatewise by the largest generator
    exponent: a point beyond that has a full unit of slack in the offending
    coordinate and so is not divisibility-minimal.
    """
    poly = newton_polyhedron(ideal)
    box = [max(p[j] for p in poly.points) for j in range(ideal.ring.n)]
    rows = [pt for pt in product(*(range(b + 1) for b in box)) if poly.contains(pt)]
    return _ideal_of_rows(ideal.ring, rows)


def rank_by_fractions(rows):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def rank_by_minors(rows, p=0):
    """Rank over F_p (over Q for p = 0): the largest k with some k x k minor
    nonzero, each minor expanded over all permutations."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    for k in range(min(m, n), 0, -1):
        for picked in combinations(range(m), k):
            for cols in combinations(range(n), k):
                det = 0
                for perm in permutations(range(k)):
                    inversions = sum(
                        perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
                    term = (-1) ** inversions
                    for i in range(k):
                        term *= rows[picked[i]][cols[perm[i]]]
                    det += term
                if (det % p if p else det) != 0:
                    return k
    return 0


def upper_koszul_faces_by_subsets(ideal, a):
    """Faces of K^a, as frozensets of variable indices, by testing every
    subset b of supp(a) for x^(a-b) in the ideal."""
    supp = [i for i, v in enumerate(a) if v > 0]
    faces = []
    for size in range(len(supp) + 1):
        for members in combinations(supp, size):
            shifted = tuple(v - (i in members) for i, v in enumerate(a))
            if scan_member(ideal, shifted):
                faces.append(frozenset(members))
    return faces


def reduced_homology_by_elimination(faces, field):
    """{dimension: reduced Betti number} over the field of a complex given
    by all of its faces."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    ranks = {}
    for d, cols in by_dim.items():
        rows = by_dim.get(d - 1, [])
        index = {f: r for r, f in enumerate(rows)}
        matrix = [[0] * len(cols) for _ in rows]
        for c, face in enumerate(cols):
            for pos in range(len(face)):
                matrix[index[face[:pos] + face[pos + 1:]]][c] = (-1) ** pos
        ranks[d] = rank_over(matrix, field) if rows else 0
    dims = {}
    for d, cells in by_dim.items():
        h = len(cells) - ranks[d] - ranks.get(d + 1, 0)
        if h:
            dims[d] = h
    return dims


def betti_by_subset_scan(ideal, field):
    """{(i, j): beta_ij(S/I)} over the field from the upper Koszul complexes
    of all lcms of generator subsets, faces found by the subset scan above.
    Ranks come from the library's ``rank_over``, which test_linalg checks
    against ``rank_by_fractions``."""
    rows = [g.exponents for g in ideal.generators]
    lattice = set()
    for size in range(1, len(rows) + 1):
        for chosen in combinations(rows, size):
            lattice.add(tuple(max(col) for col in zip(*chosen)))
    table = {(0, 0): 1}
    for a in lattice:
        faces = upper_koszul_faces_by_subsets(ideal, a)
        for d, h in reduced_homology_by_elimination(faces, field).items():
            key = (d + 2, sum(a))
            table[key] = table.get(key, 0) + h
    return table


def closure_certificate(ideal, exps, m_max):
    """Bounded search for a power certificate (x^a)^m in I^m.

    A hit proves x^a lies in the integral closure; misses below m_max
    prove nothing on their own.
    """
    for m in range(1, m_max + 1):
        scaled = tuple(e * m for e in exps)
        if scan_member(ideal.power(m), scaled):
            return True
    return False


def minimal_covers_by_subsets(ideal):
    """Inclusion-minimal variable sets meeting every generator's support,
    from all subsets in ascending size, as sorted index tuples."""
    supports = [g.support for g in ideal.generators]
    covers = []
    for size in range(ideal.ring.n + 1):
        for subset in combinations(range(ideal.ring.n), size):
            chosen = set(subset)
            if all(s & chosen for s in supports) and not any(
                    set(c) <= chosen for c in covers):
                covers.append(subset)
    return covers


def codim_by_subsets(ideal):
    """Least size of a variable set meeting every generator's support."""
    supports = [g.support for g in ideal.generators]
    for size in range(ideal.ring.n + 1):
        for subset in combinations(range(ideal.ring.n), size):
            if all(s & set(subset) for s in supports):
                return size
    raise ValueError("the unit ideal has no cover")


def disjoint_by_subsets(ideal):
    """(count, generators) of the lexicographically least largest family of
    generators with pairwise disjoint supports, over all index subsets.

    Disjoint supports of at least s variables each number at most n // s.
    """
    gens = ideal.generators
    sups = [g.support for g in gens]
    top = min(len(gens), ideal.ring.n // min(map(len, sups)))
    for size in range(top, 0, -1):
        for picks in combinations(range(len(gens)), size):
            chosen = [sups[i] for i in picks]
            if sum(map(len, chosen)) == len(set().union(*chosen)):
                return size, tuple(gens[i] for i in picks)
    return 0, ()


def random_hypergraph_ideal(rng, ring, max_generators, max_support):
    """Up to max_generators square-free generators, each on a random set of
    1..max_support variables."""
    gens = []
    for _ in range(rng.randint(1, max_generators)):
        support = rng.sample(range(ring.n), rng.randint(1, min(max_support, ring.n)))
        gens.append(Monomial(ring, tuple(int(i in support) for i in range(ring.n))))
    return MonomialIdeal.from_generators(ring, gens)


def packed_by_minor_ideals(ideal):
    """Packedness by building every (zeros, ones) minor as an ideal.

    Same visiting order and failure as ``is_packed``, deduplicated on the
    minor's ring and generators, with codim and disjoint counts from the
    subset scans above.
    """
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
                    c = codim_by_subsets(minor)
                    d, _ = disjoint_by_subsets(minor)
                    if d < c:
                        return False, MinorFailure(zeros, ones, minor, c, d)
    return True, None


def is_packed_by_scan(ideal):
    """``is_packed`` as the ordered scan alone, which decides and names:
    every (zeros, ones) minor on support masks, smallest reduction first,
    lexicographically, with the cap counted per pair as it forms."""
    n = ideal.ring.n
    supports = [sum(1 << i for i, e in enumerate(r) if e) for r in ideal.rows]
    bits = [1 << i for i in range(n)]
    seen = set()
    formed = 0
    for total in range(n):
        for zcount in range(total + 1):
            for zeros in combinations(bits, zcount):
                zmask = sum(zeros)
                alive = [g for g in supports if not g & zmask]
                rest = [b for b in bits if not b & zmask]
                for ones in combinations(rest, total - zcount):
                    formed += len(alive)
                    if formed > monomials._POINT_WORK_CAP:
                        raise ResourceCapError(
                            f"packedness check formed over "
                            f"{monomials._POINT_WORK_CAP} minor generators")
                    keep = ~sum(ones)
                    minor = frozenset([g & keep for g in alive])
                    if not minor or 0 in minor or minor in seen:
                        continue
                    seen.add(minor)
                    masks = tuple(minor)
                    c, greedy = _cover_number(masks)
                    if greedy < c and not _max_disjoint(masks, c)[0]:
                        d, _ = _max_disjoint(masks)
                        names = ideal.ring.variables
                        zeros = tuple(names[b.bit_length() - 1] for b in zeros)
                        ones = tuple(names[b.bit_length() - 1] for b in ones)
                        built = ideal.minor(zeros=zeros, ones=ones)
                        return False, MinorFailure(zeros, ones, built, c, d)
    return True, None


def pivot_numerator_by_tuples(rows, n, cap=3_500_000):
    """Hilbert numerator of S/I (over (1-z)^n) by the least-exponent pivot
    recursion on exponent tuples, on a worklist: pivot on x_j^e, with x_j
    the variable in the most rows and e its least positive exponent, by
    N(I) = N(I + x_j^e) + z^e * N(I : x_j^e), down to pairwise-coprime
    rows, whose numerator is a product of 1 - z^deg.  Reading more than
    ``cap`` rows over all steps raises ``ResourceCapError``."""
    total = []
    work, read = [(rows, 0)], 0
    while work:
        rows, shift = work.pop()
        read += len(rows)
        if read > cap:
            raise ResourceCapError(f"Hilbert pivot recursion read over {cap} rows")
        if not rows:
            leaf = [1]
        elif any(sum(r) == 0 for r in rows):
            leaf = []
        else:
            counts = [len(rows) - column.count(0) for column in zip(*rows)]
            if max(counts) > 1:
                j = counts.index(max(counts))
                e = min(r[j] for r in rows if r[j] > 0)
                pivot = tuple(e if i == j else 0 for i in range(n))
                # e is x_j's least positive exponent, so r[j] < e means
                # r[j] = 0: these rows stay minimal, x_j^e divides none of
                # them, and only the unit row, a leaf above, divides x_j^e
                work.append(([r for r in rows if r[j] < e] + [pivot], shift))
                work.append((minimal_rows_by_scan(
                    [r[:j] + (max(r[j] - e, 0),) + r[j + 1:] for r in rows]), shift + e))
                continue
            leaf = [1]
            for r in rows:
                d = sum(r)
                leaf += [0] * d
                for i in range(len(leaf) - 1, d - 1, -1):
                    leaf[i] -= leaf[i - d]
        if len(total) < shift + len(leaf):
            total.extend([0] * (shift + len(leaf) - len(total)))
        for i, c in enumerate(leaf, shift):
            total[i] += c
    return total


def colon_numerator_by_tuples(rows, n):
    """Hilbert numerator of S/I (over (1-z)^n) by the Bayer-Stillman colon
    recursion on exponent tuples: generators join in lexicographic order,
    each by N(J + (m)) = N(J) - z^deg(m) * N(J : m)."""
    num = [1]
    done = []
    for m in sorted(rows):
        if not any(m):
            return []
        colon = minimal_rows_by_scan([_colon_row(g, m) for g in done])
        inner = colon_numerator_by_tuples(colon, n) if colon else [1]
        shifted = [0] * sum(m) + [-c for c in inner]
        num = [a + b for a, b in zip_longest(num, shifted, fillvalue=0)]
        done.append(m)
    return num


def lcm_lattice_by_frontier(rows):
    """Every lcm of a nonempty set of the rows: the rows, then rounds that
    join each lcm found in the last round with every row."""
    base = {tuple(r) for r in rows}
    lattice, frontier = set(base), base
    while frontier:
        frontier = {tuple(map(max, a, g)) for a in frontier for g in base} - lattice
        lattice |= frontier
    return lattice


def corrupt_numerator(monkeypatch, name, index):
    """Rebind the numerator routine ``invariants.<name>`` so that only its
    outermost call returns coefficient ``index`` raised by one."""
    real = getattr(invariants, name)
    depth = [0]

    def corrupt(rows, n):
        depth[0] += 1
        try:
            out = list(real(rows, n))
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            out[index] += 1
        return out

    monkeypatch.setattr(invariants, name, corrupt)


def tuple_heap_key(order):
    """Exponents -> ``order.key`` negated, so a min-heap pops the largest term."""
    key = order.key
    if order.kind == "lex":
        return lambda exps: tuple(map(neg, key(exps)))

    def grevlex(exps):
        degree, rest = key(exps)
        return (-degree, tuple(map(neg, rest)))

    return grevlex


def reduce_by_tuples(f, basis):
    """Full normal form of f against a list of polynomials, on exponent
    tuples and order keys, through the field's methods.

    Always reduces the largest remaining term by the first listed reducer
    whose leading monomial divides it, as the packed reducer does, so the
    two remainders agree term for term even against a non-Groebner list.
    """
    field = f.field
    heap_key = tuple_heap_key(f.order)
    reducers = [(g.terms[0][0], g.terms[0][1], g.terms[1:]) for g in basis]
    work = dict(f.terms)
    heap = [(heap_key(exps), exps) for exps in work]
    heapify(heap)
    remainder = []
    while heap:
        exps = heappop(heap)[1]
        coeff = work[exps]
        if not coeff:
            continue
        for lm, lc, tail in reducers:
            if all(map(le, lm, exps)):
                break
        else:
            remainder.append((exps, coeff))
            continue
        shift = tuple(map(sub, exps, lm))
        factor = field.div(coeff, lc)
        for mexps, mcoeff in tail:
            term = tuple(map(add, shift, mexps))
            old = work.get(term)
            if old is None:
                work[term] = field.neg(field.mul(factor, mcoeff))
                heappush(heap, (heap_key(term), term))
            else:
                work[term] = field.sub(old, field.mul(factor, mcoeff))
    return Polynomial._trusted(f.ring, field, f.order, tuple(remainder))


def random_sparse_poly(rng, ring, field, order, degree, terms, least=0):
    """Up to ``terms`` random terms of total degree ``least`` to ``degree``
    with coefficients in -9..9 (a later draw of the same exponents replaces
    an earlier one, and over GF(p) a coefficient may vanish)."""
    acc = {}
    for _ in range(terms):
        exps = [0] * ring.n
        for _ in range(rng.randint(least, degree)):
            exps[rng.randrange(ring.n)] += 1
        acc[tuple(exps)] = rng.choice([c for c in range(-9, 10) if c])
    return Polynomial(ring, field, order, acc)


def random_rational_poly(rng, ring, order, degree, terms, least=0):
    """Up to ``terms`` random terms over QQ of total degree ``least`` to
    ``degree``.  Each coefficient is a signed numerator, 1-9 or one time in
    six a 40-digit one, over a denominator that is 2-9 half the time and 1
    otherwise (a later draw of the same exponents replaces an earlier one)."""
    acc = {}
    for _ in range(terms):
        exps = [0] * ring.n
        for _ in range(rng.randint(least, degree)):
            exps[rng.randrange(ring.n)] += 1
        num = rng.randrange(10**39, 10**40) if rng.random() < 1 / 6 else rng.randint(1, 9)
        den = rng.randint(2, 9) if rng.random() < 0.5 else 1
        acc[tuple(exps)] = Fraction(rng.choice((-1, 1)) * num, den)
    return Polynomial(ring, QQ, order, acc)


def cyclic_system(n):
    """The cyclic-n system as (ring text, polynomial texts) in a, b, c, ..."""
    names = "abcdefgh"[:n]
    polys = []
    for k in range(1, n):
        polys.append(" + ".join(
            "*".join(names[(i + j) % n] for j in range(k)) for i in range(n)))
    polys.append("*".join(names) + " - 1")
    return ",".join(names), polys


def interreduce_by_increments(basis, loop):
    """``groebner._interreduce`` as it was before it reduced on the
    Buchberger loop's own reducers: the reduced basis, as Polynomials in
    ascending lead order, of a minimal packed Groebner basis of
    ``_Packed.primitive`` elements, on the ring, order and layout of the
    loop's reducers ``loop``.  A lead that divides a term is at most
    that term, so each tail, taken in ascending lead order, is reduced by
    the elements already reduced, which it then joins.  It packs its own
    reducers, one ``add`` per element."""
    if not basis:
        return []
    reducers = _Reducers(loop.ring, loop.order, loop.layout)
    for p in sorted(basis, key=lambda p: p.terms[0][0]):
        (lm, lc), tail = p.terms[0], _reduce_full(p._with(p.terms[1:]), reducers)
        reducers.add(p._with(((lm, lc * tail.denominator),) + tail.terms).primitive())
    shared = {}
    return [p.unpack(reducers, shared) for p in reducers.polys]


def certify_all_pairs(gb, gens):
    """The Groebner certificate as it was before the pair criteria pruned
    it: raise unless every S-polynomial of gb, over all n(n-1)/2 pairs, and
    every generator reduce to zero against gb, with ``groebner._certify``'s
    two messages.  It packs its own reducers, as the certificate does, so
    gb's kept packing is untouched."""
    gens = [_in_order(g, gb.order) for g in gens]
    degree = max((p.total_degree() for p in gb.polys), default=0)
    bound = max([2 * degree] + [g.total_degree() for g in gens])

    def run(layout):
        reducers = _Reducers(gb.ring, gb.order, layout, [_pack(p, layout) for p in gb.polys])
        polys = reducers.polys
        for i, j in combinations(range(len(polys)), 2):
            s = _s_polynomial(polys[i], polys[j], layout)
            if not _reduce_full(s, reducers).is_zero:
                raise RuntimeError(
                    "internal error: an S-polynomial of the reduced basis "
                    "does not reduce to zero"
                )
        for g in gens:
            if not _reduce_full(_pack(g, layout), reducers).is_zero:
                raise RuntimeError(
                    "internal error: an input generator does not reduce to zero "
                    "against the reduced basis"
                )

    _widening(run, _layout(gb.order, bound))


def certificate_pairs_by_tuples(leads):
    """``groebner._certificate_pairs`` on leading exponent tuples, as it was
    before it read packed fields: the pairs (i, j), i < j, in
    ``combinations`` order, less those with coprime leads and those for
    which some lead c divides L = lcm(a, b) while lcm(a, c) and lcm(b, c)
    both differ from L."""
    pairs = []
    for i, j in combinations(range(len(leads)), 2):
        a, b = leads[i], leads[j]
        if not any(map(min, a, b)):
            continue
        m = tuple(map(max, a, b))
        for c in leads:
            if all(map(le, c, m)) and tuple(map(max, a, c)) != m != tuple(map(max, b, c)):
                break
        else:
            pairs.append((i, j))
    return pairs


def certificate_pairs_by_fields(layout, leads):
    """``groebner._certificate_pairs`` on leading exponent tuples: each is
    packed on ``layout`` and read back as its plain fields, as the
    certificate's reducers hold them."""
    fields = [(layout.pack(e) ^ layout.flip) & layout.low for e in leads]
    return _certificate_pairs(layout, fields)


def certify_by_fractions(gb, gens):
    """The all-pairs certificate on Polynomials alone: raise, with
    ``groebner._certify``'s two messages, unless every S-polynomial of gb,
    formed with Fraction coefficients, and every generator reduce to zero
    under ``reduce_by_tuples``.  Nothing here touches the packed engine."""
    polys = gb.polys
    for f, g in combinations(polys, 2):
        (lf, cf), (lg, cg) = f.terms[0], g.terms[0]
        m = tuple(map(max, lf, lg))
        s = (Polynomial.monomial(f.ring, f.field, f.order, tuple(map(sub, m, lf)),
                                 f.field.inv(cf)) * f
             - Polynomial.monomial(g.ring, g.field, g.order, tuple(map(sub, m, lg)),
                                   g.field.inv(cg)) * g)
        if not reduce_by_tuples(s, polys).is_zero:
            raise RuntimeError(
                "internal error: an S-polynomial of the reduced basis "
                "does not reduce to zero"
            )
    for g in gens:
        if not reduce_by_tuples(_in_order(g, gb.order), polys).is_zero:
            raise RuntimeError(
                "internal error: an input generator does not reduce to zero "
                "against the reduced basis"
            )



def frobenius_check_by_polynomials(gens, t, p, e, max_products=20_000):
    """``groebner.frobenius_containment_check`` as it was before products
    were formed on packed keys, verbatim but for the compositions, which
    come from ``compositions`` here: every product of generator powers is
    a Polynomial product, tested with ``GroebnerBasis.contains``."""
    gens = list(gens)
    if t != len(gens):
        raise ValueError("t must equal the number of generators")
    # validates e and the characteristic before p**e feeds the count
    bracket = frobenius_power(gens, p, e)
    exponent = t * p**e
    # the power chains take up to `exponent` multiplications; for t >= 2
    # the product count already exceeds that, for t = 1 it is a single product
    count = max(comb(exponent + t - 1, t - 1), exponent)
    if count > max_products:
        raise ResourceCapError(
            f"containment check needs {count} products, over the cap {max_products}"
        )
    gb = buchberger(bracket, gens[0].order, certify=False)
    # powers[i][k] is gens[i]^k, filled upward on demand
    powers = [[Polynomial.constant(g.ring, g.field, g.order, 1)] for g in gens]

    def gen_power(i, k):
        cache = powers[i]
        while len(cache) <= k:
            cache.append(cache[-1] * gens[i])
        return cache[k]

    checked = 0
    for split in compositions(exponent, t):
        product = gen_power(0, split[0])
        for i in range(1, t):
            product = product * gen_power(i, split[i])
        checked += 1
        if not gb.contains(product):
            return FrobeniusCheck(False, exponent, checked, str(split))
    return FrobeniusCheck(True, exponent, checked, None)

# The character scanners that read monomial and polynomial text before both
# parsers shared one tokenizer, kept as they were (names aside): the
# differential in tests/test_tokens.py holds the parsers to them.


def parse_monomial_by_chars(ring, text, offset=0):
    """Parse ``x^2*y`` style monomials; ``1`` is the unit monomial.

    ``offset`` shifts reported column numbers when the text is a slice of a
    larger input.
    """
    s = text
    i = 0
    n = len(s)

    def skip_ws():
        nonlocal i
        while i < n and s[i].isspace():
            i += 1

    def fail(msg, at):
        raise ParseError(msg, column=offset + at + 1)

    skip_ws()
    if i >= n:
        fail("empty monomial", i)
    if s[i] == "1":
        i += 1
        skip_ws()
        if i < n:
            fail("unexpected text after '1'", i)
        return ring.one()

    exps = [0] * ring.n
    while True:
        skip_ws()
        m = _NAME_RE.match(s, i)
        if not m:
            fail("expected a variable name", i)
        name = m.group(0)
        try:
            idx = ring.index(name)
        except ValueError:
            fail(f"unknown variable {name!r}", i)
        i = m.end()
        e = 1
        skip_ws()
        if i < n and s[i] == "^":
            i += 1
            skip_ws()
            j = i
            while j < n and s[j].isdigit():
                j += 1
            if j == i:
                fail("expected an exponent after '^'", i)
            e = int(s[i:j])
            i = j
        exps[idx] += e
        skip_ws()
        if i >= n:
            break
        if s[i] != "*":
            fail("expected '*' between factors", i)
        i += 1
    return Monomial(ring, tuple(exps))


def parse_polynomial_by_chars(ring, text, field=QQ, order=None):
    """Parse ``±c*mono ± …`` with integer or a/b coefficients.

    Factors are separated by ``*``; names must be ring variables; exponents
    use ``^``. Column positions are reported on error.
    """
    if order is None:
        order = MonomialOrder.grevlex(ring)
    tokens = _tokenize_by_chars(text)
    pos = 0
    terms = []
    sign = 1
    kind, value, col = tokens[pos]
    if kind == "op" and value in "+-":
        sign = -1 if value == "-" else 1
        pos += 1
    if tokens[pos][0] == "end":
        raise ParseError("empty polynomial", column=tokens[pos][2])
    while True:
        coeff, exps, pos = _parse_term_by_chars(ring, tokens, pos)
        term_col = col
        try:
            terms.append((tuple(exps), field.coerce(sign * coeff)))
        except ZeroDivisionError:
            raise ParseError(
                "coefficient denominator is zero in this field", column=term_col
            ) from None
        kind, value, col = tokens[pos]
        if kind == "end":
            break
        if kind != "op" or value not in "+-":
            raise ParseError(f"expected + or - before {value!r}", column=col)
        sign = -1 if value == "-" else 1
        pos += 1
        col = tokens[pos][2]
    return Polynomial(ring, field, order, terms)


def _parse_term_by_chars(ring, tokens, pos):
    coeff = Fraction(1)
    exps = [0] * ring.n
    while True:
        kind, value, col = tokens[pos]
        if kind == "int":
            coeff *= value
            pos += 1
            if tokens[pos][:2] == ("op", "/"):
                dkind, dvalue, dcol = tokens[pos + 1]
                if dkind != "int":
                    raise ParseError("expected integer denominator", column=dcol)
                if dvalue == 0:
                    raise ParseError("zero denominator", column=dcol)
                coeff /= dvalue
                pos += 2
        elif kind == "name":
            if value not in ring.variables:
                raise ParseError(f"unknown variable {value!r}", column=col)
            e = 1
            pos += 1
            if tokens[pos][:2] == ("op", "^"):
                ekind, evalue, ecol = tokens[pos + 1]
                if ekind != "int" or evalue < 0:
                    raise ParseError("expected nonnegative exponent", column=ecol)
                e = evalue
                pos += 2
            exps[ring.index(value)] += e
        else:
            raise ParseError("expected a coefficient or variable", column=col)
        if tokens[pos][:2] == ("op", "*"):
            pos += 1
            continue
        return coeff, exps, pos


def _tokenize_by_chars(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            m = _NAME_RE.match(text, i)
            tokens.append(("name", m.group(), i + 1))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(("op", ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", column=i + 1)
    tokens.append(("end", None, len(text) + 1))
    return tokens


# The uniform-bound scans as they were before they shared
# ``MonomialIdeal.first_outside`` and ``MonomialIdeal.ladder``: each power
# by repeated squaring, each witness by its own loop.  The bodies are
# verbatim but for ``contains_ideal``, which is ``contains_ideal_by_scan``
# here, so that no oracle runs the code it checks.


def contains_ideal_by_scan(big, small):
    """True when every generator of small lies in big."""
    big._check(small)
    return all(big.contains(g) for g in small.generators)


def power_witness_by_scan(sym, ordinary):
    """(equal, witness) for computed I^(k) and I^k."""
    if sym == ordinary:
        return True, None
    for g in sym.generators:
        if g not in ordinary:
            return False, g
    raise RuntimeError("internal error: unequal ideals without a witness")


def briancon_skoda_check_by_powers(ideal, ell, n_max):
    """Verify closure(I^n) within I^(n-ell+1) for every n in [ell, n_max]."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a proper nonzero ideal")
    if ell < 1 or n_max < ell:
        raise ValueError("need 1 <= ell <= n_max")
    facets = newton_polyhedron(ideal).facets
    for n in range(ell, n_max + 1):
        closed = _power_closure(ideal.ring, facets, n)
        target = ideal.power(n - ell + 1)
        for g in closed.generators:
            if g not in target:
                return BsCheck(ell, n_max, False, (n, g))
    return BsCheck(ell, n_max, True, None)


def uniform_bs_number_by_powers(ideal, n_max):
    """Least k >= 0 with closure(I^n) within I^(n-k) for all k <= n <= n_max."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a proper nonzero ideal")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    powers = {j: ideal.power(j) for j in range(0, n_max + 1)}
    facets = newton_polyhedron(ideal).facets
    closures = {n: _power_closure(ideal.ring, facets, n) for n in range(1, n_max + 1)}
    for k in range(n_max + 1):
        if all(
            contains_ideal_by_scan(powers[n - k], closures[n])
            for n in range(max(k, 1), n_max + 1)
        ):
            return k
    raise RuntimeError("internal error: k = n_max must succeed")


def artin_rees_number_by_products(ideal, sub, n_max):
    """Least k_n with I^n intersect N within I^(n-k_n) N, for n = 1..n_max."""
    ideal._check(sub)
    if sub.is_zero:
        raise ValueError("the submodule ideal must be nonzero")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    powers = {j: ideal.power(j) for j in range(n_max + 1)}
    least = []
    for n in range(1, n_max + 1):
        meet = powers[n] & sub
        k = n
        while k > 0 and contains_ideal_by_scan(powers[n - k + 1] * sub, meet):
            k -= 1
        least.append(k)
    return ArReport(ideal, sub, n_max, tuple(least), max(least))


def artin_rees_number_by_intersections(ideal, sub, n_max):
    """``artin_rees_number`` with I^n intersect N formed by an intersection
    at every n, each I^n from the ladder of powers."""
    ideal._check(sub)
    if sub.is_zero:
        raise ValueError("the submodule ideal must be nonzero")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    shifted = list(sub.ladder(ideal, n_max))  # I^j N, j = 0..n_max
    top = max(map(sum, sub.rows))  # D
    least = [0]  # k_0: I^0 intersect N = N
    for n, power in enumerate(ideal.ladder(ideal, n_max - 1), 1):
        meet = power & sub
        k = least[-1] if n > top else n
        while k > 0 and contains_ideal_by_scan(shifted[n - k + 1], meet):
            k -= 1
        least.append(k)
    return ArReport(ideal, sub, n_max, tuple(least[1:]), max(least))


def ar_counterexample_search_by_powers(ideal, sub, k, ell_max):
    """First ell in (k, ell_max] with I^ell != J^(ell-k) I^k, plus a witness."""
    ideal._check(sub)
    if not contains_ideal_by_scan(ideal, sub):
        raise ValueError("the second ideal must sit inside the first")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if ell_max < k + 1:
        raise ValueError("ell_max must be at least k + 1")
    ik = ideal.power(k)
    for ell in range(k + 1, ell_max + 1):
        lhs = ideal.power(ell)
        rhs = sub.power(ell - k) * ik
        if lhs != rhs:
            for g in lhs.generators:
                if g not in rhs:
                    return ell, g
            raise RuntimeError("internal error: mismatch without witness")
    return None


def main_by_tree(argv):
    """``cli.main`` as it parsed before dispatch: every argv through the
    whole argparse tree's ``parse_args``, root, group and command parser."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return _answer(args)
