"""Hilbert series, Hilbert polynomials, and graded Betti tables.

The Hilbert numerator comes from the pivot recursion
``N(I) = N(I + (p)) + z^deg(p) * N(I : p)`` with the pivot a pure power of
the variable hitting the most generators; the recursion bottoms out on
pairwise-coprime generator sets, where the numerator is a product of
``1 - z^deg``.  Every series and count is checked on the spot against an
independent numerator: the colon recursion of Bayer and Stillman,
``N(J + (m)) = N(J) - z^deg(m) * N(J : m)``, which adds one generator at a
time and shares no pivot logic with the above.  The two numerators must be
equal; since h(d) = sum_{j<=d} c_j * C(n-1+d-j, n-1) weighs c_d by one,
their first differing coefficient is the first degree where the two series
differ.

The Hilbert polynomial p(d) = sum_j c_j * C(d - j + n - 1, n - 1) is one
integer expansion, of (n-1)! * p(d) = sum_j c_j * prod_{i=1}^{n-1} (d - j + i).
From d0 = deg N - n + 1 on, the checked series' coefficients are the values
of a polynomial of degree below n (Hilbert-Serre; Bruns-Herzog 4.1), and so
is p; ``hilbert_polynomial`` compares the two at the n degrees
d0, ..., d0 + n - 1, which proves every printed coefficient.

The colon recursion runs on packed rows: each exponent vector is one int in
the lex ``monomials.PackedLayout`` with the first variable highest, with
fields wide enough for the largest degree.  A colon row ``max(g - m, 0)``
is one saturating subtraction: in ``d = (g | G) - m`` field i's guard is set
exactly when g_i >= m_i, and ``d & (s - (s >> (w - 1)))`` with
``s = d & G`` keeps the fields below those guards and clears the rest.
The packed integer order is the lexicographic order and refines
divisibility, so a colon ideal is minimalized by visiting its rows in
ascending order and testing each against the rows kept before it with
one guard test, ``((c | G) - k) & G == G``.  A degree is the layout's
``total`` of the row.

Graded Betti numbers are computed over the lcm lattice: for a multidegree a
let K^a be the simplicial complex of square-free vectors b <= a with
x^(a-b) in I; then beta_{i,a}(S/I) = dim Htilde_{i-2}(K^a) for i >= 1.
K^a is the union of the full simplices on {i : r_i < a_i} over the
generators r dividing x^a, so its faces are the submasks of those facets.
With this convention the (x_1..x_n) table is the binomial row C(n, i) in
total degree j = i, which the tests pin down.
The walk's one default bound is ``_LATTICE_CAP`` lattice points; a generator
count is refused only when a caller or a caps file sets ``max_generators``.

The lattice is built in one pass: each generator joins the lcms formed
before it, and itself.  Facets come from packed rows with the guard bits
as vertices: for ``d = (pack(a) | G) - pack(r)``, r divides x^a exactly
when ``d & G == G``, and then ``(d - L) & G``, with L the lowest bit of
every field, holds guard i exactly when r_i < a_i.  So one subtraction per
generator tests divisibility, and one more gives the facet.

Each K^a is then shrunk to a strong-collapse core: dominated vertices are
deleted from its facet bitmasks, which keeps reduced homology over every
field, torsion included.  A core that is one nonempty simplex is acyclic
and skipped; every other core has its faces listed.  Their boundary maps
are ranked exactly by sparse column elimination on unit pivots
(``linalg.rank_sparse``): every pivot over F_p, pivots of +-1 over Q; the
columns left over over Q are ranked by fraction-free integer elimination
(``rank_over``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, prod

from .errors import ResourceCapError
from .fields import QQ
from .linalg import rank_over, rank_sparse
from .monomials import PackedLayout, _minimal_rows
from .symbolic import codim as _codim
from .symbolic import minimal_primes as _minimal_primes

_LATTICE_CAP = 100_000
# rows one pivot recursion may read, summed over its worklist steps: C40's
# edge ideal reads 3,213,239, and each five more cycle vertices about four
# times as many
_PIVOT_CAP = 3_500_000
# rows one colon recursion may read, in its colons and their minimalization:
# the 1501-generator staircase reads 2,250,000 and (x1..x120) 8,783,390
# (colons 287,980, minimalization 8,495,410); (x1..x200) would read 67M
_COLON_CAP = 10_000_000


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _numerator(rows, n):
    """Hilbert numerator of S/I (over (1-z)^n) by the pivot recursion.

    The recursion runs on a worklist of (rows, shift) pairs, so its depth
    costs no Python stack: the numerator is the sum over the leaves of
    z^shift times the leaf's numerator.  Each step reads the rows of its
    entry; reading more than ``_PIVOT_CAP`` rows over all steps raises
    ``ResourceCapError``.
    """
    total = []
    work, read = [(rows, 0)], 0
    while work:
        rows, shift = work.pop()
        read += len(rows)
        if read > _PIVOT_CAP:
            raise ResourceCapError(
                f"Hilbert pivot recursion read over {_PIVOT_CAP} rows")
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
                work.append((_minimal_rows(
                    [r[:j] + (max(r[j] - e, 0),) + r[j + 1:] for r in rows]), shift + e))
                continue
            # pairwise-coprime generators: complete-intersection product formula
            leaf = [1]
            for r in rows:
                # times 1 - z^d, in place from the top coefficient down
                d = sum(r)
                leaf += [0] * d
                for i in range(len(leaf) - 1, d - 1, -1):
                    leaf[i] -= leaf[i - d]
        if len(total) < shift + len(leaf):
            total.extend([0] * (shift + len(leaf) - len(total)))
        for i, c in enumerate(leaf, shift):
            total[i] += c
    return total


def _colon_numerator(rows, n):
    """Hilbert numerator of S/I (over (1-z)^n) by the colon recursion.

    Generators join in lexicographic order, each by
    ``N(J + (m)) = N(J) - z^deg(m) * N(J : m)``, where J : m is generated by
    the rows ``max(g - m, 0)`` of the generators g already in J.  Rows are
    packed into the lex ``PackedLayout`` with the first variable highest,
    wide enough for the largest degree; the packed integer order is the
    lexicographic order.  Forming J : m reads the rows of J, and its
    minimalization reads, for each of its rows, the rows kept before it;
    reading more than ``_COLON_CAP`` rows in all raises ``ResourceCapError``.
    """
    if not rows:
        return [1]
    layout = PackedLayout.fitting("lex", tuple(range(n)), max(map(sum, rows)))
    guard, spill, total = layout.guard, layout.width - 1, layout.total
    read = 0

    def minimal(keys):
        # ascending integer order visits every divisor of a row before it
        nonlocal read
        kept = []
        for c in sorted(set(keys)):
            read += len(kept)
            c_guard = c | guard
            for k in kept:
                if (c_guard - k) & guard == guard:
                    break
            else:
                kept.append(c)
        return tuple(kept)

    memo = {}  # J : m is J again for m coprime to J, which would double the work

    def numerator(keys):
        nonlocal read
        if keys in memo:
            return memo[keys]
        num, done = [1], []
        for m in keys:
            if not m:
                return []
            inner = [1]
            if done:
                read += len(done)
                colon = []
                for g in done:
                    # field i of d is 2^(w-1) + g_i - m_i; keep g_i - m_i
                    # where that is nonnegative, 0 elsewhere
                    d = (g | guard) - m
                    kept = d & guard
                    colon.append(d & (kept - (kept >> spill)))
                colon = minimal(colon)
                if read > _COLON_CAP:
                    raise ResourceCapError(
                        f"Hilbert colon recursion read over {_COLON_CAP} rows")
                inner = numerator(colon)
            degree = total(m)
            if len(num) < degree + len(inner):
                num.extend([0] * (degree + len(inner) - len(num)))
            for i, c in enumerate(inner, degree):
                num[i] -= c
            done.append(m)
        memo[keys] = num
        return num

    return numerator(tuple(sorted(set(map(layout.pack, rows)))))


def _checked_numerator(rows, n):
    """The pivot-recursion numerator, raising at the first degree where
    the colon-recursion numerator differs from it."""
    coeffs = _strip(_numerator(rows, n))
    check = _strip(_colon_numerator(rows, n))
    if coeffs != check:
        pairs = zip_longest(coeffs, check, fillvalue=0)
        d = next(d for d, (a, b) in enumerate(pairs) if a != b)
        raise RuntimeError(
            f"internal error: series disagrees with direct count at degree {d}"
        )
    return coeffs


def _standard_counts(rows, n, degrees):
    """Exact counts of degree-d monomials outside the ideal, one per degree,
    read off the checked numerator."""
    num = _checked_numerator(rows, n)
    return [_series_coefficient(num, n, d) for d in degrees]


def _series_coefficient(num, n, d):
    """Coefficient of z^d in num(z) / (1 - z)^n."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return sum(c * comb(n - 1 + d - j, n - 1) for j, c in enumerate(num) if j <= d)


def hilbert_function(ideal, d):
    """Number of degree-d monomials outside the ideal."""
    return _standard_counts(ideal.rows, ideal.ring.n, [d])[0]


@dataclass(frozen=True)
class HilbertSeries:
    """Hilbert series of S/I as numerator / (1 - z)^n.

    ``numerator`` holds integer coefficients by ascending degree; the unit
    ideal has the empty (zero) numerator.
    """

    ring: object
    numerator: tuple[int, ...]

    @property
    def degree(self):
        return len(self.numerator) - 1

    def coefficient(self, d):
        """Coefficient of z^d in the expanded series."""
        return _series_coefficient(self.numerator, self.ring.n, d)

    def __str__(self):
        return f"({_format_poly(self.numerator)}) / (1 - z)^{self.ring.n}"


def _format_poly(coeffs, var="z"):
    if not any(coeffs):
        return "0"
    parts = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if j == 0:
            body = str(mag)
        else:
            power = var if j == 1 else f"{var}^{j}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _stability(coeffs, n):
    """Degree from which the Hilbert polynomial and function agree."""
    return max(0, len(coeffs) - n)


def hilbert_series(ideal):
    """Hilbert series of S/I from the pivot recursion, checked against the
    colon-recursion numerator."""
    return HilbertSeries(ideal.ring, tuple(_checked_numerator(ideal.rows, ideal.ring.n)))


@dataclass(frozen=True)
class HilbertPolynomial:
    """Hilbert polynomial p of S/I from its series numerator; it agrees
    with the Hilbert function from ``stability`` on.  Every method reads one
    integer expansion, the coefficients of (n-1)! * p(d), ascending."""

    ring: object
    numerator: tuple[int, ...]
    stability: int

    @cached_property
    def _scaled(self):
        total = []
        for j, c in enumerate(self.numerator):
            if c == 0:
                continue
            term = [c]
            for i in range(1, self.ring.n):
                # times d + (i - j)
                term = [a * (i - j) + b for a, b in zip(term + [0], [0] + term)]
            total = [a + b for a, b in zip_longest(total, term, fillvalue=0)]
        return tuple(_strip(total))

    def __call__(self, d):
        value = 0
        for c in reversed(self._scaled):
            value = value * d + c
        # a product of n - 1 consecutive integers is a multiple of (n-1)!
        return value // factorial(self.ring.n - 1)

    def coefficients(self):
        """Standard-basis coefficients, ascending, as exact rationals."""
        scale = factorial(self.ring.n - 1)
        return tuple(Fraction(c, scale) for c in self._scaled)

    @property
    def degree(self):
        return len(self._scaled) - 1

    def __str__(self):
        return _format_poly(self.coefficients(), var="d")


def hilbert_polynomial(ideal):
    """Hilbert polynomial plus its stability degree d0, proved by agreeing
    with the checked series at the n degrees d0, ..., d0 + n - 1."""
    series = hilbert_series(ideal)
    d0 = _stability(series.numerator, ideal.ring.n)
    poly = HilbertPolynomial(ideal.ring, series.numerator, d0)
    for d in range(d0, d0 + ideal.ring.n):
        if poly(d) != series.coefficient(d):
            raise RuntimeError(
                f"internal error: polynomial disagrees with function at degree {d}"
            )
    return poly


def dimension_multiplicity(ideal):
    """(Krull dimension of S/I, multiplicity).

    The dimension is n minus the multiplicity of the root z = 1 in the
    numerator; the multiplicity is the deflated numerator at z = 1.  For
    zero-dimensional quotients that value is the total length.  For
    square-free ideals the result is cross-checked against the minimal-prime
    decomposition: e must count the minimal primes of least codimension.
    """
    if ideal.is_unit:
        raise ValueError("unit ideal has a zero quotient")
    coeffs = list(hilbert_series(ideal).numerator)
    r = 0
    while sum(coeffs) == 0:
        quotient = []
        acc = 0
        for c in coeffs[:-1]:
            acc += c
            quotient.append(acc)
        coeffs = quotient
        r += 1
    n = ideal.ring.n
    dim = n - r
    mult = sum(coeffs)
    if not ideal.is_zero and ideal.is_squarefree:
        primes = _minimal_primes(ideal)
        least = min(len(p) for p in primes)
        count = sum(1 for p in primes if len(p) == least)
        if least != r or count != mult:
            raise RuntimeError(
                "internal error: series dimension data disagrees with the "
                "prime decomposition"
            )
    return dim, mult


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of S/I as sparse (i, j, value) entries."""

    ring: object
    field_label: str
    entries: tuple[tuple[int, int, int], ...]

    def as_dict(self):
        return {(i, j): v for i, j, v in self.entries}

    def betti(self, i, j):
        return self.as_dict().get((i, j), 0)

    def proj_dim(self):
        return max(i for i, _, _ in self.entries)

    def regularity(self):
        return max(j - i for i, j, _ in self.entries)

    def alternating_numerator(self):
        """Numerator coefficients recovered as alternating column sums."""
        top = max(j for _, j, _ in self.entries)
        out = [0] * (top + 1)
        for i, j, v in self.entries:
            out[j] += v if i % 2 == 0 else -v
        return tuple(_strip(out))

    def render(self):
        """Text table: row r, column i holds beta_{i, i+r}; dots for zeros."""
        pd = self.proj_dim()
        reg = self.regularity()
        lookup = self.as_dict()
        cells = []
        for r in range(reg + 1):
            row = [str(lookup.get((i, i + r), "."))for i in range(pd + 1)]
            cells.append(row)
        width = max(len(c) for row in cells for c in row)
        width = max(width, len(str(pd)))
        lines = ["    " + " ".join(f"{i:>{width}}" for i in range(pd + 1))]
        for r, row in enumerate(cells):
            lines.append(f"{r:>3} " + " ".join(f"{c:>{width}}" for c in row))
        return "\n".join(lines)

    def to_json(self):
        return {
            "field": self.field_label,
            "entries": [[i, j, v] for i, j, v in self.entries],
            "proj_dim": self.proj_dim(),
            "regularity": self.regularity(),
        }


def _boundary(face):
    """Boundary of a face as a ``{face: sign}`` column, vertices read from the
    highest bit down."""
    col = {}
    rest, sign = face, 1
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        rest ^= bit
        col[face ^ bit] = sign
        sign = -sign
    return col


def _homology_dims(faces, field):
    """Reduced homology dimensions of an explicit simplicial complex.

    ``faces`` are vertex bitmasks, downward closed and holding the empty
    face 0, so the reduced chain complex starts at dimension -1.  A face's
    vertices are read from its highest bit down.  Each boundary map is
    ranked by ``rank_sparse`` with faces as row keys, so a mask's numeric
    order, in which every face precedes its cofaces, is the pivot order;
    only what is left without a unit pivot over Q reaches ``rank_over``.
    Maps are ranked from the top dimension down, and a d-face that is the
    pivot row of a (d+1)-column is skipped as a column of the d-th map: that
    reduced column is a boundary, hence a cycle, whose highest face is the
    d-face, so the d-face's boundary is a combination of lower columns.
    """
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    ranks = {}
    cleared = ()
    for d in range(top, -1, -1):
        cols = sorted(f for f in by_dim[d] if f not in cleared)
        ranks[d], cleared = rank_sparse(map(_boundary, cols), field, rank_over)
    dims = {}
    for d in range(-1, top + 1):
        h = len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h:
            dims[d] = h
    return dims


def _core(facets):
    """Maximal facets of a strong-collapse core of the complex with these
    facets, or of one simplex.

    Facets are vertex bitmasks.  A vertex v is dominated when some other
    vertex lies in every maximal facet through v; deleting it is a strong
    collapse (Barmak and Minian, "Strong homotopy types, nerves and
    collapses", Discrete Comput. Geom. 47, 2012), a strong deformation
    retract, so reduced homology is unchanged over every coefficient ring.
    Dominated vertices are deleted one at a time until none is left, or
    until one facet, a simplex, is left.
    """
    kept = []
    for f in sorted(facets, key=int.bit_count, reverse=True):
        for g in kept:
            if f & g == f:
                break
        else:
            kept.append(f)
    facets = kept
    shrinking = len(facets) > 1
    while shrinking:
        shrinking = False
        rest = 0
        for f in facets:
            rest |= f
        while rest:
            bit = rest & -rest
            rest ^= bit
            common = -1
            for f in facets:
                if f & bit:
                    common &= f
            if common == bit:
                continue
            # only a facet through v can become a face of another facet,
            # and only of one that misses v
            away = [f for f in facets if not f & bit]
            for f in facets:
                if f & bit:
                    f ^= bit
                    for g in away:
                        if f & g == f:
                            break
                    else:
                        away.append(f)
            facets = away
            if len(facets) == 1:
                return facets
            shrinking = True
    return facets


def _lcm_lattice(rows):
    """Every lcm of a nonempty set of the rows, as exponent tuples: each row
    joins the lcms formed before it, then itself."""
    lattice = set()
    for g in rows:
        g = tuple(g)
        lattice |= {tuple(map(max, a, g)) for a in lattice}
        lattice.add(g)
        if len(lattice) > _LATTICE_CAP:
            raise ResourceCapError("lcm lattice exceeds cap")
    return lattice


def graded_betti(ideal, field=None, max_generators=None):
    """Graded Betti table of S/I over Q (default) or a prime field.

    Works multidegree by multidegree over the lcm lattice of the minimal
    generators; outside that lattice every upper-Koszul complex is acyclic.
    ``max_generators``, when given, refuses more minimal generators.
    """
    if field is None:
        field = QQ
    if ideal.is_unit:
        raise ValueError("unit ideal has a zero quotient")
    rows = ideal.rows
    if max_generators is not None and len(rows) > max_generators:
        raise ResourceCapError(
            f"{len(rows)} generators exceed the enumeration cap {max_generators}"
        )
    entries = {(0, 0): 1}
    layout = PackedLayout.fitting(
        "lex", tuple(range(ideal.ring.n)), max(map(max, rows), default=0))
    guard, ones = layout.guard, layout.ones
    packed = [layout.pack(r) for r in rows]
    for a in _lcm_lattice(rows):
        # guard i of d = (a | G) - r is set iff r_i <= a_i, and guard i of
        # d - ones iff r_i < a_i: variable i is guard bit i, the first
        # variable highest, the vertex order _homology_dims reads
        top = layout.pack(a) | guard
        facets = {(d - ones) & guard for d in map(top.__sub__, packed)
                  if d & guard == guard}
        if not facets:
            raise RuntimeError("internal error: lattice point outside the ideal")
        core = _core(facets)
        if len(core) == 1 and core[0]:
            continue  # one nonempty simplex: a cone, hence acyclic
        faces = {0}
        for facet in core:
            sub = facet
            while sub:
                faces.add(sub)
                sub = (sub - 1) & facet
        degree = sum(a)
        for d, h in _homology_dims(faces, field).items():
            key = (d + 2, degree)
            entries[key] = entries.get(key, 0) + h
    table = tuple(sorted((i, j, v) for (i, j), v in entries.items() if v))
    return BettiTable(ideal.ring, field.label, table)


def verify_betti_hilbert_identity(ideal, field=None):
    """Alternating Betti sums must reproduce the pivot-recursion numerator."""
    table = graded_betti(ideal, field)
    return table.alternating_numerator() == hilbert_series(ideal).numerator


def is_cohen_macaulay(ideal, field=None):
    """Codimension equals projective dimension?"""
    return _codim(ideal) == graded_betti(ideal, field).proj_dim()


def pure_resolution_multiplicity(table, c):
    """Multiplicity (product of degrees) / c! for a pure resolution.

    Returns None when the table is not pure of length c: either the
    projective dimension differs from c or some homological degree carries
    more than one internal degree.
    """
    if c < 0:
        raise ValueError("codimension must be nonnegative")
    if table.proj_dim() != c:
        return None
    degrees = []
    for i in range(1, c + 1):
        js = {j for ii, j, _ in table.entries if ii == i}
        if len(js) != 1:
            return None
        degrees.append(js.pop())
    return Fraction(prod(degrees), factorial(c))


def stillman_monomial_check(ideal, field=None):
    """Projective dimension bounded by the generator count and by n."""
    bound = min(len(ideal.rows), ideal.ring.n)
    return graded_betti(ideal, field).proj_dim() <= bound
