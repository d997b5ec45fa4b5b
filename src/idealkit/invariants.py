"""Hilbert series, Hilbert polynomials, and graded Betti tables.

The Hilbert numerator comes from the pivot recursion
``N(I) = N(I + (p)) + z^deg(p) * N(I : p)`` with the pivot a pure power of
the variable hitting the most generators; the recursion bottoms out on
pairwise-coprime generator sets, where the numerator is a product of
``1 - z^deg``.  Every computed series is checked on the spot against the
standard-monomial counts of an independent numerator: the colon recursion
of Bayer and Stillman, ``N(J + (m)) = N(J) - z^deg(m) * N(J : m)``, which
adds one generator at a time and shares no pivot logic with the above.

Graded Betti numbers are computed over the lcm lattice: for a multidegree a
let K^a be the simplicial complex of square-free vectors b <= a with
x^(a-b) in I; then beta_{i,a}(S/I) = dim Htilde_{i-2}(K^a) for i >= 1.
K^a is the union of the full simplices on {i : r_i < a_i} over the
generators r dividing x^a, so its faces are the submasks of those facets.
With this convention the (x_1..x_n) table is the binomial row C(n, i) in
total degree j = i, which the tests pin down.

Each K^a is first shrunk to a strong-collapse core: dominated vertices are
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
from fractions import Fraction
from math import comb, factorial, prod

from .errors import ResourceCapError
from .fields import QQ
from .linalg import rank_over, rank_sparse
from .monomials import _colon_row, _lcm_row, _minimal_rows
from .symbolic import codim as _codim
from .symbolic import minimal_primes as _minimal_primes

_LATTICE_CAP = 100_000


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _numerator(rows, n):
    """Hilbert numerator of S/I (over (1-z)^n) by the pivot recursion.

    The recursion runs on a worklist of (rows, shift) pairs, so its depth
    costs no Python stack: the numerator is the sum over the leaves of
    z^shift times the leaf's numerator.
    """
    total = []
    work = [(rows, 0)]
    while work:
        rows, shift = work.pop()
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
                work.append((_minimal_rows([r for r in rows if r[j] < e] + [pivot]), shift))
                work.append((_minimal_rows(
                    [r[:j] + (max(r[j] - e, 0),) + r[j + 1:] for r in rows]), shift + e))
                continue
            # pairwise-coprime generators: complete-intersection product formula
            leaf = [1]
            for r in rows:
                leaf = _poly_mul(leaf, [1] + [0] * (sum(r) - 1) + [-1])
        if len(total) < shift + len(leaf):
            total.extend([0] * (shift + len(leaf) - len(total)))
        for i, c in enumerate(leaf, shift):
            total[i] += c
    return total


def _colon_numerator(rows, n):
    """Hilbert numerator of S/I (over (1-z)^n) by the colon recursion.

    Generators join in lexicographic order, each by
    ``N(J + (m)) = N(J) - z^deg(m) * N(J : m)``, where J : m is generated by
    the rows ``max(g - m, 0)`` of the generators g already in J.
    """
    num = [1]
    done = []
    for m in sorted(rows):
        if not any(m):
            return []
        colon = _minimal_rows([_colon_row(g, m) for g in done])
        inner = _colon_numerator(colon, n) if colon else [1]
        num = _poly_add(num, [0] * sum(m) + [-c for c in inner])
        done.append(m)
    return num


def _standard_counts(rows, n, degrees):
    """Exact counts of degree-d monomials outside the ideal, one per degree,
    read off the colon-recursion numerator, independent of the pivot
    recursion."""
    num = _colon_numerator(rows, n)
    return [
        sum(c * comb(n - 1 + d - j, n - 1) for j, c in enumerate(num) if j <= d)
        for d in degrees
    ]


def hilbert_function(ideal, d):
    """Number of degree-d monomials outside the ideal."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    rows = [g.exponents for g in ideal.generators]
    return _standard_counts(rows, ideal.ring.n, [d])[0]


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
        n = self.ring.n
        return sum(
            c * comb(n - 1 + d - j, n - 1)
            for j, c in enumerate(self.numerator)
            if j <= d
        )

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


def hilbert_series(ideal):
    """Hilbert series of S/I, self-checked against direct monomial counts."""
    rows = [g.exponents for g in ideal.generators]
    n = ideal.ring.n
    coeffs = _strip(_numerator(rows, n))
    degrees = list(range(len(coeffs) + 2))
    expected = _standard_counts(rows, n, degrees)
    series = HilbertSeries(ideal.ring, tuple(coeffs))
    for d, want in zip(degrees, expected):
        if series.coefficient(d) != want:
            raise RuntimeError(
                f"internal error: series disagrees with direct count at degree {d}"
            )
    return series


def _binom_poly(m, k):
    """The polynomial binomial coefficient C(m, k) at any integer m."""
    num = 1
    for i in range(k):
        num *= m - i
    return num // factorial(k)


@dataclass(frozen=True)
class HilbertPolynomial:
    """Hilbert polynomial in the shifted binomial basis.

    Stored as the numerator coefficients: p(d) is the sum of
    c_j * C(d - j + n - 1, n - 1) with the binomials read as polynomials in
    d.  Values agree with the Hilbert function from ``stability`` onward.
    """

    ring: object
    numerator: tuple[int, ...]
    stability: int

    def __call__(self, d):
        n = self.ring.n
        return sum(
            c * _binom_poly(d - j + n - 1, n - 1)
            for j, c in enumerate(self.numerator)
        )

    def coefficients(self):
        """Standard-basis coefficients, ascending, as exact rationals."""
        n = self.ring.n
        total = [Fraction(0)]
        for j, c in enumerate(self.numerator):
            if c == 0:
                continue
            # expand C(d + n - 1 - j, n - 1) as a polynomial in d
            poly = [Fraction(1)]
            for i in range(n - 1):
                shift = n - 1 - j - i
                poly = _poly_add(
                    [v * shift for v in poly], [Fraction(0)] + list(poly)
                )
            poly = [v / factorial(n - 1) for v in poly]
            total = _poly_add(total, [v * c for v in poly])
        return tuple(_strip(total))

    @property
    def degree(self):
        return len(self.coefficients()) - 1

    def __str__(self):
        coeffs = self.coefficients()
        if not coeffs:
            return "0"
        return _format_poly(list(coeffs), var="d")


def hilbert_polynomial(ideal):
    """Hilbert polynomial plus its stability threshold, verified on samples."""
    series = hilbert_series(ideal)
    n = ideal.ring.n
    d0 = max(0, len(series.numerator) - 1 - n + 1)
    poly = HilbertPolynomial(ideal.ring, series.numerator, d0)
    rows = [g.exponents for g in ideal.generators]
    degrees = [d0, d0 + 1, d0 + 2]
    for d, want in zip(degrees, _standard_counts(rows, n, degrees)):
        if poly(d) != want:
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
    base = {tuple(r) for r in rows}
    lattice = set(base)
    frontier = base
    while frontier:
        new = set()
        for a in frontier:
            for g in base:
                joined = _lcm_row(a, g)
                if joined not in lattice:
                    new.add(joined)
        lattice |= new
        if len(lattice) > _LATTICE_CAP:
            raise ResourceCapError("lcm lattice exceeds cap")
        frontier = new
    return lattice


def graded_betti(ideal, field=None, max_generators=20):
    """Graded Betti table of S/I over Q (default) or a prime field.

    Works multidegree by multidegree over the lcm lattice of the minimal
    generators; outside that lattice every upper-Koszul complex is acyclic.
    """
    if field is None:
        field = QQ
    if ideal.is_unit:
        raise ValueError("unit ideal has a zero quotient")
    rows = [g.exponents for g in ideal.generators]
    if len(rows) > max_generators:
        raise ResourceCapError(
            f"{len(rows)} generators exceed the enumeration cap {max_generators}"
        )
    entries = {(0, 0): 1}
    n = ideal.ring.n
    # variable i is bit n-1-i, the vertex order _homology_dims reads
    bits = [1 << (n - 1 - i) for i in range(n)]
    for a in sorted(_lcm_lattice(rows)):
        facets = set()
        for r in rows:
            mask = 0
            for bit, x, y in zip(bits, r, a):
                if x > y:
                    break
                if x < y:
                    mask |= bit
            else:
                facets.add(mask)
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
    bound = min(len(ideal.generators), ideal.ring.n)
    return graded_betti(ideal, field).proj_dim() <= bound
