"""Hilbert series, Hilbert polynomials, and graded Betti tables.

The Hilbert numerator comes from Bigatti's pivot recursion
``N(I) = N(I + (p)) + z^deg(p) * N(I : p)``, with p = x_j^e for the
variable x_j in the most generators and the median e of its positive
exponents.  Before each pivot the generators are split into
variable-disjoint components, whose numerators multiply.  It bottoms out
on leaves with a closed form: a few generators (inclusion-exclusion over
their lcms), pairwise-coprime generators (a product of ``1 - z^deg``) and
generators in two variables (the staircase formula of their Hilbert-Burch
resolution); ``_numerator`` proves each.  Every series and count is
checked on the spot against an independent numerator: the colon recursion
of Bayer and Stillman, ``N(J + (m)) = N(J) - z^deg(m) * N(J : m)``, which
adds one generator at a time and shares no pivot logic with the above.
The two numerators must be equal; since h(d) = sum_{j<=d} c_j *
C(n-1+d-j, n-1) weighs c_d by one, their first differing coefficient is
the first degree where the two series differ.

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
from .symbolic import _covers, _support_masks
from .symbolic import codim as _codim

_LATTICE_CAP = 100_000
# rows one pivot recursion may read, summed over the components and pivot
# children it computes: C40's edge ideal reads 3,908, C100's 27,788, and
# the 496 generators of (x, y, z)^30 read 3,506
_PIVOT_CAP = 3_500_000
# rows one colon recursion may read, in its colons and their minimalization:
# the 1501-generator staircase reads 2,250,000 and (x1..x120) 8,783,390
# (colons 287,980, minimalization 8,495,410); (x1..x200) would read 67M
_COLON_CAP = 10_000_000
# rows up to which a numerator is summed over the subsets of its rows: 31
# lcms for five rows cost less than a pivot and its two children
_SUBSETS_AT = 5


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _dense(poly):
    """Coefficient list of the sparse polynomial ``{degree: coefficient}``."""
    poly = {d: c for d, c in poly.items() if c}
    out = [0] * (max(poly, default=-1) + 1)
    for d, c in poly.items():
        out[d] = c
    return out


def _times(p, q):
    """Product of two sparse polynomials, one pair of terms at a time."""
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            out[a + b] = out.get(a + b, 0) + c * d
    return {d: c for d, c in out.items() if c}


def _tuple_lcm(a, b):
    return tuple(map(max, a, b))


def _inclusion_exclusion(rows, lcm, degree):
    """Sum over the subsets S of the rows of (-1)^|S| * z^deg(lcm(S))."""
    lcms = []
    for r in rows:
        lcms += [(lcm(a, r), -s) for a, s in lcms]
        lcms.append((r, -1))
    poly = {0: 1}
    for a, s in lcms:
        d = degree(a)
        poly[d] = poly.get(d, 0) + s
    return poly


def _staircase(pairs):
    """Numerator of the ideal of the x_u^a * x_v^b over (a, b) in ``pairs``,
    a ascending and b descending: 1 - sum z^(a_i + b_i) + sum z^(a_i + b_(i-1))."""
    poly, last = {0: 1}, None
    for a, b in pairs:
        poly[a + b] = poly.get(a + b, 0) - 1
        if last is not None:
            poly[a + last] = poly.get(a + last, 0) + 1
        last = b
    return poly


def _numerator(rows, n):
    """Hilbert numerator of S/I (over (1-z)^n) by Bigatti's pivot recursion,
    split into variable-disjoint components.

    Leaves, tried on the exponent tuples before anything is packed, and
    then on every packed component (most inputs of a few rows end at a
    tuple leaf, before any layout is made or any row minimalized):

    - No rows give 1, and a unit row gives 0.
    - At most ``_SUBSETS_AT`` rows give sum_S (-1)^|S| z^deg(lcm(S)) over
      the subsets S of the rows, by inclusion-exclusion: a monomial lies in
      I when some row divides it, and is a multiple of every row in S
      exactly when lcm(S) divides it.  One row gives 1 - z^deg.
    - Pairwise-coprime rows give the product of their 1 - z^deg; among
      packed keys they are components of one row each (below).
    - Minimal rows on two variables u before v, by ascending exponent a_i
      of u, hence descending exponent b_i of v, give
      1 - sum_i z^(a_i + b_i) + sum_(i>1) z^(a_i + b_(i-1)); the second
      sum runs over the lcms of neighbours.  Proof: adding g_i to
      J = (g_1..g_(i-1)) gives N(J + g_i) = N(J) - z^deg(g_i) N(J : g_i),
      and J : g_i is generated by the x_v^(b_k - b_i), k < i, so by
      x_v^(b_(i-1) - b_i) alone.  This is the Hilbert-Burch resolution of
      a monomial ideal in two variables (Miller and Sturmfels,
      "Combinatorial Commutative Algebra", ch. 3).

    Split: rows in variable-disjoint components I_1, .., I_c make S/I the
    tensor product of the quotients by the I_k, over the field, so the
    Hilbert series multiply, and so do the numerators (Bayer and Stillman,
    J. Symbolic Comput. 14, 1992).

    Pivot: one component that is no leaf is split by the exact sequence
    0 -> S/(I : p)(-e) -> S/I -> S/(I + p) -> 0 as
    N(I) = N(I + p) + z^e * N(I : p) with p = x_j^e.  Bigatti's choice
    (J. Pure Appl. Algebra 119, 1997): x_j is the variable in the most
    rows, the first on ties, and e the median of its positive exponents,
    the upper one of an even count.  If a pure power x_j^a with a <= e is a
    row, p lies in I; a is then x_j's largest exponent, as the rows are
    minimal, and e falls back to the least positive exponent, which is
    below a, as x_j is in another row too.  I + p keeps the rows with x_j-exponent below
    e, and p: p divides none of them, and none divides p, as that one
    would be a pure power x_j^a with a < e, which the fallback rules out.
    So that branch is minimal without a minimalization.  I : p is one
    saturating subtraction of p per row, then ``monomials._minimal_rows``
    on the keys with their degrees above the fields, which ``& low``
    strips again; the root is minimalized the same way.

    Rows are lex ``PackedLayout`` keys, the first variable highest, with
    fields wide enough for the degree of an lcm of ``_SUBSETS_AT`` rows,
    so that ``layout.total`` holds it.  Polynomials are sparse,
    ``{degree: coefficient}``, so sums and products cost per nonzero term,
    not per degree; only the answer is a coefficient list.  Results are
    memoized by the set of keys.  The recursion runs on an explicit stack,
    so its depth costs no Python stack.  Each component or pivot child
    computed reads its rows, a memo hit reads none, and reading more than
    ``_PIVOT_CAP`` rows in all raises ``ResourceCapError``.
    """
    if not rows:
        return [1]
    if len(rows) > _PIVOT_CAP:
        raise ResourceCapError(f"Hilbert pivot recursion read over {_PIVOT_CAP} rows")
    if len(rows) <= _SUBSETS_AT:
        return _dense(_inclusion_exclusion(rows, _tuple_lcm, sum))
    degrees = list(map(sum, rows))
    if not all(degrees):
        return []
    counts = [len(rows) - column.count(0) for column in zip(*rows)]
    if max(counts) == 1:
        poly = {0: 1}
        for d in degrees:
            poly = _times(poly, {0: 1, d: -1})
        return _dense(poly)
    support = [j for j, c in enumerate(counts) if c]
    if len(support) == 2:
        u, v = support
        pairs = [(r[u], r[v]) for r in sorted(rows)]
        if all(a < c and b > d for (a, b), (c, d) in zip(pairs, pairs[1:])):
            return _dense(_staircase(pairs))
    layout = PackedLayout.fitting("lex", tuple(range(n)), _SUBSETS_AT * max(degrees))
    guard, ones, width, cap = layout.guard, layout.ones, layout.width, layout.cap
    lcm, total, top, low = layout.lcm, layout.total, layout.top, layout.low
    root = frozenset([k & low for k in _minimal_rows(layout.lex_keys(rows), layout)])
    # an entry's plan is None until its rows are read, then (e, (plus,
    # colon)) for a pivot, or (leaf factors, components) for a product
    memo, read, stack = {}, 0, [(root, None)]
    while stack:
        keys, plan = stack[-1]
        if plan is None:
            if keys in memo:
                stack.pop()
                continue
            read += len(keys)
            if read > _PIVOT_CAP:
                raise ResourceCapError(
                    f"Hilbert pivot recursion read over {_PIVOT_CAP} rows")
            # guard i of a support is set when x_i divides the key
            supports = [((k | guard) - ones) & guard for k in keys]
            parts = []  # variable-disjoint components, as (support, keys)
            for k, s in zip(keys, supports):
                members, rest = [k], []
                for part in parts:
                    if part[0] & s:
                        s |= part[0]
                        members += part[1]
                    else:
                        rest.append(part)
                rest.append((s, members))
                parts = rest
            if len(parts) > 1 or len(keys) <= _SUBSETS_AT or parts[0][0].bit_count() == 2:
                factors, children = [], []
                for s, members in parts:
                    if len(members) <= _SUBSETS_AT:
                        factors.append(_inclusion_exclusion(members, lcm, total))
                    elif s.bit_count() == 2:
                        u = s.bit_length() - width
                        v = (s & -s).bit_length() - width
                        factors.append(_staircase(
                            [(k >> u & cap, k >> v & cap) for k in sorted(members)]))
                    else:
                        children.append(frozenset(members))
                plan = (factors, children)
            else:
                count = {}
                for s in supports:
                    while s:
                        b = s & -s
                        count[b] = count.get(b, 0) + 1
                        s ^= b
                _, bit = max([(c, b) for b, c in count.items()])
                at = bit.bit_length() - width  # the lowest bit of x_j's field
                fields = [k >> at & cap for k in keys]
                positive = sorted([f for f in fields if f])
                e = positive[len(positive) // 2]
                if e == positive[-1] and e << at in keys:
                    e = positive[0]
                pivot = e << at
                plus = frozenset([k for k, f in zip(keys, fields) if f < e] + [pivot])
                colon = [k - pivot if f >= e else k - (f << at) for k, f in zip(keys, fields)]
                colon = frozenset([k & low for k in _minimal_rows(
                    [c | total(c) << top for c in colon], layout)])
                plan = (e, (plus, colon))
            pending = [c for c in plan[1] if c not in memo]
            if pending:
                stack[-1] = (keys, plan)
                stack += [(c, None) for c in pending]
                continue
        head, children = plan
        if type(head) is int:
            poly = dict(memo[children[0]])
            for d, c in memo[children[1]].items():
                poly[d + head] = poly.get(d + head, 0) + c
        else:
            poly = {0: 1}
            for factor in head:
                poly = _times(poly, factor)
            for c in children:
                poly = _times(poly, memo[c])
        memo[keys] = {d: c for d, c in poly.items() if c}
        stack.pop()
    return _dense(memo[root])


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
    square-free ideals the result is cross-checked against the minimal
    primes of least height t, the codimension: the vertex covers of the
    generator supports with t vertices, each of which is minimal, as no
    cover has fewer.  The pole order must be t and e must count them.
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
        least = _codim(ideal)
        count = sum(1 for _ in _covers(_support_masks(ideal.rows), least))
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
