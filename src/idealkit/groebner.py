"""Exact Groebner engine over Q and GF(p), plus the experiments built on it.

Buchberger with the normal pair-selection strategy (least lcm degree, ties
by index) over a heap of pairs, the Gebauer-Moeller pair criteria (chain,
B-criterion and coprime leading terms), and full interreduction, so the
returned basis is the reduced Groebner basis and normal forms are canonical.
Every element, input or S-polynomial remainder, enters as a normal form
against those before it, so the elements the pair criteria keep active are
the minimal basis; interreduction reduces their tails against every element
the loop kept, a Groebner basis, so each tail's normal form is unique.
Every construction re-checks the result unless the caller opts out: the
S-polynomials of a pair subset that Buchberger's coprime and chain criteria
prove sufficient, and all input generators, must reduce to zero against it,
so it is a Groebner basis and generates the input ideal.  The check packs
the returned Polynomials afresh, independent of the engine's state.

Inside the engine (reduction, S-polynomials, the pair criteria,
interreduction, the certificate, normal forms and the products of the
Frobenius containment check) a monomial is one int whose integer order is
the term order: the ``monomials.PackedLayout`` of the order, after Bachmann
and Schoenemann, "Monomial representations for Groebner bases computations"
(ISSAC 1998).
Lex puts the exponents in permutation order; grevlex puts the degree on
top, then cap - x_i with the last variable most significant.  Each field
has a guard bit, so a shifted term is ``t - lm + m``, the heap key is the
negated int, divisibility is one subtraction and mask, and the first
reducer whose lead divides a term is one ``monomials._Blocks`` test.
A packed polynomial holds only its field, terms and denominator; the ring,
order and layout of a computation are held once, by its ``_Reducers``.
``Polynomial.terms`` stays the public exponent-tuple view.

Field widths are derived, never set: the cap starts at twice the larger of
``max_degree`` and the input degree, and every element must stay within half
the cap, which holds every exponent of an S-polynomial.  A lex normal form
can break that rule, so it is checked where elements enter; lex reduction
can also raise an exponent past the cap, setting its guard bit so nothing
wraps.  Either way the entry point reruns on a layout of twice the width.
The Frobenius check multiplies on packed keys (``_times``: a key sum less
the layout's offset), so its cap must reach t*p^e times the largest
generator degree, which bounds every exponent of every product it forms.
GF(p) coefficients are plain ints, reduced mod p when a term is popped.
QQ coefficients are ints too: a polynomial is packed as an integer
polynomial over one denominator, elements enter the basis as primitive
integer polynomials, and reduction is integer pseudo-division (the
content-free strategy of Becker-Weispfenning, "Groebner Bases", ch. 5).
Scaling by a nonzero constant changes neither which terms vanish nor which
reducer a term meets, so every step matches the one over Fractions; the
reduced basis unpacks to monic Fraction polynomials.

On top of the engine:

* radical membership by the auxiliary-variable trick: f lies in the radical
  of (g_1..g_m) iff 1 lies in (g_1..g_m, 1 - y*f) with y a fresh variable,
* least-power membership indices, Jacobian ideals and the index of f in its
  Jacobian ideal,
* the chained family of degree-d forms whose radical-power index is exactly
  d^(n-1), the sharpness witness for the product-of-degrees Nullstellensatz
  bound, plus the bound itself,
* Frobenius powers over GF(p) and the pigeonhole containment
  I^(t*p^e) inside the e-th Frobenius power of a t-generated I, every
  product of generator powers formed and fully reduced on packed keys.

Worst-case Buchberger behavior is doubly exponential, so basis size and
degree are capped and overflow raises ResourceCapError rather than hanging.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, repeat
from math import comb, gcd, lcm, prod
from operator import add, mul, neg

from .errors import ParseError, ResourceCapError, RingMismatchError
from .fields import QQ
from .monomials import PackedLayout, Ring, _Blocks, _compositions, _int_text, _tokens
from .monomials import _monomial_text

DEFAULT_BASIS_CAP = 5000
DEFAULT_DEGREE_CAP = 60


@dataclass(frozen=True)
class MonomialOrder:
    """Term order: lex or grevlex, over a priority permutation of variables.

    ``permutation`` lists variable indices from most to least significant.
    ``key`` maps an exponent tuple to a sort key; larger key = larger
    monomial, so term lists sort with ``reverse=True``.
    """

    kind: str
    permutation: tuple[int, ...]

    @classmethod
    def lex(cls, ring, permutation=None):
        return cls("lex", _check_permutation(ring, permutation))

    @classmethod
    def grevlex(cls, ring, permutation=None):
        return cls("grevlex", _check_permutation(ring, permutation))

    def key(self, exps):
        permuted = tuple(map(exps.__getitem__, self.permutation))
        if self.kind == "lex":
            return permuted
        # grevlex: total degree, then smallest trailing exponent wins
        return (sum(exps), tuple(map(neg, reversed(permuted))))

    def __str__(self):
        return self.kind


def _check_permutation(ring, permutation):
    if permutation is None:
        return tuple(range(ring.n))
    perm = tuple(permutation)
    if sorted(perm) != list(range(ring.n)):
        raise ValueError(f"{perm} is not a permutation of 0..{ring.n - 1}")
    return perm


def _sorted_terms(acc, order):
    """The nonzero terms of ``{exponents: coefficient}``, largest first.

    Coefficients are Fractions or ints, so zero is the falsy one.  Terms
    sort by their packed keys, whose integer order is the term order.
    """
    terms = [(e, c) for e, c in acc.items() if c]
    if len(terms) > 1:
        pack = _layout(order, max(map(sum, acc))).pack
        terms.sort(key=lambda t: pack(t[0]), reverse=True)
    return tuple(terms)


class Polynomial:
    """Sparse polynomial: terms (exponents, coefficient) sorted descending.

    Coefficients are whatever the field object works with (Fraction over Q,
    ints in [0, p) over GF(p)); zero coefficients never survive
    construction, and the zero polynomial has no terms.
    """

    __slots__ = ("ring", "field", "order", "terms")

    def __init__(self, ring, field, order, terms):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != ring.n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {ring}")
            c = field.coerce(coeff)
            if exps in acc:
                acc[exps] = field.add(acc[exps], c)
            else:
                acc[exps] = c
        self.ring = ring
        self.field = field
        self.order = order
        self.terms = _sorted_terms(acc, order)

    @classmethod
    def _trusted(cls, ring, field, order, terms):
        """Wrap a tuple of nonzero field-element terms already sorted descending.

        Internal results (products, S-polynomials, remainders, scalings)
        come out in that shape, so they skip the coercing, validating and
        re-sorting of ``__init__``.
        """
        poly = object.__new__(cls)
        poly.ring = ring
        poly.field = field
        poly.order = order
        poly.terms = terms
        return poly

    @classmethod
    def _from_dict(cls, ring, field, order, acc):
        """Polynomial of field-element terms ``{exponents: coefficient}``."""
        return cls._trusted(ring, field, order, _sorted_terms(acc, order))

    @classmethod
    def zero(cls, ring, field, order):
        return cls(ring, field, order, {})

    @classmethod
    def constant(cls, ring, field, order, value):
        return cls(ring, field, order, {(0,) * ring.n: value})

    @classmethod
    def variable(cls, ring, field, order, index):
        exps = tuple(1 if i == index else 0 for i in range(ring.n))
        return cls(ring, field, order, {exps: field.one})

    @classmethod
    def monomial(cls, ring, field, order, exps, coeff=1):
        return cls(ring, field, order, {tuple(exps): coeff})

    @property
    def is_zero(self):
        return not self.terms

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self):
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(e) for e, _ in self.terms), default=-1)

    def constant_term(self):
        origin = (0,) * self.ring.n
        for exps, coeff in self.terms:
            if exps == origin:
                return coeff
        return self.field.zero

    def _check_mate(self, other):
        # tuple equality skips __eq__ on identical members, the usual case
        mine = (self.ring, self.field, self.order)
        if mine != (other.ring, other.field, other.order):
            raise RingMismatchError(
                "polynomials live in different rings, fields, or orders"
            )

    def __add__(self, other):
        self._check_mate(other)
        field = self.field
        acc = dict(self.terms)
        for exps, coeff in other.terms:
            acc[exps] = field.add(acc[exps], coeff) if exps in acc else coeff
        return Polynomial._from_dict(self.ring, field, self.order, acc)

    def __neg__(self):
        neg = self.field.neg
        return Polynomial._trusted(
            self.ring,
            self.field,
            self.order,
            tuple((e, neg(c)) for e, c in self.terms),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_mate(other)
        field = self.field
        if len(self.terms) == 1 or len(other.terms) == 1:
            # a monomial factor keeps the term order: no dict, no re-sort
            if len(self.terms) == 1:
                (mono, coeff), many = self.terms[0], other.terms
            else:
                (mono, coeff), many = other.terms[0], self.terms
            mul = field.mul
            terms = tuple((tuple(map(add, e, mono)), mul(c, coeff)) for e, c in many)
            return Polynomial._trusted(self.ring, field, self.order, terms)
        acc = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                key = tuple(map(add, ea, eb))
                c = field.mul(ca, cb)
                if key in acc:
                    acc[key] = field.add(acc[key], c)
                else:
                    acc[key] = c
        return Polynomial._from_dict(self.ring, field, self.order, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        field = self.field
        c = field.coerce(value)
        if not c:
            return Polynomial.zero(self.ring, field, self.order)
        # a nonzero multiple keeps every term nonzero and the order intact
        mul = field.mul
        return Polynomial._trusted(
            self.ring,
            field,
            self.order,
            tuple((e, mul(c, v)) for e, v in self.terms),
        )

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.ring, self.field, self.order, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def monic(self):
        if not self.terms:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.terms[0][1]
        if lc == self.field.one:
            return self
        inv = self.field.inv(lc)
        return self.scale(inv)

    def partial(self, index):
        """Formal partial derivative; over GF(p) exponent factors reduce mod p."""
        field = self.field
        acc = {}
        for exps, coeff in self.terms:
            e = exps[index]
            if e == 0:
                continue
            key = tuple(v - 1 if i == index else v for i, v in enumerate(exps))
            c = field.mul(coeff, field.coerce(e))
            if key in acc:
                acc[key] = field.add(acc[key], c)
            else:
                acc[key] = c
        return Polynomial._from_dict(self.ring, field, self.order, acc)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.field == other.field
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms)))

    def __str__(self):
        if not self.terms:
            return "0"
        rational = self.field.characteristic == 0
        pieces = []
        for exps, coeff in self.terms:
            negative = rational and coeff < 0
            mag = -coeff if negative else coeff
            mono = _monomial_text(self.ring.variables, exps)
            if not mono:
                body = str(mag)
            elif mag == self.field.one:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"<{self} over {self.field.label}>"


def parse_polynomial(ring, text, field=QQ, order=None, offset=0):
    """Parse ``±c*mono ± …`` with integer or a/b coefficients.

    Factors are separated by ``*``; names must be ring variables; exponents
    use ``^``. Column positions are reported on error, shifted by ``offset``
    when the text is a slice of a larger input.
    """
    if order is None:
        order = MonomialOrder.grevlex(ring)
    tokens = _tokens(text, offset)
    # every digit run is read and every character checked before the grammar
    for i, (kind, value, col) in enumerate(tokens):
        if kind == "int":
            tokens[i] = (kind, int(_int_text(value, "number", col)), col)
        elif kind == "other" and value not in "+-*/^":
            raise ParseError(f"unexpected character {value!r}", column=col)
    pos = 0
    terms = []
    sign = 1
    kind, value, col = tokens[pos]
    if kind == "other" and value in "+-":
        sign = -1 if value == "-" else 1
        pos += 1
    if tokens[pos][0] == "end":
        raise ParseError("empty polynomial", column=tokens[pos][2])
    while True:
        coeff, exps, pos = _parse_term(ring, tokens, pos)
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
        if kind != "other" or value not in "+-":
            raise ParseError(f"expected + or - before {value!r}", column=col)
        sign = -1 if value == "-" else 1
        pos += 1
        col = tokens[pos][2]
    return Polynomial(ring, field, order, terms)


def _parse_term(ring, tokens, pos):
    coeff = Fraction(1)
    exps = [0] * ring.n
    while True:
        kind, value, col = tokens[pos]
        if kind == "int":
            coeff *= value
            pos += 1
            if tokens[pos][:2] == ("other", "/"):
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
            if tokens[pos][:2] == ("other", "^"):
                ekind, evalue, ecol = tokens[pos + 1]
                if ekind != "int":
                    raise ParseError("expected nonnegative exponent", column=ecol)
                e = evalue
                pos += 2
            exps[ring.index(value)] += e
        else:
            raise ParseError("expected a coefficient or variable", column=col)
        if tokens[pos][:2] == ("other", "*"):
            pos += 1
            continue
        return coeff, exps, pos


class _FieldOverflow(Exception):
    """A new term's exponent left its packed field; nothing was stored."""


def _widening(run, layout):
    """``run(layout)``, rerun on the layout of twice the field width for as
    long as a term overflows a field.  Every packed entry point (buchberger,
    the certificate, normal forms) goes through here, so no answer is ever
    computed on a wrapped key."""
    while True:
        try:
            return run(layout)
        except _FieldOverflow:
            layout = layout.wider()


def _layout(order, bound):
    """The shared packed layout of ``order`` whose fields hold ``bound``."""
    return PackedLayout.fitting(order.kind, order.permutation, bound)


class _Packed:
    """A polynomial inside the engine: (key, coefficient) terms, keys descending.

    It holds only field, terms and denominator; the computation's
    ``_Reducers`` hold its ring, order and the layout its keys are on.  The
    engine packs with ``_pack`` and hands back ``unpack(reducers)``.
    Coefficients are ints and never zero.  Over GF(p) they stand for their
    residues and ``denominator`` is 1.  Over QQ the polynomial is the terms
    divided by ``denominator``: the engine computes on integer polynomials
    (Becker-Weispfenning, "Groebner Bases", ch. 5), and the only Fractions
    are those ``_pack`` reads and ``unpack`` builds.
    """

    __slots__ = ("field", "terms", "denominator")

    def __init__(self, field, terms, denominator=1):
        self.field, self.terms, self.denominator = field, terms, denominator

    @property
    def is_zero(self):
        return not self.terms

    def _with(self, terms, denominator=1):
        return _Packed(self.field, terms, denominator)

    def primitive(self):
        """The monic multiple, as the element a basis keeps: over GF(p) the
        terms are monic; over QQ they are the integer polynomial with
        coprime coefficients and a positive lead, over that lead as the
        denominator, so it unpacks monic."""
        lc = self.terms[0][1]
        if self.field.characteristic:
            if lc == 1:
                return self
            field = self.field
            inv, mul = field.inv(lc), field.mul
            return self._with(tuple((k, mul(c, inv)) for k, c in self.terms))
        content = gcd(*[c for _, c in self.terms])
        if lc < 0:
            content = -content
        if content == 1:
            return self if self.denominator == lc else self._with(self.terms, lc)
        return self._with(tuple([(k, c // content) for k, c in self.terms]), lc // content)

    def unpack(self, reducers, shared=None):
        """The Polynomial in the ring and order of ``reducers``, on whose
        layout it is packed; ``shared`` maps keys to exponent tuples that
        polynomials unpacked together share."""
        unpack = reducers.layout.unpack
        if shared is None:
            shared = {}
        terms = tuple(
            (shared[k] if k in shared else shared.setdefault(k, unpack(k)), c)
            for k, c in self.terms
        )
        if not self.field.characteristic:
            den = self.denominator
            terms = tuple([(e, Fraction(c, den)) for e, c in terms])
        return Polynomial._trusted(reducers.ring, self.field, reducers.order, terms)


def _pack(f, layout):
    """f on ``layout``, whose order must be f's and whose cap must reach
    f's total degree.  Over QQ the terms are f times the lcm of its
    coefficients' denominators, which is kept as the denominator; a monic
    f so packs to a primitive integer polynomial."""
    pack = layout.pack
    if f.field.characteristic:
        return _Packed(f.field, tuple([(pack(e), c) for e, c in f.terms]))
    den = lcm(*[c.denominator for _, c in f.terms])
    if den == 1:
        terms = tuple([(pack(e), c.numerator) for e, c in f.terms])
    else:
        terms = tuple([(pack(e), c.numerator * (den // c.denominator)) for e, c in f.terms])
    return _Packed(f.field, terms, den)


class _Reducers:
    """Packed polynomials to reduce by, in list order, kept in ``polys``,
    with the ring, order and layout of their computation, held once here
    for every ``_Packed`` that meets them.

    Their leading monomials' plain fields are kept in ``leads`` and, for
    the first-divisor search, in the ``_Blocks`` of the layout.

    ``heads`` keeps, per polynomial, what reduction by it needs: the leading
    key, the scale of its coefficient (1/lc over GF(p), the integer lc
    itself over QQ, where ``_reduce_full`` pseudo-divides; None when lc is
    1) and the tail with negated int coefficients.
    """

    __slots__ = ("ring", "order", "layout", "polys", "heads", "leads", "blocks")

    def __init__(self, ring, order, layout, polys=()):
        self.ring, self.order = ring, order
        self.layout, self.blocks = layout, _Blocks(layout)
        self.polys, self.heads, self.leads = [], [], []
        for g in polys:
            self.add(g)

    def add(self, g):
        layout = self.layout
        lm, lc = g.terms[0]
        lead = (lm ^ layout.flip) & layout.low
        self.blocks.extend([lead])
        scale = None if lc == 1 else g.field.inv(lc) if g.field.characteristic else lc
        # a negative int stands for its residue mod p until the term is popped
        self.heads.append((lm, scale, tuple([(m, -c) for m, c in g.terms[1:]])))
        self.leads.append(lead)
        self.polys.append(g)


def _reduce_full(f, reducers):
    """Full normal form of f against ``_Reducers``, on their layout.

    Deterministic: always reduces the largest remaining term by the first
    listed reducer whose leading monomial divides it.  Terms wait in a heap
    of negated keys: a reduction step only adds terms below the one it
    removes, so a key is pushed at most once and a popped one never
    returns.  A term cancelled while waiting keeps a zero coefficient and
    is dropped when popped; GF(p) coefficients wait unreduced and are
    reduced mod p when popped.  Over QQ this is integer pseudo-division:
    when the reducer's lead a does not divide the popped coefficient c, the
    waiting terms and the remainder are multiplied by a / gcd(a, c) and the
    remainder's denominator with them, so the result is the normal form
    over QQ exactly.  A new term whose exponent overflows its field raises
    _FieldOverflow before it is stored.

    A one-term f, such as every product of the Frobenius check, is settled
    before the dict and heap are built when the loop would take one pass:
    a term no lead divides is the remainder, its coefficient reduced mod p,
    and a term divided by a monic reducer without a tail leaves zero over
    f's denominator.  Neither forms a new term, so neither can overflow;
    any other one-term f takes the loop.
    """
    layout = reducers.layout
    flip, guard, low = layout.flip, layout.guard, layout.low
    heads, first = reducers.heads, reducers.blocks.first
    p = f.field.characteristic
    denominator = f.denominator
    if len(f.terms) == 1:
        (t, c), = f.terms
        j = first((t ^ flip) & low)
        if j < 0:
            c = c % p if p else c
            return f._with(((t, c),) if c else (), denominator)
        if heads[j][1:] == (None, ()):
            return f._with((), denominator)
    work = dict(f.terms)
    get = work.get
    heap = [-k for k in work]
    heapify(heap)
    remainder = []
    while heap:
        t = -heappop(heap)
        c = work.pop(t) % p if p else work.pop(t)
        if not c:
            continue
        j = first((t ^ flip) & low)
        if j < 0:
            remainder.append((t, c))
            continue
        lm, scale, tail = heads[j]
        shift = t - lm
        if scale is not None:
            if p:
                c = c * scale % p
            elif c % scale:
                common = gcd(scale, c)
                s = scale // common
                for k in work:
                    work[k] *= s
                remainder = [(k, v * s) for k, v in remainder]
                denominator *= s
                c //= common
            else:
                c //= scale
        for m, mc in tail:
            k = shift + m
            old = get(k)
            if old is None:
                if k & guard:
                    raise _FieldOverflow
                work[k] = c * mc
                heappush(heap, -k)
            else:
                work[k] = old + c * mc
    return f._with(tuple(remainder), denominator)


def _s_polynomial(f, g, layout):
    """S-polynomial of f and g on ``layout``, up to a nonzero constant factor.

    With leads a*x^u and b*x^v, h = gcd(a, b) and x^w = lcm(x^u, x^v), it
    is (b/h)*x^(w-u)*f - (a/h)*x^(w-v)*g: an integer polynomial over QQ,
    and over GF(p), where basis elements are monic, x^(w-u)*f - x^(w-v)*g.
    Callers keep every polynomial they pair within half the layout's cap,
    which holds every exponent of an S-polynomial, so no check here.
    """
    flip, low = layout.flip, layout.low
    (lmf, a), (lmg, b) = f.terms[0], g.terms[0]
    w = layout.key(layout.lcm((lmf ^ flip) & low, (lmg ^ flip) & low))
    sf, sg = w - lmf, w - lmg
    ftail, gtail = f.terms[1:], g.terms[1:]
    if a != b:
        h = gcd(a, b)
        ftail = [(k, c * (b // h)) for k, c in ftail]
        gtail = [(k, c * (a // h)) for k, c in gtail]
    acc = {sf + k: c for k, c in ftail}
    get = acc.get
    for k, c in gtail:
        k += sg
        old = get(k)
        acc[k] = -c if old is None else old - c
    p = f.field.characteristic
    terms = [(k, acc[k] % p if p else acc[k]) for k in sorted(acc, reverse=True)]
    return f._with(tuple([t for t in terms if t[1]]))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis; normal forms against it are canonical.

    The basis is packed by its first normal form (``normal_form``,
    ``contains``, the Frobenius check) and kept as ``_packing``, one
    ``_Reducers`` that a normal form also unpacks by, so repeated membership
    tests pack it once; only a polynomial of higher degree than the kept
    layout holds, or a lex overflow, repacks it wider.
    Construction and its certificate keep nothing here, so a basis that
    never reduces anything holds only its Polynomials.
    """

    ring: object
    field: object
    order: MonomialOrder
    polys: tuple
    certified: bool

    def __post_init__(self):
        object.__setattr__(self, "_packing", None)

    def _check(self, f):
        if (f.ring, f.field, f.order) != (self.ring, self.field, self.order):
            raise RingMismatchError("polynomial does not match the basis ring/order")

    def _layout(self, bound):
        """The kept layout if its cap reaches ``bound``, else one that holds
        ``bound`` and the basis."""
        packing = self._packing
        if packing is not None and packing.layout.cap >= bound:
            return packing.layout
        degree = max((p.total_degree() for p in self.polys), default=0)
        return _layout(self.order, max(bound, degree))

    def _reducers(self, layout):
        """The basis as reducers on ``layout``, kept for the next call."""
        packing = self._packing
        if packing is None or packing.layout is not layout:
            packing = _Reducers(self.ring, self.order, layout,
                                [_pack(p, layout) for p in self.polys])
            object.__setattr__(self, "_packing", packing)
        return packing

    def _reduce(self, f):
        self._check(f)
        return _widening(
            lambda layout: _reduce_full(_pack(f, layout), self._reducers(layout)),
            self._layout(f.total_degree()),
        )

    def normal_form(self, f):
        return self._reduce(f).unpack(self._packing)

    def contains(self, f):
        return self._reduce(f).is_zero

    def is_unit_ideal(self):
        # a reduced basis of the unit ideal is exactly {1}
        return len(self.polys) == 1 and self.polys[0].total_degree() == 0

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __str__(self):
        if not self.polys:
            return "{}"
        return "{" + ", ".join(str(p) for p in self.polys) + "}"


def buchberger(
    gens,
    order=None,
    *,
    max_basis=DEFAULT_BASIS_CAP,
    max_degree=DEFAULT_DEGREE_CAP,
    certify=True,
):
    """Reduced Groebner basis of (gens) by Buchberger's algorithm.

    Pair selection is the normal strategy: least degree of the leading-term
    lcm, ties broken by pair index, so output is deterministic for a fixed
    input order.  Each pair enters a heap once under that fixed key.  The
    Gebauer-Moeller update (J. Symbolic Comput. 6, 1988) drops pairs before
    they are reduced: the chain criterion on the pairs each new polynomial
    brings, the B-criterion on the queued ones, and every pair with coprime
    leading terms.  Every polynomial stays a reducer, in insertion order.
    The basis is certified on construction unless ``certify`` is false:
    the S-polynomials of the pairs ``_certificate_pairs`` keeps and every
    generator reduce to zero against it.  The pairs left out have
    lcm-representations by the coprime and chain criteria, so it is a
    Groebner basis of the input ideal.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one polynomial (it may be zero)")
    ring, field = gens[0].ring, gens[0].field
    for g in gens:
        if g.ring != ring or g.field != field:
            raise RingMismatchError("generators live in different rings or fields")
    if order is None:
        order = gens[0].order
    inputs = [_in_order(g, order) for g in gens if not g.is_zero]
    # every S-polynomial exponent fits while elements stay within half the
    # cap; a lex normal form of an input that does not widens the layout
    bound = 2 * max([max_degree] + [g.total_degree() for g in inputs])
    reduced = _widening(
        lambda layout: _buchberger_on(inputs, layout, max_basis, max_degree, ring, order),
        _layout(order, bound),
    )
    gb = GroebnerBasis(ring, field, order, tuple(reduced), certified=bool(certify))
    if certify:
        _certify(gb, inputs)
    return gb


def _buchberger_on(inputs, layout, max_basis, max_degree, ring, order):
    """The reduced basis of ``inputs`` on ``layout``, in ``ring`` and
    ``order``.  Inputs and S-polynomial remainders ``enter`` as primitive
    nonzero normal forms (``_Packed.primitive``: monic over GF(p)), so no
    leading monomial is divisible by an earlier one and ``active`` is the
    minimal basis; the width rule is checked there, the caps on remainders.
    """
    reducers = _Reducers(ring, order, layout)
    basis = reducers.polys
    queue = []  # heap of (lcm degree, i, j)
    queued = {}  # live pairs (i, j) -> lcm of their leading monomials
    active = []  # ascending indices whose leading monomial no later one divides

    def enter(f, capped):
        f = _reduce_full(f, reducers)
        if f.is_zero:
            return
        # a graded order: no term has a larger degree than the lead
        keys = f.terms[:1] if layout.kind == "grevlex" else f.terms
        degree = max(layout.degree(k) for k, _ in keys)
        if capped and degree > max_degree:
            raise ResourceCapError(
                f"basis element of degree {degree} exceeds cap {max_degree}"
            )
        if degree > layout.cap // 2:
            raise _FieldOverflow
        reducers.add(f.primitive())
        if capped and len(basis) > max_basis:
            raise ResourceCapError(f"basis grew past {max_basis} polynomials")
        _gebauer_moeller(layout, reducers.leads, len(basis) - 1, active, queued, queue)

    for g in inputs:
        enter(_pack(g, layout), False)
    while queue:
        _, i, j = heappop(queue)
        if queued.pop((i, j), None) is None:
            continue  # dropped by the B-criterion after it was queued
        enter(_s_polynomial(basis[i], basis[j], layout), True)
    return _interreduce(reducers, active)


def _in_order(f, order):
    if f.order == order:
        return f
    return Polynomial._from_dict(f.ring, f.field, order, dict(f.terms))


def _gebauer_moeller(layout, leads, new, active, queued, queue):
    """Queue the useful pairs of polynomial ``new``; drop the useless ones.

    Gebauer-Moeller update (Becker-Weispfenning, "Groebner Bases", p. 230).
    A new pair (i, new) is dropped when the lcm of another new pair divides
    its lcm (chain criterion, one survivor among equal lcms), or when its
    leading monomials are coprime.  A queued pair (i, j) is dropped when
    the new leading monomial divides its lcm but neither (i, new) nor
    (j, new) has that same lcm.  Indices whose leading monomial the new one
    divides stop taking new pairs.

    Leading monomials and lcms are plain exponent fields of ``layout``
    (``(key ^ flip) & low``): a divides b when ``((b | G) - a) & G == G``.
    """
    guard, ones, lcm = layout.guard, layout.ones, layout.lcm
    h = leads[new]
    support = ((h | guard) - ones) & guard  # guards of h's nonzero fields

    def coprime(a):
        return not ((a | guard) - ones) & support

    lcms = {i: lcm(leads[i], h) for i in active}
    kept = []
    rest = list(active)
    while rest:
        i = rest.pop()
        m = lcms[i] | guard
        if coprime(leads[i]) or not (
            any((m - lcms[k]) & guard == guard for k in rest)
            or any((m - lcms[k]) & guard == guard for k in kept)
        ):
            kept.append(i)
    for (i, j), m in list(queued.items()):
        if ((m | guard) - h) & guard == guard:
            mi = lcms[i] if i in lcms else lcm(leads[i], h)
            mj = lcms[j] if j in lcms else lcm(leads[j], h)
            if mi != m and mj != m:
                del queued[(i, j)]
    for i in kept:
        if not coprime(leads[i]):
            m = lcms[i]
            queued[(i, new)] = m
            heappush(queue, (layout.total(m), i, new))
    active[:] = [i for i in active if ((leads[i] | guard) - h) & guard != guard]
    active.append(new)


def _interreduce(reducers, active):
    """The reduced basis, as Polynomials in ascending lead order, from the
    finished Buchberger loop's ``reducers`` and the indices ``active`` of
    its minimal basis of ``_Packed.primitive`` elements.

    Every element the loop kept is in the ideal and together they form a
    Groebner basis of it, so the full normal form of a tail against them is
    unique, whichever reducer each step meets.  An element's own lead
    divides none of its tail terms, which are smaller, so lm + NF(tail) is
    the element of the ideal with that lead whose other terms are all
    standard: the reduced basis element, up to a constant.  A tail comes
    back over its own denominator, so the head coefficient is scaled by it.

    Runs inside buchberger's ``_widening``, which reruns the whole
    computation on a wider layout if a lex tail reduction overflows.
    """
    shared, reduced = {}, []
    for p in sorted([reducers.polys[i] for i in active], key=lambda p: p.terms[0][0]):
        # reduction only lowers terms, so the head stays in front
        (lm, lc), tail = p.terms[0], _reduce_full(p._with(p.terms[1:]), reducers)
        head = ((lm, lc * tail.denominator),)
        reduced.append(p._with(head + tail.terms).primitive().unpack(reducers, shared))
    return reduced


def _certificate_pairs(layout, leads):
    """The pairs (i, j), i < j, whose S-polynomials prove a basis with
    leading monomials ``leads``, plain fields of ``layout``, Groebner.

    A pair is left out when its leads are coprime, or when some third lead
    lm_k divides L = lcm(lm_i, lm_j) and lcm(lm_i, lm_k), lcm(lm_j, lm_k)
    both differ from L, so are proper divisors of it.  If every kept pair
    reduces to zero, every pair has an lcm-representation, by induction on L
    under divisibility: a coprime pair has one, and a left-out pair is a
    combination of (i, k) and (j, k), whose lcms are smaller (Cox, Little and
    O'Shea, "Ideals, Varieties, and Algorithms", ch. 2 section 9, Thm 6 and
    Prop 8; Becker-Weispfenning, "Groebner Bases", section 5.5).

    The tests are the layout's guard tests, exact on fields within the cap:
    two leads are coprime when the guards of their nonzero fields are
    disjoint, ``layout.lcm`` is the lcm's fields, and c divides L when
    ``((L | guard) - c) & guard == guard``.  The pairs are those of the
    exponent-tuple selection, in the same order.
    """
    guard, ones, lcm = layout.guard, layout.ones, layout.lcm
    supports = [((a | guard) - ones) & guard for a in leads]
    pairs = []
    for i, j in combinations(range(len(leads)), 2):
        if not supports[i] & supports[j]:
            continue
        a, b = leads[i], leads[j]
        m = lcm(a, b)
        top = m | guard
        # k = i and k = j fail the test: lcm(lm_j, lm_i) = lcm(lm_i, lm_j) = L
        for c in leads:
            if (top - c) & guard == guard and lcm(a, c) != m != lcm(b, c):
                break
        else:
            pairs.append((i, j))
    return pairs


def _certify(gb, gens):
    """Raise unless gb is a Groebner basis of the ideal of ``gens``.

    The S-polynomial of every pair ``_certificate_pairs`` keeps must reduce
    to zero, which proves the Groebner property, and so must every
    generator, which puts (gens) inside the basis's ideal; the basis is
    built from the generators, so the two agree.  The reducers are the
    returned Polynomials, packed here and dropped when the check ends, so
    the check reads nothing of the engine's state and leaves none on ``gb``.

    The basis is packed first and the pairs are chosen on the reducers'
    packed lead fields, which hold the same exponents as the tuples, so the
    guard tests keep exactly the pairs, in the order, that tuple tests
    would.
    """
    gens = [_in_order(g, gb.order) for g in gens]
    degree = max((p.total_degree() for p in gb.polys), default=0)
    bound = max([2 * degree] + [g.total_degree() for g in gens])

    def run(layout):
        reducers = _Reducers(gb.ring, gb.order, layout, [_pack(p, layout) for p in gb.polys])
        polys = reducers.polys
        for i, j in _certificate_pairs(layout, reducers.leads):
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


def normal_form(f, gb):
    return gb.normal_form(f)


def ideal_member(f, gb):
    return gb.contains(f)


def radical_member(f, gens, *, max_basis=DEFAULT_BASIS_CAP, max_degree=DEFAULT_DEGREE_CAP):
    """Is f in the radical of (gens)?

    Auxiliary-variable trick: f is in the radical iff 1 lies in the ideal
    (gens, 1 - y*f) of the ring extended by a fresh variable y.  Uses lex
    with y most significant; the equivalence is purely algebraic, so it
    holds over Q and GF(p) alike.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return f.is_zero
    lift, y, one = _fresh_variable_lift(f.ring, f.field)
    hook = one - y * lift(f)
    gb = buchberger(
        [lift(g) for g in gens] + [hook],
        y.order,
        max_basis=max_basis,
        max_degree=max_degree,
        certify=False,
    )
    return gb.is_unit_ideal()


def _fresh_variable_lift(ring, field):
    """Lift into ``ring`` plus one fresh last variable, lex with it first.

    Returns the lift map, the fresh variable and the constant 1, all over
    ``field`` in the extended ring.
    """
    fresh = "_t"
    counter = 0
    while fresh in ring.variables:
        fresh = f"_t{counter}"
        counter += 1
    big = Ring(ring.variables + (fresh,))
    order = MonomialOrder.lex(big, permutation=(ring.n,) + tuple(range(ring.n)))

    def lift(p):
        return Polynomial(big, field, order, {e + (0,): c for e, c in p.terms})

    t = Polynomial.variable(big, field, order, ring.n)
    return lift, t, Polynomial.constant(big, field, order, 1)


def power_membership_index(f, gens, n_max):
    """Least N in [1, n_max] with f^N in (gens), else None."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    gb = buchberger(list(gens), f.order, certify=False)
    return _least_power(f, n_max, gb.contains)


def _least_power(f, n_max, inside):
    """Least N in [1, n_max] with ``inside(f^N)``, else None; each power is
    the previous times f, formed only when the search reaches it."""
    powers = accumulate(repeat(f, n_max - 1), mul, initial=f)
    return next((n for n, power in enumerate(powers, 1) if inside(power)), None)


def _intersection_basis(gens_a, gens_b, *, max_basis, max_degree):
    # generators of (gens_a) ∩ (gens_b), by eliminating a fresh variable t
    # from t*gens_a + (1-t)*gens_b; lex with t most significant eliminates
    sample = gens_a[0]
    ring, field = sample.ring, sample.field
    lift, t, one = _fresh_variable_lift(ring, field)
    mixed = [t * lift(g) for g in gens_a]
    mixed += [(one - t) * lift(g) for g in gens_b]
    gb = buchberger(
        mixed, t.order, max_basis=max_basis, max_degree=max_degree, certify=False
    )
    kept = []
    for p in gb:
        if all(e[-1] == 0 for e, _ in p.terms):
            kept.append(
                Polynomial(ring, field, sample.order, {e[:-1]: c for e, c in p.terms})
            )
    return kept


def local_ideal_member(
    f, gens, *, max_basis=DEFAULT_BASIS_CAP, max_degree=DEFAULT_DEGREE_CAP
):
    """Is f in (gens) after localizing at the origin?

    f lands in the extension iff u*f is in (gens) for a unit u of the local
    ring, i.e. iff the colon ideal ((gens) : f) contains an element with
    nonzero constant term.  The colon is (gens) ∩ (f) divided by f: each
    basis element h of the intersection is q*f with q in the colon.  The
    lowest-degree part of a product is the product of the lowest-degree
    parts, so q(0) != 0 exactly when h's least term degree equals f's.
    """
    gens = [g for g in gens if not g.is_zero]
    if f.is_zero:
        return True
    if not gens:
        return False
    zero = f.field.zero
    if f.constant_term() != zero:
        return any(g.constant_term() != zero for g in gens)
    meet = _intersection_basis(
        gens, [f], max_basis=max_basis, max_degree=max_degree
    )
    least = _least_degree(f)
    return any(_least_degree(h) == least for h in meet)


def _least_degree(f):
    """Least total degree of a term of nonzero f."""
    return min(sum(e) for e, _ in f.terms)


def jacobian_ideal(f):
    """All n formal partial derivatives of f.

    Over GF(p) the derivative of a p-th power vanishes, so the Jacobian
    ideal can degenerate to zero; a warning flags that risk.
    """
    if f.field.characteristic:
        warnings.warn(
            "Jacobian ideals over GF(p) can vanish on p-th powers; "
            "membership conclusions need characteristic-0 reasoning",
            RuntimeWarning,
            stacklevel=2,
        )
    return [f.partial(i) for i in range(f.ring.n)]


@dataclass(frozen=True)
class MatherIndex:
    """Least N with f^N in the Jacobian ideal, at polynomial level.

    ``within_uniform_bound`` records whether N is at most the variable
    count, the uniform bound expected in characteristic zero.  Results are
    polynomial-ring evidence: non-membership here does not by itself rule
    out membership at the power-series germ level.
    """

    index: int | None
    variable_count: int
    within_uniform_bound: bool

    def to_json(self):
        return {
            "index": self.index,
            "variables": self.variable_count,
            "within_uniform_bound": self.within_uniform_bound,
        }


def mather_index(f, n_max=None):
    """Index of f in its Jacobian ideal; f must vanish at the origin.

    Membership is taken in the local ring at the origin, since f stands
    for a germ: a cheap global test runs first, then the localized one.
    Powers f^1 .. f^n_max are searched; n_max defaults to n + 2.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no Jacobian index")
    if f.constant_term() != f.field.zero:
        raise ValueError("f must vanish at the origin")
    n = f.ring.n
    if n_max is None:
        n_max = n + 2
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    jac = [g for g in jacobian_ideal(f) if not g.is_zero]
    index = None
    if jac:
        gb = buchberger(jac, f.order, certify=False)
        index = _least_power(
            f, n_max, lambda power: gb.contains(power) or local_ideal_member(power, jac))
    return MatherIndex(index, n, index is not None and index <= n)


def kollar_family(n, d, field=QQ):
    """Degree-d forms in n variables that are radical-power worst cases.

    The first form is x1^d; form i trades x_i^d for x_{i-1}*x_n^(d-1), so
    the radical is (x_1, ..., x_{n-1}) but successive substitutions force
    x_{n-1}^D into the ideal only at D = d^(n-1).  The chain makes the
    product-of-degrees bound sharp.
    """
    if n < 3:
        raise ValueError("the family needs at least 3 variables")
    if d < 2:
        raise ValueError("the family needs degree at least 2")
    ring = Ring(tuple(f"x{i}" for i in range(1, n + 1)))
    order = MonomialOrder.grevlex(ring)

    def mono(pairs):
        exps = [0] * n
        for var, e in pairs:
            exps[var - 1] = e
        return tuple(exps)

    polys = [Polynomial.monomial(ring, field, order, mono([(1, d)]))]
    for i in range(2, n):
        terms = {
            mono([(i - 1, 1), (n, d - 1)]): field.one,
            mono([(i, d)]): field.neg(field.one),
        }
        polys.append(Polynomial(ring, field, order, terms))
    return polys


@dataclass(frozen=True)
class KollarSharpness:
    found: int | None
    predicted: int
    matches: bool
    searched_up_to: int

    to_json = asdict  # the JSON keys are the fields


def kollar_sharpness(n, d, d_max=None, field=QQ):
    """Least D with x_{n-1}^D in the family ideal, against the predicted d^(n-1)."""
    predicted = d ** (n - 1)
    if d_max is None:
        d_max = predicted
    family = kollar_family(n, d, field)
    ring = family[0].ring
    target = Polynomial.variable(ring, field, family[0].order, n - 2)
    found = power_membership_index(target, family, d_max)
    return KollarSharpness(found, predicted, found == predicted, d_max)


@dataclass(frozen=True)
class KollarBound:
    """Product-of-degrees radical-power bound.

    ``within_hypothesis`` is false when some degree is below 3; the bound
    is still reported but the supporting theorem does not cover that case.
    """

    bound: int
    q: int
    within_hypothesis: bool

    to_json = asdict  # the JSON keys are the fields


def kollar_bound(degrees, n):
    """Bound D = d_1 * ... * d_q, q = min(m, n), degrees taken descending."""
    degrees = list(degrees)
    if not degrees:
        raise ValueError("need at least one degree")
    if n < 1:
        raise ValueError("need at least one variable")
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    ordered = sorted(degrees, reverse=True)
    q = min(len(ordered), n)
    return KollarBound(prod(ordered[:q]), q, all(d >= 3 for d in degrees))


def frobenius_power(gens, p, e):
    """Bracket power: each generator raised to p^e, term by term.

    In characteristic p the q-th power map is additive, and prime-field
    coefficients are fixed by it, so exponent vectors scale by q = p^e and
    coefficients stay put.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    field = gens[0].field
    if field.characteristic != p:
        raise ValueError(f"coefficient field must have characteristic {p}")
    if e < 0:
        raise ValueError("e must be nonnegative")
    q = p**e
    out = []
    for g in gens:
        out.append(
            Polynomial(
                g.ring,
                field,
                g.order,
                {tuple(v * q for v in exps): c for exps, c in g.terms},
            )
        )
    return out


@dataclass(frozen=True)
class FrobeniusCheck:
    contained: bool
    exponent: int
    products_checked: int
    failure: str | None

    to_json = asdict  # the JSON keys are the fields


def _times(a, b, offset, p):
    """The terms of a*b over GF(p) for packed terms on a layout of ``offset``
    whose cap reaches every exponent of the product.  Packing is affine, so
    a product of monomials has the key sum less ``offset``; a one-term
    factor shifts the other's keys alike, keeping them descending, and only
    two longer factors collect, sort and drop the terms that cancel mod p.
    """
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((m, c),) = a
        m -= offset
        return tuple([(m + k, c * v % p) for k, v in b])
    acc = {}
    get = acc.get
    for ka, ca in a:
        ka -= offset
        for kb, cb in b:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    terms = [(k, acc[k] % p) for k in sorted(acc, reverse=True)]
    return tuple([t for t in terms if t[1]])


def frobenius_containment_check(gens, t, p, e, max_products=20_000):
    """Verify I^(t*p^e) lies in the e-th Frobenius power of I = (gens).

    Every generator of the power is a product of the g_i with multiplicities
    summing to t*p^e; by pigeonhole some multiplicity reaches p^e, which is
    why the containment must hold.  The check forms every such product and
    reduces it in full against the Groebner basis of the bracket power,
    refusing upfront when there are too many.

    Products are formed by ``_times`` and reduced by ``_reduce_full`` on a
    layout whose cap reaches t*p^e times the largest generator degree, a
    bound on every product's degree, so no product key wraps under lex or
    grevlex.  A lex reduction past the cap repacks the generators and their
    powers on a wider layout (``_widening``) and starts over.
    """
    gens = list(gens)
    if t != len(gens):
        raise ValueError("t must equal the number of generators")
    # validates e and the characteristic before p**e feeds the count
    bracket = frobenius_power(gens, p, e)
    exponent = t * p**e
    # each power chain takes `exponent` multiplications; for t >= 2 the
    # product count already exceeds that, for t = 1 it is a single product
    count = max(comb(exponent + t - 1, t - 1), exponent)
    if count > max_products:
        raise ResourceCapError(
            f"containment check needs {count} products, over the cap {max_products}"
        )
    gb = buchberger(bracket, gens[0].order, certify=False)
    for g in gens:
        gb._check(g)

    def run(layout):
        reducers = gb._reducers(layout)
        offset, packed = layout.offset, [_pack(g, layout) for g in gens]
        # powers[i][k] is the terms of gens[i]^k, k = 0..exponent
        powers = [
            list(accumulate(repeat(g.terms, exponent),
                            lambda a, b: _times(a, b, offset, p), initial=((offset, 1),)))
            for g in packed
        ]
        checked = 0
        for split in _compositions(exponent, t):
            terms = powers[0][split[0]]
            for i in range(1, t):
                terms = _times(terms, powers[i][split[i]], offset, p)
            checked += 1
            if not _reduce_full(packed[0]._with(terms), reducers).is_zero:
                return FrobeniusCheck(False, exponent, checked, str(split))
        return FrobeniusCheck(True, exponent, checked, None)

    degree = max(g.total_degree() for g in gens)
    return _widening(run, gb._layout(exponent * degree))
