"""Exact Groebner engine over Q and GF(p), plus the experiments built on it.

Buchberger with the normal pair-selection strategy (least lcm degree, ties
by index), coprime-leading-term skipping, and full interreduction, so the
returned basis is the reduced Groebner basis and normal forms are canonical.
Every construction re-checks that all S-polynomials of the final basis
reduce to zero unless the caller opts out.

On top of the engine:

* radical membership by the auxiliary-variable trick: f lies in the radical
  of (g_1..g_m) iff 1 lies in (g_1..g_m, 1 - y*f) with y a fresh variable,
* least-power membership indices, Jacobian ideals and the index of f in its
  Jacobian ideal,
* the chained family of degree-d forms whose radical-power index is exactly
  d^(n-1), the sharpness witness for the product-of-degrees Nullstellensatz
  bound, plus the bound itself,
* Frobenius powers over GF(p) and the pigeonhole containment
  I^(t*p^e) inside the e-th Frobenius power of a t-generated I.

Worst-case Buchberger behavior is doubly exponential, so basis size and
degree are capped and overflow raises ResourceCapError rather than hanging.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .errors import ParseError, ResourceCapError, RingMismatchError
from .fields import QQ
from .monomials import _NAME_RE, Ring, _compositions, _divides_row, _lcm_row
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
        permuted = tuple(exps[i] for i in self.permutation)
        if self.kind == "lex":
            return permuted
        # grevlex: total degree, then smallest trailing exponent wins
        return (sum(exps), tuple(-e for e in reversed(permuted)))

    def __str__(self):
        return self.kind


def _check_permutation(ring, permutation):
    if permutation is None:
        return tuple(range(ring.n))
    perm = tuple(permutation)
    if sorted(perm) != list(range(ring.n)):
        raise ValueError(f"{perm} is not a permutation of 0..{ring.n - 1}")
    return perm


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
        self.terms = tuple(
            sorted(
                ((e, c) for e, c in acc.items() if c != field.zero),
                key=lambda t: order.key(t[0]),
                reverse=True,
            )
        )

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
        if (
            self.ring != other.ring
            or self.field != other.field
            or self.order != other.order
        ):
            raise RingMismatchError(
                "polynomials live in different rings, fields, or orders"
            )

    def __add__(self, other):
        self._check_mate(other)
        return Polynomial(
            self.ring, self.field, self.order, list(self.terms) + list(other.terms)
        )

    def __neg__(self):
        return Polynomial(
            self.ring,
            self.field,
            self.order,
            [(e, self.field.neg(c)) for e, c in self.terms],
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_mate(other)
        acc = {}
        field = self.field
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                key = tuple(x + y for x, y in zip(ea, eb))
                c = field.mul(ca, cb)
                if key in acc:
                    acc[key] = field.add(acc[key], c)
                else:
                    acc[key] = c
        return Polynomial(self.ring, field, self.order, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        c = self.field.coerce(value)
        return Polynomial(
            self.ring,
            self.field,
            self.order,
            [(e, self.field.mul(c, v)) for e, v in self.terms],
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
        return Polynomial(self.ring, field, self.order, acc)

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


def parse_polynomial(ring, text, field=QQ, order=None):
    """Parse ``±c*mono ± …`` with integer or a/b coefficients.

    Factors are separated by ``*``; names must be ring variables; exponents
    use ``^``. Column positions are reported on error.
    """
    if order is None:
        order = MonomialOrder.grevlex(ring)
    tokens = _tokenize(text)
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
        if kind != "op" or value not in "+-":
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


def _tokenize(text):
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


def _reduce_full(f, basis):
    """Full normal form of f against a list of polynomials.

    Deterministic: always reduces the largest remaining term by the first
    listed reducer whose leading monomial divides it.
    """
    field = f.field
    order = f.order
    work = dict(f.terms)
    remainder = {}
    while work:
        exps = max(work, key=order.key)
        coeff = work.pop(exps)
        reducer = None
        for g in basis:
            if _divides_row(g.terms[0][0], exps):
                reducer = g
                break
        if reducer is None:
            remainder[exps] = coeff
            continue
        lm, lc = reducer.terms[0]
        shift = tuple(x - y for x, y in zip(exps, lm))
        factor = field.div(coeff, lc)
        for mexps, mcoeff in reducer.terms[1:]:
            key = tuple(x + y for x, y in zip(shift, mexps))
            value = field.sub(work.get(key, field.zero), field.mul(factor, mcoeff))
            if value == field.zero:
                work.pop(key, None)
            else:
                work[key] = value
    return Polynomial(f.ring, field, order, remainder)


def _s_polynomial(f, g):
    field = f.field
    lmf, lcf = f.terms[0]
    lmg, lcg = g.terms[0]
    lcm = _lcm_row(lmf, lmg)
    sf = tuple(a - b for a, b in zip(lcm, lmf))
    sg = tuple(a - b for a, b in zip(lcm, lmg))
    left = [(tuple(a + b for a, b in zip(sf, e)), field.div(c, lcf)) for e, c in f.terms]
    right = [
        (tuple(a + b for a, b in zip(sg, e)), field.neg(field.div(c, lcg)))
        for e, c in g.terms
    ]
    return Polynomial(f.ring, field, f.order, left + right)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis; normal forms against it are canonical."""

    ring: object
    field: object
    order: MonomialOrder
    polys: tuple
    certified: bool

    def _check(self, f):
        if f.ring != self.ring or f.field != self.field or f.order != self.order:
            raise RingMismatchError("polynomial does not match the basis ring/order")

    def normal_form(self, f):
        self._check(f)
        return _reduce_full(f, self.polys)

    def contains(self, f):
        return self.normal_form(f).is_zero

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
    input order.  Pairs with coprime leading terms are skipped.  The basis
    is certified on construction (every S-polynomial of the result reduces
    to zero) unless ``certify`` is false.
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
    basis = [
        Polynomial(ring, field, order, dict(g.terms)).monic()
        for g in gens
        if not g.is_zero
    ]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        i, j = min(
            pairs,
            key=lambda p: (
                sum(_lcm_row(basis[p[0]].terms[0][0], basis[p[1]].terms[0][0])),
                p,
            ),
        )
        pairs.remove((i, j))
        lmi, lmj = basis[i].terms[0][0], basis[j].terms[0][0]
        if all(min(a, b) == 0 for a, b in zip(lmi, lmj)):
            continue  # coprime leading terms: S-polynomial reduces to zero
        remainder = _reduce_full(_s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero:
            continue
        if remainder.total_degree() > max_degree:
            raise ResourceCapError(
                f"basis element of degree {remainder.total_degree()} exceeds "
                f"cap {max_degree}"
            )
        basis.append(remainder.monic())
        if len(basis) > max_basis:
            raise ResourceCapError(f"basis grew past {max_basis} polynomials")
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    reduced = _interreduce(basis)
    gb = GroebnerBasis(ring, field, order, tuple(reduced), certified=bool(certify))
    if certify:
        _certify(gb)
    return gb


def _interreduce(basis):
    # minimal: no leading monomial divides another
    keep = []
    for i, p in enumerate(basis):
        lm = p.terms[0][0]
        dominated = False
        for j, q in enumerate(basis):
            if i == j:
                continue
            lmq = q.terms[0][0]
            if _divides_row(lmq, lm) and (lmq != lm or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(p)
    # reduced: tails carry no term divisible by another leading monomial
    out = []
    for i, p in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        head = dict([p.terms[0]])
        tail = Polynomial(p.ring, p.field, p.order, dict(p.terms[1:]))
        reduced_tail = _reduce_full(tail, others)
        head.update(dict(reduced_tail.terms))
        out.append(Polynomial(p.ring, p.field, p.order, head).monic())
    out.sort(key=lambda p: p.order.key(p.terms[0][0]))
    return out


def _certify(gb):
    polys = gb.polys
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = _s_polynomial(polys[i], polys[j])
            if not _reduce_full(s, polys).is_zero:
                raise RuntimeError(
                    "internal error: an S-polynomial of the reduced basis "
                    "does not reduce to zero"
                )


def normal_form(f, gb):
    return gb.normal_form(f)


def ideal_member(f, gb):
    return gb.normal_form(f).is_zero


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
    power = f
    for n in range(1, n_max + 1):
        if gb.contains(power):
            return n
        if n < n_max:
            power = power * f
    return None


def _exact_quotient(h, g):
    # h must be a polynomial multiple of g
    ring, field, order = h.ring, h.field, h.order
    glm = g.leading_monomial()
    glc = g.leading_coefficient()
    quotient = {}
    rest = dict(h.terms)
    while rest:
        lm = max(rest, key=order.key)
        if not _divides_row(glm, lm):
            raise ValueError("quotient is not exact")
        shift = tuple(a - b for a, b in zip(lm, glm))
        coeff = field.div(rest[lm], glc)
        quotient[shift] = coeff
        for exps, c in g.terms:
            key = tuple(a + b for a, b in zip(shift, exps))
            acc = field.sub(rest.get(key, field.zero), field.mul(coeff, c))
            if acc == field.zero:
                rest.pop(key, None)
            else:
                rest[key] = acc
    return Polynomial(ring, field, order, quotient)


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
    nonzero constant term.  The colon is (gens) ∩ (f) divided by f.
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
    return any(_exact_quotient(h, f).constant_term() != zero for h in meet)


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
        power = f
        for step in range(1, n_max + 1):
            if gb.contains(power) or local_ideal_member(power, jac):
                index = step
                break
            if step < n_max:
                power = power * f
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

    def to_json(self):
        return {
            "found": self.found,
            "predicted": self.predicted,
            "matches": self.matches,
            "searched_up_to": self.searched_up_to,
        }


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

    def to_json(self):
        return {
            "bound": self.bound,
            "q": self.q,
            "within_hypothesis": self.within_hypothesis,
        }


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

    def to_json(self):
        return {
            "contained": self.contained,
            "exponent": self.exponent,
            "products_checked": self.products_checked,
            "failure": self.failure,
        }


def frobenius_containment_check(gens, t, p, e, max_products=20_000):
    """Verify I^(t*p^e) lies in the e-th Frobenius power of I = (gens).

    Every generator of the power is a product of the g_i with multiplicities
    summing to t*p^e; by pigeonhole some multiplicity reaches p^e, which is
    why the containment must hold.  The check runs all such products through
    Groebner membership, refusing upfront when there are too many.
    """
    gens = list(gens)
    if t != len(gens):
        raise ValueError("t must equal the number of generators")
    # validates e and the characteristic before p**e feeds the count
    bracket = frobenius_power(gens, p, e)
    exponent = t * p**e
    count = comb(exponent + t - 1, t - 1)
    if count > max_products:
        raise ResourceCapError(
            f"containment check needs {count} products, over the cap {max_products}"
        )
    gb = buchberger(bracket, gens[0].order, certify=False)
    powers = [{0: Polynomial.constant(g.ring, g.field, g.order, 1)} for g in gens]

    def gen_power(i, k):
        cache = powers[i]
        if k not in cache:
            cache[k] = gen_power(i, k - 1) * gens[i]
        return cache[k]

    checked = 0
    for split in _compositions(exponent, t):
        product = gen_power(0, split[0])
        for i in range(1, t):
            product = product * gen_power(i, split[i])
        checked += 1
        if not gb.contains(product):
            return FrobeniusCheck(False, exponent, checked, str(split))
    return FrobeniusCheck(True, exponent, checked, None)
