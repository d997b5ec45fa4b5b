"""Exact coefficient fields: the rationals and prime fields.

Field objects carry the arithmetic; the coefficients of a ``Polynomial``
are plain ``Fraction`` values (rationals) or ints in ``[0, p)`` (prime
fields), so polynomials stay cheap and hashable.  The Groebner engine does
not call these methods on its inner loops: it computes on int coefficients
in both fields, rationals as integer polynomials over one denominator
(see ``groebner._Packed``), and converts at its boundary.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, ResourceCapError
from .monomials import _int_text

# Miller-Rabin on these bases decides primality exactly below the bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WITNESS_BOUND = 318_665_857_834_031_151_167_461


class RationalField:
    """The field of rational numbers."""

    characteristic = 0
    label = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a / b

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


def _is_prime(p):
    """Exact primality; refuses p past ``_WITNESS_BOUND`` with no factor
    among the witnesses, where the test would no longer be exact."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    if p >= _WITNESS_BOUND:
        raise ResourceCapError(
            f"primality of {p} is decided only below {_WITNESS_BOUND}")
    d = p - 1
    s = (d & -d).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p; elements are ints reduced into [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.label = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, Fraction):
            return self.mul(value.numerator % self.p, self.inv(value.denominator % self.p))
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.label


QQ = RationalField()


def parse_field(text):
    """Parse the CLI field notation: ``q`` or ``fp:<prime>``."""
    t = text.strip().lower()
    if t in ("q", "qq"):
        return QQ
    if t.startswith("fp:"):
        digits = _int_text(t[3:], "prime in field")
        try:
            p = int(digits)
        except ValueError:
            raise ParseError(f"bad prime in field {text!r}") from None
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field {text!r}; expected q or fp:<p>")
