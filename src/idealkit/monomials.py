"""Monomials and monomial ideals with exact integer exponents.

Everything here is an immutable value: operations return new objects, so
instances are safe to share and to use as dict keys.  A ``MonomialIdeal``
is kept in canonical form at all times -- its ``rows`` are the unique minimal
antichain of exponent tuples, in descending graded-lex order -- so ``==``
decides mathematical equality of ideals, with no ``Monomial`` built.

The zero ideal (no generators) and the unit ideal (generated by 1) are
distinct values, and ``I**0`` is the unit ideal by convention.

One kernel, ``_minimal_rows``, finds every minimal generating set.  It
takes byte keys: lex keys of ``PackedLayout.bytewise``, the first variable
highest, each field 8, 16, 32 or 64 bits wide, and the degree above the
fields, so ascending keys are ascending (degree, exponents) and a proper
divisor of a row has a smaller key.  A row packs with one
``int.from_bytes`` and unpacks with one ``to_bytes``.  The kernel visits
keys in ascending order and tests each only against the kept keys of
lower degree, as a row never divides another of its own degree: the
first ``_PACK_AT`` one by one, which settles most small inputs and most
staircases, and the others all at once by ``_Blocks``, which holds packed
rows side by side in one int.  Any lex layout with the degree above the
fields will do, so the Hilbert numerator runs it on its own keys.

Who packs, and why.  ``__mul__`` packs both generator lists and adds keys,
so a product of two rows is one int addition.  The lattice-point folds of
``_minimal_points``, behind symbolic powers and integral closures, stay on
keys from the first fold to the last and unpack once; the keys of their
lifts are kept between calls, in ``_LIFTS``.  A dot product c . g is one
multiplication of g by c packed in reverse field order, read off the
field at (n - 1) * w.  A fold passes the kernel only its lifted rows, with
the rows that already satisfy the inequality as ``kept``: no lifted row
g + r divides a satisfied row s, or g would have divided s in the fold
before.  The fields are wide enough that neither a lifted row nor a
partial sum of the product carries; ``_minimal_points`` states and proves
that width rule.  Every other operation (intersection, colon, radical,
minors, parsing) forms exponent tuples, and ``_ideal_from_rows`` packs
them, minimalizes and unpacks once.

Tuple paths that remain.  ``first_outside`` is a search, not a
minimalization: it stops at the first row of the other ideal that no row
of self divides, finds equal rows in a set, and packs only when a row gets
past both.  The Hilbert numerator's leaves read small inputs as tuples
before anything is packed, and its check, ``_colon_numerator``,
minimalizes on its own so that it stays independent.

``PackedLayout`` packs a row into one int, each exponent in a field whose
top bit is a guard.  It is taken in its lex form here, by the Hilbert
numerator and its check and by the Betti facets, which keep their own
widths; in the Groebner engine a monomial is one int whose integer order
is a term order (lex, or grevlex with the degree above the fields), so the
engine's heap keys, shifts and divisibility tests are int operations on
it.  ``_Blocks`` is the one all-at-once divisibility test:
``_minimal_rows``, ``first_outside`` and the engine's first-divisor search
all run it.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat, starmap
from operator import add, le, mul
from struct import Struct
from threading import Lock

from .errors import ParseError, ResourceCapError, RingMismatchError

# the largest exponent any monomial may carry: it stops runaway growth under
# repeated squaring of ideals and Frobenius powers
DEFAULT_EXPONENT_CAP = 10**6
# rows of lower degree that _minimal_rows and first_outside test one by one,
# by the guard test, before testing the rest all at once with _Blocks
_PACK_AT = 16
# rows that one _minimal_points call may make, over all of its folds, and
# that one product or intersection of two ideals may pair up
_POINT_WORK_CAP = 500_000
# lift keys that _minimal_points keeps between calls, over all inequalities
_LIFT_CACHE_BOUND = 4096

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one token of monomial or polynomial text: a decimal digit run (exactly what
# int() reads), a variable name, or any other character but whitespace
_TOKEN_RE = re.compile(rf"(?P<int>\d+)|(?P<name>{_NAME_RE.pattern})|(?P<other>\S)")


def _tokens(text, offset=0):
    """``(kind, text, column)`` triples of ``text``, skipping whitespace and
    closed by ``("end", "", len(text) + 1)``.  Columns are 1-based and
    shifted by ``offset`` when the text is a slice of a larger input."""
    at = offset + 1
    tokens = [(m.lastgroup, m.group(), m.start() + at) for m in _TOKEN_RE.finditer(text)]
    tokens.append(("end", "", len(text) + at))
    return tokens


def _int_text(text, what, column=None):
    """``text``, once its digits are within the interpreter's int() limit.

    Past the limit int() raises with a message that names neither the
    input nor a column, so the text is refused here with a ParseError.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) > limit:
        digits = sum(map(str.isdecimal, text))
        if digits > limit:
            raise ParseError(f"{what} has {digits} digits, over the limit of {limit}", column)
    return text


@dataclass(frozen=True)
class Ring:
    """A polynomial ring described by its ordered tuple of variable names."""

    variables: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("a ring needs at least one variable")
        for name in self.variables:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")

    @property
    def n(self):
        return len(self.variables)

    def index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def one(self):
        return Monomial(self, (0,) * self.n)

    def variable(self, name):
        exps = [0] * self.n
        exps[self.index(name)] = 1
        return Monomial(self, tuple(exps))

    def monomial(self, text):
        return parse_monomial(self, text)

    def ideal(self, text):
        return parse_ideal(self, text)

    def __str__(self):
        return "ring " + ",".join(self.variables)


@dataclass(frozen=True)
class Monomial:
    """A monomial x^a, stored as the exponent vector a."""

    ring: Ring
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) != self.ring.n:
            raise ValueError("exponent vector length does not match the ring")
        for e in self.exponents:
            if e < 0:
                raise ValueError("negative exponent")
            if e > DEFAULT_EXPONENT_CAP:
                raise ResourceCapError(
                    f"exponent {e} exceeds cap {DEFAULT_EXPONENT_CAP}")

    @property
    def degree(self):
        return sum(self.exponents)

    @property
    def support(self):
        return frozenset(i for i, e in enumerate(self.exponents) if e > 0)

    @property
    def is_one(self):
        return not any(self.exponents)

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("monomials from different rings")

    def divides(self, other):
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other):
        self._check(other)
        return Monomial(
            self.ring, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def __truediv__(self, other):
        """Exact quotient; raises ValueError when other does not divide self."""
        self._check(other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(
            self.ring, tuple(a - b for a, b in zip(self.exponents, other.exponents))
        )

    def lcm(self, other):
        self._check(other)
        return Monomial(self.ring, _lcm_row(self.exponents, other.exponents))

    def gcd(self, other):
        self._check(other)
        return Monomial(
            self.ring, tuple(min(a, b) for a, b in zip(self.exponents, other.exponents))
        )

    def squarefree_part(self):
        return Monomial(self.ring, tuple(min(e, 1) for e in self.exponents))

    def __str__(self):
        return _monomial_text(self.ring.variables, self.exponents) or "1"

    def __repr__(self):
        return f"Monomial({self})"


def _monomial_text(variables, exps):
    """``x^2*y`` style text of an exponent tuple; empty for the unit."""
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _compositions(total, parts):
    """Exponent tuples of length ``parts`` summing to ``total``, lexicographically."""
    return _minimal_lifts((1,) * parts, total)


class PackedLayout:
    """Monomials as single ints whose integer order is a term order.

    ``kind`` is "lex" or "grevlex" and ``permutation`` lists variable
    indices from most to least significant, as in ``MonomialOrder``.  Each
    variable owns a field of ``width`` bits whose top bit is a guard, so a
    field holds 0..``cap`` with cap = 2^(width-1) - 1.  Lex puts x_i in the
    fields in permutation order, most significant first.  Grevlex puts
    cap - x_i in the fields, the last variable most significant, and the
    total degree above them all, where nothing can overflow.

    Packing is affine, ``key = offset + sum(e_i * weights[i])``, so the
    key of x^t / x^lm * x^m is ``t - lm + m`` whenever that monomial fits.
    ``key ^ flip`` holds the plain exponents in the fields under either
    kind, so lm divides t exactly when the guard test
    ``(((t ^ flip) | guard) - (lm ^ flip)) & guard == guard`` holds
    (``_Blocks`` runs it against many lm at once); the grevlex degree bits
    above the guards do not touch it, and ``& low`` drops them, leaving the
    plain fields that ``lcm``, ``total``, ``key`` and ``_Blocks`` take.
    Under lex an exponent of t - lm + m past ``cap`` is at most
    2 * cap, so it sets its field's guard without reaching the next field:
    that is how callers see an overflow.  Grevlex keys stay exact while
    degrees stay within ``cap``.
    """

    __slots__ = ("kind", "permutation", "width", "cap", "guard", "flip",
                 "offset", "weights", "shifts", "top", "low", "ones", "code")

    def __init__(self, kind, permutation, width):
        n = len(permutation)
        cap = (1 << width - 1) - 1
        shifts = [0] * n  # variable -> lowest bit of its field
        for rank, var in enumerate(permutation):
            shifts[var] = (n - 1 - rank if kind == "lex" else rank) * width
        self.kind, self.permutation = kind, permutation
        self.width, self.cap = width, cap
        self.shifts = tuple(shifts)
        self.top = n * width
        self.low = (1 << self.top) - 1  # the fields, without grevlex's degree
        self.guard = sum(1 << s + width - 1 for s in shifts)
        self.ones = self.guard >> width - 1  # the lowest bit of every field
        self.code = None  # the item code of the byte route, for a bytewise layout
        if kind == "lex":
            self.flip = self.offset = 0
            self.weights = tuple(1 << s for s in shifts)
            if tuple(permutation) == tuple(range(n)):
                self.code = _ITEM_CODES.get(width)
        else:
            self.flip = self.offset = sum(cap << s for s in shifts)
            self.weights = tuple((1 << self.top) - (1 << s) for s in shifts)

    @staticmethod
    def fitting(kind, permutation, bound):
        """The shared layout whose cap is the least 2^k - 1 >= ``bound``."""
        return _packed_layout(kind, permutation, max(bound, 1).bit_length() + 1)

    def wider(self):
        """The shared layout of the same order at twice the field width."""
        return _packed_layout(self.kind, self.permutation, 2 * self.width)

    def pack(self, exps):
        return self.offset + sum(map(mul, exps, self.weights))

    def unpack(self, key):
        key ^= self.flip
        cap = self.cap
        return tuple([key >> s & cap for s in self.shifts])

    @staticmethod
    def bytewise(n, bound):
        """The shared lex layout on ``n`` variables, the first highest,
        whose fields are whole bytes: the least width of 8, 16, 32 and 64
        whose cap holds ``bound``.  ``lex_keys`` and ``lex_rows`` move a
        row in and out of it with one ``int.from_bytes`` and one
        ``to_bytes``.  A bound past 2^63 - 1 takes the next power of two,
        and its rows pack and unpack by one shift per field; no input of
        the benchmark or the goldens comes near it."""
        return _bytewise_layout(n, max(8, 1 << bound.bit_length().bit_length()))

    def lex_keys(self, rows, byteorder=sys.byteorder):
        """Keys of the exponent rows under a ``bytewise`` layout: the
        fields, and the degree above them, so ascending keys are ascending
        (degree, exponents).

        A row's fields are its exponents as big-endian items of width / 8
        bytes, side by side: ``bytes(row)`` at width 8, and at 16, 32 or 64
        an ``array`` of that itemsize, byte-swapped when the host stores its
        items little-endian.  ``byteorder`` names that host order."""
        code, top = self.code, self.top
        if code == "B":
            return [int.from_bytes(bytes(r), "big") | sum(r) << top for r in rows]
        if code is None:
            return [self.pack(r) | sum(r) << top for r in rows]
        keys = []
        for r in rows:
            items = array(code, r)
            if byteorder == "little":
                items.byteswap()
            keys.append(int.from_bytes(items, "big") | sum(r) << top)
        return keys

    def lex_spread(self, present):
        """A function from a list of rows (d, e_1, .., e_s) to the keys that
        ``lex_keys`` gives the exponent rows with e_1, .., e_s at the
        variables j with ``present[j]`` true, in order, and zeros at the
        others; d is the degree, and it must fit in a field.  One ``struct``
        format packs a row as big-endian items, d first, with zero pad bytes
        for the absent variables' fields, so no row is spread out first."""
        code = self.code
        if code is None:
            units = [1 << self.top] + [w for w, p in zip(self.weights, present) if p]
            return lambda rows: [sum(map(mul, r, units)) for r in rows]
        pad = f"{self.width >> 3}x"
        pack = Struct(">" + code + "".join([code if p else pad for p in present])).pack
        return lambda rows: list(map(int.from_bytes, starmap(pack, rows), repeat("big")))

    def lex_rows(self, keys, byteorder=sys.byteorder):
        """Exponent rows of the keys, under a ``bytewise`` layout; the bits
        above the fields, such as a degree, are dropped.  One ``to_bytes``
        per key, then the items of all keys are read at once."""
        code = self.code
        if code is None:
            return [self.unpack(k & self.low) for k in keys]
        size, low = self.top >> 3, self.low
        data = b"".join([(k & low).to_bytes(size, "big") for k in keys])
        if code != "B":
            data = array(code, data)
            if byteorder == "little":
                data.byteswap()
        return list(zip(*[iter(data)] * len(self.shifts)))

    def degree(self, key):
        if self.kind == "lex":
            return sum(self.unpack(key))
        return key >> self.top

    def lcm(self, a, b):
        """Plain fields of lcm(a, b).  No field of ``(a | guard) - b``
        borrows, and its guards mark the fields with a_i >= b_i; less their
        copies at the fields' lowest bits, they mask the fields taken from a."""
        larger = ((a | self.guard) - b) & self.guard
        larger -= larger >> self.width - 1
        return (a & larger) | (b & ~larger)

    def total(self, fields):
        """The sum of the fields, valid below 2^width: with no carry, the
        top field of ``fields * ones`` sums every field."""
        return (fields * self.ones >> self.top - self.width) & (1 << self.width) - 1

    def key(self, fields):
        """The key of the monomial with these fields; grevlex needs degree <= cap."""
        if self.kind == "lex":
            return fields
        return (fields ^ self.flip) | self.total(fields) << self.top


# the array typecode of each whole-byte field width, where the host has one;
# as struct items in standard sizes, B, H, I and Q take 8, 16, 32 and 64 bits
_ITEM_CODES = {8 * array(code).itemsize: code for code in "IHBQ"}


@lru_cache(maxsize=256)
def _packed_layout(kind, permutation, width):
    return PackedLayout(kind, permutation, width)


@lru_cache(maxsize=256)
def _bytewise_layout(n, width):
    return _packed_layout("lex", tuple(range(n)), width)


class _Blocks:
    """Plain fields of one ``PackedLayout``, side by side in one int, so
    that a handful of big-int operations find the first that divides x.

    Key j takes the block of ``width`` = ``layout.top + 1`` bits at
    j * width: its fields, then a spare bit, which is 0.  ``repunit`` has a
    1 at the bottom of every block.  With its guards set, x copied into
    every block by the repunit, minus ``keys``, borrows in no field and no
    block, and leaves the guard of field i in block j set exactly when
    key_j has at most x_i there.  Or ``fill``, every bit of every block
    below its spare bit but the guards, and the block is all ones below its
    spare bit exactly when all of its guards are set: when key j divides x.
    Plus the repunit, such a block and no other carries into its spare
    bit, masked by ``spares``.  The lowest carry is the first dividing key
    in the order the keys were added.
    """

    __slots__ = ("guard", "width", "count", "keys", "repunit", "fill", "spares")

    def __init__(self, layout):
        self.guard, self.width = layout.guard, layout.top + 1
        self.count = self.keys = self.repunit = self.fill = self.spares = 0

    def extend(self, fields):
        """Hold the list of plain fields ``fields`` after those already held."""
        guard, width, shift = self.guard, self.width, self.count * self.width
        chunk, step = fields, width
        while len(chunk) > 1:  # pairwise: m keys take O(m log m) bit moves, not O(m^2)
            chunk = [a | b << step for a, b in zip(chunk[::2], chunk[1::2] + [0])]
            step *= 2
        self.keys |= sum(chunk) << shift
        self.count += len(fields)
        # the new blocks' repunit, (B^m - 1) / (B - 1) in base B = 2^width
        self.repunit |= ((1 << len(fields) * width) - 1) // ((1 << width) - 1) << shift
        self.fill = ((1 << width - 1) - 1 - guard) * self.repunit
        self.spares = self.repunit << width - 1

    def first(self, fields):
        """The index of the first key held that divides these plain fields;
        -1 when none does."""
        carries = ((((fields | self.guard) * self.repunit - self.keys) | self.fill)
                   + self.repunit) & self.spares
        return (carries & -carries).bit_length() // self.width - 1


def _lcm_row(a, b):
    """Exponents of lcm(x^a, x^b)."""
    return tuple(map(max, a, b))


def _colon_row(g, m):
    """Exponents of x^g / gcd(x^g, x^m), the generator of (x^g) : x^m."""
    return tuple(a - b if a > b else 0 for a, b in zip(g, m))


def _minimal_lifts(weights, deficit):
    """Every minimal r >= 0 with sum(w * r) >= deficit for positive weights w
    (only r = 0 when deficit <= 0), and some others; unit weights give
    exactly the compositions of deficit.

    With t = ceil(deficit / w_0), r_0 takes 0..t - 1, each followed by the
    lifts of what is left over the other weights, and then t with zeros
    after it.  The search keeps its own stack, so any number of weights
    needs no Python stack; a prefix whose rest is settled waits on the
    stack as a finished lift (deficit None).
    """
    s = len(weights)
    stack = [((), deficit)]
    while stack:
        head, d = stack.pop()
        if d is None:
            yield head
            continue
        i = len(head)
        w = weights[i]
        top = -(-d // w) if d > 0 else 0
        if i + 1 == s:
            yield head + (top,)
            continue
        stack.append((head + (top,) + (0,) * (s - i - 1), None))
        stack.extend([(head + (f,), d - w * f) for f in range(top - 1, -1, -1)])


def _lift_count(weights, deficit):
    """How many rows ``_minimal_lifts(weights, deficit)`` yields, counted
    over the deficits each weight can leave, without forming a row; or,
    when that count is past ``_POINT_WORK_CAP``, possibly a lower bound
    that is past it too.

    A pair (d, f) of a level, a deficit d and a value f below its top,
    starts at least one lift that no other pair of any level starts: f is
    followed by the next weight's top, the pairs of later levels by less.
    So the pairs of all levels together never outnumber the lifts, and the
    count stops at the level where they pass the cap, before building it.
    """
    levels, pairs = [{deficit}], 0
    for w in weights[:-1]:
        pairs += sum([-(-d // w) for d in levels[-1] if d > 0])
        if pairs > _POINT_WORK_CAP:
            return pairs
        levels.append({d - w * f for d in levels[-1] for f in range(max(0, -(-d // w)))})
    counts = dict.fromkeys(levels.pop(), 1)
    for w, level in zip(reversed(weights[:-1]), reversed(levels)):
        counts = {d: 1 + sum(counts[d - w * f] for f in range(max(0, -(-d // w))))
                  for d in level}
    return counts[deficit]


def _minimal_points(ring, inequalities):
    """The ideal of the lattice points a >= 0 with c . a >= b for all (c, b).

    Every c is nonnegative and nonzero, so the solutions form a monomial
    ideal.  Starting from {0}, an inequality replaces each row g by g + r
    for the lifts r, on the support of c, of the deficit b - c . g, and
    ``_minimal_rows`` keeps the minimal ones.  The inequality that the fewest
    rows violate goes first, ties in list order, which keeps the rows
    between folds few.  After each fold the rows are the minimal generators
    of the inequalities folded so far, so the last fold's rows are the
    answer; they are unpacked once, at the end.  A fold tests only its
    lifted rows, with the rows that already satisfy the inequality as
    ``kept``: those stay, as no lifted row g + r divides one, s, or g would
    have divided s, two distinct rows of the fold before.

    Rows are keys of the ``bytewise`` lex layout, the first variable
    highest and the degree above the fields, so ascending keys are
    ascending (degree, exponents) and every proper divisor of a row has a
    smaller key.  A lift packs the same way, by ``lex_spread`` from its
    values on the support, and lifting is one addition.  ``c . g`` is one
    multiplication: with c packed in reverse field order,
    ``C = sum(c_j << j*w)`` plus its degree above, the product ``g * C``
    sums g_i * c_j in the field at (n - 1 - i + j) * w, so the field at
    (n - 1) * w holds sum(g_j * c_j).  The degree bits of g and of C only
    add to bits above it.

    Width rule: the cap holds reach = 2 * max b, and the whole field, guard
    bit included, holds ``n * reach * max c``: the width is the least whole
    byte width whose cap holds both reach and half of that.  A minimal
    point a of any subsystem has a_j <= max ceil(b / c_j) over the
    subsystem's inequalities with c_j > 0: past that, a - e_j would
    still satisfy each of them, as c . (a - e_j) >= c_j * (a_j - 1) >= b.
    A lift r of a deficit at most b has r_j <= ceil(b / c_j) too, and
    ceil(b / c_j) <= b for integers c_j >= 1, so lifted rows reach at most
    ``reach``, within the field's cap, and the guard tests of
    ``_minimal_rows`` apply.  A lift's degree is at most its deficit, as each
    value f_j it takes lowers the deficit by c_j * f_j >= f_j, so it fits in
    the one field ``lex_spread`` packs it in.  A field of ``g * C`` sums at
    most n products g_i * c_j <= reach * max c, below 2^w, so no field of
    the product carries and the dot product is read exactly.

    The keys of the lifts of a deficit d over c are the same in every
    call: they depend on c, d and the width alone.  ``_lift_keys`` takes
    them from ``_LIFTS``, a ``_LiftCache`` of at most ``_LIFT_CACHE_BOUND``
    keys over all entries, keyed by (width, c, d) and never by a row, and
    forms and keeps them on a miss, so neither the ``_minimal_lifts`` rows
    nor the ``struct`` format of ``lex_spread`` is rebuilt for a system
    seen before.  A fold also keeps the keys of each deficit it meets, as
    lifts past the bound are not held.  Seeds 1 to 10 of the benchmark's
    monomial-powers workload together fill 371 entries with 2,243 keys,
    about 0.1 MB.

    ``made`` counts every lifted row, those of satisfied rows included;
    past ``_POINT_WORK_CAP`` the search raises before forming more.  Lifts
    from the cache are counted as formed ones are, so the cap refuses at
    the same count with the same message, warm or cold: a miss checks the
    count before forming, and a hit adds its exact length.  The first
    rows, {0}, satisfy exactly the inequalities with b <= 0, so those fold
    first, each counting one row and leaving {0}: they are counted and
    dropped at the start.
    """
    n = ring.n
    given = list(inequalities)
    pending = [(tuple(c), b) for c, b in given if b > 0]
    made = len(given) - len(pending)
    if made > _POINT_WORK_CAP:
        raise _points_refused()
    reach = 2 * max([b for _, b in pending] + [0])
    most = max([max(coeffs) for coeffs, _ in pending] + [1])
    layout = PackedLayout.bytewise(n, max(reach, n * reach * most >> 1))
    top, width = layout.top, layout.width
    at, field = top - width, (1 << width) - 1
    packed_coeffs = layout.lex_keys([coeffs[::-1] for coeffs, _ in pending])
    systems = [(C, coeffs, bound) for C, (coeffs, bound) in zip(packed_coeffs, pending)]
    rows = [0]
    while systems:
        pick = 0
        if len(systems) > 1:
            violated = [sum([g * C >> at & field < b for g in rows]) for C, _, b in systems]
            pick = violated.index(min(violated))
        C, coeffs, bound = systems.pop(pick)
        lifts, satisfied, lifted = {}, [], []
        for g in rows:
            deficit = bound - (g * C >> at & field)
            if deficit <= 0:
                made += 1
                satisfied.append(g)
                continue
            packed = lifts.get(deficit)
            if packed is None:
                packed = lifts[deficit] = _lift_keys(layout, coeffs, deficit, made)
            made += len(packed)
            if made > _POINT_WORK_CAP:
                raise _points_refused()
            lifted += map(add, repeat(g), packed)
        if made > _POINT_WORK_CAP:
            raise _points_refused()
        rows = satisfied + _minimal_rows(lifted, layout, satisfied)
    return _ideal_from_minimal(ring, layout.lex_rows(sorted(rows)), reach)


class _LiftCache(dict):
    """The lift keys of ``_minimal_points``, kept between calls: a map from
    (field width, coefficients c, deficit d) to the tuple of the keys, under
    the ``bytewise`` layout of len(c) variables at that width, of every row
    of ``_minimal_lifts`` over the nonzero c_j for d, spread onto their
    variables, with the degree above the fields.  The keys depend on nothing
    else: neither on the rows lifted nor on the other inequalities.

    At most ``bound`` keys are held over all entries.  A tuple of more is
    not kept; to keep another, the oldest entries go first.  ``keep`` and
    ``clear`` are the only writers, each under one lock, so ``held``
    counts the keys held.  What the cache holds changes no answer and no
    count of ``_POINT_WORK_CAP``, only how often lifts are formed.
    """

    __slots__ = ("bound", "held", "lock")

    def __init__(self, bound):
        super().__init__()
        self.bound, self.held, self.lock = bound, 0, Lock()

    def keep(self, key, lifts):
        if len(lifts) > self.bound:
            return
        with self.lock:
            if key in self:
                return
            while self.held + len(lifts) > self.bound:
                self.held -= len(self.pop(next(iter(self))))
            self[key] = lifts
            self.held += len(lifts)

    def clear(self):
        with self.lock:
            super().clear()
            self.held = 0


_LIFTS = _LiftCache(_LIFT_CACHE_BOUND)


def _lift_keys(layout, coeffs, deficit, made):
    """The keys of the lifts of ``deficit`` over ``coeffs`` under the
    ``bytewise`` layout, as ``_LiftCache`` holds them: from the cache, or
    formed and kept.  ``made`` rows are already counted; lifts not held
    are formed only when they keep the count within ``_POINT_WORK_CAP``,
    else ``ResourceCapError`` is raised before any is formed."""
    key = (layout.width, coeffs, deficit)
    lifts = _LIFTS.get(key)
    if lifts is None:
        weights = tuple([c for c in coeffs if c])
        # each weight but the last takes at most deficit + 1 values
        if (made + (deficit + 1) ** (len(weights) - 1) > _POINT_WORK_CAP
                and made + _lift_count(weights, deficit) > _POINT_WORK_CAP):
            raise _points_refused()
        shape = [(sum(r),) + r for r in _minimal_lifts(weights, deficit)]
        lifts = tuple(layout.lex_spread(coeffs)(shape))
        _LIFTS.keep(key, lifts)
    return lifts


def _points_refused():
    """The error of a lattice-point search that would make more than
    ``_POINT_WORK_CAP`` rows."""
    return ResourceCapError(f"lattice-point search made over {_POINT_WORK_CAP} rows")


def _minimal_rows(rows, layout, kept=()):
    """The keys of ``rows`` that no other key and no key of ``kept``
    divides, ascending; the keys of ``kept`` are not returned.

    Keys are of a lex ``PackedLayout`` with the degree above the fields
    (``lex_keys`` makes them), so ascending keys are ascending (degree,
    exponents) and a proper divisor of a key is a smaller key.  ``kept`` is
    an antichain holding no key of ``rows``, such as the rows of a fold that
    already satisfy its inequality.  Each key is tested, in ascending
    order, against the keys of lower degree kept so far, of ``kept`` or of
    ``rows``: one of its own degree divides it only when equal.  The first
    ``_PACK_AT`` of those are tried one by one by the guard test and the
    others all at once by ``_Blocks``, extended, never rebuilt, as the
    degree rises.
    """
    if not rows:
        return []
    guard, top, low = layout.guard, layout.top, layout.low
    kept = sorted(kept)
    # fresh: found at this degree; kept[:taken] are in lower, lower[_PACK_AT:] in blocks
    lower, found, fresh, degree, taken, blocks = [], [], [], None, 0, None
    for c in sorted(set(rows)):
        if c >> top != degree:
            degree = c >> top
            below = bisect_left(kept, degree << top, taken)
            lower += kept[taken:below]
            lower += fresh
            found += fresh
            taken, fresh, head = below, [], lower[:_PACK_AT]
            if len(lower) > _PACK_AT:
                blocks = blocks or _Blocks(layout)
                blocks.extend([k & low for k in lower[_PACK_AT + blocks.count:]])
        c_guard = c | guard
        for k in head:
            if (c_guard - k) & guard == guard:
                break
        else:
            if blocks is None or blocks.first(c & low) < 0:
                fresh.append(c)
    return found + fresh


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, canonically presented by its minimal generators.

    Build instances with :meth:`from_generators`; the raw constructor
    assumes ``rows`` is already the canonical antichain of exponent tuples.
    """

    ring: Ring
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(cls, ring, generators):
        gens = list(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
        return _ideal_from_rows(ring, [g.exponents for g in gens])

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def unit(cls, ring):
        return cls(ring, ((0,) * ring.n,))

    @cached_property
    def generators(self):
        """The rows as ``Monomial`` objects, built on first access."""
        return tuple(Monomial(self.ring, r) for r in self.rows)

    @property
    def is_zero(self):
        return not self.rows

    @property
    def is_unit(self):
        return len(self.rows) == 1 and not any(self.rows[0])

    @property
    def is_squarefree(self):
        return max(map(max, self.rows), default=0) <= 1

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")

    def contains(self, m):
        if m.ring != self.ring:
            raise RingMismatchError("monomial from a different ring")
        me = m.exponents
        return any(all(map(le, r, me)) for r in self.rows)

    def __contains__(self, m):
        return self.contains(m)

    def first_outside(self, other):
        """The first generator of other, in canonical order, outside self;
        None when other lies in self.

        That is the first row of other that no row of self divides.  A row
        of self divides a row of its own degree only when the two are equal,
        and never one of lower degree, so equal rows are found in a set, and
        a row of self's lowest degree or below is outside unless it is one
        of them.  The other rows are tested on keys of a
        ``bytewise`` layout, packed with self's rows when the first of them
        comes: each against self's rows from the lowest degree up, the
        first ``_PACK_AT`` one by one by the guard test and the rest all at
        once by ``_Blocks``."""
        self._check(other)
        rows, others = self.rows, other.rows
        members, floor, keys = set(rows), sum(rows[-1]) if rows else 0, None
        for i, r in enumerate(others):
            if r in members:
                continue
            if rows and sum(r) > floor:
                if keys is None:
                    layout = PackedLayout.bytewise(self.ring.n, max(map(max, rows + others)))
                    guard, low = layout.guard, layout.low
                    keys = layout.lex_keys(rows[::-1])
                    head, blocks, start = keys[:_PACK_AT], None, i
                    tested = layout.lex_keys(others[i:])
                c = tested[i - start]
                c_guard = c | guard
                if any((c_guard - k) & guard == guard for k in head):
                    continue
                if len(keys) > _PACK_AT:
                    if blocks is None:
                        blocks = _Blocks(layout)
                        blocks.extend([k & low for k in keys[_PACK_AT:]])
                    if blocks.first(c & low) >= 0:
                        continue
            return Monomial(self.ring, r)
        return None

    def contains_ideal(self, other):
        """True when every generator of other lies in self."""
        return self.first_outside(other) is None

    def _check_pairs(self, other, stage):
        """Refuse, before forming any row, a pairing of the two generator
        lists that would make more rows than ``_POINT_WORK_CAP``."""
        self._check(other)
        if len(self.rows) * len(other.rows) > _POINT_WORK_CAP:
            raise ResourceCapError(f"{stage} would make over {_POINT_WORK_CAP} rows")

    def __mul__(self, other):
        """The product, on keys of a ``bytewise`` layout: a product of two
        rows is the sum of their keys, degrees included, and
        ``_minimal_rows`` keeps the minimal sums, which are unpacked once."""
        self._check_pairs(other, "product")
        cap = DEFAULT_EXPONENT_CAP
        left, right = self.rows, other.rows
        if not left or not right:
            return MonomialIdeal.zero(self.ring)
        if self.is_unit or other.is_unit:
            return other if self.is_unit else self
        # some pair sums past the cap exactly when some column's maxima do
        bound = max(map(add, map(max, zip(*left)), map(max, zip(*right))))
        if bound > cap:
            raise ResourceCapError(f"exponent exceeds cap {cap} in product")
        layout = PackedLayout.bytewise(self.ring.n, bound)
        keys = layout.lex_keys(left)
        if other is self:  # a square: each unordered pair once
            sums = {a + b for i, a in enumerate(keys) for b in keys[i:]}
        else:
            others = layout.lex_keys(right)
            sums = {a + b for a in keys for b in others}
        # every exponent is within the cap checked above
        rows = layout.lex_rows(_minimal_rows(sums, layout))
        return MonomialIdeal(self.ring, tuple(reversed(rows)))

    def power(self, k):
        """I^k by repeated squaring, minimalizing after every product."""
        if k < 0:
            raise ValueError("negative power of an ideal")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return MonomialIdeal.unit(self.ring) if result is None else result

    def __pow__(self, k):
        return self.power(k)

    def ladder(self, factor, n):
        """self * factor^j for j = 0..n, lazily, each the previous times factor."""
        return accumulate(repeat(factor, n), mul, initial=self)

    def intersect(self, other):
        self._check_pairs(other, "intersection")
        rows = {_lcm_row(a, b) for a in self.rows for b in other.rows}
        return _ideal_from_rows(self.ring, rows)

    def __and__(self, other):
        return self.intersect(other)

    def colon(self, m):
        """(I : m), generated by g / gcd(g, m) over the generators g."""
        if m.ring != self.ring:
            raise RingMismatchError("monomial from a different ring")
        me = m.exponents
        return _ideal_from_rows(self.ring, {_colon_row(r, me) for r in self.rows})

    def radical(self):
        """Radical: generated by the squarefree parts of the generators."""
        rows = {tuple(min(e, 1) for e in r) for r in self.rows}
        return _ideal_from_rows(self.ring, rows)

    def minor(self, zeros=(), ones=()):
        """Substitute 0 for ``zeros`` and 1 for ``ones``, over the smaller ring.

        Generators meeting a zero variable are deleted; the remaining ones are
        projected to the surviving variables.  At least one variable must
        survive.
        """
        zset = {self.ring.index(v) for v in zeros}
        oset = {self.ring.index(v) for v in ones}
        if zset & oset:
            raise ValueError("zeros and ones overlap")
        keep = [i for i in range(self.ring.n) if i not in zset and i not in oset]
        if not keep:
            raise ValueError("minor would eliminate every variable")
        sub = Ring(tuple(self.ring.variables[i] for i in keep))
        rows = {tuple(r[i] for i in keep) for r in self.rows
                if not any(r[i] for i in zset)}
        return _ideal_from_rows(sub, rows)

    def __str__(self):
        if self.is_zero:
            return "0"
        return ", ".join(_monomial_text(self.ring.variables, r) or "1" for r in self.rows)

    def __repr__(self):
        return f"MonomialIdeal({self})"


def _ideal_from_rows(ring, rows):
    """The ideal of a collection of exponent rows: their byte keys,
    minimalized by ``_minimal_rows`` and unpacked once."""
    bound = max(map(max, rows), default=0)
    layout = PackedLayout.bytewise(ring.n, bound)
    minimal = _minimal_rows(layout.lex_keys(rows), layout)
    return _ideal_from_minimal(ring, layout.lex_rows(minimal), bound)


def _ideal_from_minimal(ring, minimal, bound):
    """The ideal of minimal rows in ascending (degree, exponents) order,
    reversed into canonical order.  No exponent is past ``bound``, so the
    rows are searched for one past the cap only when ``bound`` is."""
    rows = tuple(reversed(minimal))
    if bound > DEFAULT_EXPONENT_CAP:
        e = next((e for r in rows for e in r if e > DEFAULT_EXPONENT_CAP), None)
        if e is not None:
            raise ResourceCapError(f"exponent {e} exceeds cap {DEFAULT_EXPONENT_CAP}")
    return MonomialIdeal(ring, rows)


def parse_ring(text):
    """Parse ``ring x,y,z`` (the header keyword is optional)."""
    body = text.strip()
    if body.startswith("ring"):
        rest = body[4:]
        if rest and not rest[0].isspace():
            raise ParseError("expected whitespace after 'ring'", column=5)
        body = rest.strip()
    if not body:
        raise ParseError("empty ring description")
    try:
        return Ring(tuple(part.strip() for part in body.split(",")))
    except ValueError as exc:  # a bad or repeated name
        raise ParseError(str(exc)) from None


def parse_monomial(ring, text, offset=0):
    """Parse ``x^2*y`` style monomials; ``1`` is the unit monomial.

    ``offset`` shifts reported column numbers when the text is a slice of a
    larger input.
    """
    tokens = _tokens(text, offset)
    kind, value, col = tokens[0]
    if kind == "end":
        raise ParseError("empty monomial", column=col)
    if kind == "int" and value[0] == "1":
        if len(value) > 1:  # the text after '1' starts inside the digit run
            raise ParseError("unexpected text after '1'", column=col + 1)
        if tokens[1][0] != "end":
            raise ParseError("unexpected text after '1'", column=tokens[1][2])
        return ring.one()

    exps = [0] * ring.n
    pos = 0
    while True:
        kind, name, col = tokens[pos]
        if kind != "name":
            raise ParseError("expected a variable name", column=col)
        if name not in ring.variables:
            raise ParseError(f"unknown variable {name!r}", column=col)
        e = 1
        pos += 1
        if tokens[pos][:2] == ("other", "^"):
            kind, value, col = tokens[pos + 1]
            if kind != "int":
                raise ParseError("expected an exponent after '^'", column=col)
            e = int(_int_text(value, "exponent", col))
            pos += 2
        exps[ring.index(name)] += e
        kind, value, col = tokens[pos]
        if kind == "end":
            break
        if (kind, value) != ("other", "*"):
            raise ParseError("expected '*' between factors", column=col)
        pos += 1
    return Monomial(ring, tuple(exps))


def parse_ideal(ring, text):
    """Parse a comma-separated generator list; ``0`` denotes the zero ideal."""
    if not text.strip():
        raise ParseError("empty ideal description")
    if text.strip() == "0":
        return MonomialIdeal.zero(ring)
    gens = []
    pos = 0
    for chunk in text.split(","):
        if not chunk.strip():
            raise ParseError("empty generator", column=pos + 1)
        gens.append(parse_monomial(ring, chunk, offset=pos))
        pos += len(chunk) + 1
    return MonomialIdeal.from_generators(ring, gens)
