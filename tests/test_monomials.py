"""Monomial and ideal arithmetic, pinned examples plus enumeration oracles.

``blocks_differential`` holds the all-at-once divisibility test
``monomials._Blocks`` to pairwise divisibility on seeded key lists.  Run it
at larger sizes with::

    PYTHONPATH=src:tests python -c "import test_monomials as t; print(t.blocks_differential(SEED, COUNT))"
"""

import sys
import time
from collections import Counter
from operator import le

import pytest

from idealkit import (
    Graph,
    Monomial,
    MonomialIdeal,
    ParseError,
    ResourceCapError,
    RingMismatchError,
    edge_ideal,
    minimal_primes,
    newton_polyhedron,
    parse_ideal,
    parse_monomial,
    parse_ring,
    random_ideal,
    random_monomial,
    random_squarefree_ideal,
    rng_from_seed,
    symbolic_equals_ordinary,
)
from idealkit import monomials
from idealkit.monomials import (
    _PACK_AT,
    DEFAULT_EXPONENT_CAP,
    PackedLayout,
    _Blocks,
    _ideal_from_rows,
    _lcm_row,
    _lift_count,
    _minimal_lifts,
    _minimal_points,
    _minimal_rows,
)
from helpers import (
    compositions,
    first_outside_by_minimalization,
    product_by_tuples,
    minimal_lifts_by_recursion,
    minimal_points_by_tuples,
    minimal_rows_by_scan,
    numbered_ring,
    scan_member,
)

R2 = parse_ring("x, y")
R3 = parse_ring("x, y, z")
TRIANGLE = parse_ideal(R3, "x*y, x*z, y*z")


def test_divisibility_basics():
    one = parse_monomial(R2, "1")
    x = parse_monomial(R2, "x")
    x2y = parse_monomial(R2, "x^2*y")
    xy3 = parse_monomial(R2, "x*y^3")
    assert x.divides(x2y)
    assert not x2y.divides(xy3)
    assert one.divides(x) and one.divides(x2y) and one.divides(one)


def test_monomial_algebra():
    a = parse_monomial(R2, "x^2*y")
    b = parse_monomial(R2, "x*y^3")
    assert str(a * b) == "x^3*y^4"
    assert str(a.lcm(b)) == "x^2*y^3"
    assert str(a.gcd(b)) == "x*y"
    assert (a * b) / b == a
    assert str(b.squarefree_part()) == "x*y"
    assert a.degree == 3 and a.support == frozenset({0, 1})
    with pytest.raises(ValueError):
        parse_monomial(R2, "y") / parse_monomial(R2, "x")


def test_minimal_generators_prune_multiples():
    assert parse_ideal(R2, "x^2, x^2*y, y") == parse_ideal(R2, "x^2, y")
    assert MonomialIdeal.from_generators(R2, []).is_zero
    assert [str(g) for g in TRIANGLE.generators] == ["x*y", "x*z", "y*z"]


def test_canonical_generator_order_is_degree_then_exponents():
    ideal = parse_ideal(R3, "y*z, x^3, x*y")
    assert str(ideal) == "x^3, x*y, y*z"


def test_contains():
    assert parse_monomial(R3, "x^2*y") in TRIANGLE
    assert parse_monomial(R3, "x*y*z") in TRIANGLE
    assert parse_monomial(R2, "x*y") not in parse_ideal(R2, "x^2, y^2")
    assert not MonomialIdeal.zero(R2).contains(parse_monomial(R2, "x"))
    assert parse_monomial(R2, "1") in MonomialIdeal.unit(R2)


def test_product_golden():
    square = TRIANGLE * TRIANGLE
    assert square == parse_ideal(
        R3, "x^2*y^2, x^2*y*z, x^2*z^2, x*y^2*z, x*y*z^2, y^2*z^2"
    )
    assert parse_ideal(R2, "x") * parse_ideal(R2, "y") == parse_ideal(R2, "x*y")
    assert TRIANGLE.power(1) == TRIANGLE
    assert TRIANGLE ** 2 == square


def test_intersection_golden():
    assert parse_ideal(R2, "x") & parse_ideal(R2, "y") == parse_ideal(R2, "x*y")
    meet = parse_ideal(R3, "x, y") & parse_ideal(R3, "x, z") & parse_ideal(R3, "y, z")
    assert meet == TRIANGLE
    assert parse_ideal(R2, "x^2, y").intersect(parse_ideal(R2, "x")) == parse_ideal(
        R2, "x^2, x*y"
    )


def test_colon_golden():
    assert parse_ideal(R2, "x^2*y").colon(parse_monomial(R2, "x")) == parse_ideal(
        R2, "x*y"
    )
    assert TRIANGLE.colon(parse_monomial(R3, "x")) == parse_ideal(R3, "y, z")
    assert TRIANGLE.colon(parse_monomial(R3, "1")) == TRIANGLE


def test_radical_golden():
    assert parse_ideal(R2, "x^2, y^3").radical() == parse_ideal(R2, "x, y")
    assert TRIANGLE.radical() == TRIANGLE
    assert parse_ideal(R2, "x^2*y").radical() == parse_ideal(R2, "x*y")


def test_minor_golden():
    assert TRIANGLE.minor(zeros=("z",)) == parse_ideal(R2, "x*y")
    assert TRIANGLE.minor(ones=("z",)) == parse_ideal(R2, "x, y")
    assert TRIANGLE.minor() == TRIANGLE
    with pytest.raises(ValueError):
        TRIANGLE.minor(zeros=("x",), ones=("x",))


def test_power_of_maximal_ideal_generator_count():
    maximal = parse_ideal(R2, "x, y")
    for power in (1, 2, 5, 9):
        assert len(maximal.power(power).generators) == power + 1


def test_parse_round_trip():
    rng = rng_from_seed("idealkit:monomials:roundtrip")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=6, max_degree=5)
        assert parse_ideal(ring, str(ideal)) == ideal
        probe = random_monomial(rng, ring, 6)
        assert parse_monomial(ring, str(probe)) == probe


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_monomial(R2, "x^")
    with pytest.raises(ParseError):
        parse_ideal(R2, "x, w")
    with pytest.raises(ParseError):
        parse_ring("x,, y")


def test_cross_ring_operations_are_rejected():
    with pytest.raises(RingMismatchError):
        parse_ideal(R2, "x").intersect(parse_ideal(R3, "x"))
    with pytest.raises(RingMismatchError):
        parse_monomial(R2, "x").divides(parse_monomial(R3, "x"))


def test_exponent_cap_guard():
    with pytest.raises(ResourceCapError):
        parse_ideal(R2, "x^600000").power(2)


def test_product_cap_boundary():
    r1 = parse_ring("x")
    half = parse_ideal(r1, "x^500000")
    assert half * half == parse_ideal(r1, "x^1000000")
    over = parse_ideal(r1, "x^500001")
    with pytest.raises(ResourceCapError, match="exponent exceeds cap 1000000 in product"):
        over * over
    # only the pair x^600000 * x^400001 crosses the cap
    with pytest.raises(ResourceCapError, match="exponent exceeds cap 1000000 in product"):
        parse_ideal(R3, "x^600000, y") * parse_ideal(R3, "x^400001, z")


def _seeded_rows(rng, n, count, top):
    """``count`` rows in n variables: points of degree ``top`` to
    ``top`` + 3, few of which divide each other, small multiples of earlier
    rows, and repeats."""
    rows = []
    while len(rows) < count:
        pick = rng.random()
        if rows and pick < 0.3:
            rows.append(tuple(e + rng.randint(0, 2) for e in rng.choice(rows)))
        elif rows and pick < 0.4:
            rows.append(rng.choice(rows))
        else:
            cuts = sorted(rng.randint(0, top) for _ in range(n - 1))
            row = [b - a for a, b in zip([0] + cuts, cuts + [top])]
            row[rng.randrange(n)] += rng.randint(0, 3)
            rows.append(tuple(row))
    rng.shuffle(rows)
    return rows


LAYOUTS = {
    "bytewise": PackedLayout.bytewise,
    "fitting": lambda n, bound: PackedLayout.fitting("lex", tuple(range(n)), bound),
}


def _kernel(kind, rows, kept=()):
    """``_minimal_rows`` on the keys of exponent tuples under a lex layout
    of ``kind``, whose keys ascend with the rows, unpacked."""
    both = list(rows) + list(kept)
    layout = LAYOUTS[kind](len(both[0]), max(map(max, both)))
    keys = _minimal_rows(layout.lex_keys(rows), layout, layout.lex_keys(kept))
    assert keys == sorted(keys)
    return layout.lex_rows(keys)


def _check_kernel(kind, pick, rows):
    """The kernel keeps the scan's rows in the scan's ascending (degree,
    tuple) order, on all the rows, and with a part of that answer, picked
    by ``pick``, passed as ``kept``: every other row is divided by some
    answer row, kept or tested, so the tested ones left are the rest."""
    want = minimal_rows_by_scan(rows)
    assert _kernel(kind, rows) == want
    kept = set(pick.sample(want, pick.randint(0, len(want))))
    tested = [r for r in rows if r not in kept]
    if tested:
        assert _kernel(kind, tested, kept) == [r for r in want if r not in kept]
    return want


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_minimal_rows_match_the_scan(kind):
    rng = rng_from_seed("idealkit:monomials:minimal-rows")
    pick = rng_from_seed("idealkit:monomials:minimal-rows:kept")
    counts = [1, 2, _PACK_AT - 1, _PACK_AT, _PACK_AT + 1, 2 * _PACK_AT + 1, 60, 150, 300]
    tops = [1, 3, 12, 1000, 10**6 - 5]
    for n in range(1, 7):
        for trial, count in enumerate(counts * 2):
            rows = _seeded_rows(rng, n, count, rng.choice(tops))
            if trial % 4 == 0:
                rows.append((0,) * n)
            _check_kernel(kind, pick, rows)
    # staircases: one degree, so nothing divides anything; then their
    # multiples of higher degree, each divided by one step far along
    for n, d in ((2, 200), (3, 22), (4, 9)):
        steps = list(compositions(d, n))
        assert _check_kernel(kind, pick, steps) == sorted(steps)
        lifted = [tuple(e + rng.randint(0, 1) for e in t) for t in steps]
        fresh = [tuple(rng.randint(0, d + 1) for _ in range(n)) for _ in range(50)]
        _check_kernel(kind, pick, steps + lifted + fresh)
    # exponents at the default cap
    big = [(10**6 - i, i) for i in range(40)] + [(10**6, 10**6), (10**6, 0)]
    _check_kernel(kind, pick, big)
    # ideals take their canonical order, descending (degree, exponents),
    # by reversing the kernel's rows, which ascend in that order
    rng = rng_from_seed("idealkit:monomials:row-order")
    for n in range(1, 5):
        for count in (1, _PACK_AT, 3 * _PACK_AT, 300):
            rows = _seeded_rows(rng, n, count, rng.choice([2, 9, 1000]))
            want = _check_kernel(kind, pick, rows)
            assert _ideal_from_rows(numbered_ring(n), rows).rows == tuple(want[::-1])


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_minimal_rows_fold_lifted_rows_past_satisfied_ones(kind):
    # a fold of _minimal_points: the satisfied rows are kept, and only the
    # lifted rows, which divide none of them, are tested
    rng = rng_from_seed("idealkit:monomials:fold-rows")
    for n in range(2, 6):
        for count in (1, _PACK_AT - 1, _PACK_AT, _PACK_AT + 1, 2 * _PACK_AT + 1, 300):
            satisfied, lifted = _fold_inputs(rng, n, count)
            folded = satisfied + (_kernel(kind, lifted, satisfied) if lifted else [])
            rows = satisfied + lifted
            assert sorted(folded, key=lambda r: (sum(r), r)) == minimal_rows_by_scan(rows)


def _layout_row(rng, n, cap, limit):
    """n exponents in 0..cap, mostly 0 or cap, lowered to sum at most limit."""
    row = [rng.choice((0, cap, rng.randint(0, cap))) for _ in range(n)]
    over = sum(row) - limit
    for i in rng.sample(range(n), n):
        cut = min(row[i], max(over, 0))
        row[i] -= cut
        over -= cut
    return tuple(row)


def test_layout_operations_match_the_tuple_kernel():
    # lcm, key and total read plain fields, which every caller keeps
    # summing below 2^width; a grevlex key also needs the degree <= cap
    widest = PackedLayout.fitting("lex", (0,), DEFAULT_EXPONENT_CAP).width
    assert widest == 21
    rng = rng_from_seed("idealkit:monomials:layout-operations")
    seen = set()
    for width in range(2, widest + 1):
        for kind in ("lex", "grevlex"):
            for _ in range(12):
                n = rng.randint(1, 5)
                layout = PackedLayout(kind, tuple(rng.sample(range(n), n)), width)
                cap, limit = layout.cap, (1 << width) - 1

                def fields(row):
                    return sum(e << s for e, s in zip(row, layout.shifts))

                assert layout.ones == fields((1,) * n)
                a, b = (_layout_row(rng, n, cap, limit) for _ in range(2))
                assert layout.lcm(fields(a), fields(b)) == fields(_lcm_row(a, b))
                assert [layout.total(fields(r)) for r in (a, b)] == [sum(a), sum(b)]
                c = _layout_row(rng, n, cap, cap if kind == "grevlex" else limit)
                assert layout.key(fields(c)) == layout.pack(c)
                if n >= 3:  # the sum at the bound: cap + cap + 1
                    edge = [0] * n
                    i, j, k = rng.sample(range(n), 3)
                    edge[i] = edge[j] = cap
                    edge[k] = 1
                    assert layout.total(fields(edge)) == limit
                seen.update((kind, "zero") for e in a + b + c if e == 0)
                seen.update((kind, "cap") for e in a + b + c if e == cap)
                seen.update((kind, "bound") for r in (a, b) if sum(r) == limit)
    assert seen == {(kind, case) for kind in ("lex", "grevlex")
                    for case in ("zero", "cap", "bound")}


def test_bytewise_width_is_the_least_whole_byte_width():
    for bound, width in ((0, 8), (1, 8), (127, 8), (128, 16), (32767, 16), (32768, 32),
                         (DEFAULT_EXPONENT_CAP, 32), (2**31 - 1, 32), (2**31, 64),
                         (2**63 - 1, 64), (2**63, 128)):
        layout = PackedLayout.bytewise(3, bound)
        assert (layout.kind, layout.permutation, layout.width) == ("lex", (0, 1, 2), width)
        assert layout.cap >= bound and (width == 8 or bound > (1 << width // 2 - 1) - 1)


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_byte_keys_round_trip_at_each_width(byteorder):
    # the array branch of either byte order runs on any host; only the
    # host's own order gives the keys of the shift route
    rng = rng_from_seed(f"idealkit:monomials:byte-keys:{byteorder}")
    for width in (8, 16, 32, 64, 128):
        for n in (1, 2, 5, 40):
            layout = PackedLayout.bytewise(n, (1 << width - 1) - 1)
            assert layout.width == width
            cap = layout.cap
            rows = [tuple(rng.choice((0, 1, cap, rng.randint(0, cap))) for _ in range(n))
                    for _ in range(20)]
            keys = layout.lex_keys(rows, byteorder)
            assert layout.lex_rows(keys, byteorder) == rows
            assert [k >> layout.top for k in keys] == list(map(sum, rows))
            if byteorder == sys.byteorder or width in (8, 128):
                assert keys == [layout.pack(r) | sum(r) << layout.top for r in rows]
            # rows over a support, their degree first, spread with zeros
            present = [rng.random() < 0.5 for _ in range(n)]
            spread = [tuple(e if p else 0 for e, p in zip(r, present)) for r in rows]
            spread = [r for r in spread if sum(r) <= cap]
            small = [(sum(r),) + tuple(e for e, p in zip(r, present) if p) for r in spread]
            assert layout.lex_spread(present)(small) == layout.lex_keys(spread)
    assert PackedLayout.bytewise(3, 5).lex_rows([]) == []


def _boundary_ideal(rng, ring, total):
    """An ideal of up to four generators in which some exponent is
    ``total``, the others random below it."""
    n = ring.n
    rows = {tuple(rng.randint(0, total) for _ in range(n)) for _ in range(rng.randint(1, 3))}
    top = [0] * n
    top[rng.randrange(n)] = total
    rows.add(tuple(top))
    return _ideal_from_rows(ring, rows)


def test_products_and_powers_match_the_tuple_product_across_widths():
    # exponent sums on either side of the 8-, 16- and 32-bit field caps and
    # of the exponent cap; errors must match the tuple product's
    rng = rng_from_seed("idealkit:monomials:byte-products")
    seen = Counter()
    for target in (127, 128, 32767, 32768, DEFAULT_EXPONENT_CAP, DEFAULT_EXPONENT_CAP + 1):
        for _ in range(40):
            ring = numbered_ring(rng.randint(1, 4))
            half = rng.randint(0, target)
            left = _boundary_ideal(rng, ring, half)
            right = _boundary_ideal(rng, ring, target - half)
            for a, b in ((left, right), (left, left), (right, right)):
                try:
                    want = product_by_tuples(a, b)
                except ResourceCapError as exc:
                    with pytest.raises(ResourceCapError, match=f"^{exc}$"):
                        a * b
                    seen["capped"] += 1
                    continue
                got = a * b
                assert got == want, (a, b)
                assert got.rows == want.rows and got.ring == want.ring
                seen[PackedLayout.bytewise(1, max(map(max, got.rows))).width] += 1
    zero, unit = MonomialIdeal.zero(R3), MonomialIdeal.unit(R3)
    for a in (zero, unit, TRIANGLE):
        for b in (zero, unit, TRIANGLE):
            assert a * b == product_by_tuples(a, b)
    for k in (1, 2, 3, 5):
        ideal = parse_ideal(R2, "x^43, x^10*y^30, y^64")
        want = ideal
        for _ in range(k - 1):
            want = product_by_tuples(want, ideal)
        assert ideal.power(k) == want
    with pytest.raises(ResourceCapError, match="^exponent exceeds cap 1000000 in product$"):
        parse_ideal(R2, "x^250001, y").power(4)
    assert set(seen) == {8, 16, 32, "capped"}, seen


def test_first_outside_matches_the_joint_minimalization_across_widths():
    rng = rng_from_seed("idealkit:monomials:byte-first-outside")
    found = Counter()
    for total in (127, 128, 32767, 32768, DEFAULT_EXPONENT_CAP):
        for _ in range(60):
            ring = numbered_ring(rng.randint(1, 4))
            big = _boundary_ideal(rng, ring, total)
            if rng.random() < 0.5:
                big = _ideal_from_rows(ring, big.rows + _boundary_ideal(rng, ring, total).rows)
            small = _ideal_from_rows(ring, [
                tuple(min(e + rng.randint(0, 2), total) for e in rng.choice(big.rows))
                for _ in range(rng.randint(1, 20))] + list(_boundary_ideal(rng, ring, total).rows))
            for a, b in ((big, small), (small, big), (big, big)):
                want = first_outside_by_minimalization(a, b)
                assert a.first_outside(b) == want, (a, b)
                found[want is None] += 1
    assert found[True] and found[False], found


def blocks_differential(seed, count):
    """``_Blocks`` against pairwise divisibility on ``count`` seeded key
    lists: lex and grevlex layouts of every field width, exponents at 0, at
    ``cap`` or between, held in one chunk or in several.  ``first`` must
    name the first dividing key in list order, or -1.  Returns how many
    queries had no divisor, one, or several, and how many lists came in
    one chunk or in several."""
    rng = rng_from_seed(f"idealkit:monomials:blocks:{seed}")
    widest = PackedLayout.fitting("lex", (0,), DEFAULT_EXPONENT_CAP).width
    seen = Counter()
    for _ in range(count):
        n = rng.randint(1, 5)
        kind = rng.choice(("lex", "grevlex"))
        layout = PackedLayout(kind, tuple(rng.sample(range(n), n)), rng.randint(2, widest))
        cap = layout.cap

        def fields(row):
            return (layout.pack(row) ^ layout.flip) & layout.low

        def row():
            return tuple(rng.choice((0, cap, rng.randint(0, cap))) for _ in range(n))

        keys = [row() for _ in range(rng.randint(1, 40))]
        blocks = _Blocks(layout)
        assert blocks.first(fields(row())) == -1
        cuts = sorted(rng.sample(range(1, len(keys)), rng.randint(0, min(3, len(keys) - 1))))
        seen["chunks", len(cuts) > 0] += 1
        for a, b in zip([0] + cuts, cuts + [len(keys)]):
            blocks.extend([fields(k) for k in keys[a:b]])
        queries = [row() for _ in range(10)] + rng.sample(keys, min(5, len(keys)))
        queries += [tuple(min(e + rng.randint(0, 2), cap) for e in k) for k in keys[:5]]
        for q in queries:
            dividing = [j for j, k in enumerate(keys) if all(map(le, k, q))]
            assert blocks.first(fields(q)) == (dividing + [-1])[0], (layout, keys, q)
            seen["divisors", min(len(dividing), 2)] += 1
    return seen


def test_blocks_find_the_first_divisor():
    seen = blocks_differential(seed=1, count=400)
    assert all(seen["divisors", k] for k in (0, 1, 2)), seen
    assert seen["chunks", True] and seen["chunks", False], seen


def _fold_inputs(rng, n, count):
    """One fold's rows as exponent tuples: an antichain of ``count`` rows,
    split into rows that satisfy the fold and rows lifted by one to three
    nonzero steps.  The antichain's first exponent rises while its second
    falls, by random steps, and the other exponents are random, so its
    degrees spread and satisfied rows fall below, among and above the
    lifted ones."""
    firsts = sorted(rng.sample(range(3 * count), count))
    seconds = sorted(rng.sample(range(3 * count), count), reverse=True)
    satisfied, lifted = [], []
    for a, b in zip(firsts, seconds):
        g = (a, b) + tuple(rng.randint(0, 9) for _ in range(n - 2))
        if rng.random() < 0.5:
            satisfied.append(g)
            continue
        for _ in range(rng.randint(1, 3)):
            step = [0] * n
            while not any(step):
                step = [rng.randint(0, 2) for _ in range(n)]
            lifted.append(tuple(map(sum, zip(g, step))))
    return satisfied, lifted


def test_pairing_cap_trips_before_forming_rows(monkeypatch):
    # 3 x 3 generator pairs exceed a cap of 8; 3 x 2 pairs stay within it
    monkeypatch.setattr("idealkit.monomials._POINT_WORK_CAP", 8)
    two = parse_ideal(R3, "x, y")
    assert TRIANGLE * two == parse_ideal(R3, "x^2*y, x*y^2, x^2*z, x*y*z, y^2*z")
    assert TRIANGLE & two == TRIANGLE
    with pytest.raises(ResourceCapError, match="product would make over 8 rows"):
        TRIANGLE * TRIANGLE
    with pytest.raises(ResourceCapError, match="intersection would make over 8 rows"):
        TRIANGLE & TRIANGLE
    with pytest.raises(ResourceCapError):
        TRIANGLE.power(2)


def test_product_membership_matches_pairwise_scan():
    rng = rng_from_seed("idealkit:monomials:product")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 3))
        left = random_ideal(rng, ring, max_generators=4, max_degree=4)
        right = random_ideal(rng, ring, max_generators=4, max_degree=4)
        probe = random_monomial(rng, ring, 8)
        direct = any(
            all(a + b <= c for a, b, c in zip(g.exponents, h.exponents, probe.exponents))
            for g in left.generators
            for h in right.generators
        )
        assert (left * right).contains(probe) == direct


def test_intersection_membership_is_conjunction():
    rng = rng_from_seed("idealkit:monomials:intersect")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 3))
        left = random_ideal(rng, ring, max_generators=4, max_degree=4)
        right = random_ideal(rng, ring, max_generators=4, max_degree=4)
        meet = left.intersect(right)
        probe = random_monomial(rng, ring, 8)
        assert meet.contains(probe) == (left.contains(probe) and right.contains(probe))


def test_colon_membership_matches_definition():
    rng = rng_from_seed("idealkit:monomials:colon")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=4)
        divisor = random_monomial(rng, ring, 3)
        quotient = ideal.colon(divisor)
        probe = random_monomial(rng, ring, 6)
        assert quotient.contains(probe) == ideal.contains(probe * divisor)


def test_radical_membership_matches_power_scan():
    # x^a lies in the radical iff a high power of it lands in the ideal;
    # the max generator exponent bounds how high is high enough
    rng = rng_from_seed("idealkit:monomials:radical")
    for _ in range(200):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=4)
        bound = max(max(g.exponents) for g in ideal.generators)
        probe = random_monomial(rng, ring, 4)
        scaled = tuple(e * bound for e in probe.exponents)
        assert ideal.radical().contains(probe) == scan_member(ideal, scaled)


def test_power_is_iterated_product():
    rng = rng_from_seed("idealkit:monomials:power")
    for _ in range(60):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=3)
        assert ideal.power(2) == ideal * ideal
        assert ideal.power(3) == ideal * ideal * ideal
        assert ideal.power(2) * ideal.power(1) == ideal.power(3)


def test_power_makes_one_product_per_squaring_and_set_bit(monkeypatch):
    products = []
    multiply = MonomialIdeal.__mul__
    monkeypatch.setattr(
        MonomialIdeal, "__mul__", lambda self, other: products.append(1) or multiply(self, other)
    )
    for k, count in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        products.clear()
        power = TRIANGLE.power(k)
        assert len(products) == count, k
    assert power == TRIANGLE * TRIANGLE * TRIANGLE * TRIANGLE * TRIANGLE
    assert TRIANGLE.power(0) == MonomialIdeal.unit(R3)
    assert TRIANGLE.power(1) == TRIANGLE


def test_first_outside_is_the_first_generator_outside():
    rng = rng_from_seed("idealkit:monomials:first-outside")
    for _ in range(100):
        ring = numbered_ring(rng.randint(1, 3))
        big = random_ideal(rng, ring, max_generators=4, max_degree=3)
        small = random_ideal(rng, ring, max_generators=4, max_degree=4)
        want = next((g for g in small.generators if g not in big), None)
        assert big.first_outside(small) == want
        assert big.contains_ideal(small) == (want is None)
    assert TRIANGLE.first_outside(TRIANGLE.power(2)) is None
    assert TRIANGLE.power(2).first_outside(TRIANGLE) == TRIANGLE.generators[0]
    with pytest.raises(RingMismatchError):
        TRIANGLE.first_outside(parse_ideal(R2, "x"))
    # a generator equal to one of self's is inside; x^2 comes before x*y
    assert parse_ideal(R2, "x^2, y^3").first_outside(parse_ideal(R2, "x^2, x*y")) == \
        parse_monomial(R2, "x*y")
    assert TRIANGLE.first_outside(TRIANGLE) is None
    zero, unit = MonomialIdeal.zero(R3), MonomialIdeal.unit(R3)
    for big, small, want in ((zero, TRIANGLE, TRIANGLE.generators[0]), (TRIANGLE, zero, None),
                             (unit, TRIANGLE, None), (TRIANGLE, unit, R3.one()),
                             (zero, unit, R3.one()), (unit, zero, None),
                             (zero, zero, None), (unit, unit, None)):
        assert big.first_outside(small) == want


def test_first_outside_on_more_rows_than_the_scan_takes(monkeypatch):
    # self has more than _PACK_AT generators, so the all-at-once test of
    # _Blocks serves the rows of other that get past the first ones
    fitted = []
    extend = _Blocks.extend
    monkeypatch.setattr(_Blocks, "extend", lambda blocks, fields: fitted.append(fields) or
                        extend(blocks, fields))
    rng = rng_from_seed("idealkit:monomials:first-outside-packed")
    packed = 0
    for n, d in ((2, 40), (3, 8), (4, 5)):
        ring = numbered_ring(n)
        steps = [Monomial(ring, t) for t in compositions(d, n)]
        for _ in range(20):
            big = MonomialIdeal.from_generators(
                ring, rng.sample(steps, rng.randint(_PACK_AT + 1, len(steps))))
            small = MonomialIdeal.from_generators(ring, (
                random_monomial(rng, ring, 3) * rng.choice(steps)
                for _ in range(rng.randint(1, 3 * _PACK_AT))))
            want = next((g for g in small.generators if g not in big), None)
            assert first_outside_by_minimalization(big, small) == want
            fitted.clear()
            assert big.first_outside(small) == want
            packed += bool(fitted)
            assert len(fitted) <= 1  # self's keys past the first ones, packed once
    assert packed > 30


def test_first_outside_packs_only_the_rows_it_tests(monkeypatch):
    # no minimalization; nothing is packed until a row of other is neither
    # one of self's nor of self's lowest degree or below, and then self's
    # rows and other's from that row on are packed once
    calls, minimized = [], []
    square = TRIANGLE.power(2)
    zero, unit = MonomialIdeal.zero(R3), MonomialIdeal.unit(R3)
    low, high = parse_ideal(R3, "x, y^2"), parse_ideal(R3, "y^3, x*z, z^2")
    lex_keys = PackedLayout.lex_keys
    monkeypatch.setattr(PackedLayout, "lex_keys", lambda layout, rows: calls.append(
        len(rows)) or lex_keys(layout, rows))
    monkeypatch.setattr(monomials, "_minimal_rows", lambda *args: minimized.append(args) or
                        _minimal_rows(*args))
    for big, small, packs in ((TRIANGLE, square, [3, 6]), (square, TRIANGLE, []),
                              (TRIANGLE, TRIANGLE, []), (zero, TRIANGLE, []),
                              (TRIANGLE, unit, []), (TRIANGLE, zero, []),
                              (low, high, [2, 3]), (high, low, [])):
        calls.clear()
        assert big.first_outside(small) == first_outside_by_minimalization(big, small)
        assert calls == packs, (big, small)
    assert not minimized


def test_ladder_multiplies_lazily_by_its_factor(monkeypatch):
    factor = parse_ideal(R3, "x, y^2")
    want = [TRIANGLE, TRIANGLE * factor, TRIANGLE * factor * factor]
    assert list(TRIANGLE.ladder(factor, 2)) == want
    assert list(TRIANGLE.ladder(factor, 0)) == [TRIANGLE]
    products = []
    multiply = MonomialIdeal.__mul__
    monkeypatch.setattr(
        MonomialIdeal, "__mul__", lambda self, other: products.append(1) or multiply(self, other)
    )
    rungs = TRIANGLE.ladder(factor, 50)
    assert next(rungs) is TRIANGLE and next(rungs) == want[1] and next(rungs) == want[2]
    assert len(products) == 2


def test_rows_are_the_ideal_and_generators_are_built_once():
    ideal = parse_ideal(R3, "x^2, x*y*z, y*z^3, x^2*y")
    assert ideal.rows == ((0, 1, 3), (1, 1, 1), (2, 0, 0))
    gens = ideal.generators
    assert gens is ideal.generators
    assert gens == tuple(Monomial(R3, r) for r in ideal.rows)
    rng = rng_from_seed("idealkit:monomials:rows")
    for _ in range(100):
        ring = numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=7, max_degree=4)
        raw = MonomialIdeal(ring, tuple(tuple(g.exponents) for g in ideal.generators))
        assert raw == ideal and hash(raw) == hash(ideal)
        assert raw == MonomialIdeal.from_generators(ring, reversed(ideal.generators))
    assert MonomialIdeal.unit(R2).rows == ((0, 0),) and MonomialIdeal.zero(R2).rows == ()


def test_monomials_are_built_only_for_answers(monkeypatch):
    # ideals compute on exponent rows: the only Monomials made are parsed
    # inputs and returned witnesses
    built = []
    init = Monomial.__post_init__

    def counting(m):
        built.append(m)
        init(m)

    monkeypatch.setattr(Monomial, "__post_init__", counting)
    assert symbolic_equals_ordinary(edge_ideal(Graph.cycle(7)), 3) == (True, None)
    assert len(built) == 0
    equal, witness = symbolic_equals_ordinary(edge_ideal(Graph.cycle(5)), 3)
    assert not equal and built == [witness]
    built.clear()
    table = parse_ideal(R3, "x^2, y^3, z^4, x*y*z")
    assert len(table.power(8).rows) == 130
    assert len(built) == 4


def test_square_matches_product_with_an_equal_copy():
    # I * I pairs each unordered pair of generators once; an equal ideal
    # that is another object takes the full pairing
    rng = rng_from_seed("idealkit:monomials:square")
    for _ in range(100):
        ring = numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=7, max_degree=4)
        copy = MonomialIdeal(ideal.ring, ideal.rows)
        assert copy == ideal and copy is not ideal
        assert ideal * ideal == ideal * copy
        assert ideal.power(4) == ideal * copy * copy * copy


def test_generators_are_always_minimal_antichains():
    rng = rng_from_seed("idealkit:monomials:antichain")
    for _ in range(100):
        ring = numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=6, max_degree=5)
        square = ideal * ideal
        gens = square.generators
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                assert i == j or not g.divides(h)


def _point_systems():
    """Seeded lattice-point systems: symbolic powers of square-free ideals,
    power closures of Newton polyhedra (whose facets have coefficients above
    1), and coefficients up to 3 with bounds at powers of two, which put the
    rows and dot products at the edges of their field widths.  In the first
    ones the last inequality meets the rows (0, 0, 1) and (a, a, 0), the
    second with c . g = 6a, past twice the rows' reach of 2a: fields sized
    for the rows alone would carry there."""
    rng = rng_from_seed("idealkit:monomials:points")
    ring = numbered_ring(3)
    systems = [(ring, [((1, 0, a), a), ((0, 1, a), a), ((3, 3, 3), 6)]) for a in range(2, 25)]
    while len(systems) < 83:
        ring = numbered_ring(rng.randint(2, 5))
        ideal = random_squarefree_ideal(rng, ring, max_generators=5)
        if not ideal.is_zero and not ideal.is_unit:
            k = rng.randint(1, 4)
            systems.append((ring, [(tuple(int(j in p.indices) for j in range(ring.n)), k)
                                   for p in minimal_primes(ideal)]))
    while len(systems) < 143:
        ring = numbered_ring(rng.randint(2, 3))
        ideal = random_ideal(rng, ring, max_generators=4, max_degree=5)
        if not ideal.is_zero and not ideal.is_unit:
            n = rng.randint(1, 3)
            facets = newton_polyhedron(ideal).facets
            systems.append((ring, [(c, n * b) for c, b in facets]))
    while len(systems) < 203:
        ring = numbered_ring(rng.randint(1, 3))
        system = []
        for _ in range(rng.randint(1, 3)):
            coeffs = tuple(rng.randint(0, 3) for _ in range(ring.n))
            if any(coeffs):
                system.append((coeffs, (1 << rng.randint(1, 5)) + rng.randint(-1, 1)))
        if system:
            systems.append((ring, system))
    return systems


def test_minimal_points_match_the_tuple_folds():
    for ring, system in _point_systems():
        rows, _ = minimal_points_by_tuples(ring.n, system)
        assert _minimal_points(ring, system).rows == tuple(reversed(rows)), system


def test_point_work_cap_trips_at_the_tuple_folds_count(monkeypatch):
    # the packed folds count every lifted row, as the tuple folds do: a cap
    # one below that count raises, a cap equal to it answers.  Lift keys
    # held from earlier calls count as formed ones do, so each cap is tried
    # with the lift cache cleared and with it filled by the same system
    real_cap = monomials._POINT_WORK_CAP
    for ring, system in _point_systems():
        rows, made = minimal_points_by_tuples(ring.n, system)
        for warm in (False, True):
            for cap in (made - 1, made):
                monkeypatch.setattr(monomials, "_POINT_WORK_CAP", real_cap)
                monomials._LIFTS.clear()
                if warm:
                    _minimal_points(ring, system)
                monkeypatch.setattr(monomials, "_POINT_WORK_CAP", cap)
                if cap < made:
                    with pytest.raises(ResourceCapError,
                                       match=f"^lattice-point search made over {cap} rows$"):
                        _minimal_points(ring, system)
                else:
                    assert _minimal_points(ring, system).rows == tuple(reversed(rows))


def test_lift_cache_holds_tuples_of_keys_within_its_bound():
    # (x, y, z)^(d) lifts d over three unit weights, C(d + 2, 2) keys: the
    # entries pass the bound from d = 28 on, so the oldest go, and d = 90
    # alone (4,186 keys) is past it and not kept
    cache, bound = monomials._LIFTS, monomials._LIFT_CACHE_BOUND
    assert bound == 4096
    cache.clear()
    ring = numbered_ring(3)
    held = []
    for d in [*range(1, 41), 89, 90]:
        power = _minimal_points(ring, [((1, 1, 1), d)])
        assert len(power.rows) == (d + 1) * (d + 2) // 2
        assert cache.held == sum(map(len, cache.values())) <= bound
        held.append(cache.held)
        for (width, coeffs, deficit), lifts in cache.items():
            assert width in (8, 16) and coeffs == (1, 1, 1) and 0 < deficit <= d
            assert type(lifts) is tuple and all(type(key) is int for key in lifts)
            assert len(lifts) == (deficit + 1) * (deficit + 2) // 2
    assert held[26] == sum((d + 1) * (d + 2) // 2 for d in range(1, 28)) == 4059
    assert list(cache) == [(16, (1, 1, 1), 89)] and held[-1] == 4095


def test_lift_cache_drops_its_oldest_entries_first(monkeypatch):
    # a cache of ten keys: d = 3 (ten keys) drops d = 1 and d = 2, and
    # d = 4 (fifteen) is not kept; answers are the same with any of it held
    cache = monomials._LiftCache(10)
    monkeypatch.setattr(monomials, "_LIFTS", cache)
    ring = numbered_ring(3)
    kept = []
    for d in (1, 2, 3, 4, 3):
        system = [((1, 1, 1), d)]
        rows, _ = minimal_points_by_tuples(3, system)
        assert _minimal_points(ring, system).rows == tuple(reversed(rows))
        kept.append([deficit for _, _, deficit in cache])
    assert kept == [[1], [1, 2], [3], [3], [3]]
    assert cache.held == 10


def test_minimal_lifts_match_the_recursion_in_order():
    rng = rng_from_seed("idealkit:monomials:lifts")
    for _ in range(300):
        weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
        deficit = rng.randint(-2, 12)
        assert list(_minimal_lifts(weights, deficit)) == list(
            minimal_lifts_by_recursion(weights, deficit)), (weights, deficit)


def test_lift_count_counts_the_lifts():
    rng = rng_from_seed("idealkit:monomials:lift-count")
    for _ in range(300):
        weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        deficit = rng.randint(-2, 14)
        assert _lift_count(weights, deficit) == len(list(_minimal_lifts(weights, deficit)))
    assert _lift_count((1,) * 1200, 2) == 1201 * 1200 // 2


def test_lift_count_stops_early_only_past_the_cap(monkeypatch):
    # a count within the cap is exact; one past it may stop at a lower
    # bound, which is past the cap too
    rng = rng_from_seed("idealkit:monomials:lift-count-cap")
    for _ in range(300):
        weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        deficit = rng.randint(-2, 14)
        lifts = len(list(_minimal_lifts(weights, deficit)))
        cap = rng.randint(0, 2 * lifts)
        monkeypatch.setattr(monomials, "_POINT_WORK_CAP", cap)
        count = _lift_count(weights, deficit)
        assert count == lifts if lifts <= cap else count > cap, (weights, deficit, cap)


def test_lift_count_refuses_unequal_weights_quickly():
    # the first weight leaves 500,000 deficits, the second's pairs pass
    # the cap: refused without counting every lift
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="^lattice-point search made over 500000 rows$"):
        _minimal_points(numbered_ring(3), [((2, 3, 5), 10**6)])
    assert time.perf_counter() - start < 5
