"""The uniform-bound scans against the loops they replaced.

``briancon_skoda_check``, ``uniform_bs_number``, ``artin_rees_number`` and
``symbolic._power_witness`` take their powers from ``MonomialIdeal.ladder``
and their witnesses from ``MonomialIdeal.first_outside``;
``ar_counterexample_search`` compares only at ell = k + 1.  A seeded
differential holds each to its earlier body, kept in ``tests/helpers.py``,
which forms every power by repeated squaring and loops for its own witness
(the mismatch oracle still scans every ell up to ``ell_max``): every pair
of ideals gets the same answer, or the same exception type and message.

Run it at larger sizes with::

    PYTHONPATH=src:tests python -c "import test_scans as t; print(t.differential(SEED, COUNT))"

A second differential, ``bound_differential``, reaches past the powers where
the Briancon-Skoda scans stop (n = s - 1, s the number of variables in the
ideal's support) and where the Artin-Rees descent starts from the previous
defect (n > D, D the largest generator degree of N), with n_max up to 8,
ideals that miss some variables of their ring, and N the unit ideal::

    PYTHONPATH=src:tests python -c "import test_scans as t; print(t.bound_differential(SEED, COUNT))"
"""

import random
from collections import Counter

from idealkit import (
    Monomial,
    MonomialIdeal,
    ar_counterexample_search,
    artin_rees_number,
    briancon_skoda_check,
    integral_closure,
    random_ideal,
    random_squarefree_ideal,
    symbolic_power,
    uniform_bs_number,
)
from idealkit.symbolic import _power_witness
from helpers import (
    ar_counterexample_search_by_powers,
    artin_rees_number_by_products,
    briancon_skoda_check_by_powers,
    numbered_ring,
    power_witness_by_scan,
    uniform_bs_number_by_powers,
)

DIFFERENTIAL_SIZE = 200
BOUND_DIFFERENTIAL_SIZE = 400


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def differential(seed, count):
    """Run every scan and its oracle on ``count`` seeded pairs of ideals on
    1-3 variables, and fail on any difference.

    Returns a ``Counter`` of the answers' kinds: whether the Briancon-Skoda
    check held, whether the mismatch search found a witness, and whether
    the power witness found the ideals equal, unequal or inconsistent.
    """
    rng = random.Random(seed)
    kinds = Counter()
    for _ in range(count):
        ring = numbered_ring(rng.randint(1, 3))
        ideal = random_ideal(rng, ring, max_generators=3, max_degree=3)
        other = random_ideal(rng, ring, max_generators=3, max_degree=3)
        n_max = rng.randint(1, 3)
        ell = rng.randint(1, n_max)
        k = rng.randint(0, 2)
        ell_max = k + rng.randint(1, 6)
        sub = rng.choice([ideal, ideal & other, ideal * other])
        wider = rng.choice([other, ideal & other, ideal * other])
        if rng.random() < 0.25:
            square_free, power = random_squarefree_ideal(rng, ring, 4), rng.randint(2, 3)
            ideal, wider = symbolic_power(square_free, power), square_free.power(power)
        for name, new, old, args in (
            ("least_k", lambda *a: artin_rees_number(*a).least_k,
             lambda *a: artin_rees_number_by_products(*a).least_k, (ideal, other, n_max)),
            ("mismatch", ar_counterexample_search, ar_counterexample_search_by_powers,
             (ideal, sub, k, ell_max)),
            ("bs", lambda *a: briancon_skoda_check(*a).to_json(),
             lambda *a: briancon_skoda_check_by_powers(*a).to_json(), (ideal, ell, n_max)),
            ("uniform_bs", uniform_bs_number, uniform_bs_number_by_powers, (ideal, n_max)),
            ("witness", _power_witness, power_witness_by_scan, (ideal, wider)),
        ):
            got, want = _outcome(new, *args), _outcome(old, *args)
            assert got == want, (name, args, got, want)
            if name == "mismatch" and _kind(name, got) == "found":
                assert got[0] == k + 1, (args, got)  # the reduction lemma
            kinds[name, _kind(name, got)] += 1
    return kinds


def _kind(name, answer):
    if isinstance(answer, tuple) and answer and isinstance(answer[0], type):
        return "raised"
    if name == "bs":
        return "holds" if answer["ok"] else "fails"
    if name == "mismatch":
        return "clean" if answer is None else "found"
    if name == "witness":
        return "equal" if answer[0] else "unequal"
    return "answered"


def test_scans_match_their_earlier_bodies():
    kinds = differential(seed=17, count=DIFFERENTIAL_SIZE)
    assert sum(kinds.values()) == 5 * DIFFERENTIAL_SIZE
    # the sample reaches every branch of every scan
    for name, kind in (
        ("least_k", "answered"), ("uniform_bs", "answered"),
        ("bs", "holds"), ("bs", "fails"),
        ("mismatch", "clean"), ("mismatch", "found"),
        ("witness", "equal"), ("witness", "unequal"), ("witness", "raised"),
    ):
        assert kinds[name, kind] > 0, (name, kind, kinds)


def _widened(rng, ideal, ring):
    """The ideal moved into a ring with as many or more variables, its
    variables sent to a random choice of the wider ring's."""
    places = rng.sample(range(ring.n), ideal.ring.n)
    rows = []
    for row in ideal.rows:
        wide = [0] * ring.n
        for place, e in zip(places, row):
            wide[place] = e
        rows.append(Monomial(ring, tuple(wide)))
    return MonomialIdeal.from_generators(ring, rows)


def bound_differential(seed, count):
    """Hold the three bounded scans to their full-scan oracles on ``count``
    seeded ideals on 1-3 variables, placed in rings of up to two more
    variables, with n_max up to 8; fail on any difference.

    Returns a ``Counter`` of what the sample reached: Briancon-Skoda checks
    that held or failed, ideals whose support misses a variable of the
    ring, scans that stopped before n_max, and Artin-Rees pairs scanned past
    D or with N the unit ideal.
    """
    rng = random.Random(seed)
    reached = Counter()
    for _ in range(count):
        small = numbered_ring(rng.randint(1, 3))
        ring = numbered_ring(small.n + rng.randint(0, 2))
        # pure powers of every variable, and their closures, need their
        # last power at n = s - 1 more often than random ideals do
        draw = rng.random()
        if draw < 0.4:
            ideal = MonomialIdeal.from_generators(small, (
                Monomial(small, tuple(rng.randint(1, 5) * (i == j) for i in range(small.n)))
                for j in range(small.n)))
            if draw < 0.2:
                ideal = integral_closure(ideal)
        else:
            ideal = random_ideal(rng, small, max_generators=3, max_degree=4)
        ideal = _widened(rng, ideal, ring)
        sub = _widened(rng, random_ideal(rng, small, max_generators=3, max_degree=3), ring)
        if rng.random() < 0.2:
            sub = MonomialIdeal.unit(ring)
        n_max = rng.randint(1, 8)
        ell = rng.choice([1, rng.randint(1, n_max)])  # ell = 1 fails most often
        bs = briancon_skoda_check(ideal, ell, n_max).to_json()
        assert bs == briancon_skoda_check_by_powers(ideal, ell, n_max).to_json(), (
            ideal, ell, n_max)
        k = uniform_bs_number(ideal, n_max)
        assert k == uniform_bs_number_by_powers(ideal, n_max), (ideal, n_max)
        assert artin_rees_number(ideal, sub, n_max).to_json() == (
            artin_rees_number_by_products(ideal, sub, n_max).to_json()), (ideal, sub, n_max)
        s = sum(map(any, zip(*ideal.rows)))
        top = max(map(sum, sub.rows))
        reached["bs holds" if bs["ok"] else "bs fails"] += 1
        reached["support below ring"] += s < ring.n
        reached["bs stops early"] += max(ell, s - 1) < n_max
        reached["uniform_bs stops early"] += max(1, s - 1) < n_max
        reached["least_k past D"] += top < n_max
        reached["N unit"] += top == 0
        reached["uniform_bs beyond n = 1"] += k != uniform_bs_number(ideal, 1)
    return reached


def test_bounded_scans_match_the_full_scans():
    reached = bound_differential(seed=28, count=BOUND_DIFFERENTIAL_SIZE)
    for kind in ("bs holds", "bs fails", "support below ring", "bs stops early",
                 "uniform_bs stops early", "uniform_bs beyond n = 1", "least_k past D",
                 "N unit"):
        assert reached[kind] > 0, (kind, reached)
