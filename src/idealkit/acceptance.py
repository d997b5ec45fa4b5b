"""Go/no-go acceptance suite: ten checks, each with a runtime budget.

Each criterion is a function returning a one-line detail string; any
exception, wrong value, or blown budget turns the criterion red.  The CLI
``verify`` subcommand and tests/test_acceptance.py both consume
``run_all``, which replays every check from a single seed so randomized
corpora reproduce exactly.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import comb

from .closure import briancon_skoda_check, integral_closure
from .corpus import (
    connected_graph_reps,
    random_homogeneous,
    random_ideal,
    random_monomial,
    random_squarefree_ideal,
    rng_from_seed,
)
from .fields import QQ, PrimeField
from .groebner import (
    MonomialOrder,
    Polynomial,
    buchberger,
    frobenius_containment_check,
    kollar_family,
    kollar_sharpness,
    mather_index,
    parse_polynomial,
    radical_member,
)
from .invariants import (
    dimension_multiplicity,
    graded_betti,
    verify_betti_hilbert_identity,
)
from .monomials import MonomialIdeal, Ring, parse_ideal, parse_monomial, parse_ring
from .symbolic import codim, minimal_primes, symbolic_power, verify_edge_theorem

DEFAULT_SEED = 20260813


@dataclass
class AcceptanceResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Failure(AssertionError):
    pass


def _need(condition, message):
    if not condition:
        raise _Failure(message)


def _cli_json(argv):
    from .cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv) + ["--json"])
    return code, json.loads(out.getvalue())


def _numbered_ring(n):
    return Ring(tuple(f"x{i}" for i in range(1, n + 1)))


def _check_koszul(seed):
    """betti on (x1..xn) must give the binomial diagonal C(n, i), n = 1..6."""
    for n in range(1, 7):
        names = ",".join(f"x{i}" for i in range(1, n + 1))
        code, payload = _cli_json(
            ["invariants", "betti", "--ring", names, "--ideal", names]
        )
        _need(code == 0, f"betti exited {code} for n={n}")
        entries = {(i, j): v for i, j, v in payload["entries"]}
        expected = {(i, i): comb(n, i) for i in range(n + 1)}
        _need(
            entries == expected,
            f"n={n}: table {sorted(entries.items())} is not the binomial diagonal",
        )
    return "n = 1..6: betti_{i,i} = C(n, i), no stray entries"


def _check_hilbert_corpus(seed):
    """Alternating Betti sums must equal the recursion numerator, 200 ideals."""
    rng = rng_from_seed(f"{seed}:hilbert")
    for index in range(200):
        ring = _numbered_ring(rng.randint(1, 4))
        ideal = random_ideal(rng, ring, max_generators=8, max_degree=5)
        _need(
            verify_betti_hilbert_identity(ideal),
            f"numerator mismatch at corpus item {index}: {ideal}",
        )
    return "200 seeded ideals (n <= 4, <= 8 gens, deg <= 5): numerators agree"


def _check_symbolic_witness(seed):
    code, payload = _cli_json(
        ["symbolic", "compare", "--ring", "x,y,z", "--ideal", "x*y, x*z, y*z", "--k", "2"]
    )
    _need(code == 0, f"compare exited {code}")
    _need(payload["equal"] is False, "squares reported equal")
    _need(payload["witness"] == "x*y*z", f"witness {payload['witness']!r}")
    want = ["x^2*y^2", "x^2*z^2", "y^2*z^2", "x*y*z"]
    _need(
        payload["symbolic"] == want,
        f"symbolic square generators {payload['symbolic']}",
    )
    return "triangle, k=2: NOT EQUAL with witness x*y*z; generators exact"


def _check_edge_sweep(seed):
    """Bipartite = packed = (symbolic equals ordinary up to k=3), all graphs <= 6.

    Enumeration is by isomorphism class; all three verdicts are invariant
    under relabeling, so class representatives cover the labeled universe.
    The class counts are asserted so a thin census cannot quietly pass.
    """
    expected = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    total = 0
    for n, want in expected.items():
        reps = connected_graph_reps(n)
        _need(
            len(reps) == want,
            f"{len(reps)} connected classes on {n} vertices, expected {want}",
        )
        for graph in reps:
            report = verify_edge_theorem(graph, 3)
            _need(
                report.agree,
                f"verdicts disagree on {graph.vertex_count} vertices, "
                f"edges {graph.edges}: bipartite={report.bipartite} "
                f"packed={report.packed} equal_up_to={report.equal_up_to}",
            )
        total += len(reps)
    return f"{total} connected isomorphism classes on 2..6 vertices all agree"


def _check_closure(seed):
    ring = parse_ring("x,y")
    for d in range(2, 7):
        closed = integral_closure(parse_ideal(ring, f"x^{d}, y^{d}"))
        power = parse_ideal(ring, "x, y").power(d)
        _need(closed == power, f"closure((x^{d}, y^{d})) != m^{d}: got {closed}")
    rng = rng_from_seed(f"{seed}:closure")
    done = 0
    while done < 50:
        gens = [random_monomial(rng, ring, 5) for _ in range(2)]
        ideal = MonomialIdeal.from_generators(ring, gens)
        if len(ideal.rows) != 2:
            continue  # want genuinely 2-generated samples
        check = briancon_skoda_check(ideal, 2, 5)
        _need(check.ok, f"containment fails for {ideal}: {check.failure}")
        done += 1
    return "closure((x^d, y^d)) = m^d for d = 2..6; 50 seeded 2-generator checks pass"


def _check_artin_rees(seed):
    """I = (x^n, y^n, x^(n-1)*y) has reduction number n - 1 over J = (x^n, y^n).

    (x^(n-1)*y)^n = (x^n)^(n-1)*y^n puts I^n in J*I^(n-1), so by the lemma
    behind ``exercise4`` I^l = J^(l-k)*I^k for every l once k >= n - 1;
    (x^(n-1)*y)^(n-1) lies outside J*I^(n-2), so k = n - 2 mismatches at
    l = n - 1.  Witnesses are re-checked with ideal arithmetic.
    """
    ring = parse_ring("x,y")
    witnesses = []
    for n in (3, 4):
        big = parse_ideal(ring, f"x^{n}, y^{n}, x^{n - 1}*y")
        sub = parse_ideal(ring, f"x^{n}, y^{n}")
        _need(big.power(n) == sub * big.power(n - 1),
              f"I^{n} != J*I^{n - 1} at n={n}: the reduction number is not n-1")
        code, payload = _cli_json(
            ["artinrees", "exercise4", "--n", str(n), "--k", str(n - 2)])
        _need(code == 0 and payload["found"] and payload["ell"] == n - 1,
              f"k={n - 2} at n={n}: exit {code}, {payload}, expected a mismatch "
              f"at l={n - 1}")
        witness = parse_monomial(ring, payload["witness"])
        expected = f"x^{(n - 1) ** 2}*y^{n - 1}"
        _need(payload["witness"] == expected,
              f"witness {payload['witness']} at n={n}, expected {expected}")
        _need(witness in big.power(n - 1) and witness not in sub * big.power(n - 2),
              f"witness {witness} at n={n} is not in I^{n - 1} minus J*I^{n - 2}")
        witnesses.append(payload["witness"])
        for k in (n - 1, n):
            code, payload = _cli_json(
                ["artinrees", "exercise4", "--n", str(n), "--k", str(k)])
            _need(code == 0 and not payload["found"],
                  f"k={k} at n={n}: exit {code}, {payload}, expected no mismatch")
    return (f"n = 3, 4: reduction number n-1; k = n-2 mismatches at l = n-1 "
            f"({', '.join(witnesses)}), k = n-1 and n do not")


def _check_kollar(seed):
    report = kollar_sharpness(3, 2)
    _need(report.found == 4, f"least D = {report.found}, expected 4")
    _need(report.matches, "sharpness report disagrees with 2^(3-1)")
    family = kollar_family(3, 2)
    ring, order = family[0].ring, family[0].order
    target = Polynomial.variable(ring, QQ, order, 1)
    basis = buchberger(family, order, certify=False)
    for d in (1, 2, 3):
        _need(not basis.contains(target**d), f"x2^{d} unexpectedly in the ideal")
    _need(radical_member(target, family), "x2 not in the radical of the family")
    nine = kollar_sharpness(3, 3)
    _need(nine.found == 9, f"least D = {nine.found} for d=3, expected 9")
    return "d=2: least D = 4 with 1..3 failing, x2 in radical; d=3: least D = 9"


def _check_mather(seed):
    rng = rng_from_seed(f"{seed}:mather")
    for index in range(50):
        ring = _numbered_ring(rng.randint(1, 3))
        f = random_homogeneous(rng, ring, QQ, rng.randint(1, 4))
        report = mather_index(f)
        _need(
            report.index == 1,
            f"homogeneous sample {index} has index {report.index}: {f}",
        )
    ring = parse_ring("x,y")
    f = parse_polynomial(ring, "x^5 + y^5 + x^3*y^3")
    report = mather_index(f)
    _need(report.index == 2, f"index {report.index} for x^5+y^5+x^3*y^3, expected 2")
    _need(report.within_uniform_bound, "index 2 should sit within the 2-variable bound")
    return "50 homogeneous samples have index 1; x^5+y^5+x^3*y^3 has index 2"


def _check_frobenius(seed):
    runs = 0
    for variables in (("x", "y"), ("x", "y", "z")):
        for p in (2, 3):
            field = PrimeField(p)
            ring = Ring(variables)
            order = MonomialOrder.grevlex(ring)
            gens = [
                Polynomial.variable(ring, field, order, i) for i in range(ring.n)
            ]
            for e in (1, 2):
                check = frobenius_containment_check(gens, len(gens), p, e)
                _need(
                    check.contained,
                    f"containment fails for {variables}, p={p}, e={e}: "
                    f"{check.failure}",
                )
                runs += 1
    return f"{runs} (ideal, p, e) combinations all contained"


def _check_structural(seed):
    rng = rng_from_seed(f"{seed}:structural")
    for index in range(60):
        ring = _numbered_ring(rng.randint(2, 4))
        ideal = random_ideal(rng, ring, max_generators=6, max_degree=4)
        gens = len(ideal.rows)
        c = codim(ideal)
        _need(gens >= c, f"Krull bound fails: {gens} gens, codim {c}: {ideal}")
        pd = graded_betti(ideal).proj_dim()
        _need(
            c <= pd <= ring.n,
            f"codim <= pd <= n fails: codim {c}, pd {pd}, n {ring.n}: {ideal}",
        )
        _need(pd <= gens, f"pd {pd} above generator count {gens}: {ideal}")
    for index in range(40):
        ring = _numbered_ring(rng.randint(2, 4))
        ideal = random_squarefree_ideal(rng, ring, 5)
        dim, mult = dimension_multiplicity(ideal)
        primes = minimal_primes(ideal)
        least = min(len(p) for p in primes)
        count = sum(1 for p in primes if len(p) == least)
        _need(
            mult == count and dim == ring.n - least,
            f"multiplicity {mult} or dimension {dim} off for {ideal}",
        )
    for index in range(30):
        ring = _numbered_ring(rng.randint(2, 4))
        ideal = random_squarefree_ideal(rng, ring, 5)
        a = rng.randint(1, 2)
        b = rng.randint(1, 3)
        product = symbolic_power(ideal, a) * symbolic_power(ideal, b)
        _need(
            symbolic_power(ideal, a + b).contains_ideal(product),
            f"I^({a}) I^({b}) escapes I^({a + b}) for {ideal}",
        )
    return "60 Krull/pd checks, 40 multiplicity checks, 30 symbolic products: clean"


_CRITERIA = (
    ("koszul-golden", 5.0, _check_koszul),
    ("hilbert-betti-numerator", 10.0, _check_hilbert_corpus),
    ("symbolic-witness", 1.0, _check_symbolic_witness),
    ("edge-theorem-sweep", 60.0, _check_edge_sweep),
    ("closure-briancon-skoda", 5.0, _check_closure),
    ("artin-rees-exercise", 30.0, _check_artin_rees),
    ("kollar-sharpness", 120.0, _check_kollar),
    ("mather-evidence", 60.0, _check_mather),
    ("frobenius-containment", 5.0, _check_frobenius),
    ("structural-suites", 300.0, _check_structural),
)


def criterion_names():
    return [name for name, _, _ in _CRITERIA]


def _run(name, budget, fn, seed):
    start = time.perf_counter()
    try:
        detail = fn(seed)
        passed = True
    except Exception as exc:  # any crash is a red criterion, not a crash of the suite
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    elapsed = time.perf_counter() - start
    if passed and elapsed >= budget:
        passed = False
        detail += f" [exceeded {budget:.0f}s budget: {elapsed:.1f}s]"
    return AcceptanceResult(name, passed, detail, elapsed)


def run_all(seed=DEFAULT_SEED):
    return [_run(name, budget, fn, seed) for name, budget, fn in _CRITERIA]
