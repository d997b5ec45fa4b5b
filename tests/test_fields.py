"""Prime fields: the primality test behind ``fp:<p>`` and ``--p``.

Miller-Rabin on the twelve primes up to 37 is exact below
``fields._WITNESS_BOUND``; past it a number with no factor among them is
refused as a resource cap, exit 3 on the command line.
"""

import time

import pytest

from idealkit import ParseError, PrimeField, ResourceCapError, fields, parse_field
from idealkit.cli import main
from helpers import is_prime_by_trial_division

M61 = 2**61 - 1
M89 = 2**89 - 1


def test_primality_matches_trial_division_below_100000():
    for p in range(-2, 100_000):
        assert fields._is_prime(p) == is_prime_by_trial_division(p), p


@pytest.mark.parametrize("p", [561, 1105, 1729, 2047, 3215031751])
def test_carmichael_numbers_and_strong_pseudoprimes_are_rejected(p):
    assert not fields._is_prime(p)
    with pytest.raises(ParseError, match=f"{p} is not prime"):
        parse_field(f"fp:{p}")


def test_mersenne_61_is_accepted_and_mersenne_89_refused():
    assert PrimeField(M61).p == M61
    assert M61 < fields._WITNESS_BOUND < M89
    with pytest.raises(ResourceCapError, match=str(fields._WITNESS_BOUND)):
        PrimeField(M89)
    # a small factor still decides a number past the bound
    assert not fields._is_prime(3 * M89)


@pytest.mark.parametrize("p, code", [(M61, 0), (M89, 3)])
def test_large_primes_answer_at_once_on_the_command_line(capsys, p, code):
    start = time.perf_counter()
    argv = ["invariants", "betti", "--ring", "x", "--ideal", "x", "--field", f"fp:{p}"]
    assert main(argv) == code
    argv = ["groebner", "frobenius", "--ring", "x", "--polys", "x", "--p", str(p),
            "--e", "0"]
    assert main(argv) == code
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    if code:
        assert err.count("resource cap: primality of") == 2
    else:
        assert err == ""
