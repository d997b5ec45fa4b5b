"""Exact ranks against an independent Fraction elimination."""

from idealkit import rng_from_seed
from idealkit.linalg import rank_int

from helpers import rank_by_fractions


def test_rank_golden():
    # a zero below the pivot 3 must still be scaled before the next step
    assert rank_int([(3, 0, -3, -2), (0, 1, 0, 0), (0, 0, 1, 0)]) == 3
    assert rank_int([]) == 0
    assert rank_int([(0, 0), (0, 0)]) == 0
    assert rank_int([(2, 4), (1, 2)]) == 1


def test_rank_matches_fraction_elimination():
    rng = rng_from_seed("idealkit:linalg:rank")
    for _ in range(3000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [
            tuple(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(cols))
            for _ in range(rows)
        ]
        assert rank_int(matrix) == rank_by_fractions(matrix)

