"""Exact ranks against an independent Fraction elimination and against
brute-force minors."""

from idealkit import QQ, PrimeField, rng_from_seed
from idealkit.linalg import rank_int, rank_mod_p, rank_over, rank_sparse

from helpers import rank_by_fractions, rank_by_minors


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


def _columns(matrix):
    """The matrix as sparse {row: value} columns."""
    return [{r: row[c] for r, row in enumerate(matrix) if row[c]}
            for c in range(len(matrix[0]))]


def _counting_rank():
    calls = []

    def dense_rank(rows, field):
        calls.append(rank_over(rows, field))
        return calls[-1]
    return dense_rank, calls


def test_prime_field_ranks_match_minors():
    rng = rng_from_seed("idealkit:linalg:minors")
    for _ in range(1500):
        p = rng.choice((2, 3, 5, 32003))
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows)]
        want = rank_by_minors(matrix, p)
        assert rank_mod_p(matrix, p) == want
        dense_rank, calls = _counting_rank()
        rank, pivot_rows = rank_sparse(_columns(matrix), PrimeField(p), dense_rank)
        assert rank == want
        # over F_p every nonzero leading entry is a pivot: nothing is left over
        assert len(pivot_rows) == want and not calls


def test_sparse_rank_over_q_matches_fractions_and_minors():
    rng = rng_from_seed("idealkit:linalg:sparse")
    residues = 0
    for _ in range(1500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [tuple(rng.randint(-2, 2) for _ in range(cols)) for _ in range(rows)]
        dense_rank, calls = _counting_rank()
        rank, pivot_rows = rank_sparse(_columns(matrix), QQ, dense_rank)
        assert rank == rank_by_fractions(matrix)
        if rows <= 4 and cols <= 4:
            assert rank == rank_by_minors(matrix)
        assert len(calls) <= 1 and rank == len(pivot_rows) + sum(calls)
        residues += bool(calls)
    assert residues > 100


def test_sparse_rank_goldens():
    assert rank_sparse([], QQ)[0] == 0
    # the leading entry 2 sends the column to the residue over Q only
    assert rank_sparse([{0: 1, 1: 2}, {0: 1}], QQ)[0] == 2
    assert rank_sparse([{0: 1, 1: 2}, {0: 1}], PrimeField(2))[0] == 1
    assert rank_sparse([{0: 2}, {0: 4}, {1: 3, 0: 1}], QQ)[0] == 2
