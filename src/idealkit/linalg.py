"""Exact rank computation for small dense matrices.

Rational ranks of integer matrices use fraction-free (Bareiss) elimination,
so every intermediate value stays an integer; prime-field ranks reduce
mod p.  Inputs are sequences of rows and are never mutated.
"""

from __future__ import annotations


def rank_int(rows):
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        if m[rank][col] < 0:  # keeps the rank; positive pivots let more rows skip
            m[rank] = [-v for v in m[rank]]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            if factor == 0 and p == prev:
                continue  # the Bareiss step would leave the row unchanged
            row = m[r]
            top = m[rank]
            for c in range(col + 1, ncols):
                # Bareiss step: exact integer division by the previous pivot
                row[c] = (p * row[c] - factor * top[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod_p(rows, p):
    """Rank of a matrix over F_p."""
    m = [[v % p for v in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        row0 = m[rank]
        for c in range(col, ncols):
            row0[c] = row0[c] * inv % p
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if f:
                row = m[r]
                for c in range(col, ncols):
                    row[c] = (row[c] - f * row0[c]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_over(rows, field):
    """Rank of an integer matrix over the given field object."""
    if field.characteristic == 0:
        return rank_int(rows)
    return rank_mod_p(rows, field.characteristic)
