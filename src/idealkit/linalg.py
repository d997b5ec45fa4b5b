"""Exact rank computation for small dense matrices and sparse columns.

Rational ranks of integer matrices use fraction-free (Bareiss) elimination,
so every intermediate value stays an integer; prime-field ranks reduce
mod p.  Dense inputs are sequences of rows and are never mutated.

``rank_sparse`` takes columns as ``{row: value}`` dicts and eliminates on
unit pivots only, so no entry ever needs a division: over F_p every nonzero
is a unit, over Q only leading entries of +-1 are.  Whatever is left over Q
goes to a dense rank.
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


def rank_sparse(columns, field, dense_rank=rank_over):
    """Rank over the field of the integer matrix with these sparse columns,
    and the rows of its unit pivots.

    ``columns`` are ``{row: value}`` dicts of nonzero integers on totally
    ordered row keys; over Q they are reduced in place.  Each column is
    reduced on its highest row by the pivot column already owning that row,
    until the row is free or the column is zero.  A column left with a unit
    leading entry becomes the pivot of that row (scaled to leading entry 1
    over F_p).  Over Q a leading entry other than +-1 sends the column to a
    residue instead.  The residue is cleared on every pivot row, top down,
    so the pivots and the residue span complementary parts of the column
    space: the rank is the pivot count plus ``dense_rank(rows, field)`` of
    the residue's remaining rows.  Passing ``dense_rank`` lets a caller name
    the dense rank it wants counted.
    """
    p = field.characteristic
    pivots = {}
    residue = []
    for col in columns:
        if p:
            col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                break
            _subtract(col, pivot, col[low] * pivot[low], p)
        if not col:
            continue
        lead = col[low]
        if p:
            if lead != 1:
                inv = pow(lead, p - 2, p)
                for r in col:
                    col[r] = col[r] * inv % p
            pivots[low] = col
        elif lead in (1, -1):
            pivots[low] = col
        else:
            residue.append(col)
    rank = len(pivots)
    if residue:
        for col in residue:
            hits = [r for r in col if r in pivots]
            while hits:
                low = max(hits)
                pivot = pivots[low]
                _subtract(col, pivot, col[low] * pivot[low], p)
                hits = [r for r in col if r in pivots]
        residue = [col for col in residue if col]
        if residue:
            rows = sorted(set().union(*residue))
            rank += dense_rank([[col.get(r, 0) for col in residue] for r in rows], field)
    return rank, pivots.keys()


def _subtract(col, pivot, factor, p):
    """col -= factor * pivot in place, reduced mod p when p is nonzero.  The
    pivot's leading entry is its own inverse (1 over F_p, +-1 over Q), so
    with factor = col[lead] * pivot[lead] this zeroes col on that row."""
    for r, v in pivot.items():
        x = col.get(r, 0) - factor * v
        if p:
            x %= p
        if x:
            col[r] = x
        else:
            del col[r]
