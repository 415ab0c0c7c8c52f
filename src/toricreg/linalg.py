"""Exact integer linear algebra: ranks over Q and F_p, determinants,
and gcds of maximal minors.

Everything works on Python ints (no float rounding, no overflow).  One
Bareiss fraction-free elimination, whose intermediate entries are honest
subdeterminants, gives both the rank over Q and the determinant.  The
rank over F_p is a separate loop: its entries are reduced mod p and need
no exact division.
"""

from __future__ import annotations

from typing import Sequence


def _to_rows(M) -> list[list[int]]:
    return [[int(x) for x in row] for row in M]


def _bareiss(M) -> tuple[int, int]:
    """Fraction-free elimination: the rank over Q of an integer matrix and
    its last pivot, signed by the row swaps.  Pivots are minors of M, so
    for a square M of full rank the signed last pivot is det M."""
    rows = _to_rows(M)
    m, n = len(rows), len(rows[0]) if rows else 0
    sign, prev, r = 1, 1, 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p = rows[r][c]
        for i in range(r + 1, m):
            f = rows[i][c]
            for j in range(c, n):
                rows[i][j] = (rows[i][j] * p - f * rows[r][j]) // prev
        prev = p
        r += 1
        if r == m:
            break
    return r, sign * prev


def bareiss_rank(M) -> int:
    """Rank over Q of an integer matrix, via fraction-free elimination."""
    return _bareiss(M)[0]


def bareiss_det(M) -> int:
    """Determinant of a square integer matrix (exact)."""
    assert all(len(row) == len(M) for row in M)
    rank, pivot = _bareiss(M)
    return pivot if rank == len(M) else 0


def rank_mod_p(M, p: int) -> int:
    """Rank of an integer matrix over the prime field F_p."""
    rows = [[x % p for x in row] for row in _to_rows(M)]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        q = rows[r][c]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = [(q * a - f * b) % p
                           for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


def gcd_of_maximal_minors(columns: Sequence[Sequence[int]], D: int) -> int:
    """gcd of the k x k minors of the k x n integer matrix whose columns are
    ``columns`` together with D*e_0, ..., D*e_(k-1).

    That gcd is the index of the lattice L the columns span in Z^k, and
    D*Z^k lies in L, so entries are kept mod D.  For each coordinate i in
    turn, Euclid's algorithm on the i-th entries, starting from the pivot
    D*e_i, leaves a pivot whose entry g_i is their gcd with D and clears
    entry i of every other vector.  The pivots form a triangular basis of
    L, so the index is the product of the g_i.
    """
    vecs = [[x % D for x in col] for col in columns]
    k = len(vecs[0])
    theta = 1
    for i in range(k):
        pivot = [D if j == i else 0 for j in range(k)]
        for n, v in enumerate(vecs):
            while v[i]:
                q = pivot[i] // v[i]
                pivot, v = v, [(a - q * b) % D for a, b in zip(pivot, v)]
            vecs[n] = v
        theta *= pivot[i]
    return theta
