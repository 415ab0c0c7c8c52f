"""Exact integer linear algebra: ranks over Q and F_p, determinants,
and gcds of maximal minors.

Everything works on Python ints (no float rounding, no overflow); the
Bareiss fraction-free elimination keeps intermediate entries as honest
subdeterminants.
"""

from __future__ import annotations

from typing import Sequence


def _to_rows(M) -> list[list[int]]:
    return [[int(x) for x in row] for row in M]


def bareiss_rank(M) -> int:
    """Rank over Q of an integer matrix, via fraction-free elimination."""
    rows = _to_rows(M)
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    prev = 1
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, m):
            f = rows[i][c]
            for j in range(c, n):
                rows[i][j] = (rows[i][j] * p - f * rows[r][j]) // prev
        prev = p
        r += 1
        if r == m:
            break
    return r


def bareiss_det(M) -> int:
    """Determinant of a square integer matrix (exact)."""
    rows = _to_rows(M)
    n = len(rows)
    if n == 0:
        return 1
    assert all(len(row) == n for row in rows)
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c]
            for j in range(c, n):
                rows[i][j] = (rows[i][j] * p - f * rows[c][j]) // prev
        prev = p
    return sign * rows[n - 1][n - 1]


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
