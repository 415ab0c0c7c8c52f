"""The exact eliminations of ``linalg`` against eliminations written here
or kept in the oracle: ranks over Q by ``Fraction`` row reduction, ranks
over F_p by the oracle's Gauss-Jordan loop, determinants by Leibniz."""

import itertools
from fractions import Fraction
from math import prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricreg.linalg import bareiss_det, bareiss_rank, rank_mod_p
from toricreg.oracle import _gauss_rank_mod_p

ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10**5, 10**5))


@st.composite
def matrices(draw, square=False):
    """Integer matrices up to 5 x 5, empty and all-zero ones included;
    about half are products B*C through k < min(m, n) columns, so
    rank-deficient."""
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))
    if draw(st.booleans()) and min(m, n) > 1:
        k = draw(st.integers(0, min(m, n) - 1))
        B = draw(st.lists(st.lists(ENTRIES, min_size=k, max_size=k),
                          min_size=m, max_size=m))
        C = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                          min_size=k, max_size=k))
        return [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)]
                for i in range(m)]
    return draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                         min_size=m, max_size=m))


def fraction_rank(M):
    """Rank over Q by row reduction over the rationals."""
    rows = [[Fraction(x) for x in row] for row in M]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def leibniz_det(M):
    """Sum over permutations of the signed products of entries."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(n))
    return total


@given(matrices())
@settings(max_examples=300, deadline=None)
@example([])
@example([[], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 2], [0, 4], [0, 6]])
def test_bareiss_rank_matches_fraction_rank(M):
    assert bareiss_rank(M) == fraction_rank(M)


@given(matrices(), st.sampled_from([2, 3, 32003]))
@settings(max_examples=300, deadline=None)
@example([], 2)
@example([[2, 4], [6, 8]], 2)
@example([[3, 6], [1, 2]], 3)
@example([[32003, 1], [0, 32003]], 32003)
def test_rank_mod_p_matches_the_oracle(M, p):
    assert rank_mod_p(M, p) == _gauss_rank_mod_p(M, p)


@given(matrices(square=True))
@settings(max_examples=300, deadline=None)
@example([])
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[0, 0], [0, 0]])
@example([[1, 2], [2, 4]])
def test_bareiss_det_matches_leibniz(M):
    assert bareiss_det(M) == leibniz_det(M)
