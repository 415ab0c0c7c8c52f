"""Brute-force reference implementations for the test suite.

These deliberately share nothing with the main pipeline beyond plain
tuples: sumsets by multiset enumeration, simplex slices by enumerating
a box, semigroup elements by dynamic programming, the complexes T_y by
one such program below y, read at each vertex subset, minimal generators
by one membership query per generator, and homology by an independent
modular Gaussian elimination on explicitly listed faces.
"""

from __future__ import annotations

import itertools
from operator import add, le
from typing import Iterable, Sequence

from .errors import PreconditionError

Vec = tuple[int, ...]

MAX_NAIVE_S = 6
MAX_NAIVE_GENERATORS = 40
MAX_NAIVE_NORM = 400


def naive_sumset(points: Iterable[Sequence[int]], s: int) -> set[Vec]:
    """All sums of s elements (with repetition) of the given set."""
    pts = [tuple(int(c) for c in p) for p in points]
    if s < 0 or s > MAX_NAIVE_S or len(pts) > MAX_NAIVE_GENERATORS:
        raise PreconditionError(
            f"naive_sumset capped at s <= {MAX_NAIVE_S}, "
            f"|A| <= {MAX_NAIVE_GENERATORS}")
    out = set()
    for combo in itertools.combinations_with_replacement(pts, s):
        out.add(tuple(sum(c) for c in zip(*combo)) if combo
                else (0,) * len(pts[0]))
    return out


def naive_slice_points(d: int, N: int, e: int = 1) -> set[Vec]:
    """All y in N^d with |y| <= N and e | |y|, by enumerating the box."""
    out = set()
    for p in itertools.product(range(N + 1), repeat=d):
        t = sum(p)
        if t <= N and t % e == 0:
            out.add(p)
    return out


def _reachable(gens: list[Vec], y: Vec) -> set[Vec]:
    """The N-combinations of the generators that lie componentwise below
    y, y nonnegative.  Plain DP."""
    if sum(y) > MAX_NAIVE_NORM:
        raise PreconditionError(f"naive_member capped at norm "
                                f"{MAX_NAIVE_NORM}")
    gs = [g for g in gens if any(g)]
    reachable = {(0,) * len(y)}
    frontier = list(reachable)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gs:
                w = tuple(map(add, v, g))
                if all(map(le, w, y)) and w not in reachable:
                    reachable.add(w)
                    nxt.append(w)
        frontier = nxt
    return reachable


def naive_member(gens: Iterable[Sequence[int]], y: Sequence[int]) -> bool:
    """Is y a finite N-combination of the generators?"""
    y = tuple(int(c) for c in y)
    if any(c < 0 for c in y):
        return False
    return y in _reachable([tuple(int(c) for c in g) for g in gens], y)


def naive_minimal_generators(
        gens: Iterable[Sequence[int]]) -> set[Vec]:
    """The minimal generating set of the semigroup the generators span.

    In N^d a nonzero generator is minimal iff it is not an N-combination
    of the other generators.
    """
    gs = {tuple(int(c) for c in g) for g in gens if any(g)}
    return {g for g in gs if not naive_member(gs - {g}, g)}


def naive_faces(gens: Iterable[Sequence[int]],
                y: Sequence[int]) -> frozenset[int]:
    """Faces of T_y as vertex bitmasks, for generators of one norm D.

    The subset F of coordinates (bit j for coordinate j) is a face when
    y - D * sum over F of e_j is still an N-combination of the generators.
    Each such point lies below y, so one DP up to y answers them all.
    """
    gs = [tuple(int(c) for c in g) for g in gens]
    y = tuple(int(c) for c in y)
    below = _reachable(gs, y) if min(y) >= 0 else set()
    if y not in below:
        raise PreconditionError(f"{y} is not in the semigroup")
    D = max(sum(g) for g in gs)
    faces = {mask for mask in range(1 << len(y))
             if tuple(c - D * (mask >> j & 1)
                      for j, c in enumerate(y)) in below}
    # translation by D*e_j stays in the semigroup, so the family must be
    # downward closed
    for f in faces:
        for j in range(len(y)):
            if f >> j & 1:
                assert (f ^ (1 << j)) in faces, "face family not subset-closed"
    return frozenset(faces)


def _gauss_rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def homology_recheck(faces: Iterable[Sequence[int]], p: int) -> dict[int, int]:
    """Reduced Betti numbers over F_p of an explicit face list.

    Faces are vertex tuples (the empty tuple is the (-1)-cell).  The
    computation is a from-scratch boundary-matrix elimination, kept
    separate from the main homology code on purpose.
    """
    face_set = {tuple(sorted(int(v) for v in f)) for f in faces}
    by_dim: dict[int, list[Vec]] = {}
    for f in face_set:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for cells in by_dim.values():
        cells.sort()
    top = max(by_dim, default=-1)
    ranks: dict[int, int] = {}
    for i in range(0, top + 1):
        lower = by_dim.get(i - 1, [])
        upper = by_dim.get(i, [])
        if not lower or not upper:
            ranks[i] = 0
            continue
        index = {f: r for r, f in enumerate(lower)}
        M = [[0] * len(upper) for _ in lower]
        for c, f in enumerate(upper):
            for j, v in enumerate(f):
                sub = f[:j] + f[j + 1:]
                M[index[sub]][c] = (-1) ** j
        ranks[i] = _gauss_rank_mod_p(M, p)
    betti = {}
    for i in range(-1, top + 1):
        betti[i] = (len(by_dim.get(i, ()))
                    - ranks.get(i, 0) - ranks.get(i + 1, 0))
    return betti
