"""Instances of the four generator families, and arbitrary generator
sets, for hypothesis tests; face tables of any rows of one level from
their definition, two reference sweeps for ``regularity._sweep`` and
the dense level build that the Apery record of ``GeneratorSet``
replaced."""

import itertools
import random

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from toricreg import GeneratorSet, families, homogenize
from toricreg.homology import min_nonzero_degree
from toricreg.lattice import SimplexSlice, slice_size, unit
from toricreg.oracle import (homology_recheck, naive_faces,
                             naive_slice_points, naive_sumset)

FAMILIES = ("veronese", "minimal_smooth", "smooth_random", "one_singular")


def members(level):
    """The points of a sumset level, as a set of tuples."""
    return set(map(tuple, level.points.tolist()))


def level_tables(A, s, rows):
    """(rows, tables): the face table of each row of slice(s), given
    dehomogenized, from its definition.  Bit m of a table is set when
    y - D*e_F, y the homogenized row and F the vertex subset with mask m
    (bit 0 = homogenizing coordinate), stays nonnegative and is no gap
    of level s - |F|; each F looks its shifted rows up among those gaps
    by key.  A gap of level s reads 0."""
    d, D = A.d, A.D
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, d)
    y = np.column_stack([s * D - rows.sum(axis=1), rows])
    w = (s * D + 1) ** np.arange(d)  # a key per point of slice(s)
    gap_keys = {t: A.level(t).gaps() @ w for t in range(max(0, s - d - 1),
                                                        s + 1)}
    tables = np.zeros(len(rows), dtype=np.uint64)
    for m in range(2 << d):
        F = np.array([m >> j & 1 for j in range(d + 1)])
        z = y - D * F
        face = (z >= 0).all(axis=1)
        if face.any():  # then level s - |F| >= 0
            face[face] = ~np.isin(z[face, 1:] @ w, gap_keys[s - F.sum()])
        tables |= face.astype(np.uint64) << np.uint64(m)
    return rows, tables


def gap_shifts(A, s):
    """The distinct points g + D*e_F of slice(s), dehomogenized and in
    lexicographic order, over the gaps g of each level s - |F|."""
    d, D = A.d, A.D
    out = set()
    for t in range(max(0, s - d - 1), s + 1):
        for F in itertools.combinations(range(d + 1), s - t):
            shift = np.array([D * (j in F) for j in range(1, d + 1)])
            out.update(map(tuple, (A.level(t).gaps() + shift).tolist()))
    return sorted(out)


def family_instance(family, d, D, e, seed):
    """An instance of ``family``; ``assume`` rejects the (d, D, e) that
    the family does not cover (e matters only for one_singular)."""
    rng = random.Random(seed)
    if family == "veronese":
        return families.veronese(d, D)
    if family == "one_singular":
        # for d = 1 and e > 1 every lifted coordinate is a multiple of e
        assume(D % e == 0 and (e, D) != (1, 2) and (d > 1 or e == 1))
        return families.one_singular_random(d, D, e, rng)
    assume(D >= 3)
    if family == "minimal_smooth":
        return families.minimal_smooth(d, D)
    return families.smooth_random_superset(d, D, rng)


@st.composite
def arbitrary_sets(draw, max_d=3, max_D=7):
    """The origin, every D*e_i and up to 8 more points of norm <= D."""
    d, D = draw(st.integers(1, max_d)), draw(st.integers(2, max_D))
    required = {(0,) * d} | {unit(d, i, D) for i in range(d)}
    pool = sorted(naive_slice_points(d, D) - required)
    extra = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    return GeneratorSet(d, required | set(extra))


def full_sweep(A, max_level, field):
    """``regularity._sweep`` as it was before it chose its rows and its
    floor: every point of every level 0..max_level gets a face table, by
    ``level_tables``."""
    A.level(max_level)
    found = []  # (-value, y, i)
    for s in range(max_level + 1):
        pts, tables = level_tables(A, s, A.level(s).points)
        for t in np.unique(tables):
            i = min_nonzero_degree(int(t), A.d + 1, field)
            if i is not None:
                p = min(map(tuple, pts[tables == t].tolist()))
                found.append((i + 1 - s, (s * A.D - sum(p),) + p, i))
    neg, y, i = min(found)
    return -neg, y, i


def oracle_witness(A, levels, p=32003):
    """(reg, witness_y, witness_i) over levels 0..levels by the rule of
    docs/formats.md, from the oracles alone: in each level, the least
    dehomogenized member with a given face family stands for that family,
    and among the families with homology over F_p the largest s - (i + 1)
    wins, ties going to the least homogenized y."""
    gens = homogenize(A)
    found = []
    for s in range(levels + 1):
        least = {}  # face family -> its least member, by dehomogenized part
        for y in sorted(naive_sumset(gens, s), key=lambda y: y[1:]):
            least.setdefault(naive_faces(gens, y), y)
        for faces, y in least.items():
            betti = homology_recheck(
                [[j for j in range(A.d + 1) if f >> j & 1] for f in faces],
                p)
            i = min((i for i, b in betti.items() if b), default=None)
            if i is not None:
                found.append((i + 1 - s, y, i))
    neg, y, i = min(found)
    return -neg, y, i


def dense_levels(A, top):
    """The dense level build that the Apery record replaced, on a fresh
    copy of A: (gaps, stable) with gaps[s] the gaps of level s, in rank
    order, for s = 0..top, and stable the first level s >= ceil(d(D-1)/D)
    with the gaps of level s - 1, or None if no level up to top has them.

    first[r] is the first level that holds the point of rank r of
    slice(top); level s is built from the points F new at level s - 1,
    as sA = (s-1)A | (F + A)."""
    d, D, e = A.d, A.D, A.e
    sl = SimplexSlice(d, D, top, e)
    gens = np.array(A.points, dtype=np.int64)
    first = np.full(sl.size, np.iinfo(np.int64).max)
    first[0] = 0  # the origin
    gaps, stable = [np.zeros((0, d), dtype=np.int64)], None
    for s in range(1, top + 1):
        old, size = (slice_size(d, t * D, e) for t in (s - 1, s))
        frontier = sl.unrank(np.flatnonzero(first == s - 1))
        ranks = sl.rank_array((frontier[None] + gens[:, None]).reshape(-1, d))
        first[ranks[first[ranks] > s]] = s
        gaps.append(sl.unrank(np.flatnonzero(first[:size] > s)))
        if stable is None and s * D >= d * (D - 1) and np.array_equal(
                gaps[s], gaps[s - 1]):
            stable = s
    return gaps, stable
