"""Face complexes T_y on the extremal rays and their reduced homology.

For y in the semigroup S_A (homogenized coordinates), T_y has vertex j
when y - D*e_j stays in S_A, and more generally face F when the whole
sum over F can be subtracted.  ``face_tables_for_level`` reads these
faces off the gaps of the sumset levels alone, with no membership
query, one level at a time: one int64 key per gap shift, its
dehomogenized coordinates, sorts and merges the level's shifts in one pass.
Reduced homology of these complexes drives the regularity formula; the
empty face is kept as the single (-1)-cell, so the void-looking complex
{emptyset} has betti_{-1} = 1.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Optional, Union

import numpy as np

from .errors import CertificationError, PreconditionError, ResourceLimitError
from .lattice import GeneratorSet
from .linalg import bareiss_rank, rank_mod_p

FieldTag = Union[str, int]  # "q" or a prime


def _boundary_matrix(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Signed incidence of k-subsets (upper) over (k-1)-subsets (lower)."""
    index = {f: r for r, f in enumerate(lower)}
    M = [[0] * len(upper) for _ in lower]
    for c, f in enumerate(upper):
        sign = 1
        for j in range(f.bit_length()):
            if f >> j & 1:
                M[index[f ^ (1 << j)]][c] = sign
                sign = -sign
    return M


#: Distinct (table, n_vertices, field) keys whose answers are kept.
HOMOLOGY_CACHE_SIZE = 4096


def betti_numbers(faces: frozenset[int], n_vertices: int,
                  field: FieldTag = "q") -> dict[int, int]:
    """Reduced Betti numbers of a face family, exact over Q or F_p.

    The family must be closed under taking subsets and live on
    ``n_vertices`` vertices, and ``field`` must be "q" or a prime.
    """
    if field != "q" and not (isinstance(field, int) and field > 1 and all(
            field % q for q in range(2, math.isqrt(field) + 1))):
        raise PreconditionError(f"field must be 'q' or a prime "
                                f"(got {field!r})")
    for f in faces:
        if not 0 <= f < 1 << n_vertices or any(
                f >> j & 1 and f ^ (1 << j) not in faces
                for j in range(n_vertices)):
            raise PreconditionError(
                f"face {f} is not a subset-closed face on {n_vertices} "
                f"vertices")
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    for cells in by_dim.values():
        cells.sort()
    rank = bareiss_rank if field == "q" else (
        lambda M: rank_mod_p(M, field))
    top = max(by_dim, default=-1)
    ranks = {}  # i -> rank of boundary C_i -> C_{i-1}
    for i in range(0, top + 1):
        ranks[i] = rank(_boundary_matrix(by_dim.get(i - 1, []),
                                         by_dim.get(i, [])))
    betti = {}
    for i in range(-1, n_vertices):
        betti[i] = (len(by_dim.get(i, ()))
                    - ranks.get(i, 0) - ranks.get(i + 1, 0))
        # the alternating sum of these betti matches the face count for any
        # ranks, so an Euler-characteristic check could not catch a bad one
        if betti[i] < 0:
            raise CertificationError(f"negative betti_{i} = {betti[i]}: "
                                     f"boundary ranks {ranks}")
    return betti


def check_face_table_dimension(d: int) -> None:
    """Face tables hold one bit per vertex subset of T_y, so its d + 1
    vertices must stay at most 6 for a table to fit in 64 bits."""
    if d + 1 > 6:
        raise PreconditionError(
            f"face tables support at most 6 vertices (d = {d})")


def face_tables_for_level(A: GeneratorSet, s: int,
                          gaps: Mapping[int, np.ndarray]
                          ) -> tuple[np.ndarray, np.ndarray]:
    """T_y face families of the gap shifts of level s.

    Take y in slice(s), homogenized with y0 = s*D - |y|.  Its vertex
    subset F leaves y - D*e_F in slice(s - |F|) iff y_j >= D on F, and
    then in S_A iff that point is no gap of level s - |F|.  So T_y is
    the full simplex on {j : y_j >= D} minus the faces F that land on a
    gap, at y = g + D*e_F: no membership query is needed, and only these
    gap shifts can have another T_y.  ``gaps[t]`` is level t's gaps,
    dehomogenized, read only for t from s - d - 1 to s.

    Returns (points, tables): the distinct gap shifts, dehomogenized, in
    lexicographic order, and a uint64 per point whose bit m says whether
    the vertex subset with mask m is a face (bit 0 = homogenizing
    coordinate), so nonnegative with the 6-vertex face (bit 63) too.  A
    gap of level s reads 0: a face would put it in sA.
    """
    d, D = A.d, A.D
    check_face_table_dimension(d)
    # one int64 key per point: its coordinates in radix s*D + 1; a gap g
    # of level s - |F| shifted by D*e_F has the key of g plus the key of
    # the shift, which F alone fixes
    radix = s * D + 1
    if radix ** d > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"level {s} rows have no int64 key in "
                                 f"dimension {d}")
    w = radix ** np.arange(d - 1, -1, -1)
    f = np.arange(2 << d)  # vertex subsets
    bits = f[:, None] >> np.arange(d + 1) & 1
    size = bits.sum(axis=1)
    shift = D * bits[:, 1:] @ w
    face = np.uint64(1) << f.astype(np.uint64)
    keys, cleared = [], []
    for t in range(max(0, s - d - 1), s + 1):
        g = gaps[t]
        m = np.flatnonzero(size == s - t)
        keys.append((shift[m, None] + g @ w).ravel())
        cleared.append(np.repeat(face[m], len(g)))
    keys, cleared = np.concatenate(keys), np.concatenate(cleared)
    order = np.argsort(keys)
    start = np.flatnonzero(np.diff(keys[order], prepend=-1))
    cleared = np.bitwise_or.reduceat(cleared[order], start)
    keys = keys[order[start]]
    pts = np.empty((len(keys), d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        keys, pts[:, j] = np.divmod(keys, radix)
    # full[v]: every subset of the vertex set v that y allows, bit j for
    # homogenized y_j >= D
    full = np.where(f[:, None] & f == f, face, 0).sum(axis=1, dtype=np.uint64)
    allowed = ((s * D - pts.sum(axis=1) >= D)
               | (pts >= D) @ (2 << np.arange(d)))
    return pts, full[allowed] & ~cleared


def min_nonzero_degree(table: int, n_vertices: int,
                       field: FieldTag = "q") -> Optional[int]:
    """Smallest i with betti_i != 0 for the face family encoded by table
    (bit m set when the vertex subset with mask m is a face), a
    non-negative int below 2**(2**n_vertices).  The answer is cached per
    (table, n_vertices, field); betti_numbers runs, and checks the
    family and the field, only on a miss."""
    # the cache key must hash, so a field of another type fails here
    if not (isinstance(field, int) or field == "q"):
        raise PreconditionError(f"field must be 'q' or a prime "
                                f"(got {field!r})")
    return _min_nonzero_degree(table, n_vertices, field)


@functools.lru_cache(maxsize=HOMOLOGY_CACHE_SIZE)
def _min_nonzero_degree(table: int, n_vertices: int,
                        field: FieldTag) -> Optional[int]:
    if table < 0 or table >> (1 << n_vertices):
        raise PreconditionError(
            f"table {table} is not a face set on {n_vertices} vertices")
    faces = frozenset(m for m in range(1 << n_vertices) if table >> m & 1)
    betti = betti_numbers(faces, n_vertices, field)
    return min((i for i, b in betti.items() if b), default=None)
