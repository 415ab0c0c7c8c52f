"""Face complexes T_y on the extremal rays and their reduced homology.

For y in the semigroup S_A (homogenized coordinates), T_y has vertex j
when y - D*e_j stays in S_A, and more generally face F when the whole
sum over F can be subtracted.  Reduced homology of these complexes
drives the regularity formula; the empty face is kept as the single
(-1)-cell, so the void-looking complex {emptyset} has betti_{-1} = 1.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Union

import numpy as np

from .errors import CertificationError, PreconditionError
from .lattice import _BATCH_ROWS, GeneratorSet
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


def axis_vectors(d: int, D: int) -> tuple[np.ndarray, np.ndarray]:
    """(V, k): row m of the (2**d, d) int64 array V is D*e_F for the
    axis subset F with mask m, and k[m] = |F|."""
    bits = np.arange(1 << d)[:, None] >> np.arange(d) & 1
    return D * bits, bits.sum(axis=1)


def face_tables_for_level(A: GeneratorSet, s: int, points: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized T_y face families for given y in S_A of norm s*D.

    ``points`` are dehomogenized members of the level-s sumset, and
    ``GeneratorSet.first_levels`` reads their faces: y - D*e_F for all
    2**d axis subsets F of a block of rows in one call.  A block holds
    max(n, _BATCH_ROWS) // 2**d of the n rows, so a lookup holds at
    most max(n, _BATCH_ROWS) rows (see the ``lattice`` docstring).
    Returns (points, tables): tables[r] is a uint64, so nonnegative with
    the 6-vertex face (bit 63) too, whose bit m says whether the vertex
    subset with mask m is a face of T_y (bit 0 = homogenizing
    coordinate).  See ``check_face_table_dimension``.
    """
    d = A.d
    check_face_table_dimension(d)
    pts = np.asarray(points, dtype=np.int64)
    V, k = axis_vectors(d, A.D)
    # taking D*e_j off y for the k axes in F leaves norm (s - k)*D; taking
    # off the homogenizing vertex too leaves (s - k - 1)*D with the same
    # dehomogenized part, so one lookup decides both faces: bits 2m and
    # 2m + 1 for the axis subset with mask m.  The bits are distinct, so
    # summing them is or-ing them
    bit = np.uint64(1) << np.arange(0, 2 << d, 2, dtype=np.uint64)[:, None]
    tables = np.empty(pts.shape[0], dtype=np.uint64)
    step = max(1, max(len(pts), _BATCH_ROWS) >> d)
    for j in range(0, len(pts), step):
        block = pts[j:j + step]
        first = A.first_levels((block[None] - V[:, None]).reshape(-1, d)
                               ).reshape(1 << d, -1)
        tables[j:j + step] = (
            np.where(first <= (s - k)[:, None], bit, 0).sum(0, np.uint64)
            + np.where(first <= (s - k - 1)[:, None], 2 * bit, 0).sum(
                0, np.uint64))
    # the empty face is bit 0: every member of sA has it
    if not (tables & 1).all():
        raise PreconditionError(f"a row is not in the level-{s} sumset")
    return pts, tables


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
