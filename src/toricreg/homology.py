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


def face_tables_for_level(A: GeneratorSet, s: int, points: np.ndarray,
                          stable_from: Optional[int] = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized T_y face families for given y in S_A of norm s*D.

    ``points`` are dehomogenized members of the level-s sumset, and
    ``stable_from`` is passed to ``GeneratorSet.first_levels``, so a level
    above the top built one is read from the stable shape.  Returns
    (points, tables): tables[r] is an integer whose bit m says whether
    the vertex subset with mask m is a face of T_y (bit 0 = homogenizing
    coordinate).  See ``check_face_table_dimension``.
    """
    d, D = A.d, A.D
    check_face_table_dimension(d)
    pts = np.asarray(points, dtype=np.int64)
    tables = np.zeros(pts.shape[0], dtype=np.int64)
    for axes in range(1 << d):
        k = bin(axes).count("1")
        # taking D*e_j off y for the k axes in F leaves norm (s - k)*D;
        # taking off the homogenizing vertex too leaves (s - k - 1)*D with
        # the same dehomogenized part, so one lookup decides both faces
        v = np.array([D if axes >> j & 1 else 0 for j in range(d)],
                     dtype=np.int64)
        first = A.first_levels(pts - v, stable_from)
        for bit, level in ((axes << 1, s - k), (axes << 1 | 1, s - k - 1)):
            # in place: no int64 temporary per bit
            np.bitwise_or(tables, np.int64(1) << bit, out=tables,
                          where=first <= level)
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
