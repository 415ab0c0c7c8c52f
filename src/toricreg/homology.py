"""Face complexes T_y on the extremal rays and their reduced homology.

For y in the semigroup S_A (homogenized coordinates), T_y has vertex j
when y - D*e_j stays in S_A, and more generally face F when the whole
sum over F can be subtracted.  Reduced homology of these complexes
drives the regularity formula; the empty face is kept as the single
(-1)-cell, so the void-looking complex {emptyset} has betti_{-1} = 1.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError
from .lattice import GeneratorSet, norm
from .linalg import bareiss_rank, rank_mod_p

FieldTag = Union[str, int]  # "q" or a prime


def semigroup_member(A: GeneratorSet, y: Sequence[int]) -> bool:
    """Is y (in N^{d+1}) an N-combination of the homogenized generators?

    Every generator has norm D, so the question reduces to a single
    sumset level: y in S_A iff D | |y| and the dehomogenized part lies
    in sA for s = |y|/D.
    """
    y = tuple(int(c) for c in y)
    if len(y) != A.d + 1:
        raise PreconditionError(f"expected a vector of length {A.d + 1}")
    if any(c < 0 for c in y):
        return False
    total = norm(y)
    if total % A.D:
        return False
    s = total // A.D
    A.level(s)
    return bool(A.first_levels(np.array([y[1:]]))[0] <= s)


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


#: Distinct (faces, n_vertices, field) keys whose Betti numbers are kept.
HOMOLOGY_CACHE_SIZE = 4096


def betti_numbers(faces: frozenset[int], n_vertices: int,
                  field: FieldTag = "q") -> dict[int, int]:
    """Reduced Betti numbers of a face family, exact over Q or F_p."""
    return dict(_betti_numbers(faces, n_vertices, field))


@functools.lru_cache(maxsize=HOMOLOGY_CACHE_SIZE)
def _betti_numbers(faces: frozenset[int], n_vertices: int,
                   field: FieldTag) -> tuple[tuple[int, int], ...]:
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
        M = _boundary_matrix(by_dim.get(i - 1, []), by_dim.get(i, []))
        ranks[i] = rank(M) if M and M[0] else 0
    betti = {}
    for i in range(-1, n_vertices):
        betti[i] = (len(by_dim.get(i, ()))
                    - ranks.get(i, 0) - ranks.get(i + 1, 0))
    assert all(b >= 0 for b in betti.values())
    # reduced Euler characteristic must match the alternating face count
    chi_faces = sum((-1) ** (bin(f).count("1") - 1) for f in faces)
    chi_betti = sum((-1) ** i * b for i, b in betti.items())
    assert chi_faces == chi_betti, (chi_faces, chi_betti)
    return tuple(sorted(betti.items()))


def check_face_table_dimension(d: int) -> None:
    """Face tables hold one bit per vertex subset of T_y, so its d + 1
    vertices must stay at most 6 for a table to fit in 64 bits."""
    if d + 1 > 6:
        raise PreconditionError(
            f"face tables support at most 6 vertices (d = {d})")


def face_tables_for_level(A: GeneratorSet, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized T_y face families for every y in S_A of norm s*D.

    Returns (points, tables): points are the dehomogenized members of the
    level-s sumset, and tables[r] is an integer whose bit m says whether
    the vertex subset with mask m is a face of T_y (bit 0 = homogenizing
    coordinate).  See ``check_face_table_dimension``.
    """
    d, D = A.d, A.D
    check_face_table_dimension(d)
    pts = A.level(s).points
    tables = np.zeros(pts.shape[0], dtype=np.int64)
    for axes in range(1 << d):
        k = bin(axes).count("1")
        # taking D*e_j off y for the k axes in F leaves norm (s - k)*D;
        # taking off the homogenizing vertex too leaves (s - k - 1)*D with
        # the same dehomogenized part, so one lookup decides both faces
        v = np.array([D if axes >> j & 1 else 0 for j in range(d)],
                     dtype=np.int64)
        first = A.first_levels(pts - v)
        for bit, level in ((axes << 1, s - k), (axes << 1 | 1, s - k - 1)):
            # in place: no int64 temporary per bit
            np.bitwise_or(tables, np.int64(1) << bit, out=tables,
                          where=first <= level)
    return pts, tables


def min_nonzero_degree(table: int, n_vertices: int,
                       field: FieldTag = "q") -> Optional[int]:
    """Smallest i with betti_i != 0 for the face family encoded by table."""
    faces = frozenset(m for m in range(1 << n_vertices) if table >> m & 1)
    betti = betti_numbers(faces, n_vertices, field)
    nz = [i for i, b in sorted(betti.items()) if b]
    return nz[0] if nz else None
