"""Lattice vectors, generator sets, simplex slices and iterated sumsets.

Points are plain tuples of nonnegative ints.  A ``SimplexSlice`` is the set
of lattice points of bounded coordinate sum (optionally restricted to sums
divisible by ``e``), ranked by norm first and colexicographically inside a
norm layer, so slice(s) is a prefix of slice(s+1) and a point has the same
rank in every slice that holds it.  A ``GeneratorSet`` is the one sumset
engine: its one record holds, for each rank, the first level s with the
point in sA, and it keeps one slice, its top built level's, whose tables
rank and unrank every level below.  ``first_levels`` reads that record and
is the engine's one membership query; ``SumsetLevel`` objects are views of
the same record that take their slice sizes from the closed form.

Ranks are private to this module: levels hand out their members and gaps
as (n, d) arrays of points in rank order, so other modules read norms and
coordinates, never a rank.
"""

from __future__ import annotations

import itertools
from math import comb, gcd
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInstanceError, PreconditionError, ResourceLimitError

Point = tuple[int, ...]

#: Default cap on the number of lattice points a single slice may hold.
DEFAULT_MAX_SLICE_SIZE = 2**27

#: First-appearance level of a rank that no level built so far contains.
_UNSEEN = np.iinfo(np.int32).max


def unit(d: int, i: int, scale: int = 1) -> Point:
    """scale * e_i in N^d (i is 0-based)."""
    return tuple(scale if j == i else 0 for j in range(d))


def slice_size(d: int, N: int, e: int = 1) -> int:
    """#{y in N^d : |y| <= N, e | |y|} in closed form.

    The count is a polynomial of degree d in K = N // e, so Newton's
    forward-difference formula through K = 0..d gives it exactly.
    """
    diffs = list(itertools.accumulate(
        comb(k * e + d - 1, d - 1) for k in range(d + 1)))
    total = 0
    for j in range(d + 1):
        total += diffs[0] * comb(N // e, j)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


def capped_slice_size(d: int, D: int, s: int, e: int, max_size: int) -> int:
    """|slice(s)|, refused with ``ResourceLimitError`` above ``max_size``."""
    size = slice_size(d, s * D, e)
    if size > max_size:
        raise ResourceLimitError(
            f"slice d={d} D={D} s={s} e={e} holds {size} points "
            f"(cap {max_size})")
    return size


class SimplexSlice:
    """Lattice points y in N^d with |y| <= s*D and e | |y|.

    Ranks them onto [0, size) by norm first and then colexicographically
    (last coordinate most significant) inside a norm layer.
    """

    def __init__(self, d: int, D: int, s: int, e: int = 1,
                 max_size: int = DEFAULT_MAX_SLICE_SIZE):
        if d < 1 or D < 1 or s < 0 or e < 1:
            raise PreconditionError(f"bad slice parameters d={d} D={D} s={s} e={e}")
        self.d = d
        self.s = s
        self.e = e
        self.N = s * D
        self.size = capped_slice_size(d, D, s, e, max_size)
        self._build_tables()

    def _build_tables(self) -> None:
        d, N = self.d, self.N
        # layer[x] = C(x + c - 1, c - 1) = #{z in N^c : |z| = x}, and
        # _below[c - 1][x] = C(x + c - 1, c) = #{z in N^c : |z| < x}
        layer = np.ones(N + 1, dtype=np.int64)
        self._below = np.empty((d - 1, N + 1), dtype=np.int64)
        for c in range(d - 1):
            upto = np.cumsum(layer)
            self._below[c] = upto - layer
            layer = upto
        layer[np.arange(N + 1) % self.e > 0] = 0
        # _last[n] = rank of the last slice point of norm <= n
        self._last = np.cumsum(layer) - 1

    def rank_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized rank of an (n, d) array of slice points.

        The rows must lie in the slice; ``GeneratorSet.first_levels`` is
        the one place that decides which rows do.

        Inside the layer of norm n, the points colex-after z are counted
        by prefix sums: sum over c of #{w in N^c : |w| < z_0 + ... + z_(c-1)}.
        """
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise PreconditionError(f"expected shape (n, {self.d})")
        prefix = np.cumsum(pts, axis=1)
        ranks = self._last[prefix[:, -1]]
        for c in range(self.d - 1):
            ranks -= self._below[c][prefix[:, c]]
        return ranks

    def unrank(self, ranks: np.ndarray) -> np.ndarray:
        """Inverse of ``rank_array``: the (n, d) int64 points of the ranks.

        The norm n of r is the first with _last[n] >= r, and _last[n] - r
        sums _below[c][z_0 + ... + z_c] over c with strictly growing binomial
        arguments: a combinatorial number system, read greedily from c = d - 2
        down, so the prefix sums come out one searchsorted each.
        """
        r = np.asarray(ranks, dtype=np.int64)
        if r.size and (r.min() < 0 or r.max() >= self.size):
            raise PreconditionError("rank outside slice")
        prefix = np.empty((len(r), self.d), dtype=np.int64)
        prefix[:, -1] = np.searchsorted(self._last, r)
        rest = self._last[prefix[:, -1]] - r
        for c in range(self.d - 2, -1, -1):
            prefix[:, c] = np.searchsorted(self._below[c], rest, "right") - 1
            rest -= self._below[c][prefix[:, c]]
        return np.diff(prefix, axis=1, prepend=0)


class SumsetLevel:
    """The s-fold sumset sA inside slice(s), as a view of its generator
    set: y is in sA iff the first level holding y is at most s."""

    def __init__(self, A: GeneratorSet, s: int):
        self._A = A
        self.s = s

    @property
    def size(self) -> int:
        """|slice(s)|, from the closed form."""
        return slice_size(self._A.d, self.s * self._A.D, self._A.e)

    @property
    def cardinality(self) -> int:
        """|sA|."""
        return int(np.count_nonzero(self._A._first[:self.size] <= self.s))

    def gaps(self) -> np.ndarray:
        """(size - cardinality, d) array of slice(s) \\ sA, in rank order,
        so by norm first."""
        return self._A._top.unrank(
            np.flatnonzero(self._A._first[:self.size] > self.s))

    @property
    def points(self) -> np.ndarray:
        """(cardinality, d) array of sA, in rank order."""
        return self._A._top.unrank(
            np.flatnonzero(self._A._first[:self.size] <= self.s))


class GeneratorSet:
    """A finite A in N^d with 0 and all D*e_i present; the single source
    instance for every downstream computation.

    D is the maximum coordinate sum over A and e = gcd(D, gcd |a|).
    Sumset levels are built on demand into one record: ``_first[r]`` is
    the first level holding the point of rank r.  The set keeps one
    ``SimplexSlice``, ``_top``, of its top built level: every slice below
    is a prefix of it with the same ranks, so ``_top.unrank`` gives the
    points of any level.  ``level`` returns a fresh view, so no level
    refers back to a set that holds it and a dropped set is freed at once.
    """

    def __init__(self, d: int, points: Iterable[Sequence[int]],
                 max_slice_size: int = DEFAULT_MAX_SLICE_SIZE):
        if d < 1:
            raise InvalidInstanceError("dimension must be >= 1")
        pts = [tuple(int(c) for c in p) for p in points]
        for p in pts:
            if len(p) != d:
                raise InvalidInstanceError(f"point {p} does not have length {d}")
            if any(c < 0 for c in p):
                raise InvalidInstanceError(f"point {p} has a negative coordinate")
            if any(c > 2**31 - 1 for c in p):
                raise InvalidInstanceError(f"coordinate overflow in {p}")
        seen = set()
        for p in pts:
            if p in seen:
                raise InvalidInstanceError(f"duplicate point {p}")
            seen.add(p)
        if not pts:
            raise InvalidInstanceError("empty generator set")
        self.d = d
        self.points: tuple[Point, ...] = tuple(sorted(pts))
        self.D = max(sum(p) for p in self.points)
        if self.D < 2:
            raise InvalidInstanceError(
                f"maximum generator norm must be >= 2 (got {self.D})")
        zero = (0,) * d
        if zero not in seen:
            raise InvalidInstanceError("generator set must contain the origin")
        for i in range(d):
            if unit(d, i, self.D) not in seen:
                raise InvalidInstanceError(
                    f"generator set must contain {self.D}*e_{i + 1}")
        self.e = gcd(self.D, *(sum(p) for p in self.points if sum(p)))
        self.max_slice_size = max_slice_size
        self._top: SimplexSlice | None = None
        self._first = np.zeros(0, dtype=np.int32)

    # -- sumsets --------------------------------------------------------

    def level(self, s: int) -> SumsetLevel:
        if s < 0:
            raise PreconditionError("level must be >= 0")
        # slices grow with s, so this covers every level built below
        capped_slice_size(self.d, self.D, s, self.e, self.max_slice_size)
        while self._top is None or self._top.s < s:
            self._next_level()
        return SumsetLevel(self, s)

    def first_levels(self, points: np.ndarray) -> np.ndarray:
        """First level holding each row of an (n, d) array of points.

        The engine's one membership query: once level s is built, y is in
        sA iff its first level is <= s.  Rows outside the largest slice
        built (a negative coordinate, a norm not divisible by e, or a norm
        above that slice) get ``_UNSEEN``, as do points no level built
        holds.
        """
        pts = np.asarray(points, dtype=np.int64)
        out = np.full(pts.shape[0], _UNSEEN, dtype=np.int32)
        sl = self._top
        if sl is None:
            return out
        norms = pts.sum(axis=1)
        ok = (pts >= 0).all(axis=1) & (norms <= sl.N) & (norms % self.e == 0)
        out[ok] = self._first[sl.rank_array(pts[ok])]
        return out

    def _next_level(self) -> SumsetLevel:
        """Builds level s from the points F new at level s - 1: as 0 is
        in A, sA = (s-1)A + A = (s-1)A | (F + A).  F + a is ranked one
        nonzero generator a at a time, so every array the build allocates
        holds about |F|*d <= |slice(s)|*d entries and the slice cap
        bounds it."""
        s = 0 if self._top is None else self._top.s + 1
        sl = SimplexSlice(self.d, self.D, s, self.e, self.max_slice_size)
        first = np.full(sl.size, _UNSEEN, dtype=np.int32)
        first[:len(self._first)] = self._first
        if s == 0:
            first[0] = 0  # the origin
        else:
            frontier = self._top.unrank(np.flatnonzero(self._first == s - 1))
            for a in self.points[1:]:  # sorted, so the origin comes first
                ranks = sl.rank_array(frontier + a)
                first[ranks[first[ranks] == _UNSEEN]] = s  # repeats write s
        self._first = first
        self._top = sl
        return SumsetLevel(self, s)

    def __repr__(self) -> str:
        return (f"GeneratorSet(d={self.d}, D={self.D}, e={self.e}, "
                f"|A|={len(self.points)})")


def homogenize(A: GeneratorSet) -> tuple[Point, ...]:
    """Lift A to the norm-D hyperplane of N^(d+1): a -> (D - |a|, a)."""
    return tuple((A.D - sum(a),) + a for a in A.points)


def hilbert_function(A: GeneratorSet, s_max: int) -> list[int]:
    """|sA| for s = 0..s_max (the Hilbert function of the coordinate ring)."""
    if s_max < 0:
        raise PreconditionError("s_max must be >= 0")
    A.level(s_max)  # checks the cap of the top level before level 0
    return [A.level(s).cardinality for s in range(s_max + 1)]


def step_threshold(d: int, D: int, e: int = 1) -> int:
    """Smallest s with slice(s) + {0, D*e_1, ..., D*e_d} = slice(s+1).

    Equals ceil(d - (d + e - 1) / D).
    """
    if d < 1 or D < 2 or e < 1 or D % e:
        raise PreconditionError(f"bad parameters d={d} D={D} e={e}")
    num = d * D - (d + e - 1)
    return -(-num // D)


def step_equality_holds(d: int, D: int, e: int, s: int,
                        max_slice_size: int = DEFAULT_MAX_SLICE_SIZE) -> bool:
    """Whether slice(s) + {0, D*e_1, ..., D*e_d} == slice(s+1).

    slice(s) covers itself, so only the shell slice(s+1) \\ slice(s) is
    read: a shell point z has sD < |z| <= (s+1)D and e | |z| - D, so
    z - D*e_i lies in slice(s) iff z_i >= D.
    """
    if s < 0:
        return False
    hi = SimplexSlice(d, D, s + 1, e, max_slice_size)
    shell = hi.unrank(np.arange(slice_size(d, s * D, e), hi.size))
    return bool((shell >= D).any(axis=1).all())
