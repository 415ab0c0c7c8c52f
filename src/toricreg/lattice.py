"""Lattice vectors, generator sets, simplex slices and iterated sumsets.

Points are plain tuples of nonnegative ints.  A ``SimplexSlice`` is the set
of lattice points of bounded coordinate sum (optionally restricted to sums
divisible by ``e``), ranked by norm first and colexicographically inside a
norm layer, so slice(s) is a prefix of slice(s+1) and a point has the same
rank in every slice that holds it.  A ``GeneratorSet`` is the one sumset
engine: its one record holds, for each rank, the first level s with the
point in sA, and one rank table, a slice at or above its top built level,
ranks every level it holds; once the gaps are final, no level above the
top is built.  ``SumsetLevel`` objects are views of that record that
read a slice size off the table (the closed form above it), unrank their
gaps through the table, which holds every gap, and their points through
the table, or a capped slice(s) of their own above it.

The level build ranks the shifts of the new points by every generator.
It stacks the copies into one array per batch, so numpy is called once
per level rather than once per generator, and ``batch_bound`` bounds a
batch: it holds at most max(m, _BATCH_ROWS) rows, m being one copy's
rows.  A batch thus needs no more memory than a single copy, or
~_BATCH_ROWS * d int64 entries when the copies are small.  The reg
sweep batches its levels by the same bound.

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

#: A batch of shifted copies of an m-row array holds at most
#: max(m, _BATCH_ROWS) rows (see the module docstring).
_BATCH_ROWS = 1 << 14


def batch_bound(m: int) -> int:
    """The most rows a batch may hold when its first part has m rows:
    max(m, _BATCH_ROWS), so no more memory than the part alone needs,
    or ~_BATCH_ROWS rows when the parts are small."""
    return max(m, _BATCH_ROWS)


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
    """|slice(s)|, refused with ``ResourceLimitError`` when it or the s*D + 1
    norms its tables index (the larger only at d = 1) exceed ``max_size``."""
    size = slice_size(d, s * D, e)
    if max(size, s * D + 1) > max_size:
        raise ResourceLimitError(
            f"slice d={d} D={D} s={s} e={e} holds {size} points over "
            f"{s * D + 1} norms (cap {max_size})")
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
        self.D = D
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

    def level_size(self, s: int) -> int:
        """|slice(s)| for s <= self.s, read off the rank table: slice(s)
        is the prefix up to the last point of norm s*D."""
        return int(self._last[s * self.D]) + 1

    def rank_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized rank of an (n, d) array of slice points.

        The rows must lie in the slice: the level build ranks only shifts
        of a level's points by generators, which do.

        Inside the layer of norm n, the points colex-after z are counted
        by prefix sums: sum over c of #{w in N^c : |w| < z_0 + ... + z_(c-1)}.
        They are taken by d - 1 column adds into a copy, as a cumsum
        along the rows runs row by row.
        """
        prefix = np.array(points, dtype=np.int64)
        if prefix.ndim != 2 or prefix.shape[1] != self.d:
            raise PreconditionError(f"expected shape (n, {self.d})")
        for c in range(1, self.d):
            prefix[:, c] += prefix[:, c - 1]
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
        prefix[:, 1:] -= prefix[:, :-1].copy()  # prefix sums to points
        return prefix


class SumsetLevel:
    """The s-fold sumset sA inside slice(s), as a view of its generator
    set: y is in sA iff the first level holding y is at most s."""

    def __init__(self, A: GeneratorSet, s: int):
        self._A = A
        self.s = s

    @property
    def size(self) -> int:
        """|slice(s)|, off the set's rank table, or from the closed form
        above it."""
        A = self._A
        if self.s <= A._slice.s:
            return A._slice.level_size(self.s)
        return slice_size(A.d, self.s * A.D, A.e)

    @property
    def cardinality(self) -> int:
        """|sA|, the slice size minus the gaps, counted, not unranked."""
        size = self.size
        return size - int(np.count_nonzero(self._A._first[:size] > self.s))

    def gaps(self) -> np.ndarray:
        """(size - cardinality, d) array of slice(s) \\ sA, in rank order,
        so by norm first, unranked through the set's table.  Above the
        top built level the gaps are final and the record holds them all."""
        A = self._A
        return A._slice.unrank(np.flatnonzero(A._first[:self.size] > self.s))

    @property
    def points(self) -> np.ndarray:
        """(cardinality, d) array of sA, in rank order, unranked through
        the set's table, or through a capped slice(s) above it."""
        A = self._A
        sl = A._slice if self.s <= A._slice.s else SimplexSlice(
            A.d, A.D, self.s, A.e, A.max_slice_size)
        member = np.ones(self.size, dtype=bool)
        member[:len(A._first)] = A._first[:len(member)] <= self.s
        return sl.unrank(np.flatnonzero(member))


class GeneratorSet:
    """A finite A in N^d with 0 and all D*e_i present; the single source
    instance for every downstream computation.

    D is the maximum coordinate sum over A and e = gcd(D, gcd |a|).
    Sumset levels are built on demand into one record: ``_first[r]`` is
    the first level holding the point of rank r, for every rank of
    slice(_built), the top built level.  The set keeps one
    ``SimplexSlice``, ``_slice``, as its rank table: every slice up to
    its level is a prefix of it with the same ranks, so it ranks every
    build, unranks the gaps of any level and gives |slice(s)| as a table
    read.  A build above the table's level makes a new one that holds
    twice the levels built, so a set makes O(log) tables however many
    levels it builds; when the cap refuses that table, the build makes
    slice(s) alone.
    ``level`` returns a fresh view, so no level refers back to a set that
    holds it and a dropped set is freed at once.
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
        self._slice: SimplexSlice | None = None
        self._built = -1  # no level built
        self._first = np.zeros(0, dtype=np.int32)
        self._stable = False
        # the nonzero generators; self.points has the origin first
        self._gens = np.array(self.points[1:], dtype=np.int64).reshape(-1, d)

    # -- sumsets --------------------------------------------------------

    def level(self, s: int) -> SumsetLevel:
        if s < 0:
            raise PreconditionError("level must be >= 0")
        if self._stable or s <= self._built:
            return SumsetLevel(self, s)  # built, or its slice minus the gaps
        # slices grow with s, so this covers every level built below
        capped_slice_size(self.d, self.D, s, self.e, self.max_slice_size)
        while not self._stable and self._built < s:
            self._next_level()
        return SumsetLevel(self, s)

    @property
    def stable_level(self) -> int | None:
        """The level where the gaps became final (see ``_next_level``),
        or None while no level built proves them final."""
        return self._built if self._stable else None

    def _rank_table(self, s: int) -> SimplexSlice:
        """The rank table that a build of level s past the current one
        makes: slice(2s + 2), so it holds twice the levels built, or
        slice(s) when the cap refuses that."""
        try:
            return SimplexSlice(self.d, self.D, 2 * s + 2, self.e,
                                self.max_slice_size)
        except ResourceLimitError:
            return SimplexSlice(self.d, self.D, s, self.e, self.max_slice_size)

    def _next_level(self) -> SumsetLevel:
        """Builds level s from the points F new at level s - 1: as 0 is
        in A, sA = (s-1)A + A = (s-1)A | (F + A).  The shifts F + a of
        the nonzero generators a are stacked into batches of
        max(|F|, _BATCH_ROWS) // |F| generators, and each batch is ranked
        and scattered at once.  So every array the build allocates holds
        about max(|F|, _BATCH_ROWS)*d entries: |F|*d <= |slice(s)|*d,
        which the slice cap bounds, or _BATCH_ROWS*d on a small level.

        The set is then stable, its gaps final, if s >= L0 =
        ceil(d(D-1)/D) and level s has exactly the gaps of level s - 1:
        none in its new shell, so all of norm <= (s-1)*D, and none of
        level s - 1 filled.  By induction every later level has the same
        gaps, as level s + 1:
        - past L0 a shell point z of slice(s+1) has norm > s*D >= d(D-1),
          so z = y + D*e_i with |y| > (s-1)*D: y is no gap, z in (s+1)A;
        - were a gap g filled at level s + 1 as g = x + a, x in sA, then
          x, in slice(s-1), would be no gap of level s, so of level s - 1,
          and lie in (s-1)A.  That puts g in sA, a contradiction.
        """
        s = self._built + 1
        if self._slice is None or s > self._slice.s:
            self._slice = self._rank_table(s)
        sl = self._slice
        old = len(self._first)  # |slice(s-1)|, 0 at s = 0
        first = np.full(sl.level_size(s), _UNSEEN, dtype=np.int32)
        first[:old] = self._first
        if s == 0:
            first[0] = 0  # the origin
        else:
            frontier = sl.unrank(np.flatnonzero(self._first == s - 1))
            step = max(1, batch_bound(len(frontier)) // len(frontier))
            for j in range(0, len(self._gens), step):
                shifts = frontier[None] + self._gens[j:j + step, None]
                ranks = sl.rank_array(shifts.reshape(-1, self.d))
                first[ranks[first[ranks] == _UNSEEN]] = s  # repeats write s
        self._stable = bool(s * self.D >= self.d * (self.D - 1)
                            and (first[old:] != _UNSEEN).all()
                            and not (first[:old] == s).any())
        self._first = first
        self._built = s
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
    z - D*e_i lies in slice(s) iff z_i >= D."""
    if s < 0:
        return False
    hi = SimplexSlice(d, D, s + 1, e, max_slice_size)
    shell = hi.unrank(np.arange(hi.level_size(s), hi.size))
    return bool((shell >= D).any(axis=1).all())
