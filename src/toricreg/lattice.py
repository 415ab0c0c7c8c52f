"""Lattice vectors, generator sets, simplex slices and iterated sumsets.

Points are plain tuples of nonnegative ints.  A ``SimplexSlice`` is the set
of lattice points of bounded coordinate sum (optionally restricted to sums
divisible by ``e``), ranked by norm first and colexicographically inside a
norm layer, so slice(s) is a prefix of slice(s+1) and a point has the same
rank in every slice that holds it.

A ``GeneratorSet`` is the one sumset engine.  Lifted by a -> (D - |a|, a),
A generates a semigroup S whose level s is sA.  The engine's record, one
level per build, is the Apery set of S over the vertices D*e_j, Ap = {y
in S : y - D*e_j not in S for every j}, and the gap points y, whose
natural level (least s with y in slice(s)) is below their first level
(least s with y in sA), with that first level.  ``SumsetLevel`` objects
filter that record.  The build's shifts come in batches of at most
max(m, _BATCH_ROWS) rows, m = |Ap_(s-1)|.

Ranks are private to this module: levels hand out their members, gaps and
Apery elements as arrays of points in rank order, so other modules read
norms and coordinates, never a rank.
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

#: A batch of copies of an m-row part holds at most max(m, _BATCH_ROWS) rows.
_BATCH_ROWS = 1 << 14


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

    def rank_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized rank of an (n, d) array of slice points.

        The rows must lie in the slice, as a level's gaps do.

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
    """The s-fold sumset sA inside slice(s), a view of its generator set's
    record: its gaps are the gap points of natural level <= s < first."""

    def __init__(self, A: GeneratorSet, s: int):
        self._A = A
        self.s = s

    @property
    def size(self) -> int:
        """|slice(s)|, in closed form."""
        return slice_size(self._A.d, self.s * self._A.D, self._A.e)

    @property
    def cardinality(self) -> int:
        """|sA|, the slice size minus the gaps."""
        return self.size - len(self.gaps())

    def gaps(self) -> np.ndarray:
        """(size - cardinality, d) array of slice(s) \\ sA, in rank order,
        so by norm first; above the top built level, the final gaps."""
        A = self._A
        return A._gaps[(A._gaps.sum(axis=1) <= self.s * A.D)
                       & (A._filled > self.s)]

    def apery(self) -> np.ndarray:
        """(n, d) array of the Apery elements of level s, in rank order;
        none lie above the top built level once the gaps are final (see
        ``_next_level``)."""
        A = self._A
        return A._apery[self.s] if self.s <= A._built else A._apery[0][:0]

    @property
    def points(self) -> np.ndarray:
        """(cardinality, d) array of sA, in rank order: slice(s), capped,
        unranked with its gaps left out."""
        A = self._A
        sl = SimplexSlice(A.d, A.D, self.s, A.e, A.max_slice_size)
        member = np.ones(sl.size, dtype=bool)
        member[sl.rank_array(self.gaps())] = False
        return sl.unrank(np.flatnonzero(member))


class GeneratorSet:
    """A finite A in N^d with 0 and all D*e_i present; the single source
    instance for every downstream computation.

    D is the maximum coordinate sum over A and e = gcd(D, gcd |a|).  The
    record (module docstring): ``_apery[k]``, the Apery elements of level
    k, dehomogenized; ``_gaps``, the gap points of natural level at most
    ``_built`` in rank order, with first levels ``_filled`` (inf while no
    level holds one).  ``level`` returns a fresh view, so no level refers
    back to a set that holds it and a dropped set is freed at once.
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
        self._built = -1  # no level built
        self._stable = False
        self._apery: list[np.ndarray] = []
        self._gaps = self._residues = np.zeros((0, d), dtype=np.int64)
        self._filled = np.zeros(0)
        # the nonzero generators (self.points has the origin first), and
        # the steps D*e_i
        self._gens = np.array(self.points[1:], dtype=np.int64).reshape(-1, d)
        self._steps = self.D * np.eye(d, dtype=np.int64)

    # -- sumsets --------------------------------------------------------

    def level(self, s: int) -> SumsetLevel:
        if s < 0:
            raise PreconditionError("level must be >= 0")
        if self._stable or s <= self._built:
            return SumsetLevel(self, s)  # built, or its slice minus the gaps
        # slices grow with s, so this covers every level built below
        capped_slice_size(self.d, self.D, s, self.e, self.max_slice_size)
        if (s * self.D + 1) ** self.d > np.iinfo(np.int64).max:
            raise ResourceLimitError(f"points of level s={s} have no int64 "
                                     f"key in dimension {self.d}")
        # the residues (every coordinate below D) of the levels to build,
        # from the slice the cap allowed; none lie above L0 = ceil(d(D-1)/D)
        top = min(s, -(-self.d * (self.D - 1) // self.D))
        if top > self._built:
            sl = SimplexSlice(self.d, self.D, top, self.e, self.max_slice_size)
            box = sl.unrank(np.arange(sl.size))
            self._residues = box[(box < self.D).all(axis=1)]
        while not self._stable and self._built < s:
            self._next_level()
        return SumsetLevel(self, s)

    @property
    def stable_level(self) -> int | None:
        """The level that proved the gaps final (``_next_level``), or None."""
        return self._built if self._stable else None

    @property
    def last_fill(self) -> int:
        """The last built level that fills a gap of a lower one, or 0."""
        return int(self._filled[np.isfinite(self._filled)].max(initial=0))

    def _next_level(self) -> SumsetLevel:
        """Builds level s.  A point y of slice(s) is in sA iff it is in
        Ap_s or reached: y or a y - D*e_i in (s-1)A, so in slice(s-1) and
        no gap of level s - 1, a lookup in the record.  So:
        - Ap_s is the points of Ap_(s-1) + a, a a nonzero generator, that
          are not reached (b + a - D*e_j in S, b in Ap_(s-1), would put
          b - D*e_j in S; a vertex a reaches b + a);
        - a gap g of level s - 1 is filled iff it is in Ap_s or a
          g - D*e_i, not in (s-2)A as g is not in (s-1)A, was filled at
          level s - 1;
        - a point y of the new shell is a gap iff it is not in Ap_s and
          each y - D*e_i is a gap of natural level s - 1: y is a residue,
          every coordinate below D, or is such a gap shifted by D*e_i
          once for each i with y_i >= D.

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
        No later level has an Apery element: it would be a gap one level
        down, so a hole, or a new shell point, so reached.
        """
        s, d, D = self._built + 1, self.d, self.D
        # one int64 key per point of slice(s), in rank order: its norm,
        # then its coordinates from the last to the second, in radix s*D + 1
        radix = s * D + 1
        key = radix ** (d - 1) + np.append(0, radix ** np.arange(d - 1))
        # the record, closed by an entry that no key matches
        n = len(self._gaps)
        known = np.concatenate((self._gaps @ key, [radix ** d]))
        first = np.concatenate((self._filled, [0]))

        def gap_at(keys):
            """The record index of each key's gap of level s-1, else n."""
            at = known.searchsorted(keys)
            return np.where((known[at] == keys) & (first[at] > s - 1), at, n)

        # Ap_(s-1) + a, each y - D*e_i of them (keys are linear), and the
        # points filled at level s - 1 shifted by each D*e_i
        points, keys = self._apery_shifts(key)
        row, i = (points >= D).nonzero()
        filler = known[:-1][self._filled == s - 1, None] + D * key
        at = gap_at(np.concatenate((keys, keys[row] - D * key[i],
                                    filler.ravel())))
        own, back = at[:len(keys)], at[len(keys):len(keys) + len(row)]
        free = (keys >= ((s - 1) * D + 1) * radix ** (d - 1)) | (own < n)
        free[row[back == n]] = False
        first[np.concatenate((own[free], at[len(keys) + len(row):]))] = s
        apery, closed = points[free], np.append(keys[free], radix ** d)

        # the gaps of natural level s - 1 follow those of lower ones
        nat = known.searchsorted(((s - 2) * D + 1) * radix ** (d - 1))
        top = self._gaps[nat:][self._filled[nat:] > s - 1]
        norm = self._residues.sum(axis=1)
        new = np.concatenate(((top[:, None] + self._steps).reshape(-1, d),
                              self._residues[(norm > (s - 1) * D)
                                             & (norm <= s * D)]))
        new_keys, at, count = np.unique(new @ key, return_index=True,
                                        return_counts=True)
        new = new[at]
        gap = ((count == np.maximum((new >= D).sum(axis=1), 1))
               & (closed[closed.searchsorted(new_keys)] != new_keys))

        self._stable = bool(s * D >= d * (D - 1) and not gap.any()
                            and not (first[:-1] == s).any())
        self._gaps = np.concatenate((self._gaps, new[gap]))
        self._filled = np.append(first[:-1], np.full(gap.sum(), np.inf))
        self._apery.append(apery)
        self._built = s
        return SumsetLevel(self, s)

    def _apery_shifts(self, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points of Ap_(s-1) + a, a the nonzero generators, and their
        keys, sorted (the origin at s = 0), keyed a batch of
        max(|Ap_(s-1)|, _BATCH_ROWS) rows at a time and merged."""
        if not self._apery:
            return np.zeros((1, self.d), dtype=np.int64), key[:1] * 0
        last = self._apery[-1]
        step = max(1, _BATCH_ROWS // max(len(last), 1))
        points, keys = last[:0], key[:0]
        for j in range(0, len(self._gens), step):
            block = (last + self._gens[j:j + step, None]).reshape(-1, self.d)
            keys, at = np.unique(np.concatenate((keys, block @ key)),
                                 return_index=True)
            points = np.concatenate((points, block))[at]
        return points, keys

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
    shell = hi.unrank(np.arange(slice_size(d, s * D, e), hi.size))
    return bool((shell >= D).any(axis=1).all())
