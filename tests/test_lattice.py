import gc
import math
import random
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricreg import (GeneratorSet, InvalidInstanceError, PreconditionError,
                      ResourceLimitError, classify, hilbert_function,
                      homogenize, lattice, sigma, step_equality_holds,
                      step_threshold)
from toricreg.families import (minimal_smooth, quartic_singular_surface,
                               veronese)
from toricreg.lattice import SimplexSlice, slice_size, unit
from toricreg.oracle import (MAX_NAIVE_GENERATORS, naive_member,
                             naive_slice_points, naive_sumset)

from instances import (FAMILIES, arbitrary_sets, dense_levels,
                       family_instance, members)


class TestSimplexSlice:
    @pytest.mark.parametrize("d,D,s,e", [
        (1, 4, 3, 1), (2, 4, 2, 1), (2, 4, 2, 2), (2, 6, 3, 2),
        (3, 3, 2, 1), (3, 6, 1, 3), (4, 5, 1, 5),
    ])
    def test_rank_is_a_bijection(self, d, D, s, e):
        sl = SimplexSlice(d, D, s, e)
        pts = sl.unrank(np.arange(sl.size))
        expected = naive_slice_points(d, s * D, e)
        assert sl.size == len(expected)
        assert set(map(tuple, pts.tolist())) == expected
        assert np.array_equal(sl.rank_array(pts), np.arange(sl.size))

    @pytest.mark.parametrize("d,D,s,e", [(2, 3, 2, 1), (3, 3, 2, 1),
                                         (3, 4, 2, 2)])
    def test_rank_is_graded_colex(self, d, D, s, e):
        sl = SimplexSlice(d, D, s, e)
        # norm first, then colex (last coordinate most significant)
        pts = sorted(naive_slice_points(d, s * D, e),
                     key=lambda p: (sum(p), p[::-1]))
        assert list(sl.rank_array(np.array(pts))) == list(range(sl.size))

    @pytest.mark.parametrize("d,D,e", [(1, 4, 2), (2, 4, 2), (3, 3, 1),
                                       (3, 6, 3)])
    def test_slice_is_a_prefix_of_the_next(self, d, D, e):
        for s in range(4):
            lo, hi = SimplexSlice(d, D, s, e), SimplexSlice(d, D, s + 1, e)
            P = lo.unrank(np.arange(lo.size))
            assert np.array_equal(lo.rank_array(P), hi.rank_array(P))
            assert np.array_equal(hi.unrank(np.arange(lo.size)), P)

    def test_unrank_sorted_by_rank(self):
        sl = SimplexSlice(3, 4, 2, 2)
        arr = sl.unrank(np.arange(sl.size))
        assert arr.shape == (sl.size, 3)
        ranks = sl.rank_array(arr)
        assert list(ranks) == list(range(sl.size))

    def test_unrank_builds_no_dense_grid(self):
        # the (N+1)^d grid of this slice would hold 4.9M rows for 0.33M points
        sl = SimplexSlice(4, 6, 10, 2)
        tracemalloc.start()
        try:
            pts = sl.unrank(np.arange(sl.size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pts.shape == (sl.size, 4)
        assert peak < 10 * pts.nbytes

    def test_out_of_domain(self):
        sl = SimplexSlice(2, 4, 1, 2)
        for rank in (-1, sl.size):
            with pytest.raises(PreconditionError):
                sl.unrank(np.array([rank]))

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            SimplexSlice(2, 10, 10, 1, max_size=100)

    def test_size_cap_precedes_tables(self):
        # 20002 points: refused before any table over the 20001 norms exists
        with pytest.raises(ResourceLimitError):
            SimplexSlice(2, 20000, 1, 20000, max_size=100)

    @pytest.mark.parametrize("d,N,e", [(1, 1000, 7), (2, 300, 3),
                                       (3, 120, 4), (5, 40, 1), (4, 60, 6)])
    def test_size_closed_form(self, d, N, e):
        assert slice_size(d, N, e) == sum(
            comb(m + d - 1, d - 1) for m in range(0, N + 1, e))

    @given(st.integers(1, 5), st.integers(2, 8), st.integers(0, 8),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_reads_every_level_size(self, d, D, top, data):
        # slice(s) is the prefix of the table up to norm s*D, so its size
        # is a table read at every level up to the table's
        e = data.draw(st.sampled_from(
            [e for e in range(1, D + 1) if D % e == 0]))
        sl = SimplexSlice(d, D, top, e)
        assert [int(sl._last[s * D]) + 1 for s in range(top + 1)] == [
            slice_size(d, s * D, e) for s in range(top + 1)]
        assert sl._last[-1] + 1 == sl.size

    @given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 3),
           st.sampled_from(["1", "2", "D"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_roundtrip_random(self, d, D, s, e, data):
        sl = SimplexSlice(d, D, s, D if e == "D" else int(e))
        ranks = np.array(data.draw(st.lists(st.integers(0, sl.size - 1),
                                            min_size=1, max_size=20)))
        assert np.array_equal(sl.rank_array(sl.unrank(ranks)), ranks)

    @given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 3),
           st.sampled_from(["1", "2", "D"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_a_cumsum_reference(self, d, D, s, e, data):
        # the prefix-sum formula of rank_array with its sums taken by
        # np.cumsum along the rows; the caller's points stay as they were
        sl = SimplexSlice(d, D, s, D if e == "D" else int(e))
        pts = sl.unrank(np.array(data.draw(st.lists(
            st.integers(0, sl.size - 1), max_size=30)), dtype=np.int64))
        prefix = np.cumsum(pts, axis=1)
        want = sl._last[prefix[:, -1]] - sum(
            sl._below[c][prefix[:, c]] for c in range(d - 1))
        before = pts.copy()
        assert np.array_equal(sl.rank_array(pts), want)
        assert np.array_equal(pts, before)
        if len(pts):
            assert np.array_equal(sl.rank_array(pts.tolist()), want)


class TestGeneratorSet:
    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            GeneratorSet(2, [(0, 0), (4, 0)])  # missing 4*e_2
        with pytest.raises(InvalidInstanceError):
            GeneratorSet(2, [(4, 0), (0, 4)])  # missing origin
        with pytest.raises(InvalidInstanceError):
            GeneratorSet(2, [(0, 0), (4, 0), (0, 4), (-1, 2)])
        with pytest.raises(InvalidInstanceError):
            GeneratorSet(2, [(0, 0), (4, 0), (0, 4), (4, 0)])
        with pytest.raises(InvalidInstanceError):
            GeneratorSet(1, [(0,), (1,)])  # D = 1

    def test_derived_parameters(self, quartic):
        assert (quartic.d, quartic.D, quartic.e) == (2, 4, 2)

    def test_homogenize(self, quartic):
        B = homogenize(quartic)
        assert len(B) == len(quartic.points)
        assert all(sum(b) == 4 for b in B)
        assert (0, 3, 1) in B  # lift of (3,1)

    def test_construction_is_lazy(self, quartic):
        A = GeneratorSet(quartic.d, quartic.points)
        assert A._built == -1 and not A._apery and not len(A._gaps)
        A.level(2)
        assert A._built == len(A._apery) - 1 == 2
        # per level: the Apery elements, the gaps, and those filled later
        assert [len(A.level(s).apery()) for s in range(3)] == [1, 4, 6]
        assert [len(A.level(s).gaps()) for s in range(3)] == [0, 2, 1]
        assert A._gaps.tolist() == [[1, 1], [2, 2]]
        assert A._filled.tolist() == [np.inf, 2]

    @pytest.mark.parametrize("points,stable", [
        ([(0, 0), (0, 2), (0, 4), (1, 3), (2, 0), (3, 1), (4, 0)], 3),
        ([(0,), (2,), (3,)], 2),
        ([(0,), (1,), (5,), (6,), (7,), (8,), (9,)], 5)])
    def test_stable_level_is_set_by_the_level_that_proves_it(self, points,
                                                             stable):
        # None until a level has the gaps of the level below, then that
        # level, the top one; a later request builds nothing
        A = GeneratorSet(len(points[0]), points)
        assert A.stable_level is None
        for s in range(stable):
            A.level(s)
            assert A.stable_level is None, s
        A.level(stable)
        assert A.stable_level == A._built == stable
        A.level(stable + 40)
        assert A.stable_level == A._built == stable

    def test_levels_keep_one_rank_table(self):
        # the levels key their points without a rank table, so a long
        # chain holds no table at all; one table per level would hold
        # O(s^2 * D) words on this chain
        tracemalloc.start()
        try:
            A = minimal_smooth(1, 500)
            A.level(150)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 10 * 2**20
        assert A._built == 150

    def test_a_set_makes_log_many_rank_tables(self, monkeypatch):
        # a request makes one slice, of level min(s, ceil(d(D-1)/D)), to
        # draw the residues of the levels it builds, and none once they
        # are drawn: far fewer than the ceil(log2 n) + 1 tables that n
        # built levels may take
        made = []

        class Counted(SimplexSlice):
            def __init__(self, d, D, s, *args):
                made.append(s)
                super().__init__(d, D, s, *args)

        monkeypatch.setattr(lattice, "SimplexSlice", Counted)
        A = minimal_smooth(3, 6)
        A.level(1)
        A.level(30)
        n = A._built + 1
        assert A.stable_level == A._built == 13
        assert made == [1, 3]
        assert len(made) <= math.ceil(math.log2(n)) + 1
        assert [A.level(s).size for s in range(n)] == [
            slice_size(3, 6 * s) for s in range(n)]

    def test_gaps_are_read_with_no_slice(self, quartic, monkeypatch):
        # from the stable level up, every level's gaps are the final
        # ones, read off the record: no slice is made to read them
        A = GeneratorSet(quartic.d, quartic.points)
        A.level(5)
        stop = A.stable_level
        made = []

        class Counted(SimplexSlice):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(lattice, "SimplexSlice", Counted)
        for s in (stop, stop + 1, 5, 1000):
            assert A.level(s).gaps().tolist() == [[1, 1]], s
            assert not len(A.level(s).apery()), s
        assert made == []

    @pytest.mark.parametrize("make", [
        quartic_singular_surface, lambda: minimal_smooth(3, 6),
        lambda: GeneratorSet(1, [(0,), (1,), (5,), (6,), (7,), (8,), (9,)]),
    ])
    def test_capped_rank_tables_keep_the_record(self, make):
        # a cap that allows the slices up to the stable level and no
        # more: no build makes a rank table above its own level, so the
        # record, the sizes, the gaps and the stable level stay those of
        # the uncapped set
        free = make()
        d, points = free.d, free.points
        free.level(40)
        top = free.stable_level
        cap = max(slice_size(d, top * free.D, free.e), top * free.D + 1)
        capped = GeneratorSet(d, points, max_slice_size=cap)
        with pytest.raises(ResourceLimitError):
            GeneratorSet(d, points, max_slice_size=cap - 1).level(top)
        capped.level(top)
        assert capped.stable_level == top
        assert np.array_equal(capped._gaps, free._gaps)
        assert np.array_equal(capped._filled, free._filled)
        for s in list(range(top + 3)) + [40]:
            a, b = capped.level(s), free.level(s)
            assert (a.size, a.cardinality) == (b.size, b.cardinality), s
            assert np.array_equal(a.gaps(), b.gaps()), s
            assert np.array_equal(a.apery(), b.apery()), s

    def test_level_build_is_bounded_by_its_slice(self, monkeypatch):
        # veronese(4, 5) has 125 nonzero generators, and level 1 holds the
        # 121 off the vertices as Apery elements: one generator per batch,
        # level 2 merges the shifts into at most |slice(2)| points, and no
        # block of all 121 * 125 shifts exists, as it does with one batch
        def peak(rows):
            monkeypatch.setattr(lattice, "_BATCH_ROWS", rows)
            A = veronese(4, 5)
            A.level(1)
            tracemalloc.start()
            try:
                A.level(2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = 121 * 125 * 4 * 8
        assert peak(1) < block < peak(1 << 14)

    def test_dropped_set_is_freed_without_the_cycle_collector(self, quartic):
        # a level view must not be kept by its generator set: a reference
        # cycle would hold every level array until a collector pass
        A = GeneratorSet(quartic.d, quartic.points)
        A.level(3)
        ref = weakref.ref(A)
        gc.disable()
        try:
            del A
            assert ref() is None
        finally:
            gc.enable()

    def test_levels_match_naive_sumsets(self, quartic):
        for s in range(5):
            assert members(quartic.level(s)) == naive_sumset(
                quartic.points, s)

    def test_level_zero_and_one(self):
        A = GeneratorSet(2, [(0, 0), (3, 0), (0, 3), (1, 1)])
        assert members(A.level(0)) == {(0, 0)}
        assert members(A.level(1)) == set(A.points)

    def test_hilbert_function(self, quartic):
        assert hilbert_function(quartic, 4) == [1, 7, 24, 48, 80]

    def test_size_cap_precedes_every_level(self, quartic):
        # slice(15) holds 961 points and slice(40) 6561: the request for
        # level 40 is refused before level 0 is built
        A = GeneratorSet(quartic.d, quartic.points, max_slice_size=1000)
        with pytest.raises(ResourceLimitError, match="s=40 "):
            A.level(40)
        with pytest.raises(ResourceLimitError, match="s=40 "):
            hilbert_function(A, 40)
        assert A._built == -1

    def test_size_cap_bounds_the_rank_tables(self):
        # d = 1, e = D: slice(1) holds the 2 points 0 and D, but its rank
        # tables index the D + 1 norms 0..D, and the cap counts those too
        A = GeneratorSet(1, [(0,), (1000,)], max_slice_size=100)
        with pytest.raises(ResourceLimitError, match=r"s=1 .*\(cap 100\)"):
            A.level(1)
        assert A._built == -1
        assert A.level(0).cardinality == 1

    def test_random_sets_match_naive(self):
        rng = random.Random(7)
        for _ in range(10):
            d = rng.randint(1, 3)
            D = rng.randint(2, 5)
            pts = {(0,) * d} | {unit(d, i, D) for i in range(d)}
            pool = sorted(naive_slice_points(d, D))
            pts |= set(rng.sample(pool, min(4, len(pool))))
            A = GeneratorSet(d, pts)
            for s in range(4):
                assert members(A.level(s)) == naive_sumset(A.points, s)

    @given(st.sampled_from(FAMILIES), st.integers(1, 3), st.integers(2, 6),
           st.sampled_from(["1", "2", "D"]), st.integers(0, 2**16),
           st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_levels_match_naive_on_families(self, family, d, D, e, seed, s):
        A = family_instance(family, d, D, D if e == "D" else int(e), seed)
        assume(len(A.points) <= MAX_NAIVE_GENERATORS)
        lvl = A.level(s)
        expected = naive_sumset(A.points, s)
        assert members(lvl) == expected
        assert lvl.cardinality == len(lvl.points)
        gaps = lvl.gaps()
        assert set(map(tuple, gaps.tolist())) == naive_slice_points(
            A.d, s * A.D, A.e) - expected
        assert len(gaps) == lvl.size - lvl.cardinality


    @given(arbitrary_sets(), st.integers(0, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_level_views_match_naive_member(self, A, top, data):
        # rows of any norm, negative coordinates included: row y is in sA
        # iff (s*D - |y|, y) is in the semigroup of the lifted generators,
        # and a gap of level s iff it is in slice(s) but not in sA.  A set
        # whose gaps became final by level top reads every level, those
        # above its top slice included; the others read up to top
        rows = data.draw(st.lists(
            st.tuples(*[st.integers(-1, (top + 2) * A.D // A.d + 1)] * A.d),
            min_size=1, max_size=8))
        A.level(top)
        B = homogenize(A)
        for s in range(top + 3 if A.stable_level is not None else top + 1):
            level = A.level(s)
            gaps = set(map(tuple, level.gaps().tolist()))
            points = members(level)
            for y in rows:
                in_slice = (min(y) >= 0 and sum(y) <= s * A.D
                            and sum(y) % A.e == 0)
                member = naive_member(B, (s * A.D - sum(y),) + y)
                assert (y in points) == member, (A, y, s)
                assert (y in gaps) == (in_slice and not member), (A, y, s)

    def test_stable_set_builds_no_level_above_its_top(self, quartic,
                                                      monkeypatch):
        # sigma leaves the set stable: its gaps are the final hole set H
        # and every higher level is its slice minus H, answered with no
        # level built and no slice cap, except where points are listed
        A = GeneratorSet(quartic.d, quartic.points, max_slice_size=150)
        holes = sigma(A).holes
        assert A._stable and A._built == 3
        listed = members(A.level(5))  # unranked through a fresh slice(5)

        def build(self):
            raise AssertionError("a level was built")

        monkeypatch.setattr(GeneratorSet, "_next_level", build)
        far = A.level(1000)
        assert far.cardinality == slice_size(2, 4000, 2) - len(holes)
        assert set(map(tuple, far.gaps().tolist())) == holes == {(1, 1)}
        assert listed == naive_sumset(A.points, 5)
        with pytest.raises(ResourceLimitError, match="s=1000 "):
            far.points

    @given(st.sampled_from(["smooth_random", "one_singular"]),
           st.integers(1, 3), st.integers(2, 6),
           st.sampled_from(["1", "2", "D"]), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_levels_from_the_stable_one_up_are_slice_minus_holes(
            self, family, d, D, e, seed):
        # after sigma, every level from stop on, the ones above the rank
        # table included, is slice(s) minus the hole set H
        A = family_instance(family, d, D, D if e == "D" else int(e), seed)
        report = classify(A)
        holes = sigma(A, report).holes
        A = report.instance
        stop = A.stable_level
        far = 2 * stop + A.d + 5
        expected = [slice_size(A.d, s * A.D, A.e) - len(holes)
                    for s in range(far + 1)]
        for s in list(range(stop, stop + A.d + 3)) + [far]:
            level = A.level(s)
            assert set(map(tuple, level.gaps().tolist())) == holes, s
            assert level.cardinality == expected[s], s
        assert hilbert_function(A, far)[stop:] == expected[stop:]


class TestAperyRecord:
    @given(st.one_of(
        arbitrary_sets(),
        st.builds(family_instance, st.sampled_from(FAMILIES),
                  st.integers(1, 3), st.integers(2, 6),
                  st.sampled_from([1, 2, 3, 6]), st.integers(0, 2**16))))
    @settings(max_examples=100, deadline=None)
    def test_levels_match_the_dense_build(self, A):
        # every verdict: up to d + 2 levels past the stable one, or up to
        # level 6 when no level up to 6 makes the set stable
        A.level(6)
        stop = A.stable_level
        top = 6 if stop is None else stop + A.d + 2
        gaps, stable = dense_levels(A, top)
        assert A.stable_level == stable, A
        for s in range(top + 1):
            level = A.level(s)
            assert np.array_equal(level.gaps(), gaps[s]), (A, s)
            assert level.cardinality == level.size - len(gaps[s]), (A, s)

    @given(st.one_of(
        arbitrary_sets(max_d=2, max_D=5),
        st.builds(family_instance, st.sampled_from(FAMILIES),
                  st.integers(1, 2), st.integers(2, 4),
                  st.sampled_from([1, 2, 4]), st.integers(0, 2**16))),
        st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_apery_set_is_certified_by_the_oracle(self, A, top):
        # no Apery element y has y - D*e_j in S, and every element of the
        # sumsets up to level top lies above one of its class: the Apery
        # elements up to that level, which are all that can lie below it
        assume(len(A.points) <= MAX_NAIVE_GENERATORS)
        A.level(top)
        B, D = homogenize(A), A.D
        apery = [(s * D - sum(y), *y) for s in range(top + 1)
                 for y in A.level(s).apery().tolist()]
        assert apery[0] == (0,) * (A.d + 1)
        for y in apery:
            assert naive_member(B, y), (A, y)
            for j in range(A.d + 1):
                assert not naive_member(
                    B, [c - D * (i == j) for i, c in enumerate(y)]), (A, y, j)
        for s in range(top + 1):
            for x in naive_sumset(A.points, s):
                y = (s * D - sum(x),) + x
                assert any(all(c >= b and (c - b) % D == 0
                               for c, b in zip(y, b)) for b in apery), (A, y)

    def test_cap_precedes_any_allocation(self):
        # slice(1) holds 4 points over 20001 norms: level 0 answers, and
        # level 1 is refused before a table or a residue grid of D^d
        # entries is made
        A = GeneratorSet(2, [(0, 0), (20000, 0), (0, 20000)],
                         max_slice_size=100)
        tracemalloc.start()
        try:
            assert A.level(0).cardinality == 1
            with pytest.raises(ResourceLimitError, match="s=1 "):
                A.level(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStepProperty:
    @pytest.mark.parametrize("d,D,e,expected", [
        (2, 4, 2, 2), (2, 6, 2, 2), (3, 6, 2, 3), (1, 3, 1, 1),
        (2, 2, 2, 1), (6, 2, 2, 3),
    ])
    def test_threshold_formula(self, d, D, e, expected):
        assert step_threshold(d, D, e) == expected

    def test_holds_exactly_from_the_threshold_on(self):
        # sigma certifies lower from the checks at lower - 1 and lower
        # alone, which needs the property to be monotone in s
        for d in range(1, 5):
            for D in range(2, 7):
                for e in (x for x in range(1, D + 1) if D % x == 0):
                    thr = step_threshold(d, D, e)
                    for s in range(thr + 3):
                        assert step_equality_holds(d, D, e, s) == (
                            s >= thr), (d, D, e, s)

    @pytest.mark.parametrize("d,D,e,ds", [
        (d, D, e, ds) for d in (1, 2, 3) for D in (2, 3, 4, 5)
        for e in range(1, D + 1) if D % e == 0 for ds in (-1, 0, 1)])
    def test_direct_set_computation_agrees_with_naive(self, d, D, e, ds):
        # around the threshold, against the whole Minkowski sum
        s = step_threshold(d, D, e) + ds
        lo = naive_slice_points(d, s * D, e)
        hi = naive_slice_points(d, (s + 1) * D, e)
        shifts = {(0,) * d} | {unit(d, i, D) for i in range(d)}
        summed = {tuple(a + b for a, b in zip(p, v))
                  for p in lo for v in shifts}
        assert step_equality_holds(d, D, e, s) == (summed == hi)
