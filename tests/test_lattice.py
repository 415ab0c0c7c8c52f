import gc
import random
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricreg import (GeneratorSet, InvalidInstanceError, PreconditionError,
                      ResourceLimitError, hilbert_function, homogenize,
                      naive_member, naive_sumset, step_equality_holds,
                      step_threshold)
from toricreg.families import minimal_smooth, veronese
from toricreg.lattice import _UNSEEN, SimplexSlice, slice_size, unit
from toricreg.oracle import MAX_NAIVE_GENERATORS, naive_slice_points

from instances import (FAMILIES, arbitrary_sets, family_instance,
                       members)


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

    @given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 3),
           st.sampled_from(["1", "2", "D"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_roundtrip_random(self, d, D, s, e, data):
        sl = SimplexSlice(d, D, s, D if e == "D" else int(e))
        ranks = np.array(data.draw(st.lists(st.integers(0, sl.size - 1),
                                            min_size=1, max_size=20)))
        assert np.array_equal(sl.rank_array(sl.unrank(ranks)), ranks)


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
        assert A._top is None and not A._first.size
        A.level(2)
        assert A._top.s == 2
        assert len(A._first) == A._top.size == A.level(2).size
        seen = A._first[A._first != _UNSEEN]
        assert np.bincount(seen).tolist() == [1, 6, 17]  # per-level counts

    def test_levels_keep_one_rank_table(self):
        # slice(s) is a prefix of slice(s+1) with the same ranks, so the
        # top slice's tables serve every level; one table per level would
        # hold O(s^2 * D) words on this chain
        tracemalloc.start()
        try:
            A = minimal_smooth(1, 500)
            A.level(150)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 10 * 2**20
        assert A._top.s == 150

    def test_level_build_is_bounded_by_its_slice(self):
        # the frontier gets one nonzero generator added at a time, so no
        # |F| x |A| candidate block exists; that block peaked at 54 times
        # slice * d * 8 bytes here
        A = veronese(3, 6)
        A.level(7)
        tracemalloc.start()
        try:
            A.level(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * A.level(8).size * A.d * 8

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
        assert A._top is None

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


    @given(arbitrary_sets(), st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_levels_match_naive_member(self, A, top, data):
        # rows of any norm, negative coordinates included: row y is in sA
        # iff (s*D - |y|, y) is in the semigroup of the lifted generators
        rows = data.draw(st.lists(
            st.tuples(*[st.integers(-1, A.D + 1)] * A.d),
            min_size=1, max_size=8))
        A.level(top)
        first = A.first_levels(np.array(rows))
        B = homogenize(A)
        for y, f in zip(rows, first):
            for s in range(top + 1):
                assert (f <= s) == naive_member(B, (s * A.D - sum(y),) + y), (
                    A, y, s)


class TestStepProperty:
    @pytest.mark.parametrize("d,D,e,expected", [
        (2, 4, 2, 2), (2, 6, 2, 2), (3, 6, 2, 3), (1, 3, 1, 1),
        (2, 2, 2, 1), (6, 2, 2, 3),
    ])
    def test_threshold_formula(self, d, D, e, expected):
        assert step_threshold(d, D, e) == expected

    def test_threshold_is_sharp_small(self):
        for d in (1, 2, 3):
            for D in (2, 3, 4):
                for e in (x for x in range(1, D + 1) if D % x == 0):
                    thr = step_threshold(d, D, e)
                    assert step_equality_holds(d, D, e, thr)
                    if thr > 0:
                        assert not step_equality_holds(d, D, e, thr - 1)

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
