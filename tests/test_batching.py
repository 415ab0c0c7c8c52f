"""The sumset engine's batched kernel: the level build ranks the shifts
of many generators at once.  ``lattice._BATCH_ROWS`` bounds a batch;
set to 1, every level build runs one generator at a time, and small
values split batches inside a level.  The records must not depend on
it."""

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricreg import GeneratorSet, lattice, naive_sumset
from toricreg.cli import analysis_bundle
from toricreg.families import minimal_smooth, veronese
from toricreg.lattice import _UNSEEN, SimplexSlice

from instances import arbitrary_sets

SMALL_BATCHES = [1, 7, 64]


@contextlib.contextmanager
def batch_rows(n):
    """``_BATCH_ROWS`` set to n in ``lattice``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_BATCH_ROWS", n)
        yield


class TestSmallBatches:
    @given(arbitrary_sets(), st.integers(0, 4),
           st.sampled_from(SMALL_BATCHES))
    @settings(max_examples=60, deadline=None)
    def test_first_record_matches_naive_sumsets(self, A, top, batch):
        with batch_rows(batch):
            A.level(top)
        top = A._top.s  # a set whose gaps became final stops early
        expected = np.full(A._top.size, _UNSEEN, dtype=np.int32)
        pts = A._top.unrank(np.arange(A._top.size)).tolist()
        for s in range(top, -1, -1):
            level = naive_sumset(A.points, s)
            expected[[tuple(p) in level for p in pts]] = s
            assert set(map(tuple, A.level(s).points.tolist())) == level
        assert A._first.tolist() == expected.tolist()
        B = GeneratorSet(A.d, A.points)
        with batch_rows(1):  # one generator per batch
            B.level(top)
        assert B._first.tobytes() == A._first.tobytes()

    def test_a_small_batch_splits_a_level(self, monkeypatch):
        # veronese(2, 4) has 14 nonzero generators and level 1 adds them
        # all, so a batch of 64 rows ranks level 2 four generators at a
        # time: 4 lookups, where one per generator would be 14
        calls = []
        rank = SimplexSlice.rank_array
        monkeypatch.setattr(SimplexSlice, "rank_array", lambda sl, pts: (
            calls.append(len(pts)), rank(sl, pts))[1])
        A = veronese(2, 4)
        A.level(1)
        with batch_rows(64):
            calls.clear()
            A.level(2)
        assert calls == [56, 56, 56, 28]


def wrap_level_build(monkeypatch):
    """Wraps the level build.  During a call, ``stack`` holds [rows,
    lookups] for it, with rows = |F|, the points new at the top level
    (the rows of one generator's shifts), and lookups a counter for the
    test to raise; ``done`` gets the entry when the call returns."""
    stack, done = [], []
    build = GeneratorSet._next_level

    @functools.wraps(build)
    def wrapper(A):
        stack.append([0 if A._top is None else int(np.count_nonzero(
            A._first == A._top.s)), 0])
        try:
            return build(A)
        finally:
            done.append(stack.pop())

    monkeypatch.setattr(GeneratorSet, "_next_level", wrapper)
    return stack, done


class TestBatchGuards:
    def test_no_lookup_holds_more_than_the_unbatched_rows(self, monkeypatch):
        # a rank lookup holds at most max(|F|, _BATCH_ROWS) rows, |F| the
        # rows of one generator's shifts, and only the level build ranks
        stack, _ = wrap_level_build(monkeypatch)
        seen = []
        rank = SimplexSlice.rank_array

        def ranked(sl, pts):
            assert stack, "a rank lookup outside the level build"
            seen.append((len(pts), stack[0][0]))
            return rank(sl, pts)

        monkeypatch.setattr(SimplexSlice, "rank_array", ranked)
        analysis_bundle(minimal_smooth(4, 4), "q", None)
        assert all(rows <= max(m, lattice._BATCH_ROWS) for rows, m in seen)
        assert max(rows - m for rows, m in seen) > 0  # batches were stacked

    def test_one_lookup_per_level_and_per_face_table(self, monkeypatch):
        # veronese(3, 3) has 19 nonzero generators, and each of its
        # batches fits in one: a level build ranks once (level 0 holds
        # the origin and ranks nothing), and the face tables, read off
        # the gaps, rank nothing
        stack, done = wrap_level_build(monkeypatch)
        outside = []
        rank = SimplexSlice.rank_array

        def counted(sl, pts):
            if stack:
                stack[-1][1] += 1
            else:
                outside.append(len(pts))
            return rank(sl, pts)

        monkeypatch.setattr(SimplexSlice, "rank_array", counted)
        A = veronese(3, 3)
        analysis_bundle(A, "q", None)
        assert len(done) == A.stable_level + 1 > 2
        assert [n for _, n in done] == [0] + [1] * A.stable_level
        assert outside == []
