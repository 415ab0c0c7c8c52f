"""The batched kernels: the level build ranks the shifts of many
generators at once, and the reg sweep tables many levels at once.
``lattice._BATCH_ROWS`` bounds both batches; set to 1, every level build
runs one generator at a time and every sweep batch holds one level with
rows, and small values split batches inside a level.  The records and
the sweep must not depend on it."""

import contextlib
import functools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricreg import GeneratorSet, lattice, reg, regularity
from toricreg.cli import analysis_bundle
from toricreg.families import (minimal_smooth, quartic_singular_surface,
                               veronese)
from toricreg.lattice import _UNSEEN, SimplexSlice
from toricreg.oracle import naive_sumset

from instances import (FAMILIES, arbitrary_sets, family_instance,
                       full_sweep, oracle_witness)

SMALL_BATCHES = [1, 7, 64]


@contextlib.contextmanager
def batch_rows(n):
    """``_BATCH_ROWS`` set to n in ``lattice``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_BATCH_ROWS", n)
        yield


@contextlib.contextmanager
def sweep_batches():
    """Yields the list of level ranges the sweep tables, one per call."""
    batches = []
    tables = regularity.face_tables_for_level

    def recorded(A, levels, rows, gaps):
        batches.append(levels)
        return tables(A, levels, rows, gaps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "face_tables_for_level", recorded)
        yield batches


def level_rows(A, s):
    """The rows the sweep builds for level s: every gap shift and, in the
    low levels, the least box row, if the level has one."""
    d, D = A.d, A.D
    n = sum(len(A.level(t).gaps()) * comb(d + 1, s - t)
            for t in range(max(0, s - d - 1), s + 1))
    if s * D <= (d + 1) * (D - 1):
        y = A.level(s).points
        n += int(((y < D).all(axis=1) & (y.sum(axis=1) > s * D - D)).any())
    return n


class TestSmallBatches:
    @given(arbitrary_sets(), st.integers(0, 4),
           st.sampled_from(SMALL_BATCHES))
    @settings(max_examples=60, deadline=None)
    def test_first_record_matches_naive_sumsets(self, A, top, batch):
        with batch_rows(batch):
            A.level(top)
        top = A._built  # a set whose gaps became final stops early
        size = A.level(top).size
        expected = np.full(size, _UNSEEN, dtype=np.int32)
        pts = A._slice.unrank(np.arange(size)).tolist()
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
        stack.append([int(np.count_nonzero(A._first == A._built)), 0])
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


class TestSweepBatches:
    @given(st.one_of(
        st.builds(family_instance, st.sampled_from(FAMILIES),
                  st.integers(1, 2), st.integers(2, 4),
                  st.sampled_from([1, 2, 4]), st.integers(0, 2**16)),
        arbitrary_sets(max_d=2, max_D=4)), st.integers(0, 4),
        st.sampled_from(["q", 2, 32003]))
    @settings(max_examples=40, deadline=None)
    def test_batch_size_changes_no_sweep(self, A, top, field):
        want = regularity._sweep(GeneratorSet(A.d, A.points), top, field)
        for n in SMALL_BATCHES:
            B = GeneratorSet(A.d, A.points)
            with batch_rows(n), sweep_batches() as batches:
                assert regularity._sweep(B, top, field) == want, (A, n)
            # the batches cover the levels in order; each takes levels
            # while its rows stay at most max(rows of its first level, n)
            assert [s for b in batches for s in b] == list(range(top + 1))
            for b in batches:
                bound = max(level_rows(B, b[0]), n)
                assert sum(level_rows(B, s) for s in b) <= bound
                if b[-1] < top:
                    assert sum(level_rows(B, s)
                               for s in range(b[0], b[-1] + 2)) > bound
        assert want == full_sweep(GeneratorSet(A.d, A.points), top, field)
        if field != "q":
            assert want == oracle_witness(A, top, field), A

    def test_a_small_instance_tables_in_one_call(self):
        A = veronese(3, 3)
        with sweep_batches() as batches:
            rr = reg(A)
        assert batches == [range(rr.cutoff_norm // A.D + 1)]

    @pytest.mark.parametrize("make", [quartic_singular_surface,
                                      lambda: minimal_smooth(3, 4)],
                             ids=["quartic", "minimal_smooth(3,4)"])
    def test_each_level_is_read_once(self, make, monkeypatch):
        # however many batches share a level, the sweep reads its gaps
        # once, and its least box row at most once
        A = make()
        top = reg(A).cutoff_norm // A.D
        reads = []
        gaps, box = lattice.SumsetLevel.gaps, regularity._least_box_row
        monkeypatch.setattr(lattice.SumsetLevel, "gaps", lambda level: (
            reads.append(("gaps", level.s)), gaps(level))[1])
        monkeypatch.setattr(regularity, "_least_box_row", lambda A, s, g: (
            reads.append(("box", s)), box(A, s, g))[1])
        with batch_rows(1), sweep_batches() as batches:
            regularity._sweep(A, top, "q")
        assert len(batches) > 1
        assert sorted(s for kind, s in reads if kind == "gaps") == list(
            range(top + 1))
        boxed = sorted(s for kind, s in reads if kind == "box")
        assert len(set(boxed)) == len(boxed)
        assert set(boxed) >= {s for s in range(top + 1)
                              if s * A.D <= (A.d + 1) * (A.D - 1)}

    def test_gaps_of_a_few_levels_are_held(self):
        # a long d = 1 chain has 201 levels with gaps: the sweep holds a
        # batch of them and the d + 2 around it, not all of them
        A = GeneratorSet(1, [(0,), (1,), (199,), (200,)])
        top = reg(A).cutoff_norm // A.D
        every = sum(A.level(t).gaps().nbytes for t in range(top + 1))
        tracemalloc.start()
        try:
            regularity._sweep(A, top, "q")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < every / 2
