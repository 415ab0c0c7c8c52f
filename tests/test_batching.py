"""The sumset engine's batched kernels: the level build ranks the shifts
of many generators at once, and the face tables look up all 2**d axis
shifts of a block of rows at once.  ``lattice._BATCH_ROWS`` bounds a
batch; set to 1, every level build and face table runs one generator
and a few rows at a time, and small values split batches inside a
level.  The records and tables must not depend on it."""

import contextlib
import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricreg import GeneratorSet, homogenize, lattice, naive_sumset
from toricreg import homology, regularity
from toricreg.cli import analysis_bundle
from toricreg.families import minimal_smooth, veronese
from toricreg.homology import face_tables_for_level
from toricreg.lattice import _UNSEEN, SimplexSlice
from toricreg.oracle import naive_faces

from instances import FAMILIES, arbitrary_sets, family_instance

SMALL_BATCHES = [1, 7, 64]


@contextlib.contextmanager
def batch_rows(n):
    """``_BATCH_ROWS`` set to n in ``lattice`` and in ``homology``,
    which imports it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_BATCH_ROWS", n)
        mp.setattr(homology, "_BATCH_ROWS", n)
        yield


def per_axis_tables(A, s, pts):
    """The face tables as ``face_tables_for_level`` built them one axis
    subset at a time, one ``first_levels`` call per subset."""
    d, D = A.d, A.D
    tables = np.zeros(len(pts), dtype=np.int64)
    for axes in range(1 << d):
        k = bin(axes).count("1")
        v = np.array([D if axes >> j & 1 else 0 for j in range(d)],
                     dtype=np.int64)
        first = A.first_levels(pts - v)
        for bit, level in ((axes << 1, s - k), (axes << 1 | 1, s - k - 1)):
            np.bitwise_or(tables, np.int64(1) << bit, out=tables,
                          where=first <= level)
    return tables.view(np.uint64)


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

    @given(st.sampled_from(FAMILIES), st.integers(1, 4), st.integers(2, 4),
           st.sampled_from(["2", "D"]), st.integers(0, 3),
           st.integers(0, 2**16), st.sampled_from(SMALL_BATCHES))
    @settings(max_examples=40, deadline=None)
    def test_face_tables_match_the_per_axis_loop(self, family, d, D, e, s,
                                                 seed, batch):
        A = family_instance(family, d, D, D if e == "D" else 2, seed)
        level = A.level(s).points
        rng = random.Random(seed)
        rows = level[[rng.randrange(len(level))
                      for _ in range(rng.randint(1, 3 * len(level)))]]
        with batch_rows(batch):
            pts, tables = face_tables_for_level(A, s, rows)
        assert tables.dtype == np.uint64
        assert np.array_equal(pts, rows)
        assert tables.tolist() == per_axis_tables(A, s, rows).tolist()
        B = homogenize(A)
        for r in rng.sample(range(len(rows)), min(len(rows), 3)):
            p = tuple(rows[r].tolist())
            y = (s * A.D - sum(p),) + p
            assert int(tables[r]) == sum(1 << m for m in naive_faces(B, y))

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


def wrap_kernels(monkeypatch, rows):
    """Wraps the level build, the face tables and ``first_levels``.
    During a call, ``stack`` holds [kernel, rows, lookups] for it, with
    rows = ``rows[kernel](*args)`` and lookups a counter for the test to
    raise; ``done`` gets the entry when the call returns."""
    stack = []

    def kernel(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([name, rows[name](*args), 0])
            try:
                return fn(*args, **kwargs)
            finally:
                done.append(stack.pop())
        return wrapper

    done = []
    monkeypatch.setattr(GeneratorSet, "_next_level", kernel(
        "level", GeneratorSet._next_level))
    monkeypatch.setattr(GeneratorSet, "first_levels", kernel(
        "member", GeneratorSet.first_levels))
    tables = kernel("table", face_tables_for_level)
    monkeypatch.setattr(homology, "face_tables_for_level", tables)
    monkeypatch.setattr(regularity, "face_tables_for_level", tables)
    return stack, done


def frontier_rows(A):
    """|F|, the points new at the top level: the rows of one generator's
    shifts when ``_next_level`` builds the next level."""
    return 0 if A._top is None else int(np.count_nonzero(
        A._first == A._top.s))


def given_rows(*args):
    return len(args[-1])


class TestBatchGuards:
    def test_no_lookup_holds_more_than_the_unbatched_rows(self, monkeypatch):
        # a rank lookup holds at most max(m, _BATCH_ROWS) rows, m the rows
        # of the outermost call as it was before batching: |F| for a
        # level build, the n rows given for a face table or a membership
        # query
        stack, _ = wrap_kernels(monkeypatch, {
            "level": frontier_rows, "table": given_rows,
            "member": given_rows})
        seen = []
        rank = SimplexSlice.rank_array

        def ranked(sl, pts):
            assert stack, "a rank lookup outside the engine's kernels"
            seen.append((len(pts), stack[0][1]))
            return rank(sl, pts)

        monkeypatch.setattr(SimplexSlice, "rank_array", ranked)
        analysis_bundle(minimal_smooth(4, 4), "q", None)
        assert all(rows <= max(m, lattice._BATCH_ROWS) for rows, m in seen)
        assert max(rows - m for rows, m in seen) > 0  # batches were stacked

    def test_one_lookup_per_level_and_per_face_table(self, monkeypatch):
        # veronese(3, 3) has 19 nonzero generators and 8 axis subsets,
        # and each of its batches fits in one: a level build ranks once
        # (level 0 holds the origin and ranks nothing) and a face table of
        # a nonempty row block makes one membership query
        stack, done = wrap_kernels(monkeypatch, {
            "level": lambda A: A._top is not None,
            "table": lambda A, s, pts: len(pts) > 0,
            "member": given_rows})

        def counted(fn, kernel):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] == kernel:
                    stack[-1][2] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SimplexSlice, "rank_array", counted(
            SimplexSlice.rank_array, "level"))
        monkeypatch.setattr(GeneratorSet, "first_levels", counted(
            GeneratorSet.first_levels, "table"))
        analysis_bundle(veronese(3, 3), "q", None)
        levels = [(rows, n) for kind, rows, n in done if kind == "level"]
        tables = [(rows, n) for kind, rows, n in done if kind == "table"]
        assert len(levels) > 2 and len(tables) > 2
        assert all(n == int(nonempty) for nonempty, n in levels + tables)
