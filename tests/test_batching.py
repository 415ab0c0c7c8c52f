"""The batched level build and the one-level reg sweep.  The level
build merges the Apery shifts of many generators at once, in batches
that ``lattice._BATCH_ROWS`` bounds: set to 1, every level build shifts
by one generator at a time, and small values split batches inside a
level.  The records and the sweep must not depend on it.  The sweep
reads the floor (the top level under the cutoff with an Apery element)
off the record and tables one level per call above it."""

import contextlib
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricreg import GeneratorSet, lattice, reg, regularity
from toricreg.cli import analysis_bundle
from toricreg.families import (minimal_smooth, quartic_singular_surface,
                               veronese)
from toricreg.lattice import SimplexSlice
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
def sweep_calls():
    """Yields the list of levels the sweep tables, one per call."""
    levels = []
    tables = regularity.face_tables_for_level

    def recorded(A, s, gaps):
        levels.append(s)
        return tables(A, s, gaps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "face_tables_for_level", recorded)
        yield levels


def apery_floor(A, top):
    """The top level up to ``top`` with an Apery element."""
    return max(s for s in range(top + 1) if len(A.level(s).apery()))


class TestSmallBatches:
    @given(arbitrary_sets(), st.integers(0, 4),
           st.sampled_from(SMALL_BATCHES))
    @settings(max_examples=60, deadline=None)
    def test_first_record_matches_naive_sumsets(self, A, top, batch):
        # the record: each level's Apery elements, and each gap point with
        # its first level, the least level that holds it
        with batch_rows(batch):
            A.level(top)
        top = A._built  # a set whose gaps became final stops early
        levels = [naive_sumset(A.points, s) for s in range(top + 1)]
        for s, level in enumerate(levels):
            assert set(map(tuple, A.level(s).points.tolist())) == level
        for y, first in zip(A._gaps.tolist(), A._filled.tolist()):
            held = [s for s, level in enumerate(levels) if tuple(y) in level]
            assert first == min(held, default=np.inf), (A, y)
        B = GeneratorSet(A.d, A.points)
        with batch_rows(1):  # one generator per batch
            B.level(top)
        assert B._gaps.tobytes() == A._gaps.tobytes()
        assert B._filled.tobytes() == A._filled.tobytes()
        assert [b.tobytes() for b in B._apery] == [
            a.tobytes() for a in A._apery]

    def test_a_small_batch_splits_a_level(self, monkeypatch):
        # veronese(2, 4) has 14 nonzero generators, and level 1 holds the
        # 12 off the vertices as Apery elements, so a batch of 64 rows
        # shifts them by 5 generators at a time: 3 merges, where one batch
        # of max(12, _BATCH_ROWS) rows takes all 14
        builds = record_batches(monkeypatch)
        A = veronese(2, 4)
        A.level(1)
        with batch_rows(64):
            builds.clear()
            A.level(2)
        assert builds == [(12, [5, 5, 4])]
        B = veronese(2, 4)
        B.level(1)
        builds.clear()
        B.level(2)
        assert builds == [(12, [14])]


class Batches(np.ndarray):
    """A view of the generators that records how many each batch takes."""

    def __getitem__(self, index):
        out = super().__getitem__(index).view(np.ndarray)
        self.taken.append(len(out))
        return out


def record_batches(monkeypatch):
    """Wraps the Apery shifts of the level build.  ``builds`` gets, per
    call above level 0, (|Ap_(s-1)|, the generators of each batch): a
    batch holds that many copies of Ap_(s-1).  While a call runs,
    ``builds`` ends with None."""
    builds = []
    shifts = GeneratorSet._apery_shifts

    @functools.wraps(shifts)
    def wrapper(A, key):
        if not A._apery:  # level 0 shifts nothing
            return shifts(A, key)
        gens = A._gens
        A._gens = gens.view(Batches)
        A._gens.taken = []
        builds.append(None)
        try:
            return shifts(A, key)
        finally:
            builds[-1] = (len(A._apery[-1]), A._gens.taken)
            A._gens = gens

    monkeypatch.setattr(GeneratorSet, "_apery_shifts", wrapper)
    return builds


class TestBatchGuards:
    def test_no_lookup_holds_more_than_the_unbatched_rows(self):
        # a batch holds at most max(m, _BATCH_ROWS) rows, m = |Ap_(s-1)|
        # the rows of one generator's shifts
        with pytest.MonkeyPatch.context() as mp:
            builds = record_batches(mp)
            analysis_bundle(minimal_smooth(4, 4), "q", None)
        rows = [(k * m, m) for m, taken in builds for k in taken]
        assert all(n <= max(m, lattice._BATCH_ROWS) for n, m in rows)
        assert max(n - m for n, m in rows) > 0  # batches were stacked

    def test_one_lookup_per_level_and_per_face_table(self, monkeypatch):
        # veronese(3, 3) has 19 nonzero generators, and each level's
        # shifts fit in one batch: a level build above level 0 merges
        # once, and nothing, face tables included, ranks a point
        builds = record_batches(monkeypatch)
        ranked = []
        rank = SimplexSlice.rank_array
        monkeypatch.setattr(SimplexSlice, "rank_array", lambda sl, pts: (
            ranked.append(len(pts)), rank(sl, pts))[1])
        A = veronese(3, 3)
        analysis_bundle(A, "q", None)
        assert len(builds) == A.stable_level > 1
        assert [taken for _, taken in builds] == [[19]] * len(builds)
        assert ranked == []


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
            with batch_rows(n):
                assert regularity._sweep(B, top, field) == want, (A, n)
        assert want == full_sweep(GeneratorSet(A.d, A.points), top, field)
        if field != "q":
            assert want == oracle_witness(A, top, field), A

    def test_a_small_instance_tables_one_level_per_call(self):
        A = veronese(3, 3)
        with sweep_calls() as levels:
            rr = reg(A)
        top = rr.cutoff_norm // A.D
        floor = apery_floor(A, top)
        assert 0 < floor < top
        assert levels == list(range(floor + 1, top + 1))

    @pytest.mark.parametrize("make", [quartic_singular_surface,
                                      lambda: minimal_smooth(3, 4)],
                             ids=["quartic", "minimal_smooth(3,4)"])
    def test_each_level_is_read_once(self, make, monkeypatch):
        # the sweep reads the gaps of every level from d below the floor
        # to the cutoff, and the Apery elements from the cutoff down to
        # the floor, each once
        A = make()
        top = reg(A).cutoff_norm // A.D
        floor = apery_floor(A, top)
        reads = []
        for kind in ("gaps", "apery"):
            read = getattr(lattice.SumsetLevel, kind)
            monkeypatch.setattr(
                lattice.SumsetLevel, kind,
                lambda level, kind=kind, read=read: (
                    reads.append((kind, level.s)), read(level))[1])
        regularity._sweep(A, top, "q")
        assert sorted(s for k, s in reads if k == "gaps") == list(
            range(max(0, floor - A.d), top + 1))
        assert sorted(s for k, s in reads if k == "apery") == list(
            range(floor, top + 1))

    def test_a_long_chain_tables_only_its_top_levels(self, monkeypatch):
        # reg = 198 at the floor, two levels under the cutoff: the sweep
        # reads the gaps of d = 1 level below the floor and tables each
        # level above the floor once
        A = GeneratorSet(1, [(0,), (1,), (199,), (200,)])
        rr = reg(A)
        top = rr.cutoff_norm // A.D
        floor = apery_floor(A, top)
        assert rr.reg == floor == top - 2
        reads = []
        gaps = lattice.SumsetLevel.gaps
        monkeypatch.setattr(lattice.SumsetLevel, "gaps", lambda level: (
            reads.append(level.s), gaps(level))[1])
        with sweep_calls() as levels:
            assert regularity._sweep(A, top, "q") == (
                rr.reg, rr.witness_y, rr.witness_i)
        assert sorted(reads) == list(range(floor - 1, top + 1))
        assert levels == list(range(floor + 1, top + 1))
        assert len(levels) == top - floor == 2

    def test_gaps_of_a_few_levels_are_held(self):
        # a verdict-Other set whose floor is 6: its 301 levels up to the
        # cutoff hold ~34 MB of gaps, and the sweep holds d + 2 of them
        A = GeneratorSet(2, [(0, 0), (5, 0), (0, 5), (2, 1), (1, 3), (3, 2)])
        top = 300
        every = sum(A.level(t).gaps().nbytes for t in range(top + 1))
        tracemalloc.start()
        try:
            regularity._sweep(A, top, "q")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < every / 2
