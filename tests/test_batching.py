"""The batched kernels: the level build merges the Apery shifts of many
generators at once, and the reg sweep tables many levels at once.
``lattice._BATCH_ROWS`` bounds both batches; set to 1, every level build
shifts by one generator at a time and every sweep batch holds one level
with rows, and small values split batches inside a level.  The records
and the sweep must not depend on it."""

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
    """The rows the sweep builds for level s: every gap shift and every
    Apery element of the level."""
    return len(A.level(s).apery()) + sum(
        len(A.level(t).gaps()) * comb(A.d + 1, s - t)
        for t in range(max(0, s - A.d - 1), s + 1))


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
        # and its Apery elements once
        A = make()
        top = reg(A).cutoff_norm // A.D
        reads = []
        for kind in ("gaps", "apery"):
            read = getattr(lattice.SumsetLevel, kind)
            monkeypatch.setattr(
                lattice.SumsetLevel, kind,
                lambda level, kind=kind, read=read: (
                    reads.append((kind, level.s)), read(level))[1])
        with batch_rows(1), sweep_batches() as batches:
            regularity._sweep(A, top, "q")
        assert len(batches) > 1
        for kind in ("gaps", "apery"):
            assert sorted(s for k, s in reads if k == kind) == list(
                range(top + 1))

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
