import contextlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricreg import (CertificationError, PreconditionError,
                      ResourceLimitError, betti_numbers, families,
                      homogenize, homology, oracle, reg)
from toricreg.homology import (HOMOLOGY_CACHE_SIZE, face_tables_for_level,
                               min_nonzero_degree)
from toricreg.oracle import (homology_recheck, naive_faces, naive_member,
                             naive_slice_points)

from instances import (FAMILIES, arbitrary_sets, family_instance,
                       gap_shifts, level_tables, members)


def masks(*vertex_tuples):
    out = set()
    for f in vertex_tuples:
        out.add(sum(1 << v for v in f))
    return frozenset(out)


HOLLOW_TRIANGLE = masks((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
FULL_TRIANGLE = HOLLOW_TRIANGLE | masks((0, 1, 2))
# boundary of the 3-simplex: a 2-sphere
SPHERE = frozenset(m for m in range(15))


class TestBetti:
    def test_empty_complex(self):
        # the single (-1)-cell: betti_{-1} = 1
        assert betti_numbers(frozenset({0}), 3)[-1] == 1

    def test_point_is_acyclic(self):
        assert all(b == 0 for b in betti_numbers(masks((), (0,)), 3).values())

    def test_two_points(self):
        betti = betti_numbers(masks((), (0,), (2,)), 3)
        assert betti[0] == 1

    def test_hollow_triangle(self):
        betti = betti_numbers(HOLLOW_TRIANGLE, 3)
        assert betti[1] == 1
        assert betti[0] == betti[-1] == 0

    def test_full_triangle(self):
        assert all(b == 0
                   for b in betti_numbers(FULL_TRIANGLE, 3).values())

    def test_sphere(self):
        betti = betti_numbers(SPHERE, 4)
        assert betti[2] == 1
        assert betti[1] == betti[0] == 0

    @pytest.mark.parametrize("field", ["q", 2, 32003])
    def test_fields_agree_on_torsion_free_cases(self, field):
        assert betti_numbers(HOLLOW_TRIANGLE, 3, field)[1] == 1
        assert betti_numbers(SPHERE, 4, field)[2] == 1

    def test_cache_is_bounded(self):
        # every graph on 6 vertices is a valid table: the empty face, the
        # vertices and the edges chosen by the bits of n
        edges = [(1 << a) | (1 << b) for a in range(6) for b in range(a)]
        base = sum(1 << m for m in [0] + [1 << v for v in range(6)])
        for n in range(HOMOLOGY_CACHE_SIZE + 10):
            chosen = [e for k, e in enumerate(edges) if n >> k & 1]
            parts = [1 << v for v in range(6)]  # connected components
            for e in chosen:
                hit = [c for c in parts if c & e]
                parts = [c for c in parts if not c & e] + [hit[0] | hit[-1]]
            # a connected graph on 6 vertices has a cycle iff > 5 edges
            expected = (0 if len(parts) > 1
                        else 1 if len(chosen) > 5 else None)
            table = base + sum(1 << e for e in chosen)
            assert min_nonzero_degree(table, 6) == expected, chosen
        info = homology._min_nonzero_degree.cache_info()
        assert info.currsize <= HOMOLOGY_CACHE_SIZE == info.maxsize

    def test_homology_runs_once_per_table(self, quartic, monkeypatch):
        calls = []

        def counted(faces, n_vertices, field="q",
                    betti_numbers=homology.betti_numbers):
            calls.append((faces, n_vertices, field))
            return betti_numbers(faces, n_vertices, field)

        monkeypatch.setattr(homology, "betti_numbers", counted)
        homology._min_nonzero_degree.cache_clear()
        assert reg(quartic) == reg(quartic)
        assert calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("faces,n,field", [
        (frozenset({3}), 3, "q"),
        (masks((), (0,), (1,), (0, 1)), 1, "q"),
        (frozenset({-1, 0}), 3, "q"),
        (HOLLOW_TRIANGLE, 3, 4),
        (HOLLOW_TRIANGLE, 3, 0),
        (HOLLOW_TRIANGLE, 3, 1),
        (HOLLOW_TRIANGLE, 3, "f2"),
    ], ids=["edge-without-vertices", "vertex-1-of-1", "negative-mask",
            "field-4", "field-0", "field-1", "field-name"])
    def test_domain_is_checked(self, faces, n, field):
        with pytest.raises(PreconditionError):
            betti_numbers(faces, n, field)

    def test_min_nonzero_degree_checks_the_family(self):
        # bit 3 is the edge {0, 1}, whose vertices are missing
        with pytest.raises(PreconditionError):
            min_nonzero_degree(8, 3)

    def test_wrong_rank_is_a_certification_error(self, monkeypatch):
        def too_high(M, bareiss_rank=homology.bareiss_rank):
            return bareiss_rank(M) + 1

        monkeypatch.setattr(homology, "bareiss_rank", too_high)
        homology._min_nonzero_degree.cache_clear()  # a miss runs the ranks
        with pytest.raises(CertificationError, match="negative betti"):
            min_nonzero_degree(sum(1 << m for m in HOLLOW_TRIANGLE), 3)

    def test_returns_a_fresh_dict(self):
        betti_numbers(HOLLOW_TRIANGLE, 3)[1] = 99
        assert betti_numbers(HOLLOW_TRIANGLE, 3)[1] == 1

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_homology_recheck(self, n, data):
        # the downward closure of a few random faces
        tops = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
        faces = frozenset(f for f in range(1 << n)
                          if any(f & t == f for t in tops))
        face_list = [tuple(j for j in range(n) if f >> j & 1) for f in faces]
        for p in (2, 32003):
            recheck = homology_recheck(face_list, p)
            assert betti_numbers(faces, n, p) == {
                i: recheck.get(i, 0) for i in range(-1, n)}, faces
        assert betti_numbers(faces, n) == betti_numbers(faces, n, 32003)

    def test_min_nonzero_degree(self):
        table = sum(1 << m for m in HOLLOW_TRIANGLE)
        assert min_nonzero_degree(table, 3) == 1
        table = sum(1 << m for m in FULL_TRIANGLE)
        assert min_nonzero_degree(table, 3) is None
        assert min_nonzero_degree(1, 3) == -1  # just the empty face

    def test_min_nonzero_degree_checks_the_table_bits(self):
        # bit 8 is no vertex subset of 3 vertices; a negative table has
        # infinitely many bits
        for table in (1 | 1 << 8, -1, -(1 << 63)):
            with pytest.raises(PreconditionError, match="face set"):
                min_nonzero_degree(table, 3)
        # the full simplex on 6 vertices sets bit 63 of a 64-bit table
        assert min_nonzero_degree((1 << 64) - 1, 6) is None

    @pytest.mark.parametrize("field", [[2], {"p": 2}, 2.0, "f2", 4])
    def test_min_nonzero_degree_checks_the_field(self, field):
        # an unhashable field is refused before the cache looks it up
        with pytest.raises(PreconditionError, match="field"):
            min_nonzero_degree(1, 3, field)


def in_semigroup(A, y):
    """Is the homogenized y in S_A?  Every lifted generator has norm D, so
    iff |y| = s*D and the dehomogenized part y[1:] lies in sA."""
    s, rest = divmod(sum(y), A.D)
    return rest == 0 and tuple(y[1:]) in members(A.level(s))


class TestSemigroupMembership:
    def test_quartic(self, quartic):
        assert in_semigroup(quartic, (4, 2, 2))
        assert not in_semigroup(quartic, (2, 1, 1))  # hole (1,1)
        assert not in_semigroup(quartic, (1, 1, 1))  # norm not mult of 4
        assert not in_semigroup(quartic, (4, -2, 2))

    def test_even_sextic(self, even_sextic):
        assert not in_semigroup(even_sextic, (0, 3, 9))
        assert in_semigroup(even_sextic, (6, 3, 9))
        assert not in_semigroup(even_sextic, (0, 2, 2))

    def test_agrees_with_naive_homogenized(self, quartic):
        B = homogenize(quartic)
        for y in [(4, 2, 2), (2, 1, 1), (0, 4, 0), (8, 0, 0), (1, 2, 1)]:
            assert in_semigroup(quartic, y) == naive_member(B, y)

    @given(st.sampled_from(FAMILIES), st.integers(1, 3), st.integers(2, 6),
           st.sampled_from([1, 2, 3]), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_naive_on_families(self, family, d, D, e, seed):
        A = family_instance(family, d, D, e, seed)
        B = homogenize(A)
        rng = random.Random(seed)
        for _ in range(10):
            # mostly norms s*D, where membership is not decided by the norm
            total = rng.randint(0, 4) * D + rng.choice([0, 0, 0, 1])
            cuts = sorted(rng.randint(0, total) for _ in range(d))
            y = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
            assert in_semigroup(A, y) == naive_member(B, y), (A, y)


def t_faces(A, y):
    return naive_faces(homogenize(A), y)


def naive_table(A, s, row):
    """The face table of a row of slice(s) by the oracle: the faces of
    its T_y as bits, or 0 when it is not in sA."""
    y = (s * A.D - sum(row),) + tuple(row)
    return (sum(1 << m for m in t_faces(A, y))
            if oracle.naive_member(homogenize(A), y) else 0)


def check_production_tables(A, s):
    """``face_tables_for_level`` on level s returns exactly its distinct
    gap shifts, with the tables that ``level_tables`` reads off the
    definition."""
    gaps = {t: A.level(t).gaps() for t in range(max(0, s - A.d - 1), s + 1)}
    pts, tables = face_tables_for_level(A, s, gaps)
    assert pts.tolist() == [list(p) for p in gap_shifts(A, s)], (A, s)
    assert tables.tolist() == level_tables(A, s, pts)[1].tolist(), (A, s)


@contextlib.contextmanager
def cached_naive_member():
    """``oracle.naive_member`` answering each query once: a slice's
    faces ask the same points many times."""
    cache = {}

    def member(gens, y, naive_member=oracle.naive_member):
        key = (tuple(map(tuple, gens)), tuple(y))
        if key not in cache:
            cache[key] = naive_member(gens, y)
        return cache[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "naive_member", member)
        yield


class TestFaceComplexes:
    def test_quartic_witness_is_the_empty_complex(self, quartic):
        faces = t_faces(quartic, (4, 2, 2))
        assert faces == frozenset({0})
        assert betti_numbers(faces, 3)[-1] == 1

    def test_even_sextic_witness_is_a_hollow_triangle(self, even_sextic):
        faces = t_faces(even_sextic, (6, 9, 15))
        assert faces == HOLLOW_TRIANGLE
        assert betti_numbers(faces, 3)[1] == 1

    def test_requires_semigroup_member(self, quartic):
        with pytest.raises(PreconditionError):
            t_faces(quartic, (2, 1, 1))

    def test_deep_points_are_acyclic(self, quartic):
        y = (16, 12, 12)  # far inside the cone
        betti = betti_numbers(t_faces(quartic, y), 3)
        assert all(b == 0 for b in betti.values())

    def test_face_tables_match_naive_faces(self, quartic):
        for s in range(4):
            pts, tables = level_tables(quartic, s, quartic.level(s).points)
            assert members(quartic.level(s)) == set(map(tuple, pts.tolist()))
            for row, t in zip(pts.tolist(), tables.tolist()):
                assert t == naive_table(quartic, s, row)
            check_production_tables(quartic, s)

    def test_face_tables_read_a_hole_as_table_0(self, quartic):
        # (1, 1) is the quartic's hole: in slice(2), not in 2A
        _, tables = level_tables(quartic, 2, [[0, 0], [1, 1]])
        assert tables.tolist() == [naive_table(quartic, 2, [0, 0]), 0]
        gaps = {t: quartic.level(t).gaps() for t in range(3)}
        pts, tables = face_tables_for_level(quartic, 2, gaps)
        assert dict(zip(map(tuple, pts.tolist()), tables.tolist()))[
            (1, 1)] == 0
        check_production_tables(quartic, 2)

    def test_face_tables_refuse_rows_without_an_int64_key(self):
        # the key has radix s*D + 1 = 2**13 + 1 in each of 5 coordinates
        A = families.veronese(5, 2)
        s = 2**12
        empty = np.zeros((0, 5), dtype=np.int64)
        gaps = {t: empty for t in range(s - 6, s + 1)}
        with pytest.raises(ResourceLimitError, match="int64 key"):
            face_tables_for_level(A, s, gaps)

    def test_a_batch_key_needs_room_for_each_level(self):
        # a level's gap shifts share one key of radix s*D + 1 in each of
        # 5 coordinates: radix 6207 is the largest odd one that fits, so
        # level 3103 is tabled and level 3104 refused
        A = families.veronese(5, 2)
        limit = np.iinfo(np.int64).max
        empty = np.zeros((0, 5), dtype=np.int64)
        for s in (3102, 3103, 3104, 2**12):
            gaps = {t: empty for t in range(s - 6, s + 1)}
            if (s * A.D + 1) ** 5 <= limit:
                pts, tables = face_tables_for_level(A, s, gaps)
                assert pts.shape == (0, 5) and not len(tables)
                continue
            with pytest.raises(ResourceLimitError, match="int64 key"):
                face_tables_for_level(A, s, gaps)
        assert (3103 * A.D + 1) ** 5 <= limit < (3104 * A.D + 1) ** 5

    @given(st.sampled_from(FAMILIES), st.integers(1, 3), st.integers(2, 5),
           st.sampled_from(["2", "D"]), st.integers(0, 3),
           st.integers(0, 2**16))
    @example("one_singular", 3, 4, "D", 3, 0)
    @example("one_singular", 3, 4, "2", 3, 1)
    @settings(max_examples=40, deadline=None)
    def test_face_tables_match_naive_on_families(self, family, d, D, e, s,
                                                 seed):
        # e = D puts the singular vertex's weight on the homogenizing bit
        A = family_instance(family, d, D, D if e == "D" else 2, seed)
        pts, tables = level_tables(A, s, A.level(s).points)
        rng = random.Random(seed)
        for r in rng.sample(range(len(pts)), min(len(pts), 4)):
            assert int(tables[r]) == naive_table(A, s, pts[r].tolist()), A
        check_production_tables(A, s)

    @given(arbitrary_sets(max_d=2, max_D=4), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_face_tables_of_a_whole_slice_match_naive(self, A, s):
        # every point of slice(s) as a row, at levels below and above the
        # one where the gaps become final: a member reads the faces of
        # its T_y, a gap reads 0, and no gap shift leaves the slice
        rows = sorted(naive_slice_points(A.d, s * A.D, A.e))
        pts, tables = level_tables(A, s, rows)
        assert pts.tolist() == [list(p) for p in rows]
        with cached_naive_member():
            for row, t in zip(rows, tables.tolist()):
                assert t == naive_table(A, s, row), (A, s, row)
        check_production_tables(A, s)

    def test_oracle_recheck(self, even_sextic):
        faces = t_faces(even_sextic, (6, 9, 15))
        face_list = [tuple(j for j in range(3) if f >> j & 1) for f in faces]
        for p in (2, 32003):
            betti = homology_recheck(face_list, p)
            assert betti[1] == 1
            assert betti == {i: b for i, b in
                             betti_numbers(faces, 3, p).items()
                             if i <= max(betti)}
