import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricreg import (PreconditionError, betti_numbers, families, homogenize,
                      naive_member, semigroup_member)
from toricreg.homology import (HOMOLOGY_CACHE_SIZE, _betti_numbers,
                               face_tables_for_level, min_nonzero_degree)
from toricreg.lattice import _UNSEEN
from toricreg.oracle import homology_recheck, naive_faces

from instances import FAMILIES, family_instance


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
        # distinct vertex sets of a 13-vertex complex with no edges
        for n in range(HOMOLOGY_CACHE_SIZE + 10):
            faces = frozenset({0} | {1 << j for j in range(13) if n >> j & 1})
            betti = betti_numbers(faces, 13)
            assert betti[0] == max(bin(n).count("1") - 1, 0)
        assert _betti_numbers.cache_info().currsize <= HOMOLOGY_CACHE_SIZE

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


class TestSemigroupMembership:
    def test_quartic(self, quartic):
        assert semigroup_member(quartic, (4, 2, 2))
        assert not semigroup_member(quartic, (2, 1, 1))  # hole (1,1)
        assert not semigroup_member(quartic, (1, 1, 1))  # norm not mult of 4
        assert not semigroup_member(quartic, (4, -2, 2))

    def test_even_sextic(self, even_sextic):
        assert not semigroup_member(even_sextic, (0, 3, 9))
        assert semigroup_member(even_sextic, (6, 3, 9))
        assert not semigroup_member(even_sextic, (0, 2, 2))

    def test_agrees_with_naive_homogenized(self, quartic):
        B = homogenize(quartic)
        for y in [(4, 2, 2), (2, 1, 1), (0, 4, 0), (8, 0, 0), (1, 2, 1)]:
            assert semigroup_member(quartic, y) == naive_member(B, y)

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
            assert semigroup_member(A, y) == naive_member(B, y), (A, y)


def t_faces(A, y):
    return naive_faces(homogenize(A), y)


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
            pts, tables = face_tables_for_level(quartic, s)
            for row, t in zip(pts, tables):
                p = tuple(int(c) for c in row)
                y = (s * quartic.D - sum(p),) + p
                expected = sum(1 << m for m in t_faces(quartic, y))
                assert int(t) == expected

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
        pts, tables = face_tables_for_level(A, s)
        rng = random.Random(seed)
        for r in rng.sample(range(len(pts)), min(len(pts), 4)):
            p = tuple(int(c) for c in pts[r])
            y = (s * A.D - sum(p),) + p
            expected = sum(1 << m for m in t_faces(A, y))
            assert int(tables[r]) == expected, (A, y)

    def test_first_levels_outside_the_slice(self):
        A = families.quartic_singular_surface()
        assert A.first_levels(np.array([[0, 0]])).tolist() == [_UNSEEN]
        A.level(2)  # the largest slice built: norm <= 8, even
        rows = [[0, 0], [4, 0], [1, 1],  # levels 0 and 1, and the hole
                [-1, 3], [1, 2], [6, 4]]  # negative, odd norm, norm 10
        assert A.first_levels(np.array(rows)).tolist() == [
            0, 1] + [_UNSEEN] * 4

    def test_oracle_recheck(self, even_sextic):
        faces = t_faces(even_sextic, (6, 9, 15))
        face_list = [tuple(j for j in range(3) if f >> j & 1) for f in faces]
        for p in (2, 32003):
            betti = homology_recheck(face_list, p)
            assert betti[1] == 1
            assert betti == {i: b for i, b in
                             betti_numbers(faces, 3, p).items()
                             if i <= max(betti)}
