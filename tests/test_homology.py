import numpy as np
import pytest

from toricreg import (GeneratorSet, PreconditionError, betti_numbers,
                      build_T, naive_member, reduced_homology,
                      semigroup_member)
from toricreg.homology import (HOMOLOGY_CACHE_SIZE, _betti_numbers,
                               face_tables_for_level, min_nonzero_degree)
from toricreg.oracle import homology_recheck


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
        from toricreg import homogenize
        B = homogenize(quartic)
        for y in [(4, 2, 2), (2, 1, 1), (0, 4, 0), (8, 0, 0), (1, 2, 1)]:
            assert semigroup_member(quartic, y) == naive_member(B, y)


class TestFaceComplexes:
    def test_quartic_witness_is_the_empty_complex(self, quartic):
        T = build_T(quartic, (4, 2, 2))
        assert T.faces == frozenset({0})
        assert reduced_homology(T).betti[-1] == 1

    def test_even_sextic_witness_is_a_hollow_triangle(self, even_sextic):
        T = build_T(even_sextic, (6, 9, 15))
        assert T.faces == HOLLOW_TRIANGLE
        assert reduced_homology(T).betti[1] == 1

    def test_requires_semigroup_member(self, quartic):
        with pytest.raises(PreconditionError):
            build_T(quartic, (2, 1, 1))

    def test_deep_points_are_acyclic(self, quartic):
        y = (16, 12, 12)  # far inside the cone
        betti = reduced_homology(build_T(quartic, y)).betti
        assert all(b == 0 for b in betti.values())

    def test_face_tables_match_build_T(self, quartic):
        for s in range(4):
            pts, tables = face_tables_for_level(quartic, s)
            for row, t in zip(pts, tables):
                p = tuple(int(c) for c in row)
                y = (s * quartic.D - sum(p),) + p
                expected = sum(1 << m for m in build_T(quartic, y).faces)
                assert int(t) == expected

    def test_oracle_recheck(self, even_sextic):
        T = build_T(even_sextic, (6, 9, 15))
        for p in (2, 32003):
            betti = homology_recheck(T.face_list(), p)
            assert betti[1] == 1
            assert betti == {i: b for i, b in
                             betti_numbers(T.faces, 3, p).items()
                             if i <= max(betti)}
