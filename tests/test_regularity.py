import dataclasses
import itertools
import random
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricreg import (CertificationError, GeneratorSet, InvalidInstanceError,
                      PreconditionError, UnsupportedInstanceError, classify,
                      degree, eg_check, eg_inequality_suite, families,
                      herzog_hibi_bound, homogenize, lattice,
                      one_singular_bound, oracle, reg, regularity, sigma,
                      sizeA_bound)
from toricreg.classify import OTHER
from toricreg.cli import analysis_bundle
from toricreg.families import (minimal_smooth, one_singular_base,
                               one_singular_random, smooth_random_superset,
                               veronese)
from toricreg.homology import face_tables_for_level, min_nonzero_degree
from toricreg.linalg import bareiss_det, gcd_of_maximal_minors
from toricreg.oracle import naive_faces

from instances import (FAMILIES, arbitrary_sets, family_instance,
                       full_sweep, level_tables, oracle_witness)


def minors_gcd(A):
    """gcd of the determinants of every d+1 homogenized generators."""
    g = 0
    for cols in itertools.combinations(homogenize(A), A.d + 1):
        g = gcd(g, bareiss_det(cols))
    return g


def stable_level(A):
    """The level where A's gaps become final by the rule of
    ``GeneratorSet._next_level``, read from the level views of a fresh
    copy: the first s >= ceil(d(D-1)/D) with the gaps of level s - 1."""
    B = GeneratorSet(A.d, A.points)
    for s in itertools.count(-(-A.d * (A.D - 1) // A.D)):
        prev, gaps = (set(map(tuple, B.level(t).gaps().tolist()))
                      for t in (s - 1, s))
        if gaps == prev:
            return s


#: The (d, D, e) cells of the acceptance corpora (criteria 5 and 6).
ACCEPTANCE_CELLS = ([("minimal_smooth", d, D, 1) for d in (1, 2, 3)
                     for D in (3, 4, 5)]
                    + [("one_singular", d, D, e) for d in (2, 3)
                       for D in (4, 6) for e in (2, D)])


class TestDegree:
    def test_quartic(self, quartic):
        result = degree(quartic)
        assert (result.theta, result.degree, result.codim) == (8, 8, 4)

    def test_even_sextic(self, even_sextic):
        result = degree(even_sextic)
        # one-singular with e = 2: degree = D^d / e = 36 / 2
        assert result.degree == 18

    def test_veronese(self):
        for d, D in [(1, 3), (2, 3), (2, 4)]:
            assert degree(veronese(d, D)).degree == D ** d

    def test_codim(self, quartic):
        assert degree(quartic).codim == len(quartic.points) - 3

    def test_cross_checked_without_a_report(self, quartic, monkeypatch):
        # a doubled theta still divides D^(d+1); only D^d/e catches it
        theta = regularity.gcd_of_maximal_minors
        monkeypatch.setattr(regularity, "gcd_of_maximal_minors",
                            lambda gens, D: 2 * theta(gens, D))
        with pytest.raises(CertificationError, match="D\\^d/e"):
            degree(quartic)

    @given(st.sampled_from(FAMILIES),
           st.sampled_from([(d, D) for d in (1, 2) for D in range(2, 8)]
                           + [(3, D) for D in (2, 3, 4)]),
           st.sampled_from([1, 2, 3]), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_theta_is_the_minors_gcd_on_families(self, family, cell, e,
                                                 seed):
        # d = 3 stops at D = 4: veronese(3, 5) has C(56, 4) minors
        A = family_instance(family, *cell, e, seed)
        assert degree(A, classify(A)).theta == minors_gcd(A)

    @given(arbitrary_sets())
    @settings(max_examples=100, deadline=None)
    def test_theta_is_the_minors_gcd_on_arbitrary_sets(self, A):
        # most draws are neither smooth nor one-singular, and degree
        # classifies first, so it refuses the imprimitive ones
        theta = gcd_of_maximal_minors(homogenize(A), A.D)
        assert theta == minors_gcd(A)
        if gcd(*itertools.chain(*homogenize(A))) == 1:
            assert degree(A).theta == theta
        else:
            with pytest.raises(InvalidInstanceError):
                degree(A)


class TestReg:
    def test_quartic(self, quartic):
        result = reg(quartic)
        assert result.reg == 2
        assert result.sigma == 2
        assert result.method_tag == "briales-enumeration"

    def test_even_sextic_gap(self, even_sextic):
        result = reg(even_sextic)
        assert result.reg == 3
        assert result.sigma == 3

    def test_smooth_reg_equals_sigma(self):
        for A in [veronese(1, 4), veronese(2, 3), minimal_smooth(2, 3),
                  minimal_smooth(2, 4)]:
            result = reg(A)
            assert result.reg == result.sigma == sigma(A).sigma
            assert result.method_tag == "smooth"

    def test_witness_is_deterministic(self, quartic):
        a = reg(quartic)
        b = reg(quartic)
        assert (a.witness_y, a.witness_i) == (b.witness_y, b.witness_i)

    def test_fields_agree(self, quartic, even_sextic):
        for A in (quartic, even_sextic):
            assert reg(A, field=2).reg == reg(A, field=32003).reg \
                == reg(A).reg

    def test_e_equals_D_reduction(self):
        A = one_singular_base(2, 4, 4)
        result = reg(A)
        assert result.method_tag == "e=D-reduction"
        # reduced instance is one-dimensional and smooth
        red = classify(A).reduced
        assert result.reg == reg(red).reg

    def test_other_requires_cutoff(self):
        A = GeneratorSet(2, [(0, 0), (3, 0), (0, 3), (1, 1)])
        with pytest.raises(UnsupportedInstanceError):
            reg(A)
        result = reg(A, cutoff=4)
        assert result.method_tag == "lower-bound"
        assert result.reg >= 0

    @pytest.mark.parametrize("name", ["quartic", "even_sextic", "sextic"])
    def test_witness_follows_the_documented_rule(self, name, request):
        # on the quartic (0, 2, 6) attains reg 2 with i = -1 as well and
        # is lexicographically smaller than the reported (2, 1, 5), but
        # its face family also holds the smaller dehomogenized (1, 5)
        A = request.getfixturevalue(name)
        result = reg(A)
        # T_y has d + 1 vertices, so its homology sits in degrees <= d - 1
        # and a level s offers s - (i + 1) >= s - d; a level above reg + d
        # with homology would exceed reg, which the certified cutoff
        # rules out (test_cutoff_safety sweeps two levels past it)
        assert oracle_witness(A, result.reg + A.d) == (
            result.reg, result.witness_y, result.witness_i)

    def test_dimension_six_is_refused_before_any_level(self):
        # face tables hold at most 6 vertices; the check comes before
        # sigma and the sweep build their levels (up to 10 here, slice
        # 230,230)
        A = veronese(6, 2)
        with pytest.raises(PreconditionError, match="at most 6 vertices"):
            reg(A)
        assert A._built == -1

    def test_cutoff_safety(self, quartic):
        # two levels past the certified cutoff find nothing new
        base = reg(quartic)
        assert regularity._sweep(
            quartic, base.cutoff_norm // quartic.D + 2, "q") == (
            base.reg, base.witness_y, base.witness_i)

    @pytest.mark.parametrize("make", [
        families.quartic_singular_surface, lambda: minimal_smooth(4, 4)])
    def test_reg_after_sigma_ranks_nothing(self, make, monkeypatch):
        # the face tables are read off the gaps of levels sigma built
        A = make()
        report = classify(A)
        sr = sigma(A, report)
        calls = []
        rank = lattice.SimplexSlice.rank_array
        monkeypatch.setattr(lattice.SimplexSlice, "rank_array",
                            lambda sl, pts: (calls.append(len(pts)),
                                             rank(sl, pts))[1])
        reg(A, report, sr)
        assert calls == []

    @pytest.mark.parametrize("make", [
        families.quartic_singular_surface, lambda: minimal_smooth(4, 4),
        lambda: one_singular_random(3, 6, 2, random.Random(3062))])
    def test_reg_after_sigma_lists_no_level(self, make, monkeypatch):
        # the Apery rows are read off the record, not off a level's points
        A = make()
        report = classify(A)
        sr = sigma(A, report)

        def listed(level):
            raise AssertionError(f"level {level.s} listed")

        monkeypatch.setattr(lattice.SumsetLevel, "points", property(listed))
        assert reg(A, report, sr).reg in (sr.sigma, sr.sigma + 1)


class TestCandidateRows:
    @given(st.one_of(
        st.builds(family_instance, st.sampled_from(FAMILIES),
                  st.integers(1, 3), st.integers(2, 5),
                  st.sampled_from([1, 2, 4]), st.integers(0, 2**16)),
        st.builds(lambda cell, seed: family_instance(*cell, seed),
                  st.sampled_from(ACCEPTANCE_CELLS), st.integers(0, 2**16)),
        arbitrary_sets(max_d=3, max_D=5)),
        st.integers(0, 2), st.sampled_from(["q", 2, 32003]))
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_the_full_row_sweep(self, A, extra, field):
        try:
            report = classify(A)
        except InvalidInstanceError:  # an imprimitive arbitrary set
            report = None
        if report is None or report.verdict == OTHER or report.reduced:
            # no settled stop: every level up to the cutoff is built
            cutoff = 2 + extra
            got = regularity._sweep(A, cutoff, field)
            assert got == full_sweep(GeneratorSet(A.d, A.points), cutoff,
                                     field), (A, field)
            return
        B = report.instance
        sr = sigma(B, report)
        cutoff = sr.sigma + B.d + 2 + extra
        got = regularity._sweep(B, cutoff, field)
        rr = reg(B, report, sr, field=field)
        # nothing above the level where the gaps become final was built
        assert B._built == stable_level(B)
        plain = regularity._sweep(GeneratorSet(B.d, B.points), cutoff, field)
        assert got == plain == full_sweep(B, cutoff, field), (A, field)
        assert (rr.reg, rr.witness_y, rr.witness_i) == full_sweep(
            B, rr.cutoff_norm // B.D, field), (A, field)

    @given(st.one_of(
        st.builds(family_instance, st.sampled_from(FAMILIES),
                  st.integers(1, 3), st.integers(2, 5),
                  st.sampled_from([1, 2, 4]), st.integers(0, 2**16)),
        arbitrary_sets(max_d=3, max_D=5)), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_rows_left_out_are_full_simplices(self, A, level):
        # the lemma behind the rows the sweep tables, on full levels: a
        # member of sA that is no gap shift has the full simplex on J =
        # {j : y_j >= D} as T_y, and J is empty only for a box row; the
        # reference tables read every such row, the oracle a sample
        d, D = A.d, A.D
        gaps = {t: A.level(t).gaps() for t in range(level + 1)}
        shifts, _ = face_tables_for_level(A, level, gaps)
        shifts = set(map(tuple, shifts.tolist()))
        rows = [row for row in A.level(level).points.tolist()
                if tuple(row) not in shifts]
        _, tables = level_tables(A, level, rows)
        gens = homogenize(A)
        sample = random.Random(level).sample(range(len(rows)),
                                             min(len(rows), 4))
        for r, (row, t) in enumerate(zip(rows, tables.tolist())):
            y = (level * D - sum(row),) + tuple(row)
            J = sum(1 << j for j in range(d + 1) if y[j] >= D)
            assert J or level * D <= (d + 1) * (D - 1), (A, y)
            full = {m for m in range(J + 1) if m & J == m}
            assert t == sum(1 << m for m in full), (A, y)
            if r in sample:
                assert naive_faces(gens, y) == full, (A, y)

    @pytest.mark.parametrize("make", [
        families.quartic_singular_surface, families.sextic_surface,
        families.even_sextic_surface, lambda: minimal_smooth(3, 4),
        lambda: veronese(4, 2), lambda: veronese(5, 2),
        lambda: minimal_smooth(2, 5),
        # hole 1: level 2 has level 1's gap {1} and none in its shell,
        # so the set is stable at 2 = sigma + 1
        lambda: GeneratorSet(1, [(0,), (2,), (3,)])])
    def test_no_level_above_the_settled_top(self, make):
        top = stable_level(make())
        A = make()
        report = classify(A)
        assert report.instance is A
        sr = sigma(A, report)
        assert A._built == top
        rr = reg(A, report, sr)
        assert A._built == top
        regularity._sweep(A, rr.cutoff_norm // A.D + 2, "q")
        assert A._built == top
        A = make()
        analysis_bundle(A, "q", None)
        assert A._built == top

    def test_veronese_5_2(self):
        # its witness is a box row; a sweep table with the 6-vertex face
        # has bit 63 set
        result = reg(veronese(5, 2))
        assert (result.reg, result.witness_y, result.witness_i) == (
            3, (1,) * 6, -1)


# families of the smooth and one-singular verdicts, and arbitrary sets of
# all three, with a cutoff drawn for verdict Other
FLOOR_DRAWS = (st.one_of(
    st.builds(family_instance, st.sampled_from(FAMILIES), st.integers(1, 2),
              st.integers(2, 4), st.sampled_from([1, 2, 4]),
              st.integers(0, 2**16)),
    arbitrary_sets(max_d=2, max_D=4)), st.integers(0, 4))


def settled_cutoff(A, cutoff, field):
    """(A, cutoff): verdict Other, an imprimitive set or a reduced one keeps
    the drawn cutoff; the others take their certified one."""
    try:
        report = classify(A)
    except InvalidInstanceError:
        return A, cutoff
    if report.verdict == OTHER or report.reduced:
        return A, cutoff
    A = report.instance
    return A, reg(A, report, field=field).cutoff_norm // A.D


class TestFloor:
    @given(*FLOOR_DRAWS, st.sampled_from(["q", 2, 32003]))
    @settings(max_examples=20, deadline=None)
    def test_sweep_from_the_floor_matches_every_level(self, A, cutoff,
                                                      field):
        # the references sweep every level from 0, which the oracle
        # reaches up to its level cap
        A, cutoff = settled_cutoff(A, cutoff, field)
        got = regularity._sweep(GeneratorSet(A.d, A.points), cutoff, field)
        assert got == full_sweep(A, cutoff, field), (A, cutoff, field)
        if field != "q" and cutoff <= oracle.MAX_NAIVE_S:
            assert got == oracle_witness(A, cutoff, field), (A, cutoff)

    @given(*FLOOR_DRAWS, st.sampled_from(["q", 2]))
    @settings(max_examples=30, deadline=None)
    def test_the_floor_offers_its_apery_elements_alone(self, A, cutoff,
                                                       field):
        # at the floor, by the reference tables, T_y = {emptyset} (table
        # 1) marks exactly the Apery elements, and every other nonzero
        # T_y has a vertex, so its least nonzero degree is i >= 0 and it
        # offers less than the floor
        A, cutoff = settled_cutoff(A, cutoff, field)
        floor = max(s for s in range(cutoff + 1) if len(A.level(s).apery()))
        pts, tables = level_tables(A, floor, A.level(floor).points)
        assert sorted(pts[tables == 1].tolist()) == sorted(
            A.level(floor).apery().tolist()), (A, floor)
        for t in set(tables.tolist()) - {0, 1}:
            i = min_nonzero_degree(t, A.d + 1, field)
            assert i is None or i >= 0, (A, floor, t)


class TestBounds:
    def test_herzog_hibi(self):
        out = herzog_hibi_bound(veronese(2, 3))
        assert out["holds"]
        assert out["bound"] == 2
        out = herzog_hibi_bound(minimal_smooth(2, 4))
        assert out["slack"] == 0  # the family is extremal

    def test_one_singular(self, quartic):
        out = one_singular_bound(quartic)
        assert out["holds"]
        assert out["bound"] == 5

    def test_eg(self, quartic):
        out = eg_check(quartic)
        assert out == {"reg": 2, "degree": 8, "codim": 4, "bound": 4,
                       "holds": True}

    def test_eg_random_singular(self):
        rng = random.Random(11)
        for _ in range(3):
            A = one_singular_random(2, 4, 2, rng)
            assert eg_check(A)["reg"] <= eg_check(A)["bound"]

    def test_eg_failure_is_refused_on_a_smooth_instance(self):
        # Herzog-Hibi gives Eisenbud-Goto in the smooth case
        A = veronese(2, 3)
        rr = reg(A)
        assert eg_check(A, reg_result=rr)["bound"] == rr.reg == 2
        with pytest.raises(CertificationError, match="Smooth instance"):
            eg_check(A, reg_result=dataclasses.replace(rr, reg=3))

    def test_wrong_family_rejected(self, quartic):
        with pytest.raises(UnsupportedInstanceError):
            herzog_hibi_bound(quartic)
        with pytest.raises(UnsupportedInstanceError):
            one_singular_bound(veronese(2, 3))


class TestInequalities:
    def test_sizeA_bound_formula(self):
        assert sizeA_bound(2, 6, 2) == Fraction(5, 8) * comb(8, 2)

    def test_sizeA_bound_counts_points(self):
        import itertools
        for d, D, e in [(2, 4, 2), (3, 6, 2), (3, 6, 3), (2, 9, 3)]:
            count = sum(1 for p in itertools.product(range(D + 1), repeat=d)
                        if sum(p) <= D and sum(p) % e == 0)
            assert count <= sizeA_bound(d, D, e)

    def test_suite_holds(self):
        for d in (3, 4):
            for D in (3, 4, 6):
                for e in (x for x in range(1, D + 1) if D % x == 0):
                    assert eg_inequality_suite(d, D, e)["holds"]

    def test_suite_domain(self):
        with pytest.raises(UnsupportedInstanceError):
            eg_inequality_suite(2, 4, 2)
        with pytest.raises(UnsupportedInstanceError):
            eg_inequality_suite(3, 4, 3)


class TestSmoothRandom:
    def test_reg_equals_sigma_on_random_supersets(self):
        rng = random.Random(5)
        for _ in range(3):
            A = smooth_random_superset(2, 4, rng)
            result = reg(A)
            assert result.reg == result.sigma
