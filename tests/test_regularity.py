import itertools
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricreg import (CertificationError, GeneratorSet, InvalidInstanceError,
                      PreconditionError, UnsupportedInstanceError, classify,
                      degree, eg_check, eg_inequality_suite,
                      herzog_hibi_bound, homogenize, one_singular_bound,
                      oracle, reg, regularity, sigma, sizeA_bound)
from toricreg.families import (minimal_smooth, one_singular_base,
                               one_singular_random, smooth_random_superset,
                               veronese)
from toricreg.linalg import bareiss_det, gcd_of_maximal_minors
from toricreg.oracle import homology_recheck, naive_faces, naive_slice_points

from instances import FAMILIES, arbitrary_sets, family_instance


def minors_gcd(A):
    """gcd of the determinants of every d+1 homogenized generators."""
    g = 0
    for cols in itertools.combinations(homogenize(A), A.d + 1):
        g = gcd(g, bareiss_det(cols))
    return g


def oracle_witness(A, levels):
    """(reg, witness_y, witness_i) over levels 0..levels by the rule of
    docs/formats.md, from the oracles alone: in each level, the least
    dehomogenized member with a given face family stands for that family,
    and among the families with homology the largest s - (i + 1) wins,
    ties going to the least homogenized y."""
    gens = homogenize(A)
    found = []
    for s in range(levels + 1):
        least = {}  # face family -> its least dehomogenized point
        for p in sorted(naive_slice_points(A.d, s * A.D)):
            y = (s * A.D - sum(p),) + p
            if oracle.naive_member(gens, y):
                least.setdefault(naive_faces(gens, y), p)
        for faces, p in least.items():
            betti = homology_recheck(
                [[j for j in range(A.d + 1) if f >> j & 1] for f in faces],
                32003)
            i = min((i for i, b in betti.items() if b), default=None)
            if i is not None:
                found.append((i + 1 - s, (s * A.D - sum(p),) + p, i))
    neg, y, i = min(found)
    return -neg, y, i


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
    def test_witness_follows_the_documented_rule(self, name, request,
                                                 monkeypatch):
        # on the quartic (0, 2, 6) attains reg 2 with i = -1 as well and
        # is lexicographically smaller than the reported (2, 1, 5), but
        # its face family also holds the smaller dehomogenized (1, 5)
        A = request.getfixturevalue(name)
        result = reg(A)
        cache = {}

        def member(gens, y, naive_member=oracle.naive_member):
            key = (tuple(map(tuple, gens)), tuple(y))
            if key not in cache:
                cache[key] = naive_member(gens, y)
            return cache[key]

        monkeypatch.setattr(oracle, "naive_member", member)
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
        assert A._top is None

    def test_cutoff_safety(self, quartic):
        base = reg(quartic)
        wider = reg(quartic, extra_levels=2)
        assert wider.reg == base.reg
        assert wider.witness_y == base.witness_y


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
