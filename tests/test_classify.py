import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricreg import (CertificationError, GeneratorSet, InvalidInstanceError,
                      ONE_SINGULAR, OTHER, SMOOTH, classify, homogenize,
                      is_chart_smooth, reduce_e_equals_D)
from toricreg.families import (minimal_smooth, one_singular_base, veronese)
from toricreg.oracle import naive_member, naive_minimal_generators

from instances import FAMILIES, arbitrary_sets, family_instance


def chart_generators(A, i):
    """The homogenized generators with coordinate i deleted."""
    return [b[:i] + b[i + 1:] for b in homogenize(A)]


class TestVerdicts:
    def test_veronese_is_smooth(self):
        for d, D in [(1, 3), (2, 2), (2, 3), (3, 4)]:
            report = classify(veronese(d, D))
            assert report.verdict == SMOOTH

    def test_minimal_smooth_family(self):
        for d, D in [(1, 3), (2, 4), (3, 5)]:
            assert classify(minimal_smooth(d, D)).verdict == SMOOTH

    def test_long_chart_chains_do_not_recurse(self):
        assert classify(minimal_smooth(1, 500)).verdict == SMOOTH

    def test_quartic_is_one_singular(self, quartic):
        report = classify(quartic)
        assert report.verdict == ONE_SINGULAR
        assert report.e == 2
        assert report.singular_vertex == 0

    def test_even_sextic_is_one_singular(self, even_sextic):
        report = classify(even_sextic)
        assert (report.verdict, report.e) == (ONE_SINGULAR, 2)

    def test_one_singular_base_family(self):
        for d, D, e in [(2, 4, 2), (2, 6, 3), (3, 6, 2), (2, 6, 6)]:
            report = classify(one_singular_base(d, D, e))
            assert (report.verdict, report.e) == (ONE_SINGULAR, e)

    def test_other(self):
        A = GeneratorSet(2, [(0, 0), (3, 0), (0, 3), (1, 1)])
        assert classify(A).verdict == OTHER

    def test_imprimitive_rejected(self):
        # every homogenized coordinate is even: (2,0),(0,2) with D=2... use
        # a set where the lift is uniformly divisible
        A = GeneratorSet(1, [(0,), (2,)])
        with pytest.raises(InvalidInstanceError, match="divide"):
            classify(A)


class TestCharts:
    def test_sextic_chart_zero_is_singular(self, sextic):
        gens = naive_minimal_generators(chart_generators(sextic, 0))
        assert gens == {(0, 4), (0, 6), (1, 1), (4, 0), (6, 0)}
        assert not is_chart_smooth(sextic, 0)
        assert is_chart_smooth(sextic, 1)
        assert is_chart_smooth(sextic, 2)

    def test_sextic_verdict(self, sextic):
        report = classify(sextic)
        assert report.verdict == ONE_SINGULAR
        assert report.singular_vertex == 0
        assert report.e == 2

    def test_veronese_charts_all_smooth(self):
        A = veronese(2, 3)
        for i in range(3):
            assert is_chart_smooth(A, i)

    def test_minimal_generators_are_irredundant(self, quartic):
        gens = naive_minimal_generators(chart_generators(quartic, 0))
        for g in gens:
            assert not naive_member(gens - {g}, g)

    @given(st.sampled_from(FAMILIES),
           st.sampled_from([(d, D) for d in (1, 2) for D in range(2, 8)]
                           + [(3, D) for D in (2, 3, 4)]),
           st.sampled_from([1, 2, 3]), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_criterion_matches_minimal_generators_on_families(
            self, family, cell, e, seed):
        A = family_instance(family, *cell, e, seed)
        for i in range(A.d + 1):
            gens = naive_minimal_generators(chart_generators(A, i))
            assert is_chart_smooth(A, i) == (len(gens) == A.d), (A, i)

    @given(arbitrary_sets())
    @settings(max_examples=100, deadline=None)
    def test_criterion_matches_minimal_generators_on_arbitrary_sets(self, A):
        # most draws are neither smooth nor one-singular
        for i in range(A.d + 1):
            gens = naive_minimal_generators(chart_generators(A, i))
            assert is_chart_smooth(A, i) == (len(gens) == A.d), (A, i)


class TestEEqualsDReduction:
    def test_reduction_drops_a_dimension(self):
        A = one_singular_base(2, 4, 4)
        report = classify(A)
        assert report.e == A.D == 4
        assert report.reduced is not None
        assert report.reduced.d == 1
        assert classify(report.reduced).verdict == SMOOTH

    def test_d1_is_imprimitive(self):
        # a one-dimensional set with e = D is always imprimitive, so it
        # never reaches the reduction
        A = GeneratorSet(1, [(0,), (3,)])
        with pytest.raises(InvalidInstanceError):
            classify(A)

    def test_reduction_precondition(self, quartic):
        with pytest.raises(CertificationError):
            reduce_e_equals_D(quartic)
