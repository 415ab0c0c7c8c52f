import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricreg import (CertificationError, GeneratorSet,
                      UnsupportedInstanceError, classify, compute_holes,
                      sigma, sigma_bounds, sumsets)
from toricreg.cli import analysis_bundle
from toricreg.families import (minimal_smooth, one_singular_base,
                               one_singular_random, veronese)
from toricreg.lattice import SimplexSlice, slice_size
from toricreg.oracle import naive_slice_points

from instances import FAMILIES, family_instance, members


def reference_sigma(A):
    """H and sigma by the full window, the definition the stop rule replaced.

    H is what the level-s0 sumset misses of slice(t0) (of slice(upper)
    when smooth, where saturation at upper means H is empty), and sigma
    follows from the cardinalities of every level up to there.
    """
    report = classify(A)
    A = report.instance
    b = sigma_bounds(A, report)
    t, end = ((b.upper, b.upper) if b.smooth
              else (max(b.t0, 0), max(b.s0, 0)))
    sl = SimplexSlice(A.d, A.D, t, A.e)
    cand = sl.unrank(np.arange(sl.size))
    A.level(end)
    holes = frozenset(map(tuple, cand[A.first_levels(cand) > end].tolist()))
    enclosing = enclosing_level(holes, A.D)
    fail_max = max((s for s in range(end + 1)
                    if A.level(s).cardinality != slice_size(
                        A.d, s * A.D, A.e) - sum(
                        sum(h) <= s * A.D for h in holes)), default=-1)
    return holes, max(b.lower, enclosing, fail_max + 1), b


def enclosing_level(holes, D):
    """The least level whose slice holds every hole."""
    return max((-(-sum(h) // D) for h in holes), default=0)


def assert_matches_reference(A):
    result = sigma(A)
    holes, s, bounds = reference_sigma(A)
    assert result.holes == holes, A
    assert enclosing_level(result.holes, A.D) <= min(
        result.sigma, max(bounds.t0, 0)), A
    assert result.sigma == s, A
    assert result.bounds == bounds, A
    assert result.window_verified[0] == s, A
    assert result.window_verified[1] - s in (1, 2), A


class TestHoles:
    def test_quartic_hole_set(self, quartic):
        holes = compute_holes(quartic)
        assert holes == frozenset({(1, 1)})
        assert enclosing_level(holes, quartic.D) == 1

    def test_even_sextic_has_no_holes(self, even_sextic):
        assert compute_holes(even_sextic) == frozenset()

    def test_smooth_instances_have_no_holes(self):
        assert compute_holes(veronese(2, 3)) == frozenset()
        assert compute_holes(minimal_smooth(2, 4)) == frozenset()

    def test_unsupported(self):
        A = GeneratorSet(2, [(0, 0), (3, 0), (0, 3), (1, 1)])
        with pytest.raises(UnsupportedInstanceError):
            compute_holes(A)


class TestSigma:
    def test_quartic(self, quartic):
        result = sigma(quartic)
        assert result.sigma == 2
        assert result.bounds.lower == 2
        assert result.bounds.upper == 4
        # from sigma on, the sumsets equal the slice minus the hole
        for s in range(2, 9):
            expected = naive_slice_points(2, 4 * s, 2) - {(1, 1)}
            assert members(quartic.level(s)) == expected

    def test_even_sextic(self, even_sextic):
        # level 2 misses (3,9) even though the hole set is empty, so the
        # first stable level is 3
        assert (3, 9) not in members(even_sextic.level(2))
        result = sigma(even_sextic)
        assert result.sigma == 3
        assert members(even_sextic.level(3)) == naive_slice_points(
            2, 18, 2)

    def test_veronese_closed_form(self):
        for d, D in [(1, 3), (2, 3), (2, 4), (3, 3)]:
            assert sigma(veronese(d, D)).sigma == d - d // D

    def test_minimal_smooth_closed_form(self):
        for d, D in [(1, 4), (2, 3), (2, 4), (2, 5)]:
            assert sigma(minimal_smooth(d, D)).sigma == d * (D - 2)

    def test_window_certificate(self, quartic):
        result = sigma(quartic)
        # level 2 already holds every gap at norm <= 4, and level 3 has
        # the same single gap, so the gaps are final at stop = 3
        assert result.window_verified == (2, 3)

    def test_stops_two_levels_above_sigma(self):
        A = one_singular_random(3, 6, 2, random.Random(3062))
        assert classify(A).singular_vertex == 0  # sigma works on A itself
        result = sigma(A)
        top = A._top.s  # the highest level built
        assert top <= result.sigma + 2
        assert result.window_verified == (result.sigma, top)

    def test_low_gap_filled_late(self):
        # 4 = 1+1+1+1 is a gap of level 3 below norm D that fills at
        # level 4, so a settled norm alone does not make the gaps final
        A = GeneratorSet(1, [(0,), (1,), (5,), (6,), (7,), (8,), (9,)])
        assert [len(A.level(s).gaps()) for s in range(6)] == [0, 3, 2, 1, 0, 0]
        assert sigma(A).window_verified == (4, 5)
        assert_matches_reference(A)

    @pytest.mark.parametrize("d", [2, 3])
    def test_step_threshold_above_the_closed_form(self, d):
        # (d, D, e) = (d, 3, 3): s0 is below lower, so upper is lower
        result = sigma(one_singular_base(d, 3, 3))
        assert result.bounds.stable_upper < result.bounds.lower
        assert result.sigma == result.bounds.upper == result.bounds.lower
        assert_matches_reference(one_singular_base(d, 3, 3))

    @pytest.mark.parametrize("shift", [1, -1])
    def test_misstated_threshold_is_caught(self, monkeypatch, shift):
        # sigma(veronese(3, 4)) = 3 = lower: an overstated lower alone
        # made it 4 when only the level sigma was checked
        threshold = sumsets.step_threshold
        monkeypatch.setattr(sumsets, "step_threshold",
                            lambda d, D, e=1: threshold(d, D, e) + shift)
        with pytest.raises(CertificationError, match="step property"):
            sigma(veronese(3, 4))

    @given(st.sampled_from(FAMILIES), st.integers(1, 3), st.integers(2, 5),
           st.sampled_from([(2, 4, 2), (2, 6, 3), (3, 4, 2), (2, 4, 4),
                            (2, 3, 3), (3, 3, 3)]),
           st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_full_window_on_families(self, family, d, D, cell,
                                                 seed):
        # one-singular cells with a small s0 = (D/e) * t0; in the last
        # two, s0 is below the step threshold
        if family == "one_singular":
            d, D, e = cell
        else:
            e = 1
        assert_matches_reference(family_instance(family, d, D, e, seed))

    @pytest.mark.parametrize("d,D,e", [(2, 4, 2), (2, 4, 4), (2, 6, 2),
                                       (2, 6, 6), (3, 4, 2), (3, 4, 4),
                                       (3, 6, 6)])
    def test_matches_the_full_window_on_acceptance_cells(self, d, D, e):
        # the criterion-6 samples; (3, 6, 2), with s0 = 27, is left out
        rng = random.Random(1000 * d + 10 * D + e)
        for _ in range(20):
            assert_matches_reference(one_singular_random(d, D, e, rng))

    def test_bounds_hold_on_random_singular(self):
        rng = random.Random(3)
        for d, D, e in [(2, 4, 2), (2, 6, 3), (3, 4, 2)]:
            r = sigma(one_singular_random(d, D, e, rng))
            b = r.bounds
            assert b.lower <= r.sigma <= b.upper

    def test_bounds_object(self, quartic):
        b = sigma_bounds(quartic)
        assert (b.t0, b.s0) == (2, 4)
        assert not b.smooth


class TestVertexNormalization:
    def test_singular_vertex_moved_to_zero(self):
        # swap homogenized coordinates of the base family so the singular
        # vertex lands on coordinate 1 instead of 0
        A = one_singular_base(2, 4, 2)
        swapped = [(4 - sum(p), p[1]) for p in A.points]
        A2 = GeneratorSet(2, swapped)
        report2 = classify(A2)
        assert report2.singular_vertex == 1
        assert (report2.instance.d, report2.instance.points) == (A.d, A.points)
        assert classify(A).instance is A
        assert sigma(A2).sigma == sigma(A).sigma

    def test_sigma_transparent_for_shifted_vertex(self):
        A = one_singular_base(2, 6, 2)
        swapped = [(6 - sum(p), p[1]) for p in A.points]
        A2 = GeneratorSet(2, swapped)
        assert sigma(A2).sigma == sigma(A).sigma

    def test_each_level_built_once_off_vertex(self, monkeypatch):
        # the first criterion-6 (3, 6, 2) instance with its singular vertex
        # moved to coordinate 1: sigma and reg share one normalized instance
        A = one_singular_random(3, 6, 2, random.Random(3062))
        A1 = GeneratorSet(3, [(6 - sum(p),) + p[1:] for p in A.points])
        assert classify(A1).singular_vertex == 1
        built = []
        next_level = GeneratorSet._next_level

        def record(self):
            built.append((id(self), 0 if self._top is None
                          else self._top.s + 1))
            return next_level(self)

        monkeypatch.setattr(GeneratorSet, "_next_level", record)
        analysis_bundle(A1, "q", None)
        assert len({a for a, _ in built}) == 1
        assert [s for _, s in built] == list(range(len(built)))
