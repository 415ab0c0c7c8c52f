"""Instances of the four generator families, and arbitrary generator
sets, for hypothesis tests."""

import random

from hypothesis import assume
from hypothesis import strategies as st

from toricreg import GeneratorSet, families
from toricreg.lattice import unit
from toricreg.oracle import naive_slice_points

FAMILIES = ("veronese", "minimal_smooth", "smooth_random", "one_singular")


def members(level):
    """The points of a sumset level, as a set of tuples."""
    return set(map(tuple, level.points.tolist()))


def level_gaps(A):
    """The ``gaps`` argument of ``face_tables_for_level``: level t's
    gaps, read from A's level views."""
    return lambda t: A.level(t).gaps()


def family_instance(family, d, D, e, seed):
    """An instance of ``family``; ``assume`` rejects the (d, D, e) that
    the family does not cover (e matters only for one_singular)."""
    rng = random.Random(seed)
    if family == "veronese":
        return families.veronese(d, D)
    if family == "one_singular":
        # for d = 1 and e > 1 every lifted coordinate is a multiple of e
        assume(D % e == 0 and (e, D) != (1, 2) and (d > 1 or e == 1))
        return families.one_singular_random(d, D, e, rng)
    assume(D >= 3)
    if family == "minimal_smooth":
        return families.minimal_smooth(d, D)
    return families.smooth_random_superset(d, D, rng)


@st.composite
def arbitrary_sets(draw, max_d=3, max_D=7):
    """The origin, every D*e_i and up to 8 more points of norm <= D."""
    d, D = draw(st.integers(1, max_d)), draw(st.integers(2, max_D))
    required = {(0,) * d} | {unit(d, i, D) for i in range(d)}
    pool = sorted(naive_slice_points(d, D) - required)
    extra = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    return GeneratorSet(d, required | set(extra))
