import itertools

import pytest

from toricreg.families import _norm_e_points


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_norm_e_points_follow_the_filtered_box(d):
    # seeded samplers pick from the list by position, so its order is part
    # of every generated instance
    for D in range(1, 8):
        for e in sorted({1, 2, D}):
            box = [p for p in itertools.product(range(D + 1), repeat=d)
                   if sum(p) <= D and sum(p) % e == 0]
            assert _norm_e_points(d, D, e) == box, (d, D, e)
