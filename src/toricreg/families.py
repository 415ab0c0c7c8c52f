"""Instance generators: closed-form families and seeded random supersets."""

from __future__ import annotations

import random
from typing import Optional

from .classify import ONE_SINGULAR, SMOOTH, classify
from .errors import InvalidInstanceError, PreconditionError
from .lattice import GeneratorSet, Point, unit

MAX_RESAMPLE = 200


def veronese(d: int, D: int) -> GeneratorSet:
    """All lattice points of norm <= D."""
    return GeneratorSet(d, _norm_e_points(d, D, 1))


def minimal_smooth_points(d: int, D: int) -> set[Point]:
    pts = {(0,) * d}
    for i in range(d):
        pts.add(unit(d, i))
        pts.add(unit(d, i, D - 1))
        for j in range(d):
            pts.add(tuple(a + b for a, b in
                          zip(unit(d, i), unit(d, j, D - 1))))
    return pts


def minimal_smooth(d: int, D: int) -> GeneratorSet:
    """The smallest set whose variety is smooth: {0, e_i, (D-1)e_i,
    e_i + (D-1)e_j}."""
    if D < 3:
        raise PreconditionError("minimal smooth family needs D >= 3 "
                                "(D = 2 forces the full simplex)")
    return GeneratorSet(d, minimal_smooth_points(d, D))


def one_singular_base_points(d: int, D: int, e: int) -> set[Point]:
    if D < 2 or e < 1 or D % e or (e == 1 and D == 2):
        raise PreconditionError(f"need e | D, D >= 2 (and e = 2 when D = 2); "
                                f"got D={D}, e={e}")
    pts = {(0,) * d}
    for i in range(d):
        pts.add(unit(d, i, D - e))
        for j in range(d):
            pts.add(tuple(a + b for a, b in
                          zip(unit(d, i, D - 1), unit(d, j))))
    return pts


def one_singular_base(d: int, D: int, e: int) -> GeneratorSet:
    """The smallest one-singular configuration for the given e."""
    A = GeneratorSet(d, one_singular_base_points(d, D, e))
    report = classify(A)
    if report.verdict != ONE_SINGULAR or report.e != e:
        raise InvalidInstanceError(
            f"base configuration classifies as {report.verdict} "
            f"(e={report.e}), not one-singular with e={e}")
    return A


def _norm_e_points(d: int, D: int, e: int) -> list[Point]:
    """Points of norm <= D divisible by e, in ``itertools.product`` order
    (seeded samplers pick from them by position); each prefix grows only
    inside the simplex, never through its (D+1)^d box."""
    pts = [()]
    for _ in range(d):
        pts = [p + (c,) for p in pts for c in range(D - sum(p) + 1)]
    return [p for p in pts if sum(p) % e == 0]


def _sample_extras(pool: list[Point], rng: random.Random,
                   extras: Optional[int]) -> set[Point]:
    """``extras`` points of the pool, or a random 0 to 6 when None."""
    if extras is None:
        extras = rng.randint(0, min(6, len(pool)))
    elif extras < 0:
        raise PreconditionError(f"extras must be >= 0 (got {extras})")
    return set(rng.sample(pool, min(extras, len(pool))))


def smooth_random_superset(d: int, D: int, rng: random.Random,
                           extras: Optional[int] = None) -> GeneratorSet:
    """Minimal smooth configuration plus random extra generators.

    Draws from a small pool repeat: the 20 seeded instances of the
    acceptance suite's smooth corpus hold 16 distinct sets, and its three
    (d, D) = (1, 3) draws are one set."""
    base = minimal_smooth_points(d, D)
    pool = [p for p in _norm_e_points(d, D, 1) if p not in base]
    A = GeneratorSet(d, base | _sample_extras(pool, rng, extras))
    report = classify(A)
    assert report.verdict == SMOOTH
    return A


def one_singular_random(d: int, D: int, e: int, rng: random.Random,
                        extras: Optional[int] = None) -> GeneratorSet:
    """One-singular base plus random extras, resampled until the
    classification confirms the intended family.

    Draws from a small pool repeat: the 20 seeded instances of the
    acceptance suite hold 4 distinct sets in the (d, D, e) = (2, 4, 2)
    cell, 2 in (2, 4, 4) and 7 in (2, 6, 6)."""
    base = one_singular_base_points(d, D, e)
    pool = [p for p in _norm_e_points(d, D, e) if p not in base]
    for _ in range(MAX_RESAMPLE):
        A = GeneratorSet(d, base | _sample_extras(pool, rng, extras))
        report = classify(A)
        if report.verdict == ONE_SINGULAR and report.e == e:
            return A
    raise InvalidInstanceError(
        f"could not sample a one-singular instance for d={d}, D={D}, e={e}")


def sextic_surface() -> GeneratorSet:
    """A degree-6 surface in P^7 whose only singular point is a vertex."""
    return GeneratorSet(2, [(0, 0), (6, 0), (0, 6), (1, 5), (5, 1),
                            (0, 4), (4, 0), (1, 1)])


def quartic_singular_surface() -> GeneratorSet:
    """Quartic surface with e = 2 and hole set {(1, 1)}."""
    return GeneratorSet(2, [(0, 0), (4, 0), (0, 4), (3, 1), (1, 3),
                            (2, 0), (0, 2)])


def even_sextic_surface() -> GeneratorSet:
    """Even-norm sextic surface (d = e = 2, D = 6) with two pruned points."""
    pts = [p for p in _norm_e_points(2, 6, 2) if p not in [(2, 4), (3, 3)]]
    return GeneratorSet(2, pts)
