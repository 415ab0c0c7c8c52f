"""Hole set and sumsets regularity.

For the supported families the iterated sumsets stabilize: there is a
finite hole set H with sA = slice(s) \\ H for every large s.  The sumsets
regularity sigma is the first level where that stable shape is reached
and the simplex step property slice(s) + {0, D*e_i} = slice(s+1) holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classify import ONE_SINGULAR, SMOOTH, ClassificationReport, classify
from .errors import CertificationError, UnsupportedInstanceError
from .lattice import (GeneratorSet, Point, step_equality_holds,
                      step_threshold)


@dataclass
class SigmaBounds:
    d: int
    D: int
    e: int
    smooth: bool
    t0: int = field(init=False)
    s0: int = field(init=False)
    lower: int = field(init=False)
    stable_upper: int = field(init=False)
    upper: int = field(init=False)

    def __post_init__(self):
        d, D, e = self.d, self.D, self.e
        self.t0 = (D - 2) * (d - 1) + D // e - 2
        self.s0 = (D // e) * self.t0
        self.lower = step_threshold(d, D, e)
        # the closed form bounds the level where the sumsets stabilize;
        # sigma is also >= lower, which exceeds it in the (d, D, e) =
        # (2, 3, 3) and (3, 3, 3) cells
        if D == 2:
            self.stable_upper = d - d // 2 if self.smooth else -((1 - d) // 2)
        else:
            self.stable_upper = d * (D - 2) if self.smooth else self.s0
        self.upper = max(self.stable_upper, self.lower)


@dataclass
class SigmaResult:
    sigma: int
    holes: frozenset[Point]
    bounds: SigmaBounds
    window_verified: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "holes": sorted([list(p) for p in self.holes]),
            "t0": self.bounds.t0,
            "s0": self.bounds.s0,
            "lower": self.bounds.lower,
            "upper": self.bounds.upper,
            "window_verified": list(self.window_verified),
        }


def sigma_bounds(A: GeneratorSet,
                 report: Optional[ClassificationReport] = None) -> SigmaBounds:
    report = report or classify(A)
    if report.verdict not in (SMOOTH, ONE_SINGULAR):
        raise UnsupportedInstanceError(
            "sumsets regularity is only defined for smooth or one-singular "
            "instances")
    return SigmaBounds(A.d, A.D, report.e, report.verdict == SMOOTH)


def compute_holes(A: GeneratorSet,
                  report: Optional[ClassificationReport] = None) -> frozenset[Point]:
    """The hole set H (empty in the smooth case); see ``sigma``."""
    return sigma(A, report).holes


def sigma(A: GeneratorSet,
          report: Optional[ClassificationReport] = None) -> SigmaResult:
    """Exact sumsets regularity, with H read off the stable gaps.

    The gaps of level s are slice(s) \\ sA.  Levels are built until the
    first ``stop`` at which level stop-1 (>= lower) has no gap of norm
    above (stop-2)*D and level stop has as many gaps as level stop-1.
    From then on the gaps are final.  Say level s-1 >= lower has all its
    gaps at norm <= (s-2)*D:

    - gaps only shrink: a z in slice(s) \\ slice(s-1) is y + D*e_i for
      some y in slice(s-1) of norm > (s-2)*D (step property), so y is in
      (s-1)A and z in sA.  Hence gaps(s) is a subset of gaps(s-1), and
      equal counts mean equal sets;
    - no later level fills a gap: were a gap y of level s filled as
      y = x + a with x in sA, then x, of norm <= |y|, lies in slice(s-1)
      but not in (s-1)A (else y would be in sA), so x is a gap of level
      s-1 that level s fills, yet gaps(s) = gaps(s-1).

    By induction the gaps at stop are H, and every level from stop-1 on
    equals slice \\ H.  So sigma = max(lower, enclosing level of H, last
    level s <= stop with |sA| != |slice(s) \\ H| plus one), and the levels
    [sigma, stop] are the ones checked point for point.  The step
    property is monotone in s, so checking it at sigma <= stop-1 covers
    every level the argument uses.
    """
    report = report or classify(A)
    A = report.instance
    bounds = sigma_bounds(A, report)

    start = max(bounds.lower, 1)
    # if sigma <= upper, the stop rule fires by this level
    last = max(bounds.upper, 1) + 2
    prev = A.level(start).gaps()
    for stop in range(start + 1, last + 1):
        gaps = A.level(stop).gaps()
        settled = prev.sum(axis=1).max(initial=0) <= (stop - 2) * A.D
        if settled and len(gaps) == len(prev):
            break
        prev = gaps
    else:
        raise CertificationError(
            f"sumset gaps not final by level {last}; this contradicts the "
            f"certified upper bound {bounds.upper}")
    if report.verdict == SMOOTH and len(gaps):
        raise CertificationError(
            f"smooth instance has {len(gaps)} gaps that never close")

    # gaps come by norm first, and every one has norm <= (stop-2)*D by the
    # stop rule
    norms = gaps.sum(axis=1)
    enclosing = int(-(-norms.max(initial=0) // A.D))
    if enclosing > max(bounds.t0, 0):
        raise CertificationError(
            f"a hole has norm {int(norms.max())} > t0*D = {bounds.t0 * A.D}")

    missing = [lvl.size - lvl.cardinality
               for lvl in map(A.level, range(stop + 1))]
    stable = np.searchsorted(norms, A.D * np.arange(stop + 1), "right")
    failing = np.flatnonzero(np.array(missing) != stable)
    stable_at = max(enclosing, int(failing[-1]) + 1 if len(failing) else 0)
    if stable_at > bounds.stable_upper:
        raise CertificationError(
            f"sumsets stabilize at level {stable_at}, above the certified "
            f"bound {bounds.stable_upper}")
    s = max(bounds.lower, stable_at)
    if not step_equality_holds(A.d, A.D, report.e, s, A.max_slice_size):
        raise CertificationError(
            f"step property fails at s = {s} despite the threshold formula")
    return SigmaResult(s, frozenset(map(tuple, gaps.tolist())), bounds,
                       (s, stop))
