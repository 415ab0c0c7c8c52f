"""Hole set and sumsets regularity.

For the supported families the iterated sumsets stabilize: there is a
finite hole set H with sA = slice(s) \\ H for every large s.  The sumsets
regularity sigma is the first level where that stable shape is reached
and the simplex step property slice(s) + {0, D*e_i} = slice(s+1) holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .classify import ONE_SINGULAR, SMOOTH, ClassificationReport, classify
from .errors import CertificationError, UnsupportedInstanceError
from .lattice import (GeneratorSet, Point, homogenize, norm, step_equality_holds,
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
    upper: int = field(init=False)

    def __post_init__(self):
        d, D, e = self.d, self.D, self.e
        self.t0 = (D - 2) * (d - 1) + D // e - 2
        self.s0 = (D // e) * self.t0
        self.lower = step_threshold(d, D, e)
        if D == 2:
            self.upper = d - d // 2 if self.smooth else -((1 - d) // 2)
        else:
            self.upper = d * (D - 2) if self.smooth else self.s0


@dataclass
class HoleSet:
    points: frozenset[Point]
    enclosing_level: int

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class SigmaResult:
    sigma: int
    holes: HoleSet
    bounds: SigmaBounds
    window_verified: tuple[int, int]
    step_verified_at: int

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "holes": sorted([list(p) for p in self.holes.points]),
            "t0": self.bounds.t0,
            "s0": self.bounds.s0,
            "lower": self.bounds.lower,
            "upper": self.bounds.upper,
            "window_verified": list(self.window_verified),
        }


def _require_supported(report: ClassificationReport) -> None:
    if report.verdict not in (SMOOTH, ONE_SINGULAR):
        raise UnsupportedInstanceError(
            "sumsets regularity is only defined for smooth or one-singular "
            "instances")


def normalize_singular_vertex(A: GeneratorSet, report: ClassificationReport):
    """Permute coordinates so the singular vertex is the homogenizing one.

    The sumset formulas assume e divides every generator norm, which pins
    the singular vertex to the homogenizing coordinate; other vertices
    are handled by swapping homogenized coordinates 0 and k.
    """
    k = report.singular_vertex
    if report.verdict != ONE_SINGULAR or k == 0:
        return A, report
    swapped = []
    for b in homogenize(A):
        c = list(b)
        c[0], c[k] = c[k], c[0]
        swapped.append(tuple(c[1:]))
    A2 = GeneratorSet(A.d, swapped, A.max_slice_size)
    report2 = ClassificationReport(ONE_SINGULAR, report.e, 0,
                                   report.certificates, report.reduced)
    return A2, report2


def sigma_bounds(A: GeneratorSet,
                 report: Optional[ClassificationReport] = None) -> SigmaBounds:
    report = report or classify(A)
    _require_supported(report)
    return SigmaBounds(A.d, A.D, report.e, report.verdict == SMOOTH)


def compute_holes(A: GeneratorSet,
                  report: Optional[ClassificationReport] = None) -> HoleSet:
    """H = slice(t0) minus the level-s0 sumset (empty in the smooth case)."""
    report = report or classify(A)
    _require_supported(report)
    A, report = normalize_singular_vertex(A, report)
    bounds = SigmaBounds(A.d, A.D, report.e, report.verdict == SMOOTH)

    if report.verdict == SMOOTH:
        # saturation at the upper bound forces the semigroup to fill the cone
        s = max(bounds.upper, 1)
        lvl = A.level(s)
        if lvl.cardinality != lvl.slice.size:
            raise CertificationError(
                f"smooth instance does not saturate at level {s}")
        return HoleSet(frozenset(), 0)

    t0 = max(bounds.t0, 0)
    s0 = max(bounds.s0, 0)
    lvl = A.level(s0)
    candidates = A.slice(t0).points_array()
    inside = lvl.contains_array(candidates)
    holes = frozenset(tuple(int(c) for c in p) for p in candidates[~inside])
    enclosing = max((-(-norm(h) // A.D) for h in holes), default=0)
    return HoleSet(holes, enclosing)


def sigma(A: GeneratorSet,
          report: Optional[ClassificationReport] = None,
          holes: Optional[HoleSet] = None) -> SigmaResult:
    """Exact sumsets regularity with a certified verification window."""
    report = report or classify(A)
    _require_supported(report)
    A, report = normalize_singular_vertex(A, report)
    bounds = SigmaBounds(A.d, A.D, report.e, report.verdict == SMOOTH)
    if holes is None:
        holes = compute_holes(A, report)

    if report.verdict == SMOOTH:
        # equality sA = slice(s) propagates upward once s >= lower
        for s in range(bounds.lower, max(bounds.upper, bounds.lower) + 1):
            if A.level(s).cardinality == A.slice(s).size:
                result = SigmaResult(s, holes, bounds, (s, s), s)
                break
        else:
            raise CertificationError(
                f"no full sumset level in [{bounds.lower}, {bounds.upper}]; "
                f"this contradicts the certified upper bound")
    else:
        s0 = max(bounds.s0, 0)
        fail_max = -1
        for s in range(s0 + 1):
            expected = A.slice(s).size - sum(
                1 for h in holes.points if norm(h) <= s * A.D)
            if A.level(s).cardinality != expected:
                fail_max = s
        s = max(bounds.lower, holes.enclosing_level, fail_max + 1)
        if s > bounds.upper:
            raise CertificationError(
                f"sumsets regularity {s} exceeds the certified upper bound "
                f"{bounds.upper}")
        result = SigmaResult(s, holes, bounds, (s, s0), s)

    if not step_equality_holds(A.d, A.D, report.e, result.sigma,
                               A.max_slice_size):
        raise CertificationError(
            f"step property fails at s = {result.sigma} despite the "
            f"threshold formula")
    return result


def verify_sigma_bounds(A: GeneratorSet,
                        report: Optional[ClassificationReport] = None,
                        result: Optional[SigmaResult] = None) -> dict:
    """Check lower <= sigma <= upper; reports slack on both sides.

    Two lower-bound formulas are in circulation for the one-singular
    case: the step-threshold form ceil(d - (d+e-1)/D) and the variant
    ceil(d - (d-e+1)/D); both are evaluated and reported.
    """
    report = report or classify(A)
    if result is None:
        result = sigma(A, report)
    b = result.bounds
    d, D, e = b.d, b.D, b.e
    lower_alt = -(-(d * D - (d - e + 1)) // D)
    out = {
        "sigma": result.sigma,
        "lower": b.lower,
        "upper": b.upper,
        "lower_alt": lower_alt,
        "lower_holds": b.lower <= result.sigma,
        "lower_alt_holds": lower_alt <= result.sigma,
        "upper_holds": result.sigma <= b.upper,
        "slack_lower": result.sigma - b.lower,
        "slack_upper": b.upper - result.sigma,
    }
    if not (out["lower_holds"] and out["upper_holds"]):
        raise CertificationError(f"sigma bounds violated: {out}")
    return out
