"""Castelnuovo-Mumford regularity, degree, and the Eisenbud-Goto bound.

reg is the maximum of |y|/D - (i+1) over semigroup elements y whose
complex T_y has nonvanishing reduced homology in degree i.  The
enumeration stops at a certified cutoff: past level sigma+d+1 (smooth)
or sigma+d+2 (one singular point) every complex is provably acyclic in
all degrees up to d.  It starts at the floor, the top level under the
cutoff with an Apery element: such a y has T_y = {emptyset}, so its
level t is a value, and no level s below offers more than s < t.  The
floor offers its least Apery element, read off the record; above it the
gap shifts alone, the rows whose T_y can carry homology, get a table
(see ``_sweep``), one level per call.  No level above the one where the
gaps become final is built: the generator set reads every higher level
as its slice minus those gaps, with no Apery element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from .classify import (ONE_SINGULAR, OTHER, SMOOTH, ClassificationReport,
                       classify)
from .errors import (CertificationError, PreconditionError,
                     UnsupportedInstanceError)
from .homology import (FieldTag, check_face_table_dimension,
                       face_tables_for_level, min_nonzero_degree)
from .lattice import GeneratorSet, Point, homogenize
from .linalg import gcd_of_maximal_minors
from .sumsets import SigmaResult, sigma, sigma_bounds


@dataclass
class DegreeResult:
    theta: int
    degree: int
    codim: int

    def to_json_dict(self) -> dict:
        return {"theta": self.theta, "degree": self.degree,
                "codim": self.codim}


@dataclass
class RegularityResult:
    reg: int
    witness_y: Point
    witness_i: int
    cutoff_norm: int
    method_tag: str
    sigma: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {"reg": self.reg, "witness_y": list(self.witness_y),
                "witness_i": self.witness_i, "cutoff_norm": self.cutoff_norm,
                "method": self.method_tag, "sigma": self.sigma}


def degree(A: GeneratorSet,
           report: Optional[ClassificationReport] = None) -> DegreeResult:
    """degree = D^{d+1} / theta with theta the gcd of maximal minors.

    theta is computed as the index of the lattice the homogenized
    generators span.  For one-singular instances the degree is
    cross-checked against D^d / e; A is classified when no report is
    given.
    """
    report = report or classify(A)
    d, D = A.d, A.D
    theta = gcd_of_maximal_minors(homogenize(A), D)
    if D ** (d + 1) % theta:
        raise CertificationError(f"theta {theta} does not divide D^(d+1)")
    deg = D ** (d + 1) // theta
    if report.verdict == ONE_SINGULAR and deg * report.e != D ** d:
        raise CertificationError(
            f"degree {deg} != D^d/e = {D ** d}/{report.e}")
    codim = len(A.points) - 1 - d
    return DegreeResult(theta, deg, codim)


def _sweep(A: GeneratorSet, max_level: int, field: FieldTag):
    """(value, witness_y, witness_i): the max of s - (i+1) over levels
    0..max_level.  The floor and each table offer their least point, and
    the least homogenized y wins among those of the largest value.

    The sweep starts at the floor, the top level t <= max_level with an
    Apery element y (level 0 has the origin): no y - D*e_j is in S_A,
    so T_y = {emptyset}, whose betti_(-1) = 1 offers the value t.  A
    level s offers at most s - (i+1) <= s, as i >= -1, so no level
    below the floor reaches or ties t.  At the floor, T_y = {emptyset}
    holds exactly for the Apery elements, and any other nonzero T_y has
    a vertex, so i >= 0 and it offers at most t - 1: the floor offers
    its least Apery element, with i = -1 and no table.

    Above the floor only the gap shifts get a table: any other row of
    sA has the full simplex on its nonempty {j : y_j >= D} as T_y (see
    ``face_tables_for_level``), and no level above the floor has an
    Apery element, so no least point with homology is lost.  Each level
    is tabled alone and its gaps read once; the gaps of level s - d - 1
    are dropped after level s, so d + 2 levels are held.
    """
    d, D = A.d, A.D
    # unless A is stable, checks the cap of max_level before level 0
    A.level(max_level)
    floor = max_level
    while not len(apery := A.level(floor).apery()):
        floor -= 1
    y = min(apery.tolist())
    found = [(-floor, (floor * D - sum(y), *y), -1)]  # (-value, y, i)
    gaps = {t: A.level(t).gaps() for t in range(max(0, floor - d), floor + 1)}
    for s in range(floor + 1, max_level + 1):
        gaps[s] = A.level(s).gaps()
        pts, tables = face_tables_for_level(A, s, gaps)
        # the points are in lexicographic order, so the first with a
        # table is the least; a gap has table 0 and no faces
        _, first = np.unique(tables, return_index=True)
        for t, y in zip(tables[first].tolist(), pts[first].tolist()):
            i = min_nonzero_degree(t, d + 1, field) if t else None
            if i is not None:
                found.append((i + 1 - s, (s * D - sum(y), *y), i))
        gaps.pop(s - d - 1, None)  # no later level reads it
    neg, y, i = min(found)
    return -neg, y, i


def reg(A: GeneratorSet,
        report: Optional[ClassificationReport] = None,
        sigma_result: Optional[SigmaResult] = None,
        field: FieldTag = "q",
        cutoff: Optional[int] = None) -> RegularityResult:
    """Exact regularity by homology enumeration with certified cutoffs.

    For verdict Other no vanishing cutoff is available; a user-supplied
    ``cutoff`` level yields an honest lower bound instead.
    """
    report = report or classify(A)
    A = report.instance
    if report.verdict == OTHER:
        if cutoff is None:
            raise UnsupportedInstanceError(
                "no certified cutoff outside the smooth/one-singular "
                "families; pass an explicit cutoff for a lower bound")
        if cutoff < 0:
            raise PreconditionError(f"cutoff must be >= 0 (got {cutoff})")
        check_face_table_dimension(A.d)
        value, y, i = _sweep(A, cutoff, field)
        return RegularityResult(value, y, i, cutoff * A.D, "lower-bound")

    if report.verdict == ONE_SINGULAR and report.e == A.D:
        sub = reg(report.reduced, field=field)
        return RegularityResult(sub.reg, sub.witness_y, sub.witness_i,
                                sub.cutoff_norm, "e=D-reduction",
                                sigma=sub.sigma)

    check_face_table_dimension(A.d)  # before sigma builds a level
    if sigma_result is None:
        sigma_result = sigma(A, report)
    sg = sigma_result.sigma

    smooth = report.verdict == SMOOTH
    max_level = sg + A.d + (1 if smooth else 2)
    value, y, i = _sweep(A, max_level, field)

    if smooth and value != sg:
        raise CertificationError(
            f"smooth instance has reg {value} != sigma {sg}")
    if not smooth and value > sg + 1:
        raise CertificationError(
            f"one-singular instance has reg {value} > sigma+1 = {sg + 1}")
    return RegularityResult(value, y, i, max_level * A.D,
                            "smooth" if smooth else "briales-enumeration",
                            sigma=sg)


def _bound_check(A: GeneratorSet, report: ClassificationReport,
                 reg_result: Optional[RegularityResult], verdict: str,
                 shift: int) -> dict:
    """reg against the stable-level bound of SigmaBounds, plus ``shift``."""
    if report.verdict != verdict:
        raise UnsupportedInstanceError(f"bound applies to {verdict} "
                                       f"instances")
    if reg_result is None:
        reg_result = reg(A, report)
    bound = sigma_bounds(A, report).stable_upper + shift
    out = {"reg": reg_result.reg, "bound": bound,
           "holds": reg_result.reg <= bound,
           "slack": bound - reg_result.reg}
    if not out["holds"]:
        raise CertificationError(f"{verdict} regularity bound violated: "
                                 f"{out}")
    return out


def herzog_hibi_bound(A: GeneratorSet,
                      report: Optional[ClassificationReport] = None,
                      reg_result: Optional[RegularityResult] = None) -> dict:
    """reg <= d(D-2) for D >= 3, reg <= ceil(d/2) for D = 2 (smooth)."""
    return _bound_check(A, report or classify(A), reg_result, SMOOTH, 0)


def one_singular_bound(A: GeneratorSet,
                       report: Optional[ClassificationReport] = None,
                       reg_result: Optional[RegularityResult] = None) -> dict:
    """reg <= (D/e)[(d-1)(D-2)+D/e-2] + 1 for D >= 3, ceil((d-1)/2) for D=2."""
    return _bound_check(A, report or classify(A), reg_result, ONE_SINGULAR,
                        1 if A.D >= 3 else 0)


def eg_check(A: GeneratorSet,
             report: Optional[ClassificationReport] = None,
             reg_result: Optional[RegularityResult] = None,
             degree_result: Optional[DegreeResult] = None) -> dict:
    """Eisenbud-Goto: reg <= degree - codim, certified where the paper
    proves it: smooth instances (from the Herzog-Hibi bound) and
    one-singular ones of dimension >= 3."""
    report = report or classify(A)
    if reg_result is None:
        reg_result = reg(A, report)
    if degree_result is None:
        degree_result = degree(A, report)
    bound = degree_result.degree - degree_result.codim
    out = {"reg": reg_result.reg, "degree": degree_result.degree,
           "codim": degree_result.codim, "bound": bound,
           "holds": reg_result.reg <= bound}
    if not out["holds"] and (report.verdict == SMOOTH or (
            report.verdict == ONE_SINGULAR and A.d >= 3)):
        raise CertificationError(
            f"Eisenbud-Goto bound fails on a {report.verdict} instance of "
            f"dimension {A.d}: {out}")
    return out


def sizeA_bound(d: int, D: int, e: int) -> Fraction:
    """Counting bound: |A| <= ((D/e + d)/(D + d)) * C(D+d, d) for e < D."""
    return Fraction(D // e + d, D + d) * comb(D + d, d)


def eg_inequality_suite(d: int, D: int, e: int) -> dict:
    """Exact evaluation of the auxiliary inequalities behind the EG proof.

    For e = D: (d-1)(D-2) <= D^{d-1} - C(D+d-1, d-1) + d  (d, D >= 3).
    For e < D: (D/e)[(d-1)(D-2)+D/e-2]
               <= D^d/e - ((D/e+d)/(D+d)) C(D+d, d) + d.
    """
    if d < 3 or D < 3 or e < 1 or D % e:
        raise UnsupportedInstanceError(
            f"inequalities are stated for d >= 3, D >= 3, e | D "
            f"(got d={d}, D={D}, e={e})")
    out = {"d": d, "D": D, "e": e}
    if e == D:
        lhs = (d - 1) * (D - 2)
        rhs = D ** (d - 1) - comb(D + d - 1, d - 1) + d
        out["kind"] = "e=D"
    else:
        lhs = Fraction(D, e) * ((d - 1) * (D - 2) + Fraction(D, e) - 2)
        rhs = Fraction(D ** d, e) - sizeA_bound(d, D, e) + d
        out["kind"] = "e<D"
    out["lhs"], out["rhs"] = lhs, rhs
    out["holds"] = lhs <= rhs
    if not out["holds"]:
        raise CertificationError(f"auxiliary inequality violated: {out}")
    return out
