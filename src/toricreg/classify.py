"""Smoothness classification of the projective variety attached to A.

Two independent routes are computed and cross-checked:

* chart route — the chart at the torus-fixed point P_i is smooth iff its
  semigroup is free, i.e. has exactly d minimal generators.  Its
  generators are the homogenized generators with coordinate i deleted.
  They lie in N^d and include D*e_j for every j, so the semigroup's cone
  is the orthant.  Let c_j be the least positive j-th entry of a
  generator on axis j.  The semigroup is free iff c_j divides the j-th
  entry of every generator, for every j (``is_chart_smooth``).  If it
  does, every generator is an N-combination of the generators c_j*e_j,
  so they are a basis.  If the semigroup is free, its d minimal
  generators lie one on each extremal ray of the orthant, an axis.  An
  element on axis j is a sum of generators on axis j, so the minimal
  generator there is c_j*e_j, and every generator is an N-combination of
  the c_j*e_j;
* generator route — closed-form criteria on which vectors of the form
  (D-1)e_i + e_j and e*e_k + (D-e)e_j appear among the homogenized
  generators.

A disagreement between the two routes aborts with CertificationError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .errors import CertificationError, InvalidInstanceError
from .lattice import GeneratorSet, Point, homogenize

SMOOTH = "Smooth"
ONE_SINGULAR = "OneSingular"
OTHER = "Other"


def is_chart_smooth(A: GeneratorSet, i: int) -> bool:
    """Is the affine chart at the torus-fixed point P_i smooth?

    True iff, on every axis j, the least positive entry c_j of a chart
    generator on that axis divides the j-th entry of every chart
    generator (proof in the module docstring).
    """
    # each chart generator with its norm: b has norm D, so g has D - b[i]
    gens = [(b[:i] + b[i + 1:], A.D - b[i]) for b in homogenize(A)]
    for j in range(A.d):
        c = min(g[j] for g, norm in gens if g[j] == norm > 0)
        if any(g[j] % c for g, _ in gens):
            return False
    return True


@dataclass
class ClassificationReport:
    """``instance`` is the generator set with its singular vertex at
    homogenized coordinate 0, where sigma and reg compute; it is the
    classified set itself unless that vertex was elsewhere."""

    verdict: str
    instance: GeneratorSet
    e: Optional[int] = None
    singular_vertex: Optional[int] = None
    certificates: dict = field(default_factory=dict)
    reduced: Optional[GeneratorSet] = None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "e": self.e,
            "singular_vertex": self.singular_vertex,
            "certificates": {
                k: ([list(v) for v in val] if isinstance(val, (list, tuple))
                    else val)
                for k, val in self.certificates.items()
            },
        }
        if self.reduced is not None:
            out["reduced"] = {"d": self.reduced.d,
                              "A": [list(p) for p in self.reduced.points]}
        return out


def _check_primitive(A: GeneratorSet) -> None:
    g = 0
    for b in homogenize(A):
        for c in b:
            g = gcd(g, c)
    if g > 1:
        raise InvalidInstanceError(
            f"homogenized coordinates have common factor {g}; divide the "
            f"configuration through by it and retry")


def _corner(d1: int, D: int, i: int, j: int) -> Point:
    """The vector (D-1)e_i + e_j in N^d1."""
    return tuple((D - 1 if t == i else 0) + (1 if t == j else 0)
                 for t in range(d1))


def _corner_pairs(B: set[Point], D: int) -> set[tuple[int, int]]:
    """The (i, j) with (D-1)e_i + e_j in B, read in one pass over B."""
    pairs = set()
    for b in B:
        if b.count(0) != len(b) - 2:
            continue
        p, q = (t for t, c in enumerate(b) if c)
        if (b[p], b[q]) == (D - 1, 1):
            pairs.add((p, q))
        if (b[p], b[q]) == (1, D - 1):  # also the first when D = 2
            pairs.add((q, p))
    return pairs


def _generator_verdict(A: GeneratorSet):
    """(verdict, e, vertex, certificates) from the generators alone.

    The corners (D-1)e_i + e_j are looked up by (i, j), so only the
    certificate returned is built as vectors.
    """
    d1 = A.d + 1
    D = A.D
    B = set(homogenize(A))
    have = _corner_pairs(B, D)

    required = [(i, j) for i in range(d1) for j in range(d1) if i != j]
    if len(have) == len(required):
        return SMOOTH, 1, None, {
            "smooth_vectors": [_corner(d1, D, i, j) for i, j in required]}

    touching = [0] * d1  # corners present with k among (i, j)
    for i, j in have:
        touching[i] += 1
        touching[j] += 1
    for k in range(d1):
        if len(have) - touching[k] < (d1 - 1) * (d1 - 2):
            continue  # an off-vertex corner is missing
        others = [i for i in range(d1) if i != k]
        e = gcd(D, *(b[k] for b in B))
        edge = [tuple((e if t == k else 0) + (D - e if t == j else 0)
                      for t in range(d1))
                for j in others]
        if not all(v in B for v in edge):
            continue
        certs = {"off_vertex_vectors": [_corner(d1, D, i, j)
                                        for i, j in required
                                        if k not in (i, j)],
                 "edge_vectors": edge}
        if e == 1:
            missing = [j for j in others if (k, j) not in have]
            if not missing:
                continue  # would be smooth, contradiction caught below
            certs["missing_unit_witness"] = missing[0]
        return ONE_SINGULAR, e, k, certs

    missing = itertools.islice(((i, j) for i, j in required
                                if (i, j) not in have), 4)
    return OTHER, None, None, {
        "failed_smooth_vectors": [_corner(d1, D, i, j) for i, j in missing]}


def classify(A: GeneratorSet) -> ClassificationReport:
    """Full classification with chart/generator cross-validation."""
    _check_primitive(A)
    verdict, e, vertex, certs = _generator_verdict(A)

    non_smooth = [i for i in range(A.d + 1)
                  if not is_chart_smooth(A, i)]
    if verdict == SMOOTH and non_smooth:
        raise CertificationError(
            f"generator criterion says smooth but charts {non_smooth} "
            f"are singular")
    if verdict == ONE_SINGULAR and non_smooth != [vertex]:
        raise CertificationError(
            f"generator criterion names vertex {vertex} but non-smooth "
            f"charts are {non_smooth}")
    if verdict == OTHER and len(non_smooth) <= 1:
        raise CertificationError(
            f"generator criterion says neither smooth nor one-singular "
            f"but non-smooth charts are {non_smooth}")

    report = ClassificationReport(verdict, _vertex_to_zero(A, vertex), e,
                                  vertex, certs)
    if verdict == ONE_SINGULAR and e == A.D:
        report.reduced = reduce_e_equals_D(report.instance)
    return report


def _vertex_to_zero(A: GeneratorSet, k: Optional[int]) -> GeneratorSet:
    """A with homogenized coordinates 0 and k swapped.

    The sumset formulas assume e divides every generator norm, which pins
    the singular vertex to the homogenizing coordinate.
    """
    if not k:
        return A
    swapped = []
    for b in homogenize(A):
        c = list(b)
        c[0], c[k] = c[k], c[0]
        swapped.append(tuple(c[1:]))
    return GeneratorSet(A.d, swapped, A.max_slice_size)


def reduce_e_equals_D(A: GeneratorSet) -> GeneratorSet:
    """Dimension-drop for the e = D case, singular vertex at coordinate 0.

    When every non-axis generator avoids the singular vertex coordinate,
    the configuration splits off an isolated vertex; dropping it (and one
    more coordinate as the new homogenizing direction) leaves a smooth
    set one dimension down with the same regularity.  A set with d = 1
    and e = D is imprimitive, so ``classify`` rejects it first.
    """
    vertex_gen = (A.D,) + (0,) * A.d
    rest = [b for b in homogenize(A) if b != vertex_gen]
    if any(b[0] != 0 for b in rest):
        raise CertificationError(
            "e = D reduction requires every other generator to avoid the "
            "singular vertex coordinate")
    reduced_pts = {tuple(b[2:]) for b in rest}
    return GeneratorSet(A.d - 1, reduced_pts, A.max_slice_size)
