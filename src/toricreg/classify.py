"""Smoothness classification of the projective variety attached to A.

Two independent routes are computed and cross-checked:

* chart route — for each of the d+1 torus-fixed charts, the affine
  semigroup is smooth iff its unique minimal generating set has exactly
  rank-many elements;
* generator route — closed-form criteria on which vectors of the form
  (D-1)e_i + e_j and e*e_k + (D-e)e_j appear among the homogenized
  generators.

A disagreement between the two routes aborts with CertificationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .errors import CertificationError, InvalidInstanceError
from .lattice import GeneratorSet, Point, homogenize, norm, unit

SMOOTH = "Smooth"
ONE_SINGULAR = "OneSingular"
OTHER = "Other"


class AffineChart:
    """Affine semigroup of the chart at the torus-fixed point P_i.

    Generated by D*e_1', ..., D*e_d' together with every non-axis
    homogenized generator with its i-th coordinate deleted.
    """

    def __init__(self, A: GeneratorSet, index: int):
        d = A.d
        self.index = index
        B = homogenize(A)
        axes = {unit(d + 1, j, A.D) for j in range(d + 1)}
        gens = {unit(d, j, A.D) for j in range(d)}
        for b in B:
            if b not in axes:
                gens.add(b[:index] + b[index + 1:])
        self.generators: tuple[Point, ...] = tuple(sorted(gens))
        self._member_cache: dict[Point, bool] = {(0,) * d: True}

    def _member(self, v: Point) -> bool:
        """Is v in the semigroup generated by the chart generators?

        Depth-first search on v - g over the nonzero generators g, with an
        explicit stack: a vector waiting on an unknown w - g is scanned
        again once that answer is in the memo.
        """
        memo = self._member_cache
        stack = [v]
        while stack:
            w = stack[-1]
            if w in memo:
                stack.pop()
                continue
            for g in self.generators:
                if any(g) and all(h <= x for h, x in zip(g, w)):
                    u = tuple(x - h for h, x in zip(g, w))
                    known = memo.get(u)
                    if known is None:
                        stack.append(u)
                        break
                    if known:
                        memo[w] = True
                        break
            else:
                memo[w] = False
        return memo[v]

    def minimal_generators(self) -> tuple[Point, ...]:
        """The unique minimal generating set of the chart semigroup."""
        gens = [g for g in self.generators if any(g)]
        minimal = []
        for g in gens:
            reducible = any(
                h != g and any(h)
                and all(a <= b for a, b in zip(h, g))
                and self._member(tuple(b - a for a, b in zip(h, g)))
                for h in gens)
            if not reducible:
                minimal.append(g)
        return tuple(minimal)


def is_chart_smooth(chart: AffineChart) -> bool:
    """Smooth iff the minimal generating set has rank-many elements.

    The rank is d: the generators hold D*e_j for every chart coordinate.
    """
    return len(chart.minimal_generators()) == len(chart.generators[0])


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


def _generator_verdict(A: GeneratorSet):
    """(verdict, e, vertex, certificates) from the generators alone."""
    d1 = A.d + 1
    D = A.D
    B = set(homogenize(A))

    required = [_corner(d1, D, i, j)
                for i in range(d1) for j in range(d1) if i != j]
    if all(v in B for v in required):
        return SMOOTH, 1, None, {"smooth_vectors": required}

    for k in range(d1):
        others = [i for i in range(d1) if i != k]
        off_vertex = [v for v in required if v[k] == 0]
        if not all(v in B for v in off_vertex):
            continue
        e = gcd(D, *(b[k] for b in B))
        edge = [tuple((e if t == k else 0) + (D - e if t == j else 0)
                      for t in range(d1))
                for j in others]
        if not all(v in B for v in edge):
            continue
        certs = {"off_vertex_vectors": off_vertex, "edge_vectors": edge}
        if e == 1:
            missing = [j for j in others if _corner(d1, D, k, j) not in B]
            if not missing:
                continue  # would be smooth, contradiction caught below
            certs["missing_unit_witness"] = missing[0]
        return ONE_SINGULAR, e, k, certs

    missing = [v for v in required if v not in B]
    return OTHER, None, None, {"failed_smooth_vectors": missing[:4]}


def classify(A: GeneratorSet) -> ClassificationReport:
    """Full classification with chart/generator cross-validation."""
    _check_primitive(A)
    verdict, e, vertex, certs = _generator_verdict(A)

    non_smooth = [i for i in range(A.d + 1)
                  if not is_chart_smooth(AffineChart(A, i))]
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


def reduce_e_equals_D(A: GeneratorSet) -> Optional[GeneratorSet]:
    """Dimension-drop for the e = D case, singular vertex at coordinate 0.

    When every non-axis generator avoids the singular vertex coordinate,
    the configuration splits off an isolated vertex; dropping it (and one
    more coordinate as the new homogenizing direction) leaves a smooth
    set one dimension down with the same regularity.  Returns None in the
    degenerate case d = 1, where the reduction is empty and reg is 0.
    """
    vertex_gen = (A.D,) + (0,) * A.d
    rest = [b for b in homogenize(A) if b != vertex_gen]
    if any(b[0] != 0 for b in rest):
        raise CertificationError(
            "e = D reduction requires every other generator to avoid the "
            "singular vertex coordinate")
    if A.d == 1:
        return None
    reduced_pts = {tuple(b[2:]) for b in rest}
    return GeneratorSet(A.d - 1, reduced_pts, A.max_slice_size)
