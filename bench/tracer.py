"""Span tracing of the toricreg layers, installed from outside the package.

``install`` wraps the public functions of each module.  The modules bind
one another's functions with ``from ... import``, so a wrapper replaces
every module attribute that holds the original function, not only the one
in the defining module.  Modules are reached through ``importlib``:
``toricreg.classify`` as an attribute is the function, not the module.

A span is ``[name, start, end, parent, instance, attrs]``; ``parent`` is
the index of the enclosing span (-1 at the top) and ``instance`` the
instance file being analyzed.  Spans stay in memory until the caller
writes them out; ``layer_metrics`` turns one pass's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

GCD_SPAN = "linalg.gcd_of_maximal_minors"


def _level_attrs(tracer, args, kwargs, out):
    return {"s": args[1]}


def _built_counts(out):
    return {"built": 1, "points": out.cardinality}


def _rank_attrs(tracer, args, kwargs, out):
    return {"rows": len(out), "slice": args[0].size}


def _table_attrs(tracer, args, kwargs, out):
    return {"rows": len(out[0])}


def _betti_attrs(tracer, args, kwargs, out):
    field = args[2] if len(args) > 2 else kwargs.get("field", "q")
    key = (args[0], args[1], field)
    new = key not in tracer.seen_tables
    tracer.seen_tables.add(key)
    return {"new": new}


def _set_instance(tracer, args, kwargs):
    tracer.instance = Path(args[0]).name


#: span name -> (module, attribute, attrs from the call, hook before it)
SPANS = {
    "cli.main": ("cli", "main", None, None),
    "cli.load_instance": ("cli", "load_instance", None, _set_instance),
    "classify.classify": ("classify", "classify", None, None),
    "sumsets.sigma": ("sumsets", "sigma", None, None),
    "sumsets.compute_holes": ("sumsets", "compute_holes", None, None),
    "lattice.step_equality_holds": ("lattice", "step_equality_holds", None,
                                    None),
    "lattice.level": ("lattice", "GeneratorSet.level", _level_attrs, None),
    "lattice.rank_array": ("lattice", "SimplexSlice.rank_array", _rank_attrs,
                           None),
    "homology.face_tables_for_level": ("homology", "face_tables_for_level",
                                       _table_attrs, None),
    "homology.min_nonzero_degree": ("homology", "min_nonzero_degree", None,
                                    None),
    "homology.betti_numbers": ("homology", "betti_numbers", _betti_attrs,
                               None),
    GCD_SPAN: ("linalg", "gcd_of_maximal_minors", None, None),
    "linalg.bareiss_rank": ("linalg", "bareiss_rank", None, None),
    "linalg.rank_mod_p": ("linalg", "rank_mod_p", None, None),
    "regularity.reg": ("regularity", "reg", None, None),
    "regularity.degree": ("regularity", "degree", None, None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = None
        self.seen_tables: set = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = [name, clock(), None, stack[-1] if stack else -1,
                    self.instance, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5].update(attrs(self, args, kwargs, out))
            return out
        return wrapper

    def count(self, fn, parent, counts):
        """Wraps ``fn`` without a span of its own: each call made directly
        under a span named ``parent`` adds ``counts(out)`` to its attrs."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if stack and spans[stack[-1]][0] == parent:
                attrs = spans[stack[-1]][5]
                for key, n in counts(out).items():
                    attrs[key] = attrs.get(key, 0) + n
            return out
        return wrapper


def _rebind(orig, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "toricreg" or name.startswith("toricreg."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every function in ``SPANS`` wherever the package binds it."""
    for name, (module, attr, attrs, before) in SPANS.items():
        owner = importlib.import_module(f"toricreg.{module}")
        if "." in attr:  # a method: patch the class, which every caller uses
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
            setattr(owner, attr,
                    tracer.wrap(name, getattr(owner, attr), attrs, before))
        else:
            orig = getattr(owner, attr)
            _rebind(orig, tracer.wrap(name, orig, attrs, before))
    # level() builds every missing level below the one it returns, so the
    # levels built are counted where they are built
    cls = importlib.import_module("toricreg.lattice").GeneratorSet
    cls._next_level = tracer.count(cls._next_level, "lattice.level",
                                   _built_counts)
    linalg = importlib.import_module("toricreg.linalg")
    _rebind(linalg.bareiss_det, tracer.count(
        linalg.bareiss_det, GCD_SPAN, lambda out: {"minors": 1}))


# --------------------------------------------------------------------------
# spans -> per-layer metrics

#: metric -> span names whose self times it adds up
SELF_TIMES = {
    "lattice.level_s": ["lattice.level"],
    "lattice.rank_s": ["lattice.rank_array"],
    "sumsets.sigma_s": ["sumsets.sigma"],
    "sumsets.holes_s": ["sumsets.compute_holes"],
    "sumsets.step_s": ["lattice.step_equality_holds"],
    "homology.face_tables_s": ["homology.face_tables_for_level"],
    "homology.betti_s": ["homology.min_nonzero_degree",
                         "homology.betti_numbers"],
    "linalg.gcd_minors_s": [GCD_SPAN],
    "linalg.rank_s": ["linalg.bareiss_rank", "linalg.rank_mod_p"],
    "regularity.reg_s": ["regularity.reg"],
    "regularity.degree_s": ["regularity.degree"],
    "classify.classify_s": ["classify.classify"],
    "cli.load_s": ["cli.load_instance"],
}

SUMSETS_SPANS = ("sumsets.sigma", "sumsets.compute_holes")


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, total duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


def _under(spans, i, names) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except those the harness
    measures itself (import time and CPU time)."""
    own = self_times(spans)
    out = {metric: sum(own.get(n, 0.0) for n in names)
           for metric, names in SELF_TIMES.items()}
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def attrs(name):
        return [spans[i][5] for i in by_name[name]]

    levels = attrs("lattice.level")
    ranks = attrs("lattice.rank_array")
    # a span whose call raised has no attrs, hence the .get defaults
    out["lattice.levels_built"] = sum(a.get("built", 0) for a in levels)
    out["lattice.level_points"] = sum(a.get("points", 0) for a in levels)
    out["lattice.points_ranked"] = sum(a.get("rows", 0) for a in ranks)
    out["lattice.max_slice_points"] = max(
        (a.get("slice", 0) for a in ranks), default=0)
    out["sumsets.max_level"] = max(
        (spans[i][5].get("s", 0) for i in by_name["lattice.level"]
         if _under(spans, i, SUMSETS_SPANS)), default=0)
    tables = attrs("homology.face_tables_for_level")
    out["homology.face_table_rows"] = sum(a.get("rows", 0) for a in tables)
    bettis = attrs("homology.betti_numbers")
    out["homology.betti_calls"] = len(bettis)
    out["homology.betti_distinct"] = sum(a.get("new", 0) for a in bettis)
    out["linalg.minors_visited"] = sum(a.get("minors", 0)
                                       for a in attrs(GCD_SPAN))
    out["regularity.sweep_levels"] = len(tables)
    out["classify.calls"] = len(by_name["classify.classify"])
    out["cli.files"] = len(by_name["cli.load_instance"])
    return out
