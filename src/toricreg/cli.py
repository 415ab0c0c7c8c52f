"""Command-line front end: instance I/O, analysis pipeline, generators,
and SVG plots of planar sumsets.

Exit codes: 0 success; 1 usage, I/O, validation, internal-certification
or recursion-depth errors; 2 instance outside the certified families, over
the resource cap, out of memory, or a corpus worker process that died.
All JSON documents carry schema "toric-reg/1".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from itertools import repeat
from pathlib import Path
from typing import Optional

from . import families
from .classify import OTHER, classify
from .errors import (InvalidInstanceError, PreconditionError,
                     ResourceLimitError, ToricRegError,
                     UnsupportedInstanceError)
from .homology import check_face_table_dimension
from .lattice import (DEFAULT_MAX_SLICE_SIZE, GeneratorSet, capped_slice_size,
                      hilbert_function)
from .regularity import degree, eg_check, reg
from .sumsets import sigma

SCHEMA = "toric-reg/1"
FIELDS = {"q": "q", "f2": 2, "f32003": 32003}


def load_instance(path: str, max_slice: int) -> GeneratorSet:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "d" not in data or "A" not in data:
        raise InvalidInstanceError('instance JSON needs keys "d" and "A"')
    d, points = data["d"], data["A"]
    # json.load gives int for integer literals only; bool is not accepted
    if type(d) is not int:
        raise InvalidInstanceError(f'"d" must be an integer, got {d!r}')
    if not isinstance(points, list):
        raise InvalidInstanceError(
            f'"A" must be a list of points, got {points!r}')
    for p in points:
        if not isinstance(p, list) or any(type(c) is not int for c in p):
            raise InvalidInstanceError(
                f"point {p!r} is not a list of integers")
    return GeneratorSet(d, points, max_slice)


def instance_dict(A: GeneratorSet) -> dict:
    return {"d": A.d, "A": [list(p) for p in A.points]}


def _emit(doc: dict) -> None:
    doc = {"schema": SCHEMA, **doc}
    json.dump(doc, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def analysis_bundle(A: GeneratorSet, field, cutoff: Optional[int]) -> dict:
    timings = {}

    def timed(name, fn):
        t = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t, 6)
        return out

    report = timed("classify", lambda: classify(A))
    bundle = {"instance": instance_dict(A),
              "classification": report.to_json_dict()}
    if report.verdict == OTHER:
        bundle["sigma"] = None
        rr = timed("reg", lambda: reg(A, report, field=field, cutoff=cutoff))
    else:
        # refuse what reg would refuse before sigma builds a level
        check_face_table_dimension((report.reduced or report.instance).d)
        sr = timed("sigma", lambda: sigma(A, report))
        bundle["sigma"] = sr.to_json_dict()
        rr = timed("reg", lambda: reg(A, report, sr, field=field))
    bundle["regularity"] = rr.to_json_dict()
    dr = timed("degree", lambda: degree(A, report))
    bundle["degree"] = dr.to_json_dict()
    bundle["eisenbud_goto"] = timed(
        "eg_check", lambda: eg_check(A, report, rr, dr))
    bundle["timings"] = timings
    return bundle


def _colex(points) -> list[tuple[int, ...]]:
    """Rows of an int array as tuples, last coordinate most significant."""
    return sorted(map(tuple, points.tolist()), key=lambda p: p[::-1])


def plot_svg(A: GeneratorSet, s: int) -> str:
    """Filled circles for sA, hollow squares for the rest of the slice."""
    if A.d != 2:
        raise UnsupportedInstanceError("plots are only available for d = 2")
    lvl = A.level(s)
    marks = [(p, True) for p in map(tuple, lvl.points.tolist())]
    marks += [(p, False) for p in map(tuple, lvl.gaps().tolist())]
    marks.sort(key=lambda mark: mark[0][::-1])  # colex
    scale, margin, r = 24, 30, 5
    size = 2 * margin + scale * max(s * A.D, 1)

    def xy(p):
        return margin + scale * p[0], size - margin - scale * p[1]

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">',
           f'<text x="{margin}" y="16" font-size="12">'
           f's={s}, |sA|={lvl.cardinality}, slice={len(marks)}</text>']
    for p, member in marks:
        x, y = xy(p)
        if member:
            out.append(f'<circle cx="{x}" cy="{y}" r="{r}" fill="black"/>')
        else:
            out.append(f'<rect x="{x - r}" y="{y - r}" width="{2 * r}" '
                       f'height="{2 * r}" fill="none" stroke="black"/>')
    out.append("</svg>")
    return "\n".join(out)


def generate(family: str, d: int, D: int, e: Optional[int],
             extras: Optional[int], seed: int) -> GeneratorSet:
    rng = random.Random(seed)
    if family == "veronese":
        return families.veronese(d, D)
    if family == "minimal-smooth":
        return families.minimal_smooth(d, D)
    if family == "smooth-random":
        return families.smooth_random_superset(d, D, rng, extras)
    if family == "one-singular":
        if e is None:
            raise PreconditionError("one-singular generation needs --e")
        if extras == 0:
            return families.one_singular_base(d, D, e)
        return families.one_singular_random(d, D, e, rng, extras)
    if family == "sextic-surface":
        return families.sextic_surface()
    raise PreconditionError(f"unknown family {family!r}")


def _corpus_row(path: Path, field, cutoff: Optional[int],
                max_slice: int) -> list:
    """The CSV row of one instance file; a verdict-Other instance without
    a cutoff keeps its analysis columns blank."""
    A = load_instance(str(path), max_slice)
    try:
        bundle = analysis_bundle(A, field, cutoff)
    except UnsupportedInstanceError:
        return [path.name, A.d, A.D, A.e, OTHER, "", "", "", "", "", ""]
    sg = (bundle["sigma"] or {}).get("sigma", "")
    rg = bundle["regularity"]["reg"]
    eg = bundle["eisenbud_goto"]
    return [path.name, A.d, A.D, bundle["classification"]["e"],
            bundle["classification"]["verdict"], sg, rg,
            bundle["degree"]["degree"], bundle["degree"]["codim"],
            eg["bound"] - eg["reg"], rg - sg if sg != "" else ""]


def run_corpus(directory: str, field, cutoff: Optional[int],
               max_slice: int, threads: Optional[int] = None) -> str:
    """The corpus CSV, rows in sorted-filename order.  Files are analyzed
    in min(threads, cpu count, file count) forked worker processes, or in
    this process when that is at most 1; the CSV, and the first failing
    file in sorted order, are the same either way."""
    paths = sorted(Path(directory).glob("*.json"))
    args = (paths, repeat(field), repeat(cutoff), repeat(max_slice))
    workers = min(threads or 1, os.cpu_count() or 1, len(paths))
    if workers <= 1:
        rows = list(map(_corpus_row, *args))
    else:
        # imported here: a command that never forks pays no import for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # fork, named since the default start method varies by Python
        # version: workers inherit the imported numpy and package, where
        # spawn would import them again in each.  All workers are forked
        # at the first submit, before the pool starts its manager thread.
        # Chunks of one file balance a per-file cost that varies tenfold.
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"))
        try:
            rows = list(pool.map(_corpus_row, *args))
        except BrokenProcessPool as exc:
            raise ResourceLimitError(f"a corpus worker died: {exc}") from exc
        finally:
            pool.shutdown(cancel_futures=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["file", "d", "D", "e", "verdict", "sigma", "reg",
                     "degree", "codim", "eg_slack", "reg_sigma_gap"])
    writer.writerows(rows)
    return buf.getvalue()


GLOBAL_DEFAULTS = {"field": "q", "cutoff": None, "threads": None,
                   "max_slice": DEFAULT_MAX_SLICE_SIZE, "seed": 0}


class _Parser(argparse.ArgumentParser):
    """Usage errors follow the exit-code contract: ``main`` reports them
    as one ``error:`` line and exits 1.  Subparsers inherit the class."""

    def error(self, message):
        raise PreconditionError(message)


def _common_options() -> argparse.ArgumentParser:
    # SUPPRESS keeps subcommand-position flags from clobbering ones given
    # before the subcommand; missing values are filled in after parsing.
    c = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    c.add_argument("--field", choices=sorted(FIELDS),
                   help="coefficient field for homology ranks (default q)")
    c.add_argument("--cutoff", type=int,
                   help="enumeration level for uncertified instances")
    c.add_argument("--threads", type=int,
                   help="worker processes for corpus (default 1); other "
                        "commands ignore it")
    c.add_argument("--max-slice", type=int,
                   help="cap on lattice points per simplex slice")
    c.add_argument("--seed", type=int,
                   help="PRNG seed for instance generation (default 0)")
    return c


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    p = _Parser(
        prog="toric-reg",
        parents=[common],
        description="Exact sumset and regularity analysis of simplicial "
                    "projective toric varieties")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def with_instance(name, **kw):
        sp = add_parser(name, **kw)
        sp.add_argument("instance", help="path to an instance JSON file")
        return sp

    with_instance("analyze", help="full pipeline, JSON bundle on stdout")
    sp = with_instance("sumset", help="list or count the s-fold sumset")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--count", action="store_true",
                    help="emit the cardinality only")
    sp = with_instance("hilbert", help="table of |sA| for s = 0..s-max")
    sp.add_argument("--s-max", type=int, required=True)
    with_instance("sigma", help="sumsets regularity with certificates")
    with_instance("reg", help="Castelnuovo-Mumford regularity")
    with_instance("degree", help="degree via gcd of maximal minors")
    with_instance("eg-check", help="Eisenbud-Goto bound verdict")
    sp = with_instance("plot", help="SVG of sA against its slice (d = 2)")
    sp.add_argument("--s", type=int, required=True)

    sp = add_parser("gen", help="emit a generated instance as JSON")
    sp.add_argument("family", choices=["veronese", "minimal-smooth",
                                       "smooth-random", "one-singular",
                                       "sextic-surface"])
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--D", type=int, default=4)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--extras", type=int, default=None)

    sp = add_parser("corpus", help="analyze a directory, CSV on stdout")
    sp.add_argument("directory")
    return p


def _dispatch(args) -> int:
    if args.cutoff is not None and args.cutoff < 0:
        raise PreconditionError(f"--cutoff must be >= 0 (got {args.cutoff})")
    if args.threads is not None and args.threads < 1:
        raise PreconditionError(
            f"--threads must be >= 1 (got {args.threads})")
    if args.max_slice < 1:
        raise PreconditionError(
            f"--max-slice must be >= 1 (got {args.max_slice})")
    field = FIELDS[args.field]
    if args.command == "gen":
        # these families list slice(1), with their e, before the set is
        # built: a request that passes the family's own checks is held to
        # the cap first
        e = args.e if args.family == "one-singular" else 1
        if (args.family in ("veronese", "smooth-random", "one-singular")
                and args.d >= 1 and args.D >= 2 and e is not None
                and e >= 1 and args.D % e == 0):
            capped_slice_size(args.d, args.D, 1, e, args.max_slice)
        A = generate(args.family, args.d, args.D, args.e, args.extras,
                     args.seed)
        _emit(instance_dict(A))
        return 0
    if args.command == "corpus":
        sys.stdout.write(run_corpus(args.directory, field, args.cutoff,
                                    args.max_slice, args.threads))
        return 0

    A = load_instance(args.instance, args.max_slice)
    if args.command == "analyze":
        _emit(analysis_bundle(A, field, args.cutoff))
    elif args.command == "sumset":
        lvl = A.level(args.s)
        doc = {"s": args.s, "count": lvl.cardinality}
        if not args.count:
            doc["points"] = [list(p) for p in _colex(lvl.points)]
        _emit(doc)
    elif args.command == "hilbert":
        _emit({"values": hilbert_function(A, args.s_max)})
    elif args.command == "sigma":
        _emit(sigma(A).to_json_dict())
    elif args.command == "reg":
        _emit(reg(A, field=field, cutoff=args.cutoff).to_json_dict())
    elif args.command == "degree":
        _emit(degree(A).to_json_dict())
    elif args.command == "eg-check":
        report = classify(A)
        rr = reg(A, report, field=field, cutoff=args.cutoff)
        _emit(eg_check(A, report, rr))
    elif args.command == "plot":
        sys.stdout.write(plot_svg(A, args.s) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for key, value in GLOBAL_DEFAULTS.items():
            if not hasattr(args, key):
                setattr(args, key, value)
        return _dispatch(args)
    except (UnsupportedInstanceError, ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except (ToricRegError, OSError, json.JSONDecodeError, ValueError,
            RecursionError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
