"""Seeded workloads of the toricreg benchmark.

Each workload knows how to generate its instances from a seed, which CLI
commands run them, and how to check what those commands printed.  Seed
``DEFAULT_SEED`` reproduces the instances of ``tests/test_acceptance.py``
exactly, and only for that seed are outputs compared with
``expected.json``.  Any other seed regenerates the same families, cell by
cell, with the same number of generators per instance, so it serves as a
holdout; its outputs are held to the paper's invariants alone.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from toricreg import families
from toricreg.classify import ONE_SINGULAR, SMOOTH
from toricreg.lattice import GeneratorSet

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Leading instances of the criterion-6 (3, 6, 2) sample in singular-window.
#: One instance keeps a pass near 8 s, so a 30 s run holds three passes.
SINGULAR_WINDOW_COUNT = 1
#: Instances per criterion-6 cell, as in the acceptance suite.
CELL_COUNT = 20


def _acceptance_cell_seed(d: int, D: int, e: int) -> int:
    return 1000 * d + 10 * D + e


def _holdout_rng(seed: int, *tag) -> random.Random:
    return random.Random("/".join(map(str, (seed,) + tag)))


def singular_cell(d: int, D: int, e: int, count: int,
                  seed: int) -> list[GeneratorSet]:
    """The first ``count`` instances of a criterion-6 cell.

    Off the default seed, instance i keeps the generator count of the
    acceptance instance i, so the work per instance stays comparable.
    """
    rng = random.Random(_acceptance_cell_seed(d, D, e))
    default = [families.one_singular_random(d, D, e, rng)
               for _ in range(count)]
    if seed == DEFAULT_SEED:
        return default
    base = len(families.one_singular_base_points(d, D, e))
    rng = _holdout_rng(seed, d, D, e)
    return [families.one_singular_random(d, D, e, rng, len(A.points) - base)
            for A in default]


def smooth_corpus(seed: int) -> list[GeneratorSet]:
    """The criterion-5 smooth corpus of the acceptance suite."""
    out = [families.minimal_smooth(d, D)
           for d in (1, 2, 3) for D in (3, 4, 5)]
    out += [families.veronese(d, D) for d in (1, 2, 3) for D in (2, 3, 4, 5)]
    cells = [(d, D) for d in (1, 2, 3) for D in (3, 4, 5)]
    rng = random.Random(20240801)
    default = [families.smooth_random_superset(*cells[i % len(cells)], rng)
               for i in range(20)]
    if seed == DEFAULT_SEED:
        return out + default
    rng = _holdout_rng(seed, "smooth")
    for i, A in enumerate(default):
        d, D = cells[i % len(cells)]
        extras = len(A.points) - len(families.minimal_smooth_points(d, D))
        out.append(families.smooth_random_superset(d, D, rng, extras))
    return out


def _singular_window(seed: int) -> list[GeneratorSet]:
    return singular_cell(3, 6, 2, SINGULAR_WINDOW_COUNT, seed)


def _smooth_frontier(seed: int) -> list[GeneratorSet]:
    # Closed-form families, so every seed gives the same three instances.
    return [families.veronese(4, 3), families.minimal_smooth(3, 6),
            families.veronese(3, 6)]


def _corpus_small(seed: int) -> list[GeneratorSet]:
    out = smooth_corpus(seed)
    for d in (2, 3):
        for D in (4, 6):
            for e in (2, D):
                if (d, D, e) != (3, 6, 2):
                    out += singular_cell(d, D, e, CELL_COUNT, seed)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], list[GeneratorSet]]
    corpus: bool  # one `corpus` command over all files, else one `analyze` each

    def commands(self, files: list[Path]) -> list[list[str]]:
        if self.corpus:
            return [["corpus", str(files[0].parent), "--threads", "2"]]
        return [["analyze", str(f)] for f in files]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("singular-window", _singular_window, corpus=False),
    Workload("smooth-frontier", _smooth_frontier, corpus=False),
    Workload("corpus-small", _corpus_small, corpus=True),
]}


def write_instances(instances: list[GeneratorSet], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.json"):
        old.unlink()
    files = []
    for i, A in enumerate(instances):
        path = directory / f"{i:03d}.json"
        path.write_text(json.dumps({"d": A.d, "A": [list(p) for p in A.points]}))
        files.append(path)
    return files


# --------------------------------------------------------------------------
# output checks


def comparable(bundle: dict) -> dict:
    """The part of an analyze bundle that must repeat exactly: everything
    but ``timings`` and ``sigma.window_verified``, whose meaning is allowed
    to change."""
    out = {k: v for k, v in bundle.items() if k != "timings"}
    if out.get("sigma"):
        out["sigma"] = {k: v for k, v in out["sigma"].items()
                        if k != "window_verified"}
    return out


def sigma_bounds(d: int, D: int, e: int, smooth: bool) -> tuple[int, int]:
    """(lower, upper) from the paper's closed forms, independently of the
    program's own bounds."""
    lower = -(-(d * D - (d + e - 1)) // D)
    if D == 2:
        upper = d - d // 2 if smooth else -((1 - d) // 2)
    elif smooth:
        upper = d * (D - 2)
    else:
        upper = (D // e) * ((D - 2) * (d - 1) + D // e - 2)
    return lower, upper


def invariant_problems(d: int, D: int, e: int, verdict: str, sigma: int,
                       reg: int, degree: int, eg_holds: bool) -> list[str]:
    """The paper's invariants for one smooth or one-singular instance."""
    problems = []
    if verdict not in (SMOOTH, ONE_SINGULAR):
        return [f"verdict {verdict!r} outside the certified families"]
    smooth = verdict == SMOOTH
    lower, upper = sigma_bounds(d, D, e, smooth)
    if not lower <= sigma <= upper:
        problems.append(f"sigma {sigma} outside [{lower}, {upper}]")
    if smooth and reg != sigma:
        problems.append(f"smooth but reg {reg} != sigma {sigma}")
    if not smooth:
        if reg > sigma + 1:
            problems.append(f"reg {reg} > sigma + 1 = {sigma + 1}")
        if degree * e != D ** d:
            problems.append(f"degree {degree} * e {e} != D^d = {D ** d}")
        if d >= 3 and not eg_holds:
            problems.append("Eisenbud-Goto fails with d >= 3")
    return problems


def _bundle_problems(bundle: dict) -> list[str]:
    inst = bundle["instance"]
    cls = bundle["classification"]
    return invariant_problems(
        inst["d"], max(sum(p) for p in inst["A"]), cls["e"], cls["verdict"],
        bundle["sigma"]["sigma"], bundle["regularity"]["reg"],
        bundle["degree"]["degree"], bundle["eisenbud_goto"]["holds"])


def _row_problems(row: dict) -> list[str]:
    return invariant_problems(
        int(row["d"]), int(row["D"]), int(row["e"]), row["verdict"],
        int(row["sigma"]), int(row["reg"]), int(row["degree"]),
        int(row["eg_slack"]) >= 0)


def check_analyze(outputs: list[dict],
                  expected: Optional[list]) -> list[Optional[str]]:
    """One entry per instance: None when it passed, else the reason."""
    verdicts = []
    for i, out in enumerate(outputs):
        if out["rc"] != 0:
            verdicts.append(f"exit {out['rc']}: {out['stderr'].strip()}")
            continue
        try:
            bundle = json.loads(out["stdout"])
            problems = _bundle_problems(bundle)
        except (ValueError, KeyError, TypeError) as exc:
            verdicts.append(f"malformed bundle: {exc!r}")
            continue
        if expected is not None and comparable(bundle) != expected[i]:
            problems.append("bundle differs from expected.json")
        verdicts.append("; ".join(problems) or None)
    return verdicts


def check_corpus(outputs: list[dict], n_files: int,
                 expected: Optional[str]) -> list[Optional[str]]:
    """One entry per corpus file: None when its row passed, else why."""
    (out,) = outputs
    if out["rc"] != 0:
        return [f"exit {out['rc']}: {out['stderr'].strip()}"] * n_files
    text = out["stdout"]
    try:
        rows = {r["file"]: r for r in csv.DictReader(io.StringIO(text))}
        want = (None if expected is None else
                {r["file"]: r for r in csv.DictReader(io.StringIO(expected))})
    except csv.Error as exc:
        return [f"malformed CSV: {exc}"] * n_files
    verdicts = []
    for i in range(n_files):
        name = f"{i:03d}.json"
        row = rows.get(name)
        if row is None:
            verdicts.append("row missing")
            continue
        try:
            problems = _row_problems(row)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"malformed row: {exc!r}"]
        if want is not None and row != want.get(name):
            problems.append("row differs from expected.json")
        verdicts.append("; ".join(problems) or None)
    if expected is not None and text != expected and not any(verdicts):
        # rows agree, so the difference is in the header or the framing
        verdicts = ["CSV differs from expected.json byte for byte"] * n_files
    return verdicts


def check(workload: Workload, outputs: list[dict], n_files: int,
          expected) -> list[Optional[str]]:
    if workload.corpus:
        return check_corpus(outputs, n_files, expected)
    return check_analyze(outputs, expected)


def load_expected(name: str, seed: int):
    """Expected outputs of a workload, or None off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_PATH.read_text())[name]
