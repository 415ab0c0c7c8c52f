"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named ``<name>.<k>.json``, whose
last line is the JSON result of a ``--trace 0`` run of bench/run.py (its
stdout can be saved as is).  A run of one workload (``--workload W``) has
plain metric names and ``<name>`` is the workload; a run of every workload
has names ``<workload>/<metric>``.  The results of one workload with the
same k on both sides form a pair; run the two sides of a pair back to back
and alternate which side runs first.

For every workload and every end-to-end metric of BENCHMARK.json:

* regression: the change's median is worse than the parent's by more
  than the bound;
* unresolved: the parent's interquartile spread, as a share of its
  median, is wider than the metric's bound, and not every change run
  beats every parent run, so a gain or a slowdown cannot be judged;
* gain: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile spread;
* slower: the same test the other way round; the change is worse, but
  by no more than the bound, so it is flagged and still accepted;
* same: none of the above.

Prints one row per workload, then the verdict: "rejected" (exit 1) when
any metric regressed or the change failed more instances than the parent,
else "not judged" with the unresolved metrics (exit 3) when there are
any, else "accepted" (exit 0).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_results(directory: Path, names: list[str]):
    """workload -> k -> metric -> value, and the failed instances summed
    over the directory's runs."""
    runs: dict[str, dict[str, dict]] = defaultdict(dict)
    failed = 0
    for path in sorted(directory.glob("*.json")):
        stem, _, k = path.stem.rpartition(".")
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        result = json.loads(lines[-1])
        failed += result["failed"]
        metrics: dict[str, dict] = defaultdict(dict)
        for key, m in result["metrics"].items():
            workload, _, name = key.rpartition("/")
            metrics[workload or stem][name] = m["value"]
        for workload, values in metrics.items():
            missing = [n for n in names if n not in values]
            if missing:
                sys.exit(f"error: {path} has no {missing[0]} for "
                         f"{workload}; compare runs made with --trace 0")
            if k in runs[workload]:
                sys.exit(f"error: {path} repeats run {k} of {workload}")
            runs[workload][k] = values
    return runs, failed


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, dict]:
    sign = 1 if better == "lower" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4)
    else:
        q1 = q3 = parent[0]
    spread = (q3 - q1) / abs(mp)
    worse = sign * (mc - mp) / abs(mp)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    beats_all = (max(change) < min(parent) if sign > 0
                 else min(change) > max(parent))
    stats = {"parent": mp, "change": mc, "worse": worse, "spread": spread,
             "wins": wins, "pairs": len(parent)}
    if worse > bound:
        return "regression", stats
    if spread > bound and not beats_all:
        return "unresolved", stats
    if wins >= 0.9 * len(parent) and sign * (mp - mc) > q3 - q1:
        return "gain", stats
    if losses >= 0.9 * len(parent) and sign * (mc - mp) > q3 - q1:
        return "slower", stats
    return "same", stats


def compare(parent_dir: Path, change_dir: Path,
            spec: dict) -> tuple[list[str], str]:
    """Rows of the report, and the verdict on the change."""
    names = [m["name"] for m in spec["end_to_end"]]
    parent, p_failed = read_results(parent_dir, names)
    change, c_failed = read_results(change_dir, names)
    rows, ok, unjudged = [], True, []
    for workload in sorted(set(parent) | set(change)):
        keys = sorted(set(parent[workload]) & set(change[workload]))
        if not keys:
            rows.append(f"{workload}: no paired runs")
            ok = False
            continue
        p_runs = [parent[workload][k] for k in keys]
        c_runs = [change[workload][k] for k in keys]
        cells = [f"{workload} ({len(keys)} pairs)"]
        for m in spec["end_to_end"]:
            name = m["name"]
            result, s = verdict([r[name] for r in p_runs],
                                [r[name] for r in c_runs],
                                m["better"], m["bound"])
            ok = ok and result != "regression"
            if result == "unresolved":
                unjudged.append(f"{workload}/{name}")
            cells.append(f"{name}: {result} ({s['parent']:.4g} -> "
                         f"{s['change']:.4g} {m['unit']}, "
                         f"{s['worse']:+.1%} worse, spread {s['spread']:.1%}, "
                         f"bound {m['bound']:.0%}, wins {s['wins']}/"
                         f"{s['pairs']})")
        rows.append("\n  ".join(cells))
    rows.append(f"failed instances: {p_failed} -> {c_failed}")
    if not ok or c_failed > p_failed:
        return rows, "rejected"
    if unjudged:
        return rows, "not judged: " + ", ".join(unjudged)
    return rows, "accepted"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    rows, outcome = compare(Path(argv[0]), Path(argv[1]), spec)
    print("\n".join(rows))
    print(outcome)
    return {"accepted": 0, "rejected": 1}.get(outcome, 3)


if __name__ == "__main__":
    sys.exit(main())
