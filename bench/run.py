"""Benchmark of the toricreg CLI on seeded workloads.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

For the chosen workload (every workload when ``--workload`` is left out)
this generates the instances from the seed and writes them as JSON files
(set-up, timed on its own and repeated), then runs passes until the time
budget is spent: ``--seconds``, which defaults to ``run_seconds`` of
BENCHMARK.json.  A pass is one fresh worker process that runs the
workload's CLI commands; its wall time runs from launch until its outputs
have been checked.  The end-to-end metrics are medians over passes.

With ``--trace 1`` untraced and traced passes alternate, the per-layer
metrics come from the traced ones, and ``trace.overhead_s`` is the
difference of the two median wall times.  Metric names, units and bounds
are those of BENCHMARK.json.  The last line of stdout is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
from tracer import layer_metrics  # noqa: E402
try:
    from workloads import (WORKLOADS, check, load_expected,  # noqa: E402
                           write_instances)
except ModuleNotFoundError as exc:
    if exc.name != "toricreg":
        raise
    sys.exit(f"error: no toricreg sources under {SRC}")

#: Set-up is repeated for at least this long before the first pass and
#: after every pass.  Each such slice gives one sample, its mean set-up
#: time, and ``setup_s`` is the median of the slices.  A single set-up can
#: take a millisecond, and the machine's speed changes by tens of percent
#: from one second to the next, so a slice averages out timer jitter and
#: the slices spread over the run sample its phases, as the passes do.
SETUP_SLICE_S = 0.4
#: A pass running longer than this is killed and all its instances fail.
PASS_TIMEOUT_S = 150.0


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def setup(workload, seed: int, directory: Path):
    """Generate and write the instances; returns (files, seconds)."""
    start = time.perf_counter()
    files = write_instances(workload.make(seed), directory / "instances")
    return files, time.perf_counter() - start


def setup_slice(workload, seed: int, directory: Path,
                samples: list[float]) -> list[Path]:
    """Set up at least once and for at least SETUP_SLICE_S, appending the
    mean set-up time to ``samples``."""
    spent, count = 0.0, 0
    while spent < SETUP_SLICE_S:
        files, elapsed = setup(workload, seed, directory)
        spent += elapsed
        count += 1
    samples.append(spent / count)
    return files


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the worker and return its resource usage (children included)."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.perf_counter() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.002)


def run_pass(workload, directory: Path, files: list[Path], expected,
             traced: bool) -> dict:
    spec = directory / "spec.json"
    out = directory / "out.json"
    spans = directory / "spans.json"
    spec.write_text(json.dumps({"commands": workload.commands(files)}))
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec), str(out)]
    if traced:
        cmd += ["--trace", str(spans)]

    start = time.perf_counter()
    with open(directory / "worker.stderr", "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            usage = _wait(proc, PASS_TIMEOUT_S)
        except BaseException:  # interrupted: leave no worker behind
            proc.kill()
            proc.wait()
            raise
    result = {"rss_mb": usage.ru_maxrss / 1024,
              "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0:
        report = json.loads(out.read_text())
        result["import_s"] = report["import_s"]
        result["outputs"] = report["results"]
        result["verdicts"] = check(workload, report["results"], len(files),
                                   expected)
    else:
        n = len(files)
        result["verdicts"] = [f"worker exited {proc.returncode}"] * n
    result["wall_s"] = time.perf_counter() - start
    if traced and proc.returncode == 0:
        result["layers"] = layer_metrics(json.loads(spans.read_text()))
    return result


def warm_bytecode() -> None:
    """Import once so that bytecode caches exist before anything is timed;
    CLI users do not recompile on every call."""
    subprocess.run([sys.executable, "-c", "import toricreg.cli"], cwd=ROOT,
                   env=worker_env(), stdin=subprocess.DEVNULL,
                   timeout=PASS_TIMEOUT_S)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    directory = WORK / workload.name
    setup_times: list[float] = []
    files = setup_slice(workload, seed, directory, setup_times)
    expected = load_expected(workload.name, seed)
    warm_bytecode()

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload, directory, files, expected, False))
        if trace:
            traced.append(run_pass(workload, directory, files, expected, True))
        setup_slice(workload, seed, directory, setup_times)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break

    median = statistics.median
    metrics = {"setup_s": median(setup_times),
               "wall_s": median(p["wall_s"] for p in plain),
               "peak_rss_mb": median(p["rss_mb"] for p in plain)}
    layer_runs = [p["layers"] for p in traced if "layers" in p]
    if layer_runs:
        for name in layer_runs[0]:
            values = [run[name] for run in layer_runs]
            # counts repeat exactly, and a count stays a whole number
            pick = (statistics.median_low
                    if all(isinstance(v, int) for v in values) else median)
            metrics[name] = pick(values)
        metrics["cli.import_s"] = median(p["import_s"] for p in plain
                                         if "import_s" in p)
        metrics["cli.cpu_s"] = median(p["cpu_s"] for p in plain)
        metrics["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                       - metrics["wall_s"])
    verdicts = [v for p in plain + traced for v in p["verdicts"]]
    return {"metrics": metrics, "verdicts": verdicts,
            "pass_walls": [p["wall_s"] for p in plain],
            "traced_passes": len(traced), "instances": len(files)}


def _report(name: str, run: dict, catalog: list[dict]) -> None:
    failures = [v for v in run["verdicts"] if v]
    walls = ", ".join(f"{w:.3f}" for w in run["pass_walls"])
    print(f"== {name}: {run['instances']} instances, "
          f"{len(run['pass_walls'])} passes ({walls} s), "
          f"{run['traced_passes']} traced")
    for entry in catalog:
        value = run["metrics"].get(entry["name"])
        if value is not None:
            print(f"  {entry['name']:<28} {value:12.6g} {entry['unit']}")
    attempted = len(run["verdicts"])
    print(f"  {'failed_frac':<28} {len(failures) / attempted:12.6g} "
          f"({len(failures)}/{attempted})")
    for reason in sorted(set(failures))[:5]:
        print(f"  failure: {reason}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one workload (default: all of them)")
    p.add_argument("--seed", type=int, default=0,
                   help="0 reproduces the acceptance-suite instances")
    p.add_argument("--seconds", type=float,
                   help="how long to measure (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    catalog = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {}
    for name in names:
        run = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        _report(name, run, spec["end_to_end"] + spec["per_layer"])
        results[name] = run

    metrics = {}
    for name, run in results.items():
        missing = [e["name"] for e in catalog if e["name"] not in run["metrics"]]
        if missing:
            print(f"error: {name}: no pass completed to measure {missing[0]}",
                  file=sys.stderr)
            return 1
        prefix = "" if len(results) == 1 else f"{name}/"
        for entry in catalog:
            metrics[prefix + entry["name"]] = {
                "value": run["metrics"][entry["name"]], "unit": entry["unit"]}
    verdicts = [v for run in results.values() for v in run["verdicts"]]
    failed = sum(1 for v in verdicts if v)
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
