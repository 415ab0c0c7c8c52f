"""Every package name the benchmark's tracer wraps must still resolve.

``bench/tracer.py`` binds these names when it installs its spans, so a
rename in the package would break ``bench/run.py --trace 1``.  The
tracer module is loaded from its file and ``install`` is not called,
except in the traced pass at the end, which runs in a subprocess.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricreg.families import veronese

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_names():
    names = [(module, attr)
             for module, attr, _, _ in _load_tracer().SPANS.values()]
    # counted without a span of their own
    return names + [("lattice", "GeneratorSet._next_level"),
                    ("linalg", "bareiss_det")]


@pytest.mark.parametrize("module,attr", _tracer_names())
def test_tracer_name_resolves(module, attr):
    obj = importlib.import_module(f"toricreg.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_traced_pass_counts_homology(tmp_path):
    # a quartic analyze through the benchmark worker: the homology cache
    # must not turn the homology and rank metrics into a constant 0
    spec, out, spans = (tmp_path / n for n in ("spec", "out", "spans"))
    quartic = ROOT / "tests" / "golden" / "corpus_instances" / "quartic.json"
    spec.write_text(json.dumps({"commands": [["analyze", str(quartic)]]}))
    subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"),
                    str(spec), str(out), "--trace", str(spans)],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, timeout=120)
    assert [r["rc"] for r in json.loads(out.read_text())["results"]] == [0]
    metrics = _load_tracer().layer_metrics(json.loads(spans.read_text()))
    assert metrics["linalg.rank_s"] > 0
    # the face-table counts read the tables' rows, not a constant 0
    assert metrics["homology.face_table_rows"] > 0
    assert metrics["regularity.sweep_levels"] > 0
    assert metrics["homology.betti_calls"] == metrics[
        "homology.betti_distinct"] > 0


def test_max_level_follows_sigmas_window(tmp_path):
    # sigma builds no level above the one where the gaps become final,
    # the end of its window: 2 for veronese(2, 3)
    spec, out, spans, instance = (tmp_path / n for n in (
        "spec", "out", "spans", "veronese.json"))
    instance.write_text(json.dumps(
        {"d": 2, "A": [list(p) for p in veronese(2, 3).points]}))
    spec.write_text(json.dumps({"commands": [["analyze", str(instance)]]}))
    subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"),
                    str(spec), str(out), "--trace", str(spans)],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, timeout=120)
    [result] = json.loads(out.read_text())["results"]
    assert result["rc"] == 0, result["stderr"]
    window = json.loads(result["stdout"])["sigma"]["window_verified"]
    metrics = _load_tracer().layer_metrics(json.loads(spans.read_text()))
    assert metrics["sumsets.max_level"] == window[1] == 2


def test_worker_runs_corpus_in_a_pool(tmp_path):
    # the corpus-small path: cli.main in the worker process, stdout
    # redirected to a StringIO, files analyzed by forked pool workers
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    golden = ROOT / "tests" / "golden"
    for f in (golden / "corpus_instances").glob("*.json"):
        (corpus / f.name).write_text(f.read_text())
    spec, out = tmp_path / "spec", tmp_path / "out"
    spec.write_text(json.dumps(
        {"commands": [["corpus", str(corpus), "--threads", "2"]]}))
    subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"),
                    str(spec), str(out)],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, timeout=120)
    [result] = json.loads(out.read_text())["results"]
    assert result["rc"] == 0, result["stderr"]
    assert result["stdout"] == (golden / "corpus.csv").read_text()
