"""Every package name the benchmark's tracer wraps must still resolve.

``bench/tracer.py`` binds these names when it installs its spans, so a
rename in the package would break ``bench/run.py --trace 1``.  The
tracer module is loaded from its file and ``install`` is not called.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for module, attr, _, _ in tracer.SPANS.values()]
    # counted without a span of their own
    return names + [("lattice", "GeneratorSet._next_level"),
                    ("linalg", "bareiss_det")]


@pytest.mark.parametrize("module,attr", _tracer_names())
def test_tracer_name_resolves(module, attr):
    obj = importlib.import_module(f"toricreg.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
