"""Every exported name must resolve, so a deleted function cannot leave a
dangling entry in ``toricreg.__all__``, and every imported name must be
used, so a deleted use cannot leave a dead import behind.  Importing
the package also caps OpenBLAS at one thread unless told otherwise."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricreg


def test_all_names_resolve_once():
    names = toricreg.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(toricreg, name), name


def test_star_import():
    namespace = {}
    exec("from toricreg import *", namespace)
    assert set(toricreg.__all__) <= set(namespace)


@pytest.mark.parametrize("given,expected", [(None, "1"), ("3", "3")])
def test_import_limits_openblas_threads(given, expected):
    # the package does no float linear algebra: an OpenBLAS thread pool
    # is one thread by default, and an explicit setting is kept
    env = dict(os.environ, PYTHONPATH=str(Path(toricreg.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = subprocess.run(
        [sys.executable, "-c", "import os, toricreg; "
         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env, check=True,
        timeout=60).stdout
    assert out == expected + "\n"


def unused_imports(source: str) -> set[str]:
    """Names a module imports, anywhere in it, and never reads.  Names
    listed in ``__all__`` count as read; ``__future__`` imports do not
    bind a name."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return bound - read


def test_unused_import_checker():
    assert unused_imports("from __future__ import annotations\n"
                          "import numpy as np\nimport importlib.util\n"
                          "from typing import Optional\n"
                          "x: Optional[int] = np.sum(importlib.util)") == set()
    assert unused_imports("from typing import Optional, Union\n"
                          "def f(x: Union[int, str]):\n"
                          "    import os\n    return x") == {"Optional", "os"}
    assert unused_imports("from .lattice import unit\n__all__ = ['unit']"
                          ) == set()


def test_no_module_imports_a_name_it_never_uses():
    package = Path(toricreg.__file__).parent
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}
