import ast
import random
from pathlib import Path

import pytest

from toricreg import PreconditionError, oracle
from toricreg.oracle import (homology_recheck, naive_member,
                             naive_minimal_generators, naive_sumset)


def package_imports(source: str) -> set[str]:
    """Modules of the toricreg package that a module at its top imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package
                module = f"toricreg.{module}" if module else "toricreg"
            names = ([f"toricreg.{alias.name}" for alias in node.names]
                     if module == "toricreg" else [module])
        else:
            continue
        found.update(n for n in names
                     if n == "toricreg" or n.startswith("toricreg."))
    return found


#: The slice-rank machinery of ``lattice``, which no other module may use.
RANK_NAMES = {"SimplexSlice", "rank_array", "unrank", "_shell", "_apery",
              "_gaps", "_filled", "_stable"}


def rank_uses(source: str) -> set[str]:
    """Rank names a module's code refers to, and ".slice(" for a call of a
    ``slice`` method; docstrings and comments do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "slice"):
            found.add(".slice(")
    return found & (RANK_NAMES | {".slice("})


def private_lattice_names(source: str) -> set[str]:
    """``_``-prefixed names a module takes from ``lattice``: imported from
    it, or read as attributes of it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "lattice"):
            found.update(a.name for a in node.names
                         if a.name.startswith("_"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "lattice" and node.attr.startswith("_")):
            found.add(node.attr)
    return found


class TestRanksStayInLattice:
    def test_rank_checker(self):
        assert rank_uses("pts = A.slice(s - 2).unrank(gaps)") == {
            ".slice(", "unrank"}
        assert rank_uses("from .lattice import _gaps, SimplexSlice") == {
            "_gaps", "SimplexSlice"}
        assert rank_uses('"""unrank through A._filled"""\nx = lvl.gaps()') \
            == set()

    def test_private_name_checker(self):
        assert private_lattice_names(
            "from .lattice import _BATCH_ROWS, GeneratorSet") == {
            "_BATCH_ROWS"}
        assert private_lattice_names(
            "from toricreg.lattice import _UNSEEN") == {"_UNSEEN"}
        assert private_lattice_names(
            "from . import lattice\nn = lattice._BATCH_ROWS") == {
            "_BATCH_ROWS"}
        assert private_lattice_names(
            "from .lattice import GeneratorSet\nA._first") == set()

    def test_no_module_takes_a_private_lattice_name(self):
        package = Path(oracle.__file__).parent
        found = {path.name: private_lattice_names(path.read_text())
                 for path in sorted(package.glob("*.py"))
                 if path.name != "lattice.py"}
        assert {name: names for name, names in found.items() if names} == {}

    def test_only_lattice_handles_ranks(self):
        package = Path(oracle.__file__).parent
        uses = {path.name: rank_uses(path.read_text())
                for path in sorted(package.glob("*.py"))
                if path.name != "lattice.py"}
        assert {name: found for name, found in uses.items() if found} == {}


class TestIndependence:
    def test_import_checker(self):
        assert package_imports("from .errors import X") == {"toricreg.errors"}
        assert package_imports("from . import lattice") == {"toricreg.lattice"}
        assert package_imports(
            "import numpy\nfrom toricreg.homology import build_T"
        ) == {"toricreg.homology"}

    def test_oracle_imports_only_errors(self):
        source = Path(oracle.__file__).read_text()
        assert package_imports(source) <= {"toricreg.errors"}


class TestNaiveSumset:
    def test_trivial_levels(self):
        pts = [(0, 0), (2, 0), (0, 2), (1, 1)]
        assert naive_sumset(pts, 0) == {(0, 0)}
        assert naive_sumset(pts, 1) == set(pts)

    def test_level_two(self, quartic):
        out = naive_sumset(quartic.points, 2)
        assert (1, 1) not in out
        assert (3, 1) in out and (6, 2) in out
        assert len(out) == 24

    def test_even_sextic_level_two_misses_3_9(self, even_sextic):
        assert (3, 9) not in naive_sumset(even_sextic.points, 2)

    def test_caps(self):
        with pytest.raises(PreconditionError):
            naive_sumset([(0,), (1,)], 7)


class TestNaiveMember:
    def test_basics(self, quartic):
        assert naive_member(quartic.points, (0, 0))
        assert not naive_member(quartic.points, (1, 1))
        assert naive_member(quartic.points, (5, 1))  # (2,0)+(3,1)

    def test_negative_coordinates(self):
        assert not naive_member([(0, 0), (1, 0)], (-1, 0))

    def test_cap(self):
        with pytest.raises(PreconditionError):
            naive_member([(0,), (1,)], (1000,))

    def test_monomial_curve(self):
        # numerical semigroup <3, 5>: gaps are 1, 2, 4, 7
        gens = [(3,), (5,)]
        gaps = {n for n in range(20) if not naive_member(gens, (n,))}
        assert gaps == {1, 2, 4, 7}

    def test_minimal_generators(self):
        # 6 = 3 + 3 and 8 = 3 + 5; the zero vector and repeats drop out
        gens = [(0,), (3,), (5,), (6,), (8,), (3,)]
        assert naive_minimal_generators(gens) == {(3,), (5,)}


class TestHomologyRecheck:
    def test_hollow_triangle(self):
        faces = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        assert homology_recheck(faces, 2)[1] == 1

    def test_full_simplex(self):
        faces = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        assert all(b == 0 for b in homology_recheck(faces, 2).values())

    def test_sphere(self):
        import itertools
        faces = [f for k in range(4)
                 for f in itertools.combinations(range(4), k)]
        assert homology_recheck(faces, 32003)[2] == 1

    def test_empty_face_only(self):
        assert homology_recheck([()], 2)[-1] == 1
