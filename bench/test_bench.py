"""Tests of the benchmark itself: python -m pytest bench"""

import copy
import json

import pytest

import compare
import run
from toricreg import families
from workloads import Workload, comparable, write_instances


def _quartic(seed):
    return [families.quartic_singular_surface()]


@pytest.fixture
def quartic_pass(tmp_path):
    """Run a one-instance analyze pass; returns a function of the expected
    outputs giving the pass result."""
    workload = Workload("tiny", _quartic, corpus=False)
    files = write_instances(_quartic(0), tmp_path / "instances")

    def run_with(expected, traced=False):
        return run.run_pass(workload, tmp_path, files, expected, traced)
    return run_with


def test_matching_expected_passes_and_traces(quartic_pass):
    first = quartic_pass(None, traced=True)
    assert first["verdicts"] == [None]
    assert first["layers"]["cli.files"] == 1
    # levels 0..max_level are all built, also those level() builds on
    # the way to a higher one without returning them
    layers = first["layers"]
    assert layers["lattice.levels_built"] >= layers["sumsets.max_level"] + 1
    expected = [comparable(json.loads(first["outputs"][0]["stdout"]))]
    assert quartic_pass(expected)["verdicts"] == [None]


def test_tampered_expected_sigma_fails(quartic_pass):
    bundle = json.loads(quartic_pass(None)["outputs"][0]["stdout"])
    tampered = copy.deepcopy(comparable(bundle))
    tampered["sigma"]["sigma"] += 1
    verdicts = quartic_pass([tampered])["verdicts"]
    failed_frac = sum(1 for v in verdicts if v) / len(verdicts)
    assert failed_frac > 0


def test_tampered_corpus_csv_fails(tmp_path):
    workload = Workload("tiny-corpus", _quartic, corpus=True)
    files = write_instances(_quartic(0), tmp_path / "instances")
    good = run.run_pass(workload, tmp_path, files, None, False)
    text = good["outputs"][0]["stdout"]
    assert run.run_pass(workload, tmp_path, files, text, False)["verdicts"] \
        == [None]
    bad = run.run_pass(workload, tmp_path, files, text + "\n", False)
    assert bad["verdicts"][0]


def _metrics(k, wall, setup):
    return {"wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": 540.0 + 0.1 * k, "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"}}


def _write_runs(directory, wall_values, setup_values=None,
                workloads=("singular-window",), name=None):
    """One result file per run; with several workloads, each file holds
    all of them, as a run without --workload prints."""
    directory.mkdir()
    for k, wall in enumerate(wall_values):
        setup = setup_values[k] if setup_values else 0.01 + 1e-5 * k
        if len(workloads) == 1:
            metrics = _metrics(k, wall, setup)
        else:
            metrics = {f"{w}/{m}": v for w in workloads
                       for m, v in _metrics(k, wall, setup).items()}
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": metrics}
        (directory / f"{name or workloads[0]}.{k}.json").write_text(
            "some report line\n" + json.dumps(result) + "\n")


PARENT_WALL = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0]


def test_compare_accepts_identical_sets(tmp_path, capsys):
    _write_runs(tmp_path / "parent", PARENT_WALL)
    _write_runs(tmp_path / "change", PARENT_WALL)
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == 0
    out = capsys.readouterr().out
    assert "regression" not in out and "wall_s: same" in out


def test_compare_flags_wall_regression(tmp_path, capsys):
    _write_runs(tmp_path / "parent", PARENT_WALL)
    for factor, name in [(1.2, "slow20"), (1.3, "slow30")]:
        _write_runs(tmp_path / name, [factor * w for w in PARENT_WALL])
    # 20% is within the 25% bound: flagged as a clear slowdown, accepted
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "slow20")]) == 0
    assert "wall_s: slower" in capsys.readouterr().out
    # beyond the bound: a regression, rejected
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "slow30")]) == 1
    assert "wall_s: regression" in capsys.readouterr().out


def test_compare_reads_all_workload_results(tmp_path, capsys):
    both = ("singular-window", "corpus-small")
    _write_runs(tmp_path / "parent", PARENT_WALL, workloads=both, name="all")
    _write_runs(tmp_path / "change", PARENT_WALL, workloads=both, name="all")
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == 0
    out = capsys.readouterr().out
    assert "singular-window (10 pairs)" in out
    assert "corpus-small (10 pairs)" in out


def test_compare_rejects_traced_results(tmp_path):
    (tmp_path / "parent").mkdir()
    traced = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "lattice.level_s": {"value": 1.0, "unit": "s"}}}
    (tmp_path / "parent" / "singular-window.0.json").write_text(
        json.dumps(traced))
    with pytest.raises(SystemExit, match="--trace 0"):
        compare.main([str(tmp_path / "parent"), str(tmp_path / "parent")])


def test_compare_rejects_setup_regression_despite_spread(tmp_path, capsys):
    noisy = [0.01 * f for f in (0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9,
                                1.1, 1.0)]
    _write_runs(tmp_path / "parent", PARENT_WALL, noisy)
    _write_runs(tmp_path / "same", PARENT_WALL, noisy)
    _write_runs(tmp_path / "slow", PARENT_WALL, [1.5 * v for v in noisy])
    # the spread is wider than the bound: no verdict either way ...
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "same")]) == 3
    out = capsys.readouterr().out
    assert "setup_s: unresolved" in out
    assert "not judged: singular-window/setup_s" in out
    # ... but a median worse by more than the bound is a regression
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "slow")]) == 1
    assert "setup_s: regression" in capsys.readouterr().out


def test_compare_reports_gain_and_unresolved():
    parent = PARENT_WALL
    assert compare.verdict(parent, [0.8 * w for w in parent], "lower",
                           0.1)[0] == "gain"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
