import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from toricreg import PreconditionError, cli, families
from toricreg.cli import analysis_bundle, main
from toricreg.oracle import naive_sumset

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_golden_bundle(self, capsys, write_instance, quartic):
        path = write_instance(quartic)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        got = json.loads(out)
        timings = got.pop("timings")
        assert set(timings) == {"classify", "sigma", "reg", "degree",
                                "eg_check"}
        expected = json.loads((GOLDEN / "quartic_analyze.json").read_text())
        assert got == expected

    def test_field_flag_positions(self, capsys, write_instance, quartic):
        path = write_instance(quartic)
        for argv in (["--field", "f2", "reg", path],
                     ["reg", path, "--field", "f2"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert json.loads(out)["reg"] == 2


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.json")
        assert code == 1
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1

    def test_missing_keys(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2}')
        assert run(capsys, "analyze", str(bad))[0] == 1

    def test_invalid_instance(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2, "A": [[0, 0], [4, 0]]}')
        assert run(capsys, "analyze", str(bad))[0] == 1

    @pytest.mark.parametrize("text", [
        '{"d": 2, "A": 5}',
        '{"d": 2, "A": [[0, 0], [1, 0], [2, 0], [0, 1], [1, null], [0, 2]]}',
        '{"d": 2, "A": [[0, 0], [1, 0], [2, 0], [0, 1], [1.7, 1], [0, 2]]}',
        '{"d": 2, "A": [[0, 0], [1, 0], [2, 0], [0, 1], "11", [0, 2]]}',
        '{"d": 2, "A": [[0, 0], [1, 0], [2, 0], [0, 1], [true, 1], [0, 2]]}',
        '{"d": 2.9, "A": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]}',
        '{"d": true, "A": [[0], [1], [2]]}',
    ], ids=["A-not-a-list", "null-coordinate", "float-coordinate",
            "string-point", "bool-coordinate", "float-d", "bool-d"])
    def test_malformed_instance_rejected(self, capsys, tmp_path, text):
        # each one would otherwise crash or be analyzed as a Veronese set
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert err.startswith("error:")

    def test_unsupported_without_cutoff(self, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text('{"d": 2, "A": [[0,0],[3,0],[0,3],[1,1]]}')
        assert run(capsys, "analyze", str(other))[0] == 2
        code, out, _ = run(capsys, "--cutoff", "4", "analyze", str(other))
        assert code == 0
        assert json.loads(out)["regularity"]["method"] == "lower-bound"

    @pytest.mark.parametrize("command", ["reg", "analyze"])
    def test_negative_cutoff_rejected(self, capsys, tmp_path, write_instance,
                                      quartic, command):
        other = tmp_path / "other.json"
        other.write_text('{"d": 2, "A": [[0,0],[3,0],[0,3],[1,1]]}')
        # the quartic is one-singular, so its reg never reads the cutoff
        for path in (str(other), write_instance(quartic)):
            code, _, err = run(capsys, "--cutoff", "-3", command, path)
            assert code == 1
            assert err.startswith("error:")

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_rejected(self, capsys, write_instance,
                                        quartic, threads):
        path = write_instance(quartic)
        code, _, err = run(capsys, "--threads", threads, "reg", path)
        assert code == 1
        assert err.startswith("error:") and "--threads" in err
        assert run(capsys, "--threads", "2", "reg", path)[0] == 0

    def test_resource_cap(self, capsys, write_instance, quartic):
        path = write_instance(quartic)
        assert run(capsys, "--max-slice", "4", "sigma", path)[0] == 2

    def test_resource_cap_counts_the_norms(self, capsys, tmp_path):
        # slice(1) of {0, 1000} holds 2 points, but its rank tables index
        # the 1001 norms 0..1000
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"d": 1, "A": [[0], [1000]]}))
        code, out, err = run(capsys, "--max-slice", "100", "sumset",
                             str(path), "--s", "1")
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_max_slice_below_one_rejected(self, capsys, write_instance,
                                          quartic, cap):
        code, _, err = run(capsys, "--max-slice", cap, "analyze",
                           write_instance(quartic))
        assert code == 1
        assert err.startswith("error:") and "--max-slice" in err

    @pytest.mark.parametrize("argv", [["analyze"],
                                      ["--threads", "x", "analyze", "f"],
                                      ["frobnicate"]])
    def test_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("exc,expected", [(MemoryError, 2),
                                              (RecursionError, 1)])
    def test_runtime_errors(self, capsys, monkeypatch, write_instance,
                            quartic, exc, expected):
        def stage(*args, **kwargs):
            raise exc()
        monkeypatch.setattr("toricreg.cli.classify", stage)
        code, out, err = run(capsys, "analyze", write_instance(quartic))
        assert code == expected
        assert out == "" and err == f"error: {exc.__name__}\n"

    def test_long_d1_chain_is_analyzed(self, capsys, tmp_path):
        inst = tmp_path / "chain.json"
        inst.write_text('{"d": 1, "A": [[0], [1], [499], [500]]}')
        code, out, _ = run(capsys, "analyze", str(inst))
        assert code == 0
        assert json.loads(out)["classification"]["verdict"] == "Smooth"

    def test_d6_refused_before_sigma(self, capsys, tmp_path, write_instance,
                                     quartic):
        # reg refuses d >= 6, so analyze and corpus refuse it before
        # sigma builds a level; the quartic gives the pool a second file
        A = families.veronese(6, 2)
        path = write_instance(A)
        write_instance(quartic, "quartic.json")
        for argv in (["analyze", path], ["corpus", str(tmp_path)],
                     ["corpus", str(tmp_path), "--threads", "2"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "at most 6 vertices" in err
        with pytest.raises(PreconditionError, match="at most 6 vertices"):
            analysis_bundle(A, "q", None)
        assert A._built == -1

    def test_sigma_above_the_closed_form_bound(self, capsys, tmp_path):
        # e = D = 3: the closed form s0 = 0 is below the step threshold 1
        inst = tmp_path / "e3.json"
        inst.write_text('{"d": 2, "A": [[0,0],[0,1],[0,2],[0,3],[3,0]]}')
        code, out, _ = run(capsys, "analyze", str(inst))
        assert code == 0
        block = json.loads(out)["sigma"]
        assert (block["sigma"], block["holes"], block["upper"]) == (1, [], 1)


class TestPlot:
    def test_marker_counts(self, capsys, write_instance, quartic):
        path = write_instance(quartic)
        for s, filled, hollow in [(0, 1, 0), (1, 7, 2), (2, 24, 1)]:
            code, out, _ = run(capsys, "plot", path, "--s", str(s))
            assert code == 0
            assert out.count("<circle") == filled
            assert out.count("<rect") == hollow

    def test_golden_svg(self, capsys, write_instance, quartic):
        path = write_instance(quartic)
        for s in (1, 2):
            _, out, _ = run(capsys, "plot", path, "--s", str(s))
            assert out == (GOLDEN / f"quartic_s{s}.svg").read_text()

    def test_d3_rejected(self, capsys, write_instance):
        path = write_instance(families.veronese(3, 2))
        assert run(capsys, "plot", path, "--s", "1")[0] == 2


class TestGen:
    def test_veronese_point_count(self, capsys):
        code, out, _ = run(capsys, "gen", "veronese", "--d", "2", "--D", "4")
        assert code == 0
        assert len(json.loads(out)["A"]) == 15

    def test_minimal_smooth_count(self, capsys):
        _, out, _ = run(capsys, "gen", "minimal-smooth", "--d", "2",
                        "--D", "4")
        assert len(json.loads(out)["A"]) == 9

    def test_sextic_surface(self, capsys):
        _, out, _ = run(capsys, "gen", "sextic-surface")
        got = {tuple(p) for p in json.loads(out)["A"]}
        assert got == set(families.sextic_surface().points)

    def test_gen_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--seed", "9", "gen", "one-singular",
                           "--d", "2", "--D", "4", "--e", "2")
        assert code == 0
        inst = tmp_path / "gen.json"
        inst.write_text(out)
        code, out, _ = run(capsys, "analyze", str(inst))
        assert code == 0
        got = json.loads(out)
        assert got["classification"]["verdict"] == "OneSingular"
        assert got["classification"]["e"] == 2

    def test_gen_is_seed_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "--seed", "3", "gen", "one-singular",
                            "--d", "2", "--D", "6", "--e", "2")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_missing_e(self, capsys):
        assert run(capsys, "gen", "one-singular")[0] == 1

    @pytest.mark.parametrize("family", ["smooth-random", "one-singular"])
    def test_negative_extras_rejected(self, capsys, family):
        code, _, err = run(capsys, "gen", family, "--d", "2", "--D", "4",
                           "--e", "2", "--extras", "-2")
        assert code == 1
        assert err.startswith("error: extras must be >= 0")

    @pytest.mark.parametrize("family", ["veronese", "smooth-random",
                                        "one-singular"])
    def test_max_slice_precedes_listing(self, capsys, monkeypatch, family):
        # slice(1) of d = 2, D = 4, e = 1 holds 15 points
        def listing(*args):
            raise AssertionError("slice(1) listed before the cap check")
        monkeypatch.setattr(families, "_norm_e_points", listing)
        code, out, err = run(capsys, "--max-slice", "10", "gen", family,
                             "--d", "2", "--D", "4", "--e", "1")
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "(cap 10)" in err

    def test_max_slice_keeps_other_outcomes(self, capsys):
        code, out, _ = run(capsys, "--max-slice", "10", "gen",
                           "minimal-smooth", "--d", "2", "--D", "4")
        assert code == 0 and len(json.loads(out)["A"]) == 9
        for argv, message in [(["veronese", "--d", "0"], "dimension"),
                              (["veronese", "--D", "1"], "norm must be"),
                              (["one-singular"], "needs --e")]:
            code, _, err = run(capsys, "--max-slice", "1", "gen", *argv)
            assert code == 1 and message in err


class TestSubcommands:
    def test_sumset_count(self, capsys, write_instance, quartic):
        _, out, _ = run(capsys, "sumset", write_instance(quartic),
                        "--s", "2", "--count")
        doc = json.loads(out)
        assert doc["count"] == 24 and "points" not in doc

    def test_sumset_points(self, capsys, write_instance, quartic):
        _, out, _ = run(capsys, "sumset", write_instance(quartic),
                        "--s", "1")
        assert {tuple(p) for p in json.loads(out)["points"]} == set(
            quartic.points)

    def test_sumset_points_in_colex_order(self, capsys, write_instance):
        A = families.veronese(3, 2)
        _, out, _ = run(capsys, "sumset", write_instance(A), "--s", "2")
        pts = [tuple(p) for p in json.loads(out)["points"]]
        assert pts == sorted(naive_sumset(A.points, 2), key=lambda p: p[::-1])

    def test_hilbert(self, capsys, write_instance, quartic):
        _, out, _ = run(capsys, "hilbert", write_instance(quartic),
                        "--s-max", "4")
        assert json.loads(out)["values"] == [1, 7, 24, 48, 80]

    def test_sigma_schema(self, capsys, write_instance, quartic):
        _, out, _ = run(capsys, "sigma", write_instance(quartic))
        doc = json.loads(out)
        assert doc["schema"] == "toric-reg/1"
        assert doc["sigma"] == 2 and doc["holes"] == [[1, 1]]

    def test_degree_and_eg(self, capsys, write_instance, quartic):
        path = write_instance(quartic)
        _, out, _ = run(capsys, "degree", path)
        assert json.loads(out)["degree"] == 8
        _, out, _ = run(capsys, "eg-check", path)
        assert json.loads(out)["holds"] is True

    def test_eg_check_reads_field_and_cutoff(self, capsys, monkeypatch,
                                             tmp_path):
        other = tmp_path / "other.json"
        other.write_text('{"d": 2, "A": [[0,0],[3,0],[0,3],[1,1]]}')
        _, out, _ = run(capsys, "--cutoff", "4", "reg", str(other))
        expected = json.loads(out)["reg"]
        calls = []
        real_reg = cli.reg

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real_reg(*args, **kwargs)
        monkeypatch.setattr(cli, "reg", spy)
        code, out, _ = run(capsys, "--field", "f2", "--cutoff", "4",
                           "eg-check", str(other))
        assert code == 0
        assert json.loads(out)["reg"] == expected
        assert calls == [{"field": 2, "cutoff": 4}]


def _golden_corpus(directory: Path) -> str:
    for f in (GOLDEN / "corpus_instances").glob("*.json"):
        shutil.copy(f, directory / f.name)
    return str(directory)


def _die(*args):
    # run in the test's own process it fails instead of ending the run
    assert multiprocessing.parent_process() is not None, "not in a worker"
    os._exit(1)


@pytest.fixture
def two_cpus(monkeypatch):
    """--threads 2 takes the pool branch on any machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def shares(monkeypatch):
    """The number of files in each task submitted to a corpus pool."""
    from concurrent.futures import ProcessPoolExecutor
    sizes = []
    submit = ProcessPoolExecutor.submit

    def counted(pool, fn, *args, **kwargs):
        sizes.append(len(args[0]))
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counted)
    return sizes


@pytest.fixture
def analyzed(monkeypatch):
    """The names of the files ``cli._corpus_row`` analyzes in this
    process."""
    names = []
    real_row = cli._corpus_row

    def counted(path, *args):
        names.append(path.name)
        return real_row(path, *args)

    monkeypatch.setattr(cli, "_corpus_row", counted)
    return names


class TestCorpus:
    def test_golden_csv(self, capsys, tmp_path, two_cpus):
        # 8 workers asked for, more than the three files
        directory = _golden_corpus(tmp_path)
        for threads in ([], ["--threads", "1"], ["--threads", "2"],
                        ["--threads", "8"]):
            code, out, _ = run(capsys, "corpus", directory, *threads)
            assert code == 0
            assert out == (GOLDEN / "corpus.csv").read_text()
            assert multiprocessing.active_children() == []

    def test_one_task_per_worker(self, capsys, tmp_path, two_cpus, shares):
        # each worker takes its strided share of the files as one task
        directory = _golden_corpus(tmp_path)
        code, out, _ = run(capsys, "corpus", directory, "--threads", "2")
        assert code == 0
        assert out == (GOLDEN / "corpus.csv").read_text()
        assert shares == [2, 1]  # files 0 and 2, then file 1

    def test_identical_copies_take_their_original_row(self, capsys,
                                                      tmp_path, two_cpus,
                                                      shares):
        # copies sort before, between and after the golden files; only
        # the three distinct files are handed to the workers
        directory = _golden_corpus(tmp_path)
        copies = {"a.json": "sextic.json", "r.json": "quartic.json",
                  "z.json": "even_sextic.json"}
        for copy, original in copies.items():
            shutil.copy(tmp_path / original, tmp_path / copy)
        golden = (GOLDEN / "corpus.csv").read_text().splitlines()
        rows = dict(line.split(",", 1) for line in golden[1:])
        rows.update({copy: rows[original]
                     for copy, original in copies.items()})
        expected = [golden[0]] + [f"{name},{rows[name]}"
                                  for name in sorted(rows)]
        for threads in ("1", "2", "8"):
            shares.clear()
            code, out, _ = run(capsys, "corpus", directory,
                               "--threads", threads)
            assert code == 0
            assert out.splitlines() == expected
            assert sum(shares) == (0 if threads == "1" else 3)

    def test_one_analysis_per_distinct_content(self, capsys, tmp_path,
                                               analyzed):
        directory = _golden_corpus(tmp_path)
        quartic = (tmp_path / "quartic.json").read_text()
        (tmp_path / "quartic_copy.json").write_text(quartic)
        (tmp_path / "quartic_spaced.json").write_text(quartic + "\n")
        code, out, _ = run(capsys, "corpus", directory, "--threads", "1")
        assert code == 0
        # a copy differing only in whitespace is analyzed on its own
        assert analyzed == ["even_sextic.json", "quartic.json",
                            "quartic_spaced.json", "sextic.json"]
        rows = [line.split(",", 1) for line in out.splitlines()[1:]]
        assert rows[1][1] == rows[2][1] == rows[3][1]

    @pytest.mark.parametrize("entries,first", [
        # a failing file with a later identical copy
        ({"t.json": "invalid", "u.json": "invalid"}, "t.json"),
        # a *.json directory before or after a failing file
        ({"sz.json": "dir", "t.json": "invalid"}, "sz.json"),
        ({"t.json": "invalid", "u.json": "dir"}, "t.json"),
    ])
    def test_failures_with_copies_and_directories(self, capsys, tmp_path,
                                                  two_cpus, analyzed,
                                                  entries, first):
        directory = _golden_corpus(tmp_path)
        shutil.copy(tmp_path / "quartic.json", tmp_path / "quartic_copy.json")
        for name, kind in entries.items():
            if kind == "dir":
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(
                    '{"d": 2, "A": [[0, 0], [4, 0]]}')
        outcomes = []
        for threads in ("1", "2"):
            outcomes.append(run(capsys, "corpus", directory,
                                "--threads", threads))
            assert multiprocessing.active_children() == []
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert code == 1 and out == "" and err.count("\n") == 1
        reason = "Is a directory" if entries[first] == "dir" else "4*e_2"
        assert err.startswith("error:") and reason in err
        # with one thread quartic_copy.json is not analyzed
        assert analyzed == ["even_sextic.json", "quartic.json",
                            "sextic.json", first]

    def test_other_row_left_blank(self, capsys, tmp_path):
        (tmp_path / "other.json").write_text(
            '{"d": 2, "A": [[0,0],[3,0],[0,3],[1,1]]}')
        _, out, _ = run(capsys, "corpus", str(tmp_path))
        row = out.splitlines()[1].split(",")
        assert row[4] == "Other" and row[5] == ""

    def test_empty_directory_prints_the_header(self, capsys, tmp_path):
        for threads in ("1", "2"):
            code, out, _ = run(capsys, "corpus", str(tmp_path),
                               "--threads", threads)
            assert code == 0
            assert out == ("file,d,D,e,verdict,sigma,reg,degree,codim,"
                           "eg_slack,reg_sigma_gap\n")

    def test_missing_directory_or_file_is_an_error(self, capsys, tmp_path,
                                                   two_cpus):
        (tmp_path / "a.json").write_text("{}")
        for target in (tmp_path / "missing", tmp_path / "a.json"):
            for threads in ("1", "2"):
                code, out, err = run(capsys, "corpus", str(target),
                                     "--threads", threads)
                assert (code, out) == (1, "")
                assert err == (f"error: corpus {str(target)!r} is not a "
                               f"directory\n")

    @pytest.mark.parametrize("invalid,d6", [("a.json", "b.json"),
                                            ("b.json", "a.json")])
    def test_first_failing_file_in_sorted_order(self, capsys, tmp_path,
                                                write_instance, two_cpus,
                                                invalid, d6):
        directory = _golden_corpus(tmp_path)
        (tmp_path / invalid).write_text('{"d": 2, "A": [[0, 0], [4, 0]]}')
        write_instance(families.veronese(6, 2), d6)
        outcomes = []
        for threads in ("1", "2"):
            code, out, err = run(capsys, "corpus", directory,
                                 "--threads", threads)
            assert code == 1 and out == ""
            assert multiprocessing.active_children() == []
            outcomes.append((code, err))
        assert outcomes[0] == outcomes[1]
        first = "at most 6 vertices" if d6 < invalid else "4*e_2"
        assert err.startswith("error:") and first in err

    def test_dead_worker_is_one_error_line(self, capsys, monkeypatch,
                                           tmp_path, two_cpus):
        directory = _golden_corpus(tmp_path)
        monkeypatch.setattr(cli, "_corpus_row", _die)
        code, out, err = run(capsys, "corpus", directory, "--threads", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: a corpus worker died")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []

    def test_import_loads_no_pool(self):
        # only a corpus run with more than one worker imports the pool
        assert _loaded_by_import(("concurrent", "multiprocessing")) == []

    def test_import_loads_neither_oracle_nor_generators(self):
        # the test oracle is never used by the CLI, the generators only
        # by gen
        assert _loaded_by_import(("toricreg.oracle",
                                  "toricreg.families")) == []


def _loaded_by_import(prefixes: tuple) -> list:
    """The modules starting with one of ``prefixes`` that a fresh
    ``import toricreg.cli`` loads."""
    probe = (f"import json, sys, toricreg.cli; print(json.dumps([m for m "
             f"in sorted(sys.modules) if m.startswith({prefixes!r})]))")
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True,
        timeout=60).stdout
    return json.loads(out)
