"""Acceptance suite: one test (one pass/fail line under pytest -v) per
numbered criterion.

Criterion 2 is split in two: the literal assertion sigma == 2 for the
even-norm sextic surface contradicts that instance's own level-2 data
(2A misses (3,9), so by definition the first stable level is 3).  The
literal form is kept as a strict xfail; the companion test pins the
values the definition actually forces (sigma = 3, reg = 3, hollow
triangle witness at (6,9,15)).
"""

import itertools
import json
import random
from math import comb

import numpy as np
import pytest

from toricreg import (GeneratorSet, betti_numbers, classify, degree,
                      eg_check, eg_inequality_suite, homogenize,
                      one_singular_bound, reg, regularity, sigma,
                      sizeA_bound, step_equality_holds, step_threshold)
from toricreg.classify import ONE_SINGULAR, SMOOTH, is_chart_smooth
from toricreg.cli import main
from toricreg.families import (minimal_smooth, one_singular_random,
                               smooth_random_superset, veronese)
from toricreg.homology import face_tables_for_level
from toricreg.lattice import slice_size, unit
from toricreg.oracle import (homology_recheck, naive_faces, naive_member,
                             naive_minimal_generators, naive_slice_points,
                             naive_sumset)

from instances import gap_shifts, level_tables, members


# --------------------------------------------------------------------------
# shared corpora (session-scoped so criterion 10 reuses the cached levels)

@pytest.fixture(scope="session")
def smooth_corpus():
    """Every smooth instance exercised by criterion 5, with its reg result."""
    instances = [minimal_smooth(d, D)
                 for d in (1, 2, 3) for D in (3, 4, 5)]
    instances += [veronese(d, D) for d in (1, 2, 3) for D in (2, 3, 4, 5)]
    rng = random.Random(20240801)
    cells = [(d, D) for d in (1, 2, 3) for D in (3, 4, 5)]
    for i in range(20):
        d, D = cells[i % len(cells)]
        instances.append(smooth_random_superset(d, D, rng))
    out = []
    for A in instances:
        report = classify(A)
        assert report.verdict == SMOOTH
        sr = sigma(A, report)
        rr = reg(A, report, sr)
        out.append((A, report, sr, rr))
    return out


@pytest.fixture(scope="session")
def singular_corpus():
    """20 seeded instances per (d, D, e) cell of criterion 6."""
    out = []
    for d in (2, 3):
        for D in (4, 6):
            for e in (2, D):
                rng = random.Random(1000 * d + 10 * D + e)
                for _ in range(20):
                    A = one_singular_random(d, D, e, rng)
                    report = classify(A)
                    assert (report.verdict, report.e) == (ONE_SINGULAR, e)
                    sr = sigma(A, report)
                    rr = reg(A, report, sr)
                    out.append((A, report, sr, rr))
    return out


# --------------------------------------------------------------------------

def test_criterion_01_quartic_surface(quartic):
    report = classify(quartic)
    assert (report.verdict, report.e) == (ONE_SINGULAR, 2)
    sr = sigma(quartic, report)
    assert sorted(sr.holes) == [(1, 1)]
    for s in range(2, 9):
        expected = naive_slice_points(2, 4 * s, 2) - {(1, 1)}
        assert members(quartic.level(s)) == expected
    assert sr.sigma == 2
    rr = reg(quartic, report, sr)
    assert rr.reg == 2
    # the stated witness: T_(4,2,2) is the empty complex, betti_{-1} = 1,
    # contributing |y|/D - (i+1) = 2 - 0 = 2
    faces = naive_faces(homogenize(quartic), (4, 2, 2))
    assert faces == frozenset({0})
    assert betti_numbers(faces, 3)[-1] == 1
    dr = degree(quartic, report)
    assert dr.degree == 8 and dr.codim == 4
    assert eg_check(quartic, report, rr, dr)["holds"]
    print("criterion 1: PASS (holes, window, sigma=2, reg=2, degree=8, EG)")


@pytest.mark.xfail(strict=True, reason="sigma == 2 is inconsistent with the "
                   "instance's own level-2 sumset, which misses (3,9); the "
                   "definition forces sigma = 3 (see the companion test)")
def test_criterion_02_even_sextic_sigma_as_stated(even_sextic):
    assert sigma(even_sextic).sigma == 2


def test_criterion_02_even_sextic_companion(even_sextic):
    report = classify(even_sextic)
    assert (report.verdict, report.e) == (ONE_SINGULAR, 2)
    sr = sigma(even_sextic, report)
    assert sr.holes == frozenset()
    # 2A = slice(2) minus (3,9), so level 2 is not yet the stable shape
    assert (3, 9) not in members(even_sextic.level(2))
    assert even_sextic.level(2).cardinality == \
        slice_size(even_sextic.d, 2 * even_sextic.D, even_sextic.e) - 1
    assert sr.sigma == 3
    rr = reg(even_sextic, report, sr)
    assert rr.reg == 3
    # stated witness: the hollow triangle at y = (6,9,15), betti_1 = 1,
    # contributing 30/6 - (1+1) = 3
    faces = naive_faces(homogenize(even_sextic), (6, 9, 15))
    assert faces == frozenset({0, 1, 2, 4, 3, 5, 6})
    assert betti_numbers(faces, 3)[1] == 1
    print("criterion 2: PASS (holes empty, sigma=3, reg=3, hollow triangle "
          "at (6,9,15); literal sigma==2 kept as strict xfail)")


def test_criterion_03_sextic_surface_charts(sextic):
    report = classify(sextic)
    assert report.verdict == ONE_SINGULAR
    assert report.singular_vertex == 0
    # the chart-0 generators are the homogenized ones minus coordinate 0
    chart0 = {b[1:] for b in homogenize(sextic)} - {(0, 0)}
    expected = chart0 - {(1, 5), (5, 1)}
    assert naive_minimal_generators(chart0) == expected
    assert not is_chart_smooth(sextic, 0)
    assert is_chart_smooth(sextic, 1)
    assert is_chart_smooth(sextic, 2)
    print("criterion 3: PASS (OneSingular at vertex 0, chart generators)")


def test_criterion_04_closed_form_sigma_sweeps():
    for d in (1, 2, 3):
        for D in (3, 4, 5, 6):
            expected = 1 if (d, D) == (1, 3) else d * (D - 2)
            assert sigma(minimal_smooth(d, D)).sigma == expected
            assert sigma(veronese(d, D)).sigma == d - d // D
    for d in range(1, 7):
        assert sigma(veronese(d, 2)).sigma == d - d // 2
    print("criterion 4: PASS (minimal-smooth d(D-2), Veronese d - floor(d/D),"
          " D=2 closed forms)")


def test_criterion_05_reg_equals_sigma_smooth(smooth_corpus):
    for A, report, sr, rr in smooth_corpus:
        assert rr.reg == sr.sigma, A
    print(f"criterion 5: PASS (reg == sigma on {len(smooth_corpus)} smooth "
          f"instances)")


def test_criterion_06_one_singular_inequalities(singular_corpus):
    gaps = []
    for A, report, sr, rr in singular_corpus:
        assert rr.reg <= sr.sigma + 1, A
        assert one_singular_bound(A, report, rr)["holds"], A
        gaps.append(rr.reg - sr.sigma)
    assert set(gaps) <= {0, 1}
    print(f"criterion 6: PASS (reg <= sigma+1 and corollary bound on "
          f"{len(singular_corpus)} instances; gap distribution "
          f"{ {g: gaps.count(g) for g in sorted(set(gaps))} })")


def _random_instance(rng):
    d = rng.randint(1, 3)
    D = rng.randint(2, 6)
    pts = {(0,) * d} | {unit(d, i, D) for i in range(d)}
    pool = sorted(naive_slice_points(d, D) - pts)
    budget = 15 - len(pts)
    k = rng.randint(0, min(budget, len(pool)))
    pts |= set(rng.sample(pool, k))
    return GeneratorSet(d, pts)


def test_criterion_07_oracle_equivalence(quartic, even_sextic, sextic):
    rng = random.Random(777)
    for _ in range(100):
        A = _random_instance(rng)
        for s in range(5):
            assert members(A.level(s)) == naive_sumset(A.points, s)
    # membership bridge: as 0 is in A and every other generator has norm
    # >= 1, y is in <A> iff y is in sA at s = |y|, i.e. iff its
    # homogenization (s*D - |y|, y) is in the lifted semigroup
    checked = 0
    while checked < 1000:
        A = _random_instance(rng)
        ys = [tuple(rng.randint(0, 2 * A.D) for _ in range(A.d))
              for _ in range(25)]
        # sA grows with s, so for every s >= |y|, y is in <A> iff it is in
        # sA: iff e divides |y|, which puts y in slice(s), and y is no gap
        gaps = A.level(max(map(sum, ys))).gaps()
        for y in ys:
            bridged = sum(y) % A.e == 0 and not (gaps == y).all(1).any()
            assert bridged == naive_member(A.points, y)
            checked += 1
    # every distinct homology profile of the worked examples, re-derived
    # over F_2 and F_32003 by the independent elimination code; the
    # sweep's tables of the gap shifts are the definition's
    profiles = 0
    for A in (quartic, even_sextic, sextic):
        sr = sigma(A)
        tables = set()
        for s in range(sr.sigma + A.d + 3):
            _, tbl = level_tables(A, s, A.level(s).points)
            tables.update(int(t) for t in np.unique(tbl))
            pts, tbl = face_tables_for_level(
                A, s, {t: A.level(t).gaps() for t in range(s + 1)})
            assert pts.tolist() == [list(p) for p in gap_shifts(A, s)]
            assert tbl.tolist() == level_tables(A, s, pts)[1].tolist()
        for t in tables:
            faces = frozenset(m for m in range(8) if t >> m & 1)
            face_list = [tuple(j for j in range(3) if m >> j & 1)
                         for m in sorted(faces)]
            exact = betti_numbers(faces, 3, "q")
            for p in (2, 32003):
                assert betti_numbers(faces, 3, p) == exact
                recheck = homology_recheck(face_list, p)
                assert all(exact[i] == b for i, b in recheck.items())
                assert all(b == 0 for i, b in exact.items()
                           if i not in recheck)
            profiles += 1
    print(f"criterion 7: PASS (100 sumset instances, {checked} membership "
          f"queries, {profiles} homology profiles over F_2/F_32003)")


def test_criterion_08_step_threshold_sharp():
    cells = 0
    for d in range(1, 5):
        for D in range(2, 9):
            for e in (x for x in range(1, D + 1) if D % x == 0):
                thr = step_threshold(d, D, e)
                assert step_equality_holds(d, D, e, thr), (d, D, e)
                assert not step_equality_holds(d, D, e, thr - 1), (d, D, e)
                cells += 1
    print(f"criterion 8: PASS (threshold exact and sharp on {cells} "
          f"(d, D, e) cells)")


def _sample_norm_e_set(d, D, e, rng, max_extra=25):
    pts = set()
    for _ in range(rng.randint(0, max_extra)):
        m = e * rng.randint(0, D // e)
        cuts = sorted(rng.randint(0, m) for _ in range(d - 1))
        cuts = [0] + cuts + [m]
        pts.add(tuple(b - a for a, b in zip(cuts, cuts[1:])))
    return pts


def test_criterion_09_eg_inequality_lemmas():
    cells = 0
    for d in range(3, 7):
        for D in range(3, 11):
            for e in (x for x in range(1, D + 1) if D % x == 0):
                assert eg_inequality_suite(d, D, e)["holds"]
                if e < D:
                    bound = sizeA_bound(d, D, e)
                    # largest admissible set: all points of norm in eN, <= D
                    full = sum(comb(i * e + d - 1, d - 1)
                               for i in range(D // e + 1))
                    assert full <= bound, (d, D, e)
                    rng = random.Random(cells)
                    for _ in range(50):
                        A = _sample_norm_e_set(d, D, e, rng)
                        assert len(A) <= bound
                cells += 1
    print(f"criterion 9: PASS (big-integer lemma sweep over {cells} cells, "
          f"50 random sets per e < D cell)")


def test_criterion_10_cutoff_safety(smooth_corpus, singular_corpus,
                                    quartic, even_sextic, sextic):
    extras = [(A, None, None, None) for A in (quartic, even_sextic, sextic)]
    for A, report, sr, rr in smooth_corpus + singular_corpus + extras:
        report = report or classify(A)
        if rr is None:
            rr = reg(A, report)
        # the instance reg swept: e = D reduces it one dimension down
        B = (classify(report.reduced).instance if report.reduced
             else report.instance)
        wider = regularity._sweep(B, rr.cutoff_norm // B.D + 2, "q")
        assert wider == (rr.reg, rr.witness_y, rr.witness_i), A
    print(f"criterion 10: PASS (reg and witness stable under cutoff + 2D on "
          f"{len(smooth_corpus) + len(singular_corpus) + 3} instances)")


def test_criterion_11_cli_contract(tmp_path, capsys, quartic):
    from pathlib import Path
    golden = Path(__file__).parent / "golden"
    inst = tmp_path / "quartic.json"
    inst.write_text(json.dumps(
        {"d": quartic.d, "A": [list(p) for p in quartic.points]}))

    assert main(["analyze", str(inst)]) == 0
    got = json.loads(capsys.readouterr().out)
    got.pop("timings")
    assert got == json.loads((golden / "quartic_analyze.json").read_text())

    for s, filled, hollow in [(1, 7, 2), (2, 24, 1)]:
        assert main(["plot", str(inst), "--s", str(s)]) == 0
        svg = capsys.readouterr().out
        assert svg == (golden / f"quartic_s{s}.svg").read_text()
        assert svg.count("<circle") == filled
        assert svg.count("<rect") == hollow

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for f in (golden / "corpus_instances").glob("*.json"):
        (corpus_dir / f.name).write_text(f.read_text())
    assert main(["corpus", str(corpus_dir)]) == 0
    assert capsys.readouterr().out == (golden / "corpus.csv").read_text()

    # exit-code matrix
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["analyze", str(bad)]) == 1
    other = tmp_path / "other.json"
    other.write_text('{"d": 2, "A": [[0,0],[3,0],[0,3],[1,1]]}')
    assert main(["analyze", str(other)]) == 2
    assert main(["--max-slice", "4", "sigma", str(inst)]) == 2
    capsys.readouterr()
    print("criterion 11: PASS (golden analyze/corpus/SVG, exit codes 1/2/2)")
