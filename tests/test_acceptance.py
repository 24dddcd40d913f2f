"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and budgets are pinned here, not configurable.
"""

import csv
import io
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle
from conftest import hand_built
from gridlabel import (
    GCD_AB_ALLOWED,
    Patch,
    ball,
    check_diamond,
    check_no_hole,
    check_window,
    exact_span,
    label_many,
    lambda_lb,
    lambda_ub,
    lb_summation,
    probe_feasible,
    ratio,
    scheme_params,
    sphere,
    t_set,
    triangular_convolution,
)
from gridlabel.bounds import EVEN_K
from gridlabel.cli import main

GOLDEN = Path(__file__).parent / "golden"

SUPPORTED_UP_TO_41 = [1] + list(range(3, 42))
SUPPORTED_UP_TO_12 = [1] + list(range(3, 13))


@contextmanager
def criterion(num, summary):
    try:
        yield
    except Exception:
        print(f"\ncriterion {num:2d} ({summary}): FAIL")
        raise
    print(f"\ncriterion {num:2d} ({summary}): PASS")


def test_criterion_01_diamond_certification_under_one_second():
    with criterion(1, "diamond check passes for k in {1,3..41} in < 1 s"):
        t0 = time.perf_counter()
        for k in SUPPORTED_UP_TO_41:
            verdict = check_diamond(scheme_params(k))
            assert verdict.passed, k
            assert verdict.checked_pairs == 2 * k * (k + 1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_diamond_window_cross_validation():
    with criterion(2, "window and diamond agree; mutants fail with shared witness"):
        for k in SUPPORTED_UP_TO_12:
            s = scheme_params(k)
            assert check_diamond(s).passed
            assert check_window(s, 100, 100).passed, k
        corpus = [hand_built(*m) for m in oracle.perturbed(SUPPORTED_UP_TO_12)]
        assert len(corpus) >= 20, len(corpus)
        for m in corpus:
            d = check_diamond(m, max_violations=10**6)
            w = check_window(m, 100, 100, max_violations=10**6)
            assert not d.passed and not w.passed
            shared = ({rep.offset for rep in d.violations}
                      & {rep.offset for rep in w.violations})
            assert shared, (m.k, m.a, m.b, m.c)


def test_criterion_03_reference_scheme_for_k3():
    with criterion(3, "k=3 scheme is (5x+15y) mod 12"):
        s = scheme_params(3)
        assert (s.a, s.b, s.c) == (5, 15, 12)
        assert lambda_ub(3) == 12


def test_criterion_04_difference_identity_on_random_pairs():
    with criterion(4, "gap identity holds on 1e5 random pairs per k"):
        rng = np.random.default_rng(20240811)
        for k in [1, 3, 4, 5, 6, 7, 8, 9]:
            s = scheme_params(k)
            n = 100_000
            ux, uy, vx, vy = rng.integers(-10**6, 10**6, size=(4, n))
            lu = label_many(s, ux, uy)
            lv = label_many(s, vx, vy)
            gap = np.abs(lu - lv)
            swap = lu < lv
            dx = np.where(swap, vx - ux, ux - vx)
            dy = np.where(swap, vy - uy, uy - vy)
            ld = label_many(s, dx, dy)
            mismatches = int((gap != ld).sum())
            assert mismatches == 0, (k, mismatches)
        # spot-check the scalar path as well
        s = scheme_params(7)
        for u, v in [((1, 0), (0, 0)), ((3, -2), (-1, 5)), ((9, 9), (9, 9))]:
            from gridlabel import label_difference
            assert label_difference(s, u, v) == abs(oracle.label(s.a, s.b, s.c, *u)
                                                    - oracle.label(s.a, s.b, s.c, *v))


def test_criterion_05_no_hole_everywhere():
    with criterion(5, "gcd(a,b,c)=1 to k=1e4; surjectivity where c<=2000"):
        for k in range(1, 10_001):
            if k == 2:
                continue
            s = scheme_params(k)
            assert math.gcd(s.a, s.b, s.c) == 1, k
            assert math.gcd(s.a, s.b) in GCD_AB_ALLOWED[s.parity_case], k
        enumerable = [k for k in range(1, 30)
                      if k != 2 and scheme_params(k).c <= 2000]
        assert enumerable == [k for k in range(1, 22) if k != 2]
        for k in enumerable:
            report = check_no_hole(scheme_params(k), "both")
            assert report.is_no_hole
            assert report.attained_count == scheme_params(k).c


def test_criterion_06_lower_bound_values_and_summation():
    with criterion(6, "closed-form lower bounds match the sums and the ball chain"):
        expected = {1: Fraction(2), 2: Fraction(6), 3: Fraction(26, 3),
                    4: Fraction(22), 5: Fraction(30), 6: Fraction(58),
                    7: Fraction(74)}
        for k, exact in expected.items():
            lb = lambda_lb(k)
            assert lb.exact == exact
            assert lb.ceiled == math.ceil(exact)
        assert lambda_lb(3).ceiled == 9
        for p in range(1, 1001):
            assert lb_summation(p, EVEN_K) == lambda_lb(2 * p).exact
            assert triangular_convolution(p) == p * (p + 1) * (p + 2) // 6
        # lb_summation's odd term is the closed form's own difference, so
        # odd k is checked against the packing chain over the radius-p
        # ball: pairwise distinct labels, consecutive gaps >= k+1-|u|-|v|.
        for k in range(2, 202):
            assert lambda_lb(k).exact <= oracle.packing_chain_bound(k), k


def test_criterion_07_ratio_asymptotics():
    with criterion(7, "ratios near 9/8 for k in [99,1000]; exact at k=199"):
        target = Fraction(9, 8)
        tol = Fraction(2, 100)
        for k in range(99, 1001):
            if k == 2:
                continue
            assert abs(ratio(k) - target) <= tol, (k, float(ratio(k)))
        assert ratio(199) == Fraction(1495100, 1326602)
        # Small k exceed 9/8; reported, not bounded.
        assert ratio(3) == Fraction(4, 3) > target


def test_criterion_08_search_oracle_consistency():
    with criterion(8, "exact search fixtures, certificates, UB consistency, < 60 s"):
        t0 = time.perf_counter()
        for k in (1, 4, 9):
            assert exact_span(Patch(1, 1), k).minimal_lambda == 1
        r33 = exact_span(Patch(3, 3), 1)
        assert r33.minimal_lambda == 2 and r33.exhausted
        r22 = exact_span(Patch(2, 2), 2)
        assert r22.minimal_lambda == 5 and r22.exhausted
        feasible, _, _ = probe_feasible(Patch(2, 2), 2, 4)
        assert feasible is False
        fixtures = [(1, 1, 1), (3, 3, 1), (2, 2, 2), (2, 2, 3), (3, 3, 3),
                    (4, 4, 3), (3, 3, 4), (2, 4, 3), (4, 4, 1)]
        for rows, cols, k in fixtures:
            res = exact_span(Patch(rows, cols), k)
            assert res.exhausted, (rows, cols, k)
            assert oracle.certificate_ok(rows, cols, k, res.certificate,
                                         res.minimal_lambda), (rows, cols, k)
            if k != 2:
                assert res.minimal_lambda <= lambda_ub(k), (rows, cols, k)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_09_lattice_counting():
    with criterion(9, "sphere/ball/two-center shell sizes up to m=200"):
        for m in range(1, 201):
            assert len(sphere(m)) == 4 * m
            assert len(ball(m)) == 2 * m * m + 2 * m + 1
            assert len(t_set(m)) == 4 * m + 2
        assert len(ball(3)) == 25


def test_criterion_10_cli_contract(capsys):
    with criterion(10, "golden CLI outputs and verify exit code"):
        assert main(["bounds", "--k-min", "1", "--k-max", "10",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "bounds_1_10.csv").read_text()

        assert main(["label", "--k", "3", "--window", "0,0,4,4",
                     "--format", "csv"]) == 0
        label_out = capsys.readouterr().out
        assert label_out == (GOLDEN / "label_k3_4x4.csv").read_text()

        assert main(["verify", "--k", "7"]) == 0
        capsys.readouterr()

        # Round-trip: parse the label CSV and re-verify pairwise.
        rows = list(csv.DictReader(io.StringIO(label_out)))
        cells = {(int(r["x"]), int(r["y"])): int(r["label"]) for r in rows}
        assert len(cells) == 16
        assert all(cells[v] == oracle.label(5, 15, 12, *v) for v in cells)
        pts = sorted(cells)
        reverified = oracle.valid_assignment(pts, [cells[v] for v in pts], 3)
        assert reverified
        assert check_window(scheme_params(3), 4, 4).passed == reverified
