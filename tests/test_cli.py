"""CLI contract: formats, exit codes, golden files, round-trips."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gridlabel
from gridlabel import LabelingScheme, label, scheme_params
from gridlabel.cli import main, render_label, run_verify

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- goldens

def test_golden_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--k-min", "1", "--k-max", "10",
                                    "--format", "csv"])
    assert code == 0
    assert out == (GOLDEN / "bounds_1_10.csv").read_text()


def test_golden_label_csv(capsys):
    code, out, _ = run_cli(capsys, ["label", "--k", "3", "--window", "0,0,4,4",
                                    "--format", "csv"])
    assert code == 0
    assert out == (GOLDEN / "label_k3_4x4.csv").read_text()


def test_label_csv_round_trip(capsys):
    _, out, _ = run_cli(capsys, ["label", "--k", "3", "--window", "0,0,4,4",
                                 "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 16
    cells = {(int(r["x"]), int(r["y"])): int(r["label"]) for r in rows}
    s = scheme_params(3)
    assert all(cells[v] == label(s, v) for v in cells)
    # Re-verify the parsed grid pairwise: same verdict as direct checking.
    ok = True
    pts = sorted(cells)
    for i, u in enumerate(pts):
        for v in pts[:i]:
            d = abs(u[0] - v[0]) + abs(u[1] - v[1])
            if d <= 3 and abs(cells[u] - cells[v]) < 4 - d:
                ok = False
    assert ok


# ---------------------------------------------------------------- label

def test_label_csv_values(capsys):
    _, out, _ = run_cli(capsys, ["label", "--k", "3", "--window", "0,0,4,1",
                                 "--format", "csv"])
    assert out.splitlines()[1:] == ["0,0,0", "1,0,5", "2,0,10", "3,0,3"]
    _, out7, _ = run_cli(capsys, ["label", "--k", "7", "--window", "0,0,3,1",
                                  "--format", "csv"])
    assert out7.splitlines()[1:] == ["0,0,0", "1,0,9", "2,0,18"]


def test_label_ascii_checkerboard(capsys):
    code, out, _ = run_cli(capsys, ["label", "--k", "1", "--window", "0,0,2,2"])
    assert code == 0
    assert out == "1 0\n0 1\n"


def test_label_pgm(capsys):
    code, out, _ = run_cli(capsys, ["label", "--k", "3", "--window", "0,0,4,2",
                                    "--format", "pgm"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 2"
    assert lines[2] == "11"
    assert lines[3].split() == ["3", "8", "1", "6"]   # top row is y=1
    assert lines[4].split() == ["0", "5", "10", "3"]


def test_label_json_schema(capsys):
    code, out, _ = run_cli(capsys, ["label", "--k", "3", "--window", "1,2,2,1",
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert payload["scheme"] == {"a": 5, "b": 15, "c": 12, "p": 1,
                                 "case": "odd-k-odd-p"}
    assert payload["window"] == {"x0": 1, "y0": 2, "width": 2, "height": 1}
    s = scheme_params(3)
    assert payload["cells"] == [[1, 2, label(s, (1, 2))], [2, 2, label(s, (2, 2))]]


def test_label_window_too_large(capsys):
    code, _, err = run_cli(capsys, ["label", "--k", "3",
                                    "--window", "0,0,2000,2000"])
    assert code == 2
    assert "cells" in err


def test_label_bad_window_syntax(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["label", "--k", "3", "--window", "1,2,3"])
    assert exc.value.code == 2


def test_render_label_deterministic():
    s = scheme_params(5)
    a = render_label(s, -3, -3, 7, 7, "csv")
    b = render_label(s, -3, -3, 7, 7, "csv")
    assert a == b


# --------------------------------------------------------------- verify

def test_verify_k7_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--k", "7", "--mode", "diamond"])
    assert code == 0
    assert "PASS" in out


def test_verify_both_modes_agree(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--k", "3", "--mode", "both",
                                    "--window", "0,0,60,60", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"]["diamond"]["passed"] is True
    assert payload["checks"]["window"]["passed"] is True


def test_verify_k2_usage_error(capsys):
    code, _, err = run_cli(capsys, ["verify", "--k", "2", "--mode", "diamond"])
    assert code == 2
    assert "k=2" in err


def test_verify_violation_exit_code():
    bad = LabelingScheme(k=3, p=1, parity_case="hand-built", a=1, b=1, c=12)
    code, text = run_verify(bad, "both", 20, 20, "csv")
    assert code == 1
    lines = text.splitlines()
    assert lines[0] == "check,offset_x,offset_y,r,required_gap,actual"
    assert "diamond,1,0,1,3,1" in lines
    assert "window,1,0,1,3,1" in lines


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--k", "3", "--max-violations", "-1"], "--max-violations"),
    (["nohole", "--k", "3", "--pair-budget", "-5"], "--pair-budget"),
])
def test_negative_count_arguments_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and ">= 0" in err


def test_verify_shifted_window(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--k", "3", "--mode", "window",
                                    "--window", "5,7,3,3"])
    assert code == 0
    assert "window 3x3 at 5,7: PASS" in out
    code, out, _ = run_cli(capsys, ["verify", "--k", "3", "--mode", "window",
                                    "--window", "5,7,3,3", "--format", "json"])
    assert json.loads(out)["window"] == {"x0": 5, "y0": 7, "width": 3, "height": 3}
    # An origin of 0,0 is left out of the report.
    code, out, _ = run_cli(capsys, ["verify", "--k", "3", "--mode", "window",
                                    "--window", "0,0,3,3", "--format", "json"])
    assert json.loads(out)["window"] == {"width": 3, "height": 3}
    # (x + y) mod 12 fails k=3 on the 2x1 window at 0,0 but not at 11,0.
    bad = LabelingScheme(k=3, p=1, parity_case="hand-built", a=1, b=1, c=12)
    assert run_verify(bad, "window", 2, 1, "csv")[0] == 1
    assert run_verify(bad, "window", 2, 1, "csv", x0=11)[0] == 0


def test_verify_window_too_large():
    with pytest.raises(Exception):
        run_verify(scheme_params(3), "window", 2000, 2000, "ascii")


# --------------------------------------------------------------- bounds

def test_bounds_row_k3(capsys):
    _, out, _ = run_cli(capsys, ["bounds", "--k-min", "3", "--k-max", "3",
                                 "--format", "csv"])
    assert out.splitlines()[1] == "3,26/3,9,12,4/3,1.33333"


def test_bounds_row_k1_ratio_one(capsys):
    _, out, _ = run_cli(capsys, ["bounds", "--k-min", "1", "--k-max", "1",
                                 "--format", "csv"])
    assert out.splitlines()[1] == "1,2,2,2,1,1"


def test_bounds_row_k2_empty_fields(capsys):
    _, out, _ = run_cli(capsys, ["bounds", "--k-min", "2", "--k-max", "2",
                                 "--format", "csv"])
    assert out.splitlines()[1] == "2,6,6,,,"


def test_bounds_ascii_and_json(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--k-min", "1", "--k-max", "4"])
    assert code == 0 and "ratio" in out.splitlines()[0]
    code, out, _ = run_cli(capsys, ["bounds", "--k-min", "1", "--k-max", "4",
                                    "--format", "json"])
    payload = json.loads(out)
    assert payload["records"][1]["upper"] is None  # k=2
    assert payload["records"][2]["ratio_exact"] == "4/3"


def test_bounds_bad_range(capsys):
    code, _, err = run_cli(capsys, ["bounds", "--k-min", "5", "--k-max", "3"])
    assert code == 2 and "k_min" in err


# --------------------------------------------------------------- nohole

def test_nohole_k3(capsys):
    code, out, _ = run_cli(capsys, ["nohole", "--k", "3", "--mode", "both"])
    assert code == 0
    assert "gcd(a,b,c)=1" in out and "12/12" in out


def test_nohole_k9_gcd(capsys):
    code, out, _ = run_cli(capsys, ["nohole", "--k", "9", "--mode", "gcd",
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["gcd_triple"] == 1
    assert payload["attained_count"] is None


def test_nohole_budget_exit(capsys):
    code, _, err = run_cli(capsys, ["nohole", "--k", "15", "--mode", "enumerate",
                                    "--pair-budget", "100"])
    assert code == 2
    assert "budget" in err


# --------------------------------------------------------------- search

def test_search_2x2_k2(capsys):
    code, out, _ = run_cli(capsys, ["search", "--rows", "2", "--cols", "2",
                                    "--k", "2"])
    assert code == 0
    assert "minimal lambda = 5" in out and "exhausted" in out


def test_search_3x3_k1_json(capsys):
    code, out, _ = run_cli(capsys, ["search", "--rows", "3", "--cols", "3",
                                    "--k", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal_lambda"] == 2
    assert payload["exhausted"] is True
    assert len(payload["certificate"]) == 9


def test_search_1x1(capsys):
    code, out, _ = run_cli(capsys, ["search", "--rows", "1", "--cols", "1",
                                    "--k", "9", "--format", "json"])
    assert code == 0
    assert json.loads(out)["minimal_lambda"] == 1


def test_search_k2_supported_without_scheme(capsys):
    code, out, _ = run_cli(capsys, ["search", "--rows", "2", "--cols", "2",
                                    "--k", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["scheme"] is None


def test_search_invalid_patch(capsys):
    code, _, err = run_cli(capsys, ["search", "--rows", "0", "--cols", "2",
                                    "--k", "2"])
    assert code == 2 and "dimensions" in err


def test_search_csv_certificate(capsys):
    code, out, _ = run_cli(capsys, ["search", "--rows", "2", "--cols", "2",
                                    "--k", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    labs = {(int(r["x"]), int(r["y"])): int(r["label"]) for r in rows}
    assert labs[(0, 0)] == 0 and max(labs.values()) == 4


def test_search_huge_k_returns_quickly():
    # First-fit jumps past the blocked bands, so neither it nor the probes
    # scale with k: the node budget stops the search within seconds.
    env = dict(os.environ,
               PYTHONPATH=str(Path(gridlabel.__file__).resolve().parents[1]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gridlabel", "search", "--rows", "1", "--cols", "2",
         "--k", "30000000", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["exhausted"] is False
    assert payload["minimal_lambda"] == 30_000_001
    assert payload["certificate"] == [[0, 0, 0], [1, 0, 30_000_000]]
    assert elapsed < 10, elapsed
