"""CLI contract: formats, exit codes, golden files, round-trips."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridlabel
import oracle
from conftest import hand_built, no_work, peak_traced_bytes, plain
from gridlabel import (BudgetExceeded, VerificationVerdict, label_rows,
                       label_window, scheme_params, window_pairs)
from gridlabel import cli, verifier
from gridlabel.bounds import _bounds_rows
from gridlabel.verifier import (MAX_OBJECT_WINDOW_PAIRS, MAX_WINDOW_PAIRS,
                                window_pair_budget)
from gridlabel.cli import (
    main,
    write_bounds,
    write_label,
    write_verify,
)

GOLDEN = Path(__file__).parent / "golden"
REPORTS = json.loads((GOLDEN / "cli_reports.json").read_text())
# (x + y) mod 12 breaks k = 3 at offset (1, 0): labels 0 and 1 need a gap of 3.
MUTANT = hand_built(1, 1, 12)


def run_cli(capsys, argv):
    """Exit code, stdout and stderr of main(argv); argparse's usage errors
    exit through SystemExit, whose code is the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def passing(scheme, width, height, *_args, **_kwargs):
    """A window check that compares nothing and passes."""
    return VerificationVerdict(True, window_pairs(scheme.k, width, height), ())


def written(writer, *args):
    """What writer writes to out, checking that it returns 0."""
    out = io.StringIO()
    assert writer(out, *args) == 0
    return out.getvalue()


def assert_same(got, want, context=""):
    """Byte equality, reporting only the first difference: pytest's own
    diff of two long outputs can take minutes."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        near = slice(max(i - 20, 0), i + 20)
        pytest.fail(f"{context}: outputs differ at char {i} (lengths {len(got)}, "
                    f"{len(want)}): got {got[near]!r}, want {want[near]!r}")


LABEL_FORMATS = ("csv", "json", "ascii", "pgm")


# ------------------------------------------------------ byte identity

LABEL_WINDOWS = [(x0, y0, w, h) for x0, y0 in [(0, 0), (-5, -7), (13, 4), (-3, 10**20)]
                 for w, h in [(1, 1), (1, 9), (9, 1), (37, 23)]] + [
    (0, 0, 2, 2), (0, 0, 3, 1), (0, 0, 4, 1), (0, 0, 4, 2), (1, 2, 2, 1), (-3, -3, 7, 7)]


@pytest.mark.parametrize("fmt", LABEL_FORMATS)
@pytest.mark.parametrize("k", [1, 3, 4, 5, 7, 9190])  # 9190: exact points, int64 window
def test_write_label_matches_reference(k, fmt):
    s = scheme_params(k)
    for window in LABEL_WINDOWS:
        assert_same(written(write_label, s, *window, fmt),
                    oracle.render_label(*plain(s), s.p, s.parity_case, *window, fmt),
                    window)


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 12000).filter(lambda k: k != 2),
    x0=st.integers(-10**6, 10**6) | st.integers(-10**30, 10**30),
    y0=st.integers(-10**6, 10**6) | st.integers(-10**30, 10**30),
    w=st.integers(1, 12),
    h=st.integers(1, 12),
    fmt=st.sampled_from(LABEL_FORMATS),
)
def test_write_label_matches_reference_fuzz(k, x0, y0, w, h, fmt):
    s = scheme_params(k)
    assert_same(written(write_label, s, x0, y0, w, h, fmt),
                oracle.render_label(*plain(s), s.p, s.parity_case, x0, y0, w, h,
                                    fmt))


# a >= c, negative a or b, a, b, c > 2^64 (Python-integer windows), and c = 1.
HAND_BUILT = [hand_built(29, 5, 12), hand_built(12, 12, 12), hand_built(-7, 5, 12),
              hand_built(5, -31, 12), hand_built(-9, -4, 13),
              hand_built(2**70 + 3, 3**45, 2**66 + 7),
              hand_built(-(2**65), 2**67 + 1, 2**64 + 13), hand_built(5, 7, 1)]


ORIGINS = [(0, 0), (-5, 3), (10**20, -10**20), (-10**20, 10**20)]
SIZES = [(1, 1), (1, 6), (37, 1), (37, 5)]


@pytest.mark.parametrize("scheme", HAND_BUILT, ids=lambda s: f"{s.a},{s.b},{s.c}")
def test_label_rows_match_label_window(scheme):
    # label_rows' integer progressions against the label_window grid, rows
    # read upward and downward.
    for x0, y0 in ORIGINS:
        for w, h in SIZES:
            grid = label_window(scheme, x0, y0, w, h).tolist()
            up = range(y0, y0 + h)
            assert list(label_rows(scheme, x0, w, up)) == grid, (x0, y0, w, h)
            assert list(label_rows(scheme, x0, w, up[::-1])) == grid[::-1]
    for width, ys in [(0, range(3)), (3, range(0))]:
        with pytest.raises(ValueError, match="positive dimensions"):
            label_rows(scheme, 0, width, ys)


@pytest.mark.parametrize("fmt", LABEL_FORMATS)
@pytest.mark.parametrize("scheme", HAND_BUILT, ids=lambda s: f"{s.a},{s.b},{s.c}")
def test_write_label_rows_match_label_window(scheme, fmt):
    for x0, y0 in ORIGINS:
        for w, h in SIZES:
            assert_same(written(write_label, scheme, x0, y0, w, h, fmt),
                        oracle.render_label(*plain(scheme), scheme.p,
                                            scheme.parity_case, x0, y0, w, h, fmt),
                        (x0, y0, w, h))


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(-2**70, 2**70),
    b=st.integers(-2**70, 2**70),
    c=st.integers(1, 50) | st.integers(1, 2**70),
    x0=st.integers(-10**20, 10**20),
    y0=st.integers(-10**20, 10**20),
    w=st.integers(1, 40),
    h=st.integers(1, 6),
    fmt=st.sampled_from(LABEL_FORMATS),
)
def test_write_label_rows_match_label_window_fuzz(a, b, c, x0, y0, w, h, fmt):
    s = hand_built(a, b, c)
    assert_same(written(write_label, s, x0, y0, w, h, fmt),
                oracle.render_label(*plain(s), s.p, s.parity_case, x0, y0, w, h,
                                    fmt))


# Each repeats within the windows below: k = 3 every 12 columns and 4
# rows, the hand-built ones along one axis only (a or b = 0 mod c), with
# periods that do not divide each other (4 and 3), or every cell (c = 1).
PERIODIC = [scheme_params(3), hand_built(12, 5, 12), hand_built(5, -24, 12),
            hand_built(9, 8, 12), hand_built(2**70 * 7, 2**66 + 3, 7),
            hand_built(5, 7, 1)]
PERIODIC_WINDOWS = [(x0, y0, w, h) for x0, y0 in [(0, 0), (-7, 5), (10**20, -10**20 + 1)]
                    for w, h in [(30, 30), (13, 1), (1, 13), (25, 7)]]


@pytest.mark.parametrize("scheme", PERIODIC, ids=lambda s: f"{s.a},{s.b},{s.c}")
def test_rows_and_columns_repeat_as_the_reference_does(scheme):
    for x0, y0, w, h in PERIODIC_WINDOWS:
        grid = oracle.label_grid(*plain(scheme)[:3], x0, y0, w, h)
        up = range(y0, y0 + h)
        assert list(label_rows(scheme, x0, w, up)) == grid, (x0, y0, w, h)
        assert list(label_rows(scheme, x0, w, up[::-1])) == grid[::-1]
        for fmt in LABEL_FORMATS:
            assert_same(written(write_label, scheme, x0, y0, w, h, fmt),
                        oracle.render_label(*plain(scheme), scheme.p,
                                            scheme.parity_case, x0, y0, w, h, fmt),
                        (x0, y0, w, h, fmt))


@pytest.mark.parametrize("k, kept", [(7, 92), (3001, 0)])
def test_label_holds_at_most_one_period_of_rows(k, kept):
    # A 50x4000 csv window, about 2 MB (k = 7) and 4 MB (k = 3001) of text.
    # With gcd(b, c) = 1 rows repeat every c: k = 7's 92 rows of a period
    # are kept, and k = 3001's rows never repeat in the window. A few rows'
    # worth is the template and the row being written.
    s = scheme_params(k)
    assert math.gcd(s.b, s.c) == 1 and (s.c == kept if kept else s.c > 4000)
    sink = CountingSink()
    code, peak = peak_traced_bytes(lambda: write_label(sink, s, 0, 0, 50, 4000, "csv"))
    row = sink.chars / 4000
    assert code == 0
    assert peak < (kept + 32) * row, (peak, row)


def test_fraction_text_is_the_fraction_str():
    for n in range(-40, 41):
        for d in range(1, 41):
            assert cli._fraction_text(n, d) == str(Fraction(n, d)), (n, d)
    assert cli._fraction_text(3 * 10**30 + 6, 3) == str(10**30 + 2)


@pytest.mark.parametrize("fmt", ["csv", "json", "ascii"])
def test_write_bounds_matches_reference(fmt):
    for k_min, k_max in [(1, 2000), (1, 1), (2, 2), (3, 3), (1, 4), (7, 7),
                         (1990, 2000), (10**12 - 3, 10**12 + 3)]:
        assert_same(written(write_bounds, k_min, k_max, fmt),
                    oracle.render_bounds(k_min, k_max, fmt),
                    (k_min, k_max))


def test_bounds_decimal_is_the_ratio_double():
    # int / int rounds correctly, so the unreduced quotient the writer
    # formats is the double of the reduced Fraction.
    for k, _, lower, upper in _bounds_rows(1, 10**5):
        if upper is not None:
            assert upper / lower == float(Fraction(upper, lower)), k


@pytest.mark.parametrize("fmt", LABEL_FORMATS)
def test_label_command_matches_reference(capsys, fmt):
    code, out, _ = run_cli(capsys, ["label", "--k", "5", "--window=-4,3,6,5",
                                    "--format", fmt])
    assert code == 0
    s = scheme_params(5)
    assert_same(out, oracle.render_label(*plain(s), s.p, s.parity_case, -4, 3, 6, 5,
                                         fmt))


class Chunks:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


@pytest.mark.parametrize("fmt, extra", [("csv", 1), ("ascii", 0), ("pgm", 1),
                                        ("json", 2)])
def test_write_label_writes_one_chunk_per_row(fmt, extra):
    # The header (and the json tail) are their own chunks; each grid row
    # is written as soon as it is formatted.
    out = Chunks()
    write_label(out, scheme_params(3), 0, 0, 4, 6, fmt)
    assert len([c for c in out.chunks if c]) == 6 + extra


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


@pytest.mark.parametrize("case", REPORTS["commands"],
                         ids=lambda case: " ".join(case["argv"]))
def test_report_bytes(capsys, monkeypatch, case):
    # verify, nohole and search byte for byte, errors included; argparse
    # wraps its usage errors to COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, case["argv"]) == (case["rc"], case["stdout"],
                                             case["stderr"])


@pytest.mark.parametrize("case", REPORTS["mutant"],
                         ids=lambda case: "-".join(map(str, case["args"].values())))
def test_write_verify_bytes_with_violations(case):
    a = case["args"]
    out = io.StringIO()
    code = write_verify(out, MUTANT, a["mode"], a["width"], a["height"], a["fmt"],
                        a["max_violations"], x0=a["x0"], y0=a["y0"])
    assert (code, out.getvalue()) == (case["rc"], case["stdout"])


def test_label_csv_round_trip(capsys):
    _, out, _ = run_cli(capsys, ["label", "--k", "3", "--window", "0,0,4,4",
                                 "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 16
    cells = {(int(r["x"]), int(r["y"])): int(r["label"]) for r in rows}
    assert all(cells[v] == oracle.label(5, 15, 12, *v) for v in cells)
    # Re-verify the parsed grid pairwise: same verdict as direct checking.
    pts = sorted(cells)
    assert oracle.valid_assignment(pts, [cells[v] for v in pts], 3)


# ---------------------------------------------------------------- label


def test_label_window_too_large(capsys):
    code, _, err = run_cli(capsys, ["label", "--k", "3",
                                    "--window", "0,0,2000,2000"])
    assert code == 2
    assert "cells" in err
    out = Chunks()
    with pytest.raises(BudgetExceeded):
        write_label(out, scheme_params(3), 0, 0, 1, cli.MAX_OUTPUT_ROWS + 1, "csv")
    assert out.chunks == []


# --------------------------------------------------------------- verify


def test_verify_window_too_large():
    out = Chunks()
    with pytest.raises(BudgetExceeded):
        write_verify(out, scheme_params(3), "window", 2000, 2000, "ascii")
    assert out.chunks == []


def test_verify_huge_diamond_rejected_at_once():
    # 2k(k+1) = 2*10^10 offsets at k = 10^5: rejected before any work.
    env = dict(os.environ,
               PYTHONPATH=str(Path(gridlabel.__file__).resolve().parents[1]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gridlabel", "verify", "--k", "100000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "20000200000 offsets" in proc.stderr
    assert str(cli.MAX_DIAMOND_OFFSETS) in proc.stderr
    assert elapsed < 1.0, elapsed


def test_verify_diamond_budget_is_inclusive(capsys, monkeypatch):
    assert cli.MAX_DIAMOND_OFFSETS == 2 * 9189 * 9190  # about 1 s of diamond
    monkeypatch.setattr(cli, "MAX_DIAMOND_OFFSETS", 24)  # k = 3
    code, out, _ = run_cli(capsys, ["verify", "--k", "3", "--mode", "diamond"])
    assert code == 0 and "diamond: PASS (24 pairs checked" in out
    for mode in ("diamond", "both"):
        code, out, err = run_cli(capsys, ["verify", "--k", "4", "--mode", mode])
        assert code == 2 and out == "" and "40 offsets" in err
    # The window check alone has no diamond to bound.
    code, _, _ = run_cli(capsys, ["verify", "--k", "4", "--mode", "window"])
    assert code == 0


def test_verify_window_pairs_budget_is_checked_before_labelling(capsys,
                                                                monkeypatch):
    # 1000x1000 at k = 300 is within the cell budget but has about 7.3e10
    # pairs to compare; it must be refused before any label is computed.
    monkeypatch.setattr(cli, "check_window", no_work)
    monkeypatch.setattr(cli, "label_rows", no_work)
    # 3664062 is the first k whose window check compares Python integers.
    for k, window in [(300, "0,0,1000,1000"), (3664062, "0,0,101,100")]:
        code, out, err = run_cli(capsys, ["verify", "--k", str(k), "--mode",
                                          "window", "--window", window])
        pairs = window_pairs(k, *map(int, window.split(",")[2:]))
        budget = MAX_WINDOW_PAIRS if k <= 3664061 else MAX_OBJECT_WINDOW_PAIRS
        assert (code, out) == (2, "")
        assert err == (f"error: window check needs {pairs} pairs, "
                       f"budget is {budget}\n")
    # k = 50 on 1000x1000 (int16 labels, about 1 s), 101x100 compared on
    # int64 at k = 9190, 3000000 and 3664061, and the default window
    # compared on Python integers stay accepted.
    monkeypatch.setattr(cli, "check_window", passing)
    assert window_pairs(50, 1000, 1000) == 2_464_691_450 < MAX_WINDOW_PAIRS
    assert window_pairs(9190, 101, 100) == 50_999_950 > MAX_OBJECT_WINDOW_PAIRS
    assert window_pairs(3664062, 100, 100) == 49_995_000 <= MAX_OBJECT_WINDOW_PAIRS
    for k, window in [(50, "0,0,1000,1000"), (9190, "0,0,101,100"),
                      (3000000, "0,0,101,100"), (3664061, "0,0,101,100"),
                      (3664062, "0,0,100,100")]:
        code, out, _ = run_cli(capsys, ["verify", "--k", str(k), "--mode",
                                        "window", "--window", window])
        assert code == 0 and "PASS" in out


def test_verify_window_budget_follows_the_compared_type(capsys):
    # The budget follows the type check_window compares in: int64 while
    # c + k + 1 fits (k <= 3664061), where label_window is int64 too. The
    # real check runs here.
    assert [(verifier._window_dtype(scheme_params(k)),
             label_window(scheme_params(k), 0, 0, 1, 1).dtype.name)
            for k in (9190, 3664061, 3664062)] == \
        [("int64", "int64"), ("int64", "int64"), ("object", "object")]
    assert [window_pair_budget(scheme_params(k)) for k in (3664061, 3664062)] == \
        [MAX_WINDOW_PAIRS, MAX_OBJECT_WINDOW_PAIRS]
    argv = ["verify", "--mode", "window", "--window", "0,0,101,100"]
    code, out, err = run_cli(capsys, argv + ["--k", "3000000"])
    assert (code, err) == (0, "") and "overall: PASS" in out
    code, out, err = run_cli(capsys, argv + ["--k", "3664062"])
    assert (code, out) == (2, "")
    assert err == ("error: window check needs 50999950 pairs, "
                   "budget is 50000000\n")


def test_verify_window_pairs_budget_is_three_billion(monkeypatch):
    # A 1-wide window at k = 3072 has exactly 3 * 10^9 pairs at 978099 rows
    # and 3072 more per extra row. Neither check nor labelling may run:
    # windows are labelled by _label_grid, label_window's too, and rows by
    # label_rows.
    monkeypatch.setattr(cli, "check_window", passing)
    for module, name in [(gridlabel.scheme, "_label_grid"), (verifier, "_label_grid"),
                         (cli, "label_rows")]:
        monkeypatch.setattr(module, name, no_work)
    s = scheme_params(3072)
    assert window_pairs(3072, 1, 978099) == 3 * 10**9
    for height in (978098, 978099):
        assert written(write_verify, s, "window", 1, height, "ascii").endswith(
            "overall: PASS\n")
    with pytest.raises(BudgetExceeded) as info:
        written(write_verify, s, "window", 1, 978100, "ascii")
    assert (info.value.needed, info.value.budget) == (3 * 10**9 + 3072, 3 * 10**9)


def test_verify_reports_sixteen_violations_by_default(capsys, monkeypatch):
    # (x + y) mod 3 violates at most offsets of k = 5.
    monkeypatch.setattr(cli, "scheme_params", lambda k: hand_built(1, 1, 3, 5))
    code, out, _ = run_cli(capsys, ["verify", "--k", "5", "--mode", "both",
                                    "--window", "0,0,10,10", "--format", "csv"])
    rows = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert code == 1
    assert (rows.count("diamond"), rows.count("window")) == (16, 16)


# --------------------------------------------------------------- bounds


def test_bounds_bad_range(capsys):
    code, _, err = run_cli(capsys, ["bounds", "--k-min", "5", "--k-max", "3"])
    assert code == 2 and "k_min" in err


def test_bounds_huge_range_rejected_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["bounds", "--k-min", "1",
                                      "--k-max", "100000000"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "100000000 rows" in err and str(cli.MAX_OUTPUT_ROWS) in err


def test_bounds_row_budget_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_OUTPUT_ROWS", 5)
    code, out, _ = run_cli(capsys, ["bounds", "--k-min", "3", "--k-max", "7",
                                    "--format", "csv"])
    assert code == 0 and len(out.splitlines()) == 6
    code, _, err = run_cli(capsys, ["bounds", "--k-min", "3", "--k-max", "8"])
    assert code == 2 and "6 rows" in err


class CountingSink:
    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)

    def flush(self):  # main flushes stdout before it returns
        pass


def bounds_peak(monkeypatch, fmt):
    """Characters written and peak traced memory of bounds for k <= 5000."""
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    code, peak = peak_traced_bytes(
        lambda: main(["bounds", "--k-min", "1", "--k-max", "5000", "--format", fmt]))
    assert code == 0
    return sink.chars, peak


def test_bounds_csv_streams_records(monkeypatch):
    # Holding the records (two Fractions each) takes about 410 bytes per
    # row, 2 MB here. 5000 rows, not more: tracing every Fraction
    # allocation makes the run about nine times slower.
    chars, peak = bounds_peak(monkeypatch, "csv")
    assert chars > 2 * 10**5
    assert peak < 2**20, peak


def test_bounds_ascii_streams_records(monkeypatch):
    # Column widths come from a first pass over the records, so no row is
    # held: holding them took about 2.5 MB here.
    chars, peak = bounds_peak(monkeypatch, "ascii")
    assert chars > 3 * 10**5
    assert peak < 2**20, peak


# --------------------------------------------------------------- nohole


def test_nohole_flags_no_memory_can_hold_exit_2(capsys):
    # The budget passes c^2, but c = 187501000002000002 flags are more
    # bytes than any 64-bit address space: an error, not a violation.
    code, out, err = run_cli(capsys, ["nohole", "--k", "1000001", "--mode",
                                      "enumerate", "--pair-budget", str(10**40)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_nohole_flags_past_sys_maxsize_exit_2(capsys):
    # c = 9223380144019071167 > 2^63 - 1: no bytearray can index the flags.
    assert scheme_params(3664062).c > sys.maxsize
    code, out, err = run_cli(capsys, ["nohole", "--k", "3664062", "--mode",
                                      "enumerate", "--pair-budget", str(10**40)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# --------------------------------------------------------------- search


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


# --------------------------------------------------------- without numpy

# Runs main on each argv in the JSON list argv[2] and prints every exit
# code, stdout and stderr as JSON. With argv[1] == "block", none of numpy,
# dataclasses and fractions can be imported: sys.modules maps each to
# None, so an import raises.
RUN_MAIN = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = sys.modules["dataclasses"] = sys.modules["fractions"] = None
else:
    import numpy
from gridlabel.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

NUMPY_FREE_ARGV = [
    *(["label", "--k", "9190", "--window=-7,-3,5,4", "--format", fmt]
      for fmt in LABEL_FORMATS),
    *(["bounds", "--k-min", "1", "--k-max", "40", "--format", fmt]
      for fmt in ("csv", "json", "ascii")),
    ["search", "--rows", "2", "--cols", "3", "--k", "3", "--format", "json"],
    *(["nohole", "--k", "41", "--mode", "gcd", "--format", fmt]
      for fmt in ("ascii", "csv", "json")),
    *(["nohole", "--k", "17", "--mode", mode, "--format", fmt]
      for mode in ("both", "enumerate") for fmt in ("ascii", "csv", "json")),
    ["nohole", "--k", "15", "--mode", "enumerate", "--pair-budget", "100"],
    ["label", "--k", "2"],
    ["--help"],
]


def run_python(*args):
    env = dict(os.environ, COLUMNS="80",  # argparse wraps --help to it
               PYTHONPATH=str(Path(gridlabel.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_without_numpy_match_commands_with_it():
    argv = json.dumps(NUMPY_FREE_ARGV)
    blocked = json.loads(run_python("-c", RUN_MAIN, "block", argv))
    loaded = json.loads(run_python("-c", RUN_MAIN, "load", argv))
    assert [code for code, _, _ in loaded] == [0] * 17 + [2, 2, 0]
    for args, got, want in zip(NUMPY_FREE_ARGV, blocked, loaded):
        assert got == want, args


@pytest.mark.parametrize("argv", [
    ["bounds", "--k-min", "1", "--k-max", "100000"],
    ["label", "--k", "3", "--window", "0,0,1000,1000", "--format", "csv"],
])
def test_closed_stdout_exits_141_quietly(argv):
    # gridlabel ... | head: the reader closes the pipe after one line. That
    # is no property violation (1), and no traceback may reach stderr.
    env = dict(os.environ,
               PYTHONPATH=str(Path(gridlabel.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "gridlabel", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_importing_gridlabel_leaves_numpy_unloaded():
    # Nor dataclasses (which imports inspect), json, or fractions (which
    # imports decimal). site may have loaded some of them already, so only
    # the modules the import adds count.
    added = run_python("-c", "import sys; before = set(sys.modules); "
                             "import gridlabel, gridlabel.cli; "
                             "print(sorted({'dataclasses', 'decimal', 'fractions', "
                             "'inspect', 'json', 'numpy'} & "
                             "(set(sys.modules) - before)))")
    assert added == "[]\n"


# ------------------------------------------------------------ arguments

FORMATS = st.sampled_from(["ascii", "csv", "json", "pgm"])
SMALL_K = st.sampled_from(["-1", "0", "1", "2", "3", "4", "7"])
# "--window=-3,..." in one word: argparse reads a separate "-3,..." as a flag.
WINDOW = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-1, 4),
                   st.integers(-1, 4)).map(lambda w: "--window=%d,%d,%d,%d" % w)
BUDGET = st.integers(-1, 50).map(str)
ARGV = st.one_of(
    st.tuples(st.just("label"), st.just("--k"), SMALL_K, WINDOW),
    st.tuples(st.just("verify"), st.just("--k"), SMALL_K, WINDOW,
              st.just("--mode"), st.sampled_from(["diamond", "window", "both"]),
              st.just("--max-violations"), st.integers(-1, 3).map(str)),
    st.tuples(st.just("bounds"), st.just("--k-min"), SMALL_K, st.just("--k-max"),
              SMALL_K),
    st.tuples(st.just("nohole"), st.just("--k"), SMALL_K, st.just("--mode"),
              st.sampled_from(["gcd", "enumerate", "both"]),
              st.just("--pair-budget"), st.integers(-1, 10**4).map(str)),
    st.tuples(st.just("search"), st.just("--rows"), st.integers(-1, 3).map(str),
              st.just("--cols"), st.integers(-1, 3).map(str), st.just("--k"),
              SMALL_K, st.just("--node-budget"), BUDGET),
)


@settings(max_examples=150, deadline=5000)
@given(argv=ARGV, fmt=FORMATS)
def test_cli_arguments_exit_cleanly(argv, fmt):
    # Every drawn command ends with 0, 1 or 2 (argparse's SystemExit(2)
    # included), within the deadline, and json output parses.
    argv = [*argv, "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if fmt == "json" and code in (0, 1):
        json.loads(out.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue()


@pytest.mark.parametrize("writer, args", [
    (write_label, (scheme_params(3), 0, 0, 4, 4, "xml")),
    (write_verify, (scheme_params(3), "both", 4, 4, "pgm")),
    (write_bounds, (1, 10, "xml")),
    (cli.write_nohole, (scheme_params(3), "both", 10**6, "pgm")),
    (cli.write_search, (2, 2, 3, 100, "pgm")),
])
def test_writers_reject_an_unknown_format_first(monkeypatch, writer, args):
    # argparse's choices hide this from the command line, not from callers.
    assert_rejected_before_work(monkeypatch, "unknown format", writer, *args)


def test_write_verify_rejects_an_unknown_mode_first(monkeypatch):
    assert_rejected_before_work(monkeypatch, "unknown verify mode 'bogus'",
                                write_verify, scheme_params(7), "bogus",
                                100, 100, "ascii")


def assert_rejected_before_work(monkeypatch, message, writer, *args):
    for name in ("check_diamond", "check_window", "check_no_hole",
                 "exact_span", "label_rows", "_bounds_rows"):
        monkeypatch.setattr(cli, name, no_work)
    out = Chunks()
    with pytest.raises(ValueError, match=message):
        writer(out, *args)
    assert out.chunks == []
