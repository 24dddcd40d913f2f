"""Command-line driver for grid labeling schemes.

Subcommands:
    label   render a window of labels (ascii, csv, json, pgm)
    verify  validity audit via diamond and/or window checks
    bounds  lower/upper bound table with exact ratios
    nohole  surjectivity audit (gcd and/or enumeration)
    search  exact minimal span on a small patch

Each subcommand is one writer, ``write_<command>(out, ...)``, that
returns the exit code and writes through ``_stream``: a head, then rows
as they are formatted, then a tail. The parser is the one command table:
each subparser names its writer with ``set_defaults(write=...)``, and
main calls ``args.write(out, args)``. JSON goes through ``_stream_json``,
and only label and bounds splice a streamed list into it. Every writer
raises ValueError for an unknown format before it checks or writes
anything.

The writers only format: labels come from scheme.label_rows, checks
from verifier, bound rows from bounds._bounds_rows and patches from
search. A layer's source runs on its first use (see the package
docstring), and each writer reads its layer's functions off the module
when it runs, so a command runs only the layers it uses:

    label             scheme
    verify, nohole    scheme, verifier
    bounds            scheme, bounds
    search            scheme, search

and none runs lattice. The parser's defaults and the budget checks come
from _budgets, so a usage error runs scheme alone. Only verify imports
numpy, through the verifier when its first check runs; only ``--format
json`` imports json, in ``_stream_json``. No command imports
dataclasses or fractions: result records are NamedTuples, which JSON
reads with ``_asdict()``, and bounds prints its ratios from integer rows.

Exit codes are a stable contract: 0 = success / all checks passed,
1 = a property violation was found, 2 = usage error, unsupported k, or
a request over a budget (verifier.BudgetExceeded, raised before any
work): window cells or bounds rows over MAX_OUTPUT_ROWS, a diamond over
MAX_DIAMOND_OFFSETS, a window check over verifier.window_pair_budget
pairs, or a no-hole enumeration over its pair budget; also 2 for an
array too large to allocate (MemoryError), such as the no-hole flags (c
bytes) under a raised --pair-budget. A reader that closes stdout early
(gridlabel ... | head) gets 141, 128 + SIGPIPE, and nothing on stderr:
no check failed.

CSV output is RFC-4180-style with a mandatory header row and LF line
endings. PGM output is plain P2 with maxval c-1 (a visualization aid,
not a data format). JSON output carries "k" and "scheme" (a, b, c, p,
case) plus a command-specific payload; field names are documented in the
README and are fixed.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from typing import Optional

from . import bounds, search, verifier
from ._budgets import (DEFAULT_MAX_VIOLATIONS, DEFAULT_NODE_BUDGET,
                       DEFAULT_PAIR_BUDGET, _check_size)
from .scheme import LabelingScheme, UnsupportedK, label_rows, scheme_params

MAX_OUTPUT_ROWS = 1_000_000
#: 2k(k+1) offsets at k = 9189, a time budget: that diamond takes about
#: 1 s on int64 labels, and the time grows as k^2. Like every budget here
#: it is checked before any labelling, and a request over it raises
#: BudgetExceeded.
MAX_DIAMOND_OFFSETS = 2 * 9189 * 9190

_FORMAT = {"choices": ["ascii", "csv", "json"], "default": "ascii"}
_LABEL_FORMATS = ["ascii", "csv", "json", "pgm"]
_Y = "\0"  # stands for y in a label row template; no number contains it


def _check_format(fmt: str, choices: list[str] = _FORMAT["choices"]) -> None:
    if fmt not in choices:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_window(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be x0,y0,width,height")
    try:
        x0, y0, w, h = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"window values must be integers: {exc}")
    if w < 1 or h < 1:
        raise argparse.ArgumentTypeError("window width and height must be >= 1")
    return x0, y0, w, h


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _envelope(k: int, scheme: Optional[LabelingScheme], **payload) -> dict:
    """The JSON head shared by label, verify, nohole and search."""
    return {"k": k, "scheme": None if scheme is None else {
        "a": scheme.a, "b": scheme.b, "c": scheme.c, "p": scheme.p,
        "case": scheme.parity_case}, **payload}


def _stream(out, head: str, rows=(), sep: str = "", tail: str = "") -> None:
    """Write head, then each row as it is made (joined by sep), then tail."""
    out.write(head)
    for n, text in enumerate(rows):
        out.write(sep + text if n else text)
    out.write(tail)


def _stream_json(out, payload: dict, items=None) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline.

    With items, the payload's last value is ``[]`` and the items, each
    indented four spaces, are written into it as they are made, separated
    by ",\n": the same bytes as dumping the full payload.
    """
    import json

    text = json.dumps(payload, indent=2)
    if items is None:
        _stream(out, text + "\n")
    else:
        head, tail = text.rsplit("[]", 1)
        _stream(out, head + "[\n", items, ",\n", "\n  ]" + tail + "\n")


def write_label(out, scheme: LabelingScheme, x0: int, y0: int, width: int,
                height: int, fmt: str) -> int:
    """Write the label grid to out one row at a time; returns 0.

    Each row is a %-template filled from scheme.label_rows. Rows repeat
    every c // gcd(b, c) values of y, so a template is filled once per
    row of that period; csv and json then put each row's y in, and ascii
    and pgm write the same text again. Only when the period is shorter
    than the window are its row texts kept. Raises BudgetExceeded above
    the cell budget, before writing anything.
    """
    _check_format(fmt, _LABEL_FORMATS)
    _check_size("window", width * height, "cells", MAX_OUTPUT_ROWS)
    xs = range(x0, x0 + width)
    up = range(y0, y0 + height)
    down = range(y0 + height - 1, y0 - 1, -1)  # matrix orientation: top row = max y
    period = scheme.c // math.gcd(scheme.b, scheme.c)

    def rows(ys, template):
        # One text per row of ys, the template filled once per period.
        texts = map(template.__mod__,
                    map(tuple, label_rows(scheme, x0, width, ys[:period])))
        if period < height:  # cycle keeps the period's texts to repeat them
            return itertools.islice(itertools.cycle(texts), height)
        return texts

    def rows_with_y(ys, template):
        # template has x baked in, _Y for y and %d for each label.
        return map(str.replace, rows(ys, template), itertools.repeat(_Y), map(str, ys))

    if fmt == "csv":
        template = "".join(f"{x},{_Y},%d\n" for x in xs)
        _stream(out, "x,y,label\n", rows_with_y(up, template))
    elif fmt == "ascii":
        template = " ".join([f"%{len(str(scheme.c - 1))}d"] * width) + "\n"
        _stream(out, "", rows(down, template))
    elif fmt == "pgm":
        _stream(out, f"P2\n{width} {height}\n{scheme.c - 1}\n",
                rows(down, " ".join(["%d"] * width) + "\n"))
    else:
        template = ",\n".join(f"    [\n      {x},\n      {_Y},\n      %d\n    ]"
                              for x in xs)
        _stream_json(out, _envelope(scheme.k, scheme, window={
            "x0": x0, "y0": y0, "width": width, "height": height}, cells=[]),
            rows_with_y(up, template))
    return 0


def write_verify(out, scheme: LabelingScheme, mode: str, width: int,
                 height: int, fmt: str,
                 max_violations: int = DEFAULT_MAX_VIOLATIONS, *,
                 x0: int = 0, y0: int = 0) -> int:
    """Run the requested checks and write the report to out; returns the
    exit code, 0 when every check passed and 1 otherwise.

    The window check covers [x0, x0 + width) x [y0, y0 + height). Reports
    name the origin only when it is not 0,0. Raises BudgetExceeded for a
    diamond, window or window check over its budget, before checking or
    writing anything, and ValueError for an unknown mode.
    """
    _check_format(fmt)
    if mode not in ("diamond", "window", "both"):
        raise ValueError(f"unknown verify mode {mode!r}")
    diamond, window = mode in ("diamond", "both"), mode in ("window", "both")
    if diamond:
        _check_size("diamond", 2 * scheme.k * (scheme.k + 1), "offsets",
                    MAX_DIAMOND_OFFSETS)
    if window:
        _check_size("window", width * height, "cells", MAX_OUTPUT_ROWS)
        _check_size("window check",
                    verifier.window_pairs(scheme.k, width, height), "pairs",
                    verifier.window_pair_budget(scheme))
    checks: dict[str, verifier.VerificationVerdict] = {}  # reports keep this order
    if diamond:
        checks["diamond"] = verifier.check_diamond(scheme, max_violations)
    if window:
        checks["window"] = verifier.check_window(scheme, width, height,
                                                 max_violations, x0=x0, y0=y0)
    passed = all(v.passed for v in checks.values())
    shifted = (x0, y0) != (0, 0)
    if fmt == "json":
        where = {"width": width, "height": height}
        if shifted:
            where = {"x0": x0, "y0": y0, **where}
        # json writes a record as a list, so violations become dicts too.
        _stream_json(out, _envelope(
            scheme.k, scheme, mode=mode, window=where if window else None,
            checks={name: v._asdict() | {"violations": [
                rep._asdict() for rep in v.violations]} for name, v in checks.items()},
            passed=passed))
    elif fmt == "csv":
        _stream(out, "check,offset_x,offset_y,r,required_gap,actual\n", (
            f"{name},{rep.offset[0]},{rep.offset[1]},{rep.r},"
            f"{rep.required_gap},{rep.actual}\n"
            for name, v in checks.items() for rep in v.violations))
    else:
        _stream(out, f"k={scheme.k} scheme: ({scheme.a}*x + {scheme.b}*y) "
                     f"mod {scheme.c}\n",
                _verify_lines(checks, f" {width}x{height}"
                              + (f" at {x0},{y0}" if shifted else "")),
                tail=f"overall: {'PASS' if passed else 'FAIL'}\n")
    return 0 if passed else 1


def _verify_lines(checks: dict[str, verifier.VerificationVerdict], where: str):
    for name, v in checks.items():
        yield (f"{name}{where if name == 'window' else ''}: "
               f"{'PASS' if v.passed else 'FAIL'} ({v.checked_pairs} pairs "
               f"checked, {len(v.violations)} violations reported)\n")
        for rep in v.violations:
            yield (f"  offset={rep.offset} r={rep.r} "
                   f"required={rep.required_gap} actual={rep.actual}\n")


def _fraction_text(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0: the text of str(Fraction(n, d))."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


_BOUNDS_JSON_ROW = """    {
      "k": %s,
      "lower_exact": "%s",
      "lower": %s,
      "upper": %s,
      "ratio_exact": %s,
      "ratio_decimal": %s
    }"""


def write_bounds(out, k_min: int, k_max: int, fmt: str) -> int:
    """Write the bounds table for [k_min, k_max] to out one record at a
    time; returns 0.

    Every format makes each record as it writes it. ascii reads the
    records twice, first for its column widths, which depend on all of
    them, then to write the rows. Raises BudgetExceeded above the row
    budget, before writing anything.
    """
    _check_format(fmt)
    _check_size("bounds table", k_max - k_min + 1, "rows", MAX_OUTPUT_ROWS)

    def fields():
        # k, lower_exact, lower, upper, ratio_exact, ratio_decimal; None where
        # there is no value (k = 2 has no scheme). upper / lower is the
        # ratio's double: int division rounds correctly.
        return ((str(k), _fraction_text(num, 3), str(lower),
                 None if upper is None else str(upper),
                 None if upper is None else _fraction_text(upper, lower),
                 None if upper is None else f"{upper / lower:.6g}")
                for k, num, lower, upper in bounds._bounds_rows(k_min, k_max))

    rows = fields()  # checks the range before anything is written
    if fmt == "csv":
        _stream(out, "k,lower_exact,lower,upper,ratio_exact,ratio_decimal\n",
                (",".join([f or "" for f in row]) + "\n" for row in rows))
    elif fmt == "json":
        _stream_json(out, {"k_min": k_min, "k_max": k_max, "records": []}, (
            _BOUNDS_JSON_ROW % (k, exact, lower, upper or "null",
                                "null" if ratio is None else f'"{ratio}"',
                                "null" if decimal is None else f'"{decimal}"')
            for k, exact, lower, upper, ratio, decimal in rows))
    else:
        header = ("k", "lower_exact", "lower", "upper", "ratio", "ratio_dec")
        widths = [len(h) for h in header]
        for row in rows:
            widths = [max(w, len(f or "-")) for w, f in zip(widths, row)]
        template = "  ".join(f"%{w}s" for w in widths) + "\n"
        _stream(out, template % header,
                (template % tuple(f or "-" for f in row) for row in fields()))
    return 0


def write_nohole(out, scheme: LabelingScheme, mode: str, pair_budget: int,
                 fmt: str) -> int:
    """Run the no-hole audit and write its report to out; returns the exit
    code, 0 for a no-hole scheme and 1 otherwise."""
    _check_format(fmt)
    report = verifier.check_no_hole(scheme, mode, pair_budget)
    if fmt == "json":
        _stream_json(out, _envelope(scheme.k, scheme, mode=mode, **report._asdict()))
    elif fmt == "csv":
        attained = "" if report.attained_count is None else report.attained_count
        _stream(out, "k,gcd_triple,is_no_hole,attained_count\n"
                     f"{scheme.k},{report.gcd_triple},{report.is_no_hole},{attained}\n")
    else:
        parts = [f"k={scheme.k} gcd(a,b,c)={report.gcd_triple}"]
        if report.attained_count is not None:
            parts.append(f"attained {report.attained_count}/{scheme.c} labels")
        parts.append("no-hole" if report.is_no_hole else "NOT no-hole")
        _stream(out, "; ".join(parts) + "\n")
    return 0 if report.is_no_hole else 1


def write_search(out, rows: int, cols: int, k: int, node_budget: int,
                 fmt: str) -> int:
    """Search the rows x cols patch for its minimal span and write the
    result and certificate to out; returns 0."""
    _check_format(fmt)
    patch = search.Patch(rows=rows, cols=cols)
    result = search.exact_span(patch, k, node_budget)
    cert = result.certificate
    if fmt == "json":
        try:
            scheme: Optional[LabelingScheme] = scheme_params(k)
        except UnsupportedK:
            scheme = None
        _stream_json(out, _envelope(
            k, scheme, rows=rows, cols=cols,
            minimal_lambda=result.minimal_lambda, exhausted=result.exhausted,
            nodes_explored=result.nodes_explored,
            certificate=[[x, y, cert[(x, y)]] for (x, y) in sorted(cert)]))
    elif fmt == "csv":
        _stream(out, "x,y,label\n", (f"{x},{y},{cert[(x, y)]}\n"
                                      for y in range(rows) for x in range(cols)))
    else:
        status = "exhausted" if result.exhausted else "budget hit, not proven minimal"
        cell = len(str(result.minimal_lambda - 1))
        _stream(out, f"patch {rows}x{cols} k={k}: minimal lambda = "
                     f"{result.minimal_lambda} ({status}, "
                     f"{result.nodes_explored} nodes)\n",
                (" ".join(f"{cert[(x, y)]:>{cell}}" for x in range(cols)) + "\n"
                 for y in range(rows - 1, -1, -1)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlabel",
        description="Distance-constrained modular labelings of the square grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="render a window of labels")
    p.set_defaults(write=lambda out, a: write_label(out, scheme_params(a.k), *a.window,
                                                    a.format))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--window", type=_parse_window, default=(0, 0, 16, 16),
                   help="x0,y0,width,height (default 0,0,16,16)")
    p.add_argument("--format", choices=_LABEL_FORMATS, default="ascii")

    p = sub.add_parser("verify", help="validity audit")
    p.set_defaults(write=lambda out, a: write_verify(
        out, scheme_params(a.k), a.mode, *a.window[2:], a.format, a.max_violations,
        x0=a.window[0], y0=a.window[1]))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["diamond", "window", "both"], default="both")
    p.add_argument("--window", type=_parse_window, default=(0, 0, 100, 100),
                   help="x0,y0,width,height (default 0,0,100,100)")
    p.add_argument("--format", **_FORMAT)
    p.add_argument("--max-violations", type=_non_negative_int,
                   default=DEFAULT_MAX_VIOLATIONS)

    p = sub.add_parser("bounds", help="bounds table")
    p.set_defaults(write=lambda out, a: write_bounds(out, a.k_min, a.k_max, a.format))
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--format", **_FORMAT)

    p = sub.add_parser("nohole", help="no-hole audit")
    p.set_defaults(write=lambda out, a: write_nohole(out, scheme_params(a.k), a.mode,
                                                     a.pair_budget, a.format))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["gcd", "enumerate", "both"], default="both")
    p.add_argument("--pair-budget", type=_non_negative_int, default=DEFAULT_PAIR_BUDGET)
    p.add_argument("--format", **_FORMAT)

    p = sub.add_parser("search", help="exact minimal span on a patch")
    p.set_defaults(write=lambda out, a: write_search(out, a.rows, a.cols, a.k,
                                                     a.node_budget, a.format))
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--format", **_FORMAT)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        code = args.write(out, args)
        out.flush()  # so a reader that closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (gridlabel ... | head): no check failed.
        # What is still buffered goes to devnull, so the interpreter's
        # final flush stays quiet, and the code is 128 + SIGPIPE, what the
        # shell reports for a command the closed pipe killed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
