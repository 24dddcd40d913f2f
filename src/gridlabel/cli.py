"""Command-line driver for grid labeling schemes.

Subcommands:
    label   render a window of labels (ascii, csv, json, pgm)
    verify  validity audit via diamond and/or window checks
    bounds  lower/upper bound table with exact ratios
    nohole  surjectivity audit (gcd and/or enumeration)
    search  exact minimal span on a small patch

Exit codes are a stable contract: 0 = success / all checks passed,
1 = a property violation was found, 2 = usage error, unsupported k,
output over MAX_OUTPUT_ROWS (window cells or bounds rows), a diamond
over MAX_DIAMOND_OFFSETS, or exceeded budget. Output is written row by
row as it is formatted.

CSV output is RFC-4180-style with a mandatory header row and LF line
endings. PGM output is plain P2 with maxval c-1 (a visualization aid,
not a data format). JSON output carries "k" and "scheme" (a, b, c, p,
case) plus a command-specific payload; field names are documented in the
README and are fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .bounds import bounds_records
from .scheme import LabelingScheme, UnsupportedK, label_window, scheme_params
from .search import Patch, exact_span
from .verifier import (
    DEFAULT_MAX_VIOLATIONS,
    DEFAULT_PAIR_BUDGET,
    BudgetExceeded,
    VerificationVerdict,
    check_diamond,
    check_no_hole,
    check_window,
)

MAX_OUTPUT_ROWS = 1_000_000
#: 2k(k+1) offsets at k = 9189, the last k on the int64 label path.
MAX_DIAMOND_OFFSETS = 2 * 9189 * 9190

_Y = "\0"  # stands for y in a label row template; no number contains it


class OutputTooLarge(ValueError):
    """A request over a size budget: more window cells or bounds rows than
    MAX_OUTPUT_ROWS, or more diamond offsets than MAX_DIAMOND_OFFSETS."""


def _check_size(what: str, count: int, unit: str, budget: int) -> None:
    if count > budget:
        raise OutputTooLarge(f"{what} has {count} {unit}; the budget is {budget}")


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


def _scheme_json(s: LabelingScheme) -> dict:
    return {"a": s.a, "b": s.b, "c": s.c, "p": s.p, "case": s.parity_case}


def _json_head_tail(payload: dict) -> tuple[str, str]:
    """``json.dumps(payload, indent=2)`` split at its last value, ``[]``.

    Items written between the two halves, each indented four spaces and
    separated by ",\n", give the bytes of dumping the full payload.
    """
    head, tail = json.dumps(payload, indent=2).rsplit("[]", 1)
    return head + "[\n", "\n  ]" + tail + "\n"


def _stream(out, head: str, rows, sep: str = "", tail: str = "") -> None:
    """Write head, then each row as it is made (joined by sep), then tail."""
    out.write(head)
    for n, text in enumerate(rows):
        out.write(sep + text if n else text)
    out.write(tail)


# ---------------------------------------------------------------- label

def write_label(out, scheme: LabelingScheme, x0: int, y0: int, width: int,
                height: int, fmt: str) -> None:
    """Write the label grid to out one row at a time.

    Raises OutputTooLarge above the cell budget, before writing anything.
    """
    _check_size("window", width * height, "cells", MAX_OUTPUT_ROWS)
    grid = label_window(scheme, x0, y0, width, height)
    xs = range(x0, x0 + width)
    up = range(height)
    down = range(height - 1, -1, -1)  # matrix orientation: top row = max y

    def rows(order, template):
        # template has x baked in, _Y for y and %d for each label.
        return (template.replace(_Y, str(y0 + iy)) % tuple(grid[iy].tolist())
                for iy in order)

    if fmt == "csv":
        template = "".join(f"{x},{_Y},%d\n" for x in xs)
        _stream(out, "x,y,label\n", rows(up, template))
    elif fmt == "ascii":
        template = " ".join([f"%{len(str(scheme.c - 1))}d"] * width) + "\n"
        _stream(out, "", rows(down, template))
    elif fmt == "pgm":
        _stream(out, f"P2\n{width} {height}\n{scheme.c - 1}\n",
                rows(down, " ".join(["%d"] * width) + "\n"))
    elif fmt == "json":
        head, tail = _json_head_tail({
            "k": scheme.k,
            "scheme": _scheme_json(scheme),
            "window": {"x0": x0, "y0": y0, "width": width, "height": height},
            "cells": [],
        })
        template = ",\n".join(f"    [\n      {x},\n      {_Y},\n      %d\n    ]"
                              for x in xs)
        _stream(out, head, rows(up, template), ",\n", tail)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _cmd_label(args) -> int:
    write_label(sys.stdout, scheme_params(args.k), *args.window, args.format)
    return 0


# --------------------------------------------------------------- verify

def _verdict_json(v: VerificationVerdict) -> dict:
    return {
        "passed": v.passed,
        "checked_pairs": v.checked_pairs,
        "violations": [
            {
                "offset": list(rep.offset),
                "r": rep.r,
                "required_gap": rep.required_gap,
                "actual": rep.actual,
            }
            for rep in v.violations
        ],
    }


def run_verify(scheme: LabelingScheme, mode: str, width: int, height: int,
               fmt: str, max_violations: int = DEFAULT_MAX_VIOLATIONS, *,
               x0: int = 0, y0: int = 0) -> tuple[int, str]:
    """Run the requested checks; returns (exit_code, rendered report).

    The window check covers [x0, x0 + width) x [y0, y0 + height). Reports
    name the origin only when it is not 0,0. Raises OutputTooLarge for a
    diamond or window over its budget, before checking anything.
    """
    if mode in ("diamond", "both"):
        _check_size("diamond", 2 * scheme.k * (scheme.k + 1), "offsets",
                    MAX_DIAMOND_OFFSETS)
    if mode in ("window", "both"):
        _check_size("window", width * height, "cells", MAX_OUTPUT_ROWS)
    checks: dict[str, VerificationVerdict] = {}
    if mode in ("diamond", "both"):
        checks["diamond"] = check_diamond(scheme, max_violations)
    if mode in ("window", "both"):
        checks["window"] = check_window(scheme, width, height, max_violations,
                                        x0=x0, y0=y0)
    passed = all(v.passed for v in checks.values())
    shifted = (x0, y0) != (0, 0)
    if fmt == "json":
        window = {"width": width, "height": height}
        if shifted:
            window = {"x0": x0, "y0": y0, **window}
        payload = {
            "k": scheme.k,
            "scheme": _scheme_json(scheme),
            "mode": mode,
            "window": window if "window" in checks else None,
            "checks": {name: _verdict_json(v) for name, v in checks.items()},
            "passed": passed,
        }
        return (0 if passed else 1), json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = ["check,offset_x,offset_y,r,required_gap,actual"]
        for name in sorted(checks):
            for rep in checks[name].violations:
                lines.append(
                    f"{name},{rep.offset[0]},{rep.offset[1]},{rep.r},"
                    f"{rep.required_gap},{rep.actual}"
                )
        return (0 if passed else 1), "\n".join(lines) + "\n"
    lines = [f"k={scheme.k} scheme: ({scheme.a}*x + {scheme.b}*y) mod {scheme.c}"]
    origin = f" at {x0},{y0}" if shifted else ""
    for name, v in checks.items():
        where = f" {width}x{height}{origin}" if name == "window" else ""
        status = "PASS" if v.passed else "FAIL"
        lines.append(
            f"{name}{where}: {status} ({v.checked_pairs} pairs checked, "
            f"{len(v.violations)} violations reported)"
        )
        for rep in v.violations:
            lines.append(
                f"  offset={rep.offset} r={rep.r} "
                f"required={rep.required_gap} actual={rep.actual}"
            )
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    return (0 if passed else 1), "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    scheme = scheme_params(args.k)
    x0, y0, w, h = args.window
    code, text = run_verify(scheme, args.mode, w, h, args.format,
                            args.max_violations, x0=x0, y0=y0)
    sys.stdout.write(text)
    return code


# --------------------------------------------------------------- bounds

_BOUNDS_JSON_ROW = """    {
      "k": %s,
      "lower_exact": "%s",
      "lower": %s,
      "upper": %s,
      "ratio_exact": %s,
      "ratio_decimal": %s
    }"""


def write_bounds(out, k_min: int, k_max: int, fmt: str) -> None:
    """Write the bounds table for [k_min, k_max] to out one record at a time.

    csv and json make each record as they write it. ascii holds every
    record first, because its column widths depend on all of them. Raises
    OutputTooLarge above the row budget, before writing anything.
    """
    _check_size("bounds table", k_max - k_min + 1, "rows", MAX_OUTPUT_ROWS)
    records = bounds_records(k_min, k_max)
    # k, lower_exact, lower, upper, ratio_exact, ratio_decimal; None where
    # there is no value (k = 2 has no scheme).
    fields = ((str(r.k), str(r.lower_exact), str(r.lower),
               None if r.upper is None else str(r.upper),
               None if r.ratio is None else str(r.ratio),
               None if r.ratio is None else f"{float(r.ratio):.6g}")
              for r in records)
    if fmt == "csv":
        _stream(out, "k,lower_exact,lower,upper,ratio_exact,ratio_decimal\n",
                (",".join([f or "" for f in row]) + "\n" for row in fields))
    elif fmt == "json":
        head, tail = _json_head_tail(
            {"k_min": k_min, "k_max": k_max, "records": []})
        _stream(out, head, (
            _BOUNDS_JSON_ROW % (k, exact, lower, upper or "null",
                                "null" if ratio is None else f'"{ratio}"',
                                "null" if decimal is None else f'"{decimal}"')
            for k, exact, lower, upper, ratio, decimal in fields), ",\n", tail)
    elif fmt == "ascii":
        rows = [("k", "lower_exact", "lower", "upper", "ratio", "ratio_dec")]
        rows += [tuple(f or "-" for f in row) for row in fields]
        template = "  ".join(f"%{max(len(row[i]) for row in rows)}s"
                             for i in range(len(rows[0]))) + "\n"
        _stream(out, "", (template % row for row in rows))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _cmd_bounds(args) -> int:
    write_bounds(sys.stdout, args.k_min, args.k_max, args.format)
    return 0


# --------------------------------------------------------------- nohole

def _cmd_nohole(args) -> int:
    scheme = scheme_params(args.k)
    report = check_no_hole(scheme, args.mode, args.pair_budget)
    if args.format == "json":
        payload = {
            "k": scheme.k,
            "scheme": _scheme_json(scheme),
            "mode": args.mode,
            "is_no_hole": report.is_no_hole,
            "gcd_triple": report.gcd_triple,
            "attained_count": report.attained_count,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        attained = "" if report.attained_count is None else str(report.attained_count)
        sys.stdout.write(
            "k,gcd_triple,is_no_hole,attained_count\n"
            f"{scheme.k},{report.gcd_triple},{report.is_no_hole},{attained}\n"
        )
    else:
        parts = [f"k={scheme.k} gcd(a,b,c)={report.gcd_triple}"]
        if report.attained_count is not None:
            parts.append(f"attained {report.attained_count}/{scheme.c} labels")
        parts.append("no-hole" if report.is_no_hole else "NOT no-hole")
        sys.stdout.write("; ".join(parts) + "\n")
    return 0 if report.is_no_hole else 1


# --------------------------------------------------------------- search

def _cmd_search(args) -> int:
    patch = Patch(rows=args.rows, cols=args.cols)
    result = exact_span(patch, args.k, args.node_budget)
    cert = result.certificate
    if args.format == "json":
        scheme_field: Optional[dict]
        try:
            scheme_field = _scheme_json(scheme_params(args.k))
        except UnsupportedK:
            scheme_field = None
        payload = {
            "k": args.k,
            "scheme": scheme_field,
            "rows": patch.rows,
            "cols": patch.cols,
            "minimal_lambda": result.minimal_lambda,
            "exhausted": result.exhausted,
            "nodes_explored": result.nodes_explored,
            "certificate": [[x, y, cert[(x, y)]] for (x, y) in sorted(cert)],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        _stream(sys.stdout, "x,y,label\n",
                (f"{x},{y},{cert[(x, y)]}\n"
                 for y in range(patch.rows) for x in range(patch.cols)))
    else:
        status = "exhausted" if result.exhausted else "budget hit, not proven minimal"
        cell = len(str(result.minimal_lambda - 1))
        _stream(sys.stdout,
                f"patch {patch.rows}x{patch.cols} k={args.k}: "
                f"minimal lambda = {result.minimal_lambda} "
                f"({status}, {result.nodes_explored} nodes)\n",
                (" ".join(f"{cert[(x, y)]:>{cell}}" for x in range(patch.cols)) + "\n"
                 for y in range(patch.rows - 1, -1, -1)))
    return 0


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlabel",
        description="Distance-constrained modular labelings of the square grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_label = sub.add_parser("label", help="render a window of labels")
    p_label.add_argument("--k", type=int, required=True)
    p_label.add_argument("--window", type=_parse_window, default=(0, 0, 16, 16),
                         help="x0,y0,width,height (default 0,0,16,16)")
    p_label.add_argument("--format", choices=["ascii", "csv", "json", "pgm"],
                         default="ascii")
    p_label.set_defaults(func=_cmd_label)

    p_verify = sub.add_parser("verify", help="validity audit")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--mode", choices=["diamond", "window", "both"],
                          default="both")
    p_verify.add_argument("--window", type=_parse_window, default=(0, 0, 100, 100),
                          help="x0,y0,width,height (default 0,0,100,100)")
    p_verify.add_argument("--format", choices=["ascii", "csv", "json"],
                          default="ascii")
    p_verify.add_argument("--max-violations", type=_non_negative_int,
                          default=DEFAULT_MAX_VIOLATIONS)
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="bounds table")
    p_bounds.add_argument("--k-min", type=int, required=True)
    p_bounds.add_argument("--k-max", type=int, required=True)
    p_bounds.add_argument("--format", choices=["ascii", "csv", "json"],
                          default="ascii")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_nohole = sub.add_parser("nohole", help="no-hole audit")
    p_nohole.add_argument("--k", type=int, required=True)
    p_nohole.add_argument("--mode", choices=["gcd", "enumerate", "both"],
                          default="both")
    p_nohole.add_argument("--pair-budget", type=_non_negative_int,
                          default=DEFAULT_PAIR_BUDGET)
    p_nohole.add_argument("--format", choices=["ascii", "csv", "json"],
                          default="ascii")
    p_nohole.set_defaults(func=_cmd_nohole)

    p_search = sub.add_parser("search", help="exact minimal span on a patch")
    p_search.add_argument("--rows", type=int, required=True)
    p_search.add_argument("--cols", type=int, required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--node-budget", type=int, default=10_000_000)
    p_search.add_argument("--format", choices=["ascii", "csv", "json"],
                          default="ascii")
    p_search.set_defaults(func=_cmd_search)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
