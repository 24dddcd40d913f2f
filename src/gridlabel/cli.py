"""Command-line driver for grid labeling schemes.

Subcommands:
    label   render a window of labels (ascii, csv, json, pgm)
    verify  validity audit via diamond and/or window checks
    bounds  lower/upper bound table with exact ratios
    nohole  surjectivity audit (gcd and/or enumeration)
    search  exact minimal span on a small patch

Exit codes are a stable contract: 0 = success / all checks passed,
1 = a property violation was found, 2 = usage error, unsupported k,
oversized window, or exceeded budget.

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
from fractions import Fraction
from typing import Optional

from .bounds import BoundsRecord, bounds_table
from .scheme import LabelingScheme, UnsupportedK, label_window, scheme_params
from .search import InvalidPatch, Patch, exact_span
from .verifier import (
    DEFAULT_MAX_VIOLATIONS,
    DEFAULT_PAIR_BUDGET,
    BudgetExceeded,
    VerificationVerdict,
    check_diamond,
    check_no_hole,
    check_window,
)

MAX_WINDOW_CELLS = 1_000_000


class WindowTooLarge(Exception):
    def __init__(self, cells: int):
        super().__init__(
            f"window has {cells} cells; the budget is {MAX_WINDOW_CELLS}"
        )


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


def _fraction_str(f: Fraction) -> str:
    return str(f)


def _decimal_str(f: Fraction) -> str:
    return f"{float(f):.6g}"


# ---------------------------------------------------------------- label

def render_label(scheme: LabelingScheme, x0: int, y0: int, width: int,
                 height: int, fmt: str) -> str:
    """Rendered label grid; raises WindowTooLarge above the cell budget."""
    if width * height > MAX_WINDOW_CELLS:
        raise WindowTooLarge(width * height)
    grid = label_window(scheme, x0, y0, width, height)
    if fmt == "csv":
        lines = ["x,y,label"]
        for iy in range(height):
            for ix in range(width):
                lines.append(f"{x0 + ix},{y0 + iy},{int(grid[iy, ix])}")
        return "\n".join(lines) + "\n"
    if fmt == "ascii":
        cell = len(str(scheme.c - 1))
        lines = []
        for iy in range(height - 1, -1, -1):  # matrix orientation: top row = max y
            lines.append(" ".join(f"{int(v):>{cell}}" for v in grid[iy]))
        return "\n".join(lines) + "\n"
    if fmt == "pgm":
        lines = ["P2", f"{width} {height}", f"{scheme.c - 1}"]
        for iy in range(height - 1, -1, -1):
            lines.append(" ".join(str(int(v)) for v in grid[iy]))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "k": scheme.k,
            "scheme": _scheme_json(scheme),
            "window": {"x0": x0, "y0": y0, "width": width, "height": height},
            "cells": [
                [x0 + ix, y0 + iy, int(grid[iy, ix])]
                for iy in range(height)
                for ix in range(width)
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_label(args) -> int:
    scheme = scheme_params(args.k)
    x0, y0, w, h = args.window
    sys.stdout.write(render_label(scheme, x0, y0, w, h, args.format))
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
    name the origin only when it is not 0,0.
    """
    if mode in ("window", "both") and width * height > MAX_WINDOW_CELLS:
        raise WindowTooLarge(width * height)
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

def render_bounds(records: list[BoundsRecord], fmt: str) -> str:
    if fmt == "csv":
        lines = ["k,lower_exact,lower,upper,ratio_exact,ratio_decimal"]
        for r in records:
            upper = "" if r.upper is None else str(r.upper)
            ratio_e = "" if r.ratio is None else _fraction_str(r.ratio)
            ratio_d = "" if r.ratio is None else _decimal_str(r.ratio)
            lines.append(
                f"{r.k},{_fraction_str(r.lower_exact)},{r.lower},"
                f"{upper},{ratio_e},{ratio_d}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "k_min": records[0].k,
            "k_max": records[-1].k,
            "records": [
                {
                    "k": r.k,
                    "lower_exact": _fraction_str(r.lower_exact),
                    "lower": r.lower,
                    "upper": r.upper,
                    "ratio_exact": None if r.ratio is None else _fraction_str(r.ratio),
                    "ratio_decimal": None if r.ratio is None else _decimal_str(r.ratio),
                }
                for r in records
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "ascii":
        header = ("k", "lower_exact", "lower", "upper", "ratio", "ratio_dec")
        rows = [header]
        for r in records:
            rows.append((
                str(r.k),
                _fraction_str(r.lower_exact),
                str(r.lower),
                "-" if r.upper is None else str(r.upper),
                "-" if r.ratio is None else _fraction_str(r.ratio),
                "-" if r.ratio is None else _decimal_str(r.ratio),
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = ["  ".join(f"{cell:>{widths[i]}}" for i, cell in enumerate(row))
                 for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_bounds(args) -> int:
    records = bounds_table(args.k_min, args.k_max)
    sys.stdout.write(render_bounds(records, args.format))
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
        lines = ["x,y,label"]
        for y in range(patch.rows):
            for x in range(patch.cols):
                lines.append(f"{x},{y},{cert[(x, y)]}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        status = "exhausted" if result.exhausted else "budget hit, not proven minimal"
        sys.stdout.write(
            f"patch {patch.rows}x{patch.cols} k={args.k}: "
            f"minimal lambda = {result.minimal_lambda} "
            f"({status}, {result.nodes_explored} nodes)\n"
        )
        cell = len(str(result.minimal_lambda - 1))
        for y in range(patch.rows - 1, -1, -1):
            sys.stdout.write(
                " ".join(f"{cert[(x, y)]:>{cell}}" for x in range(patch.cols)) + "\n"
            )
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
    except UnsupportedK as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WindowTooLarge, BudgetExceeded, InvalidPatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
