"""Spans around calls into gridlabel's layers, and the per-layer metrics.

``Tracer.install`` replaces the public functions listed in TRACED, in every
loaded gridlabel module that refers to them, with wrappers that append a
span ``[name, start, end, parent, count]`` to an in-memory list; ``parent``
is the index of the enclosing span or -1. Calls from one layer into another
(cli into verifier, verifier into scheme) are therefore spanned as well as
the benchmark's own calls. Per-element helpers (``label``,
``scheme_params``, ``lambda_lb`` ...) are left alone: a span would cost as
much as the work it measures.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _cli_key(argv) -> str:
    """``label.<format>`` for label commands, else the command name."""
    if argv[0] != "label":
        return argv[0]
    fmt = "ascii"
    for i, arg in enumerate(argv):
        if arg == "--format" and i + 1 < len(argv):
            fmt = argv[i + 1]
        elif arg.startswith("--format="):
            fmt = arg.split("=", 1)[1]
    return f"label.{fmt}"


def _array(args, kwargs, result):
    return (int(result.size), result.dtype.kind == "O")


def _enumerated(args, kwargs, result):
    """Label evaluations of a no-hole audit: c^2 when it enumerated."""
    if result.attained_count is None:
        return 0
    scheme = args[0] if args else kwargs["scheme"]
    return scheme.c * scheme.c


def _size(args, kwargs, result):
    return len(result)


# layer -> {public function: count taken from (args, kwargs, result)}
TRACED = {
    "scheme": {"label_many": _array, "label_window": _array},
    "verifier": {
        "check_diamond": lambda args, kwargs, r: r.checked_pairs,
        "check_window": lambda args, kwargs, r: r.checked_pairs,
        "check_no_hole": _enumerated,
    },
    "lattice": {"sphere": _size, "ball": _size, "t_set": _size},
    "bounds": {"bounds_table": _size, "lb_summation": None},
    "search": {"exact_span": lambda args, kwargs, r: r.nodes_explored,
               "greedy_certificate": None},
    "cli": {"main": lambda args, kwargs, r: _cli_key(args[0] if args else kwargs["argv"])},
}

CLI_KEYS = ("label.csv", "label.json", "label.ascii", "label.pgm",
            "verify", "bounds", "nohole", "search")

# Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = {
    "verifier.diamond_s": "s",
    "verifier.diamond_offsets": "count",
    "verifier.diamond_offsets_per_s": "1/s",
    "verifier.window_s": "s",
    "verifier.window_pairs": "count",
    "verifier.window_pairs_per_s": "1/s",
    "verifier.nohole_s": "s",
    "verifier.nohole_evals": "count",
    "scheme.label_window_s": "s",
    "scheme.label_many_s": "s",
    "scheme.cells": "count",
    "scheme.cells_per_s": "1/s",
    "scheme.object_path_calls": "count",
    "lattice.s": "s",
    "lattice.t_set_s": "s",
    "lattice.points": "count",
    "bounds.table_s": "s",
    "bounds.records": "count",
    "bounds.summation_s": "s",
    "search.exact_span_s": "s",
    "search.greedy_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    **{f"cli.{key}_s": "s" for key in CLI_KEYS},
    "cli.render_self_s": "s",
    "cli.bytes_out": "count",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "host.loop_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "gridlabel" or name.startswith("gridlabel.")]
        for layer, functions in TRACED.items():
            home = sys.modules[f"gridlabel.{layer}"]
            for fname, count in functions.items():
                original = getattr(home, fname, None)
                if original is None:  # renamed or removed: its metrics read 0
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original, count)
                for module in modules:
                    if vars(module).get(fname) is original:
                        setattr(module, fname, wrapper)
                        self._patched.append((module, fname, original))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A ``*_s`` metric named after a function is the total time inside that
    function, whoever called it. Cells, points and object-path calls count
    each scheme result once, at the outermost scheme span.
    """
    time = defaultdict(float)
    child_time = defaultdict(float)
    total = defaultdict(int)
    cells = cells_time = object_calls = 0
    cli_time = defaultdict(float)
    for name, start, end, parent, count in spans:
        span_time = end - start
        time[name] += span_time
        if parent >= 0:
            child_time[parent] += span_time
        layer = name.split(".", 1)[0]
        if layer == "scheme":
            if count is not None and (parent < 0 or not spans[parent][0].startswith("scheme.")):
                cells += count[0]
                cells_time += span_time
                object_calls += count[1]
        elif name == "cli.main":
            cli_time[count] += span_time
        elif count is not None:
            total[name] += count
    render_self = sum(end - start - child_time[i]
                      for i, (name, start, end, _, _) in enumerate(spans)
                      if name == "cli.main")
    m = {
        "verifier.diamond_s": time["verifier.check_diamond"],
        "verifier.diamond_offsets": total["verifier.check_diamond"],
        "verifier.window_s": time["verifier.check_window"],
        "verifier.window_pairs": total["verifier.check_window"],
        "verifier.nohole_s": time["verifier.check_no_hole"],
        "verifier.nohole_evals": total["verifier.check_no_hole"],
        "scheme.label_window_s": time["scheme.label_window"],
        "scheme.label_many_s": time["scheme.label_many"],
        "scheme.cells": cells,
        "scheme.cells_per_s": _rate(cells, cells_time),
        "scheme.object_path_calls": object_calls,
        "lattice.s": sum(time[f"lattice.{f}"] for f in ("sphere", "ball", "t_set")),
        "lattice.t_set_s": time["lattice.t_set"],
        "lattice.points": sum(total[f"lattice.{f}"] for f in ("sphere", "ball", "t_set")),
        "bounds.table_s": time["bounds.bounds_table"],
        "bounds.records": total["bounds.bounds_table"],
        "bounds.summation_s": time["bounds.lb_summation"],
        "search.exact_span_s": time["search.exact_span"],
        "search.greedy_s": time["search.greedy_certificate"],
        "search.nodes": total["search.exact_span"],
        "cli.render_self_s": render_self,
        "cli.bytes_out": bytes_out,
        "trace.spans": len(spans),
    }
    m["verifier.diamond_offsets_per_s"] = _rate(m["verifier.diamond_offsets"], m["verifier.diamond_s"])
    m["verifier.window_pairs_per_s"] = _rate(m["verifier.window_pairs"], m["verifier.window_s"])
    m["search.nodes_per_s"] = _rate(m["search.nodes"], m["search.exact_span_s"])
    for key in CLI_KEYS:
        m[f"cli.{key}_s"] = cli_time[key]
    return m
