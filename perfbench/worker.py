"""One workload in a fresh process: import gridlabel, build inputs, run passes.

Started by run.py with the checkout's ``src`` as the only PYTHONPATH entry.
It prints ``ready`` once gridlabel is imported and the inputs exist (the
parent times set-up up to that line), then runs timed passes over the
workload's operation list and prints one JSON object. Only the calls into
gridlabel are timed; the summaries the parent checks are made between them.
Each pass runs pinned to one CPU between two timings of the host-speed loop
(hostspeed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from time import perf_counter

import gridlabel as gl
import gridlabel.cli
import numpy

import hostspeed
import specs
from reference import digest, ints_digest
from tracing import Tracer, layer_metrics

MIN_PASSES = 3


class Sink:
    """Stands in for sys.stdout/sys.stderr; keeps what was written."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_cli(argv: list[str]) -> tuple[int, Sink]:
    out, err = Sink(), Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = gridlabel.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout, sys.stderr = saved
    return code, out


def make_call(op, inputs):
    """A no-argument call of one operation. Functions are looked up on the
    package when called, so a tracer installed later still sees the call."""
    kind = op[0]
    if kind == "cli":
        return lambda: run_cli(op[1])
    if kind == "search":
        _, rows, cols, k, _ = op
        patch = gl.Patch(rows, cols)
        return lambda: gl.exact_span(patch, k)
    if kind in ("sphere", "ball", "t_set"):
        return lambda: getattr(gl, kind)(op[1])
    if kind == "bounds_table":
        return lambda: gl.bounds_table(op[1], op[2])
    if kind == "lb_summation":
        return lambda: gl.lb_summation(op[1], op[2])
    scheme = gl.scheme_params(op[1])
    if kind == "diamond":
        return lambda: gl.check_diamond(scheme)
    if kind == "window":
        return lambda: gl.check_window(scheme, op[2], op[3])
    if kind == "nohole":
        return lambda: gl.check_no_hole(scheme, op[2])
    if kind == "label_window":
        return lambda: gl.label_window(scheme, *op[2:])
    if kind == "label_many":
        xs, ys = inputs[op[2]]
        return lambda: gl.label_many(scheme, xs, ys)
    raise ValueError(f"unknown operation {kind!r}")


def summarize(kind: str, result) -> dict:
    if kind in ("diamond", "window"):
        return {"passed": result.passed, "checked": result.checked_pairs,
                "violations": len(result.violations)}
    if kind == "nohole":
        return {"is_no_hole": result.is_no_hole, "gcd": result.gcd_triple,
                "attained": result.attained_count}
    if kind in ("sphere", "ball", "t_set"):
        return {"n": len(result), "sha": digest(repr(result))}
    if kind == "bounds_table":
        rows = [(r.k, str(r.lower_exact), r.lower, r.upper,
                 None if r.ratio is None else str(r.ratio)) for r in result]
        return {"n": len(rows), "sha": digest(repr(rows))}
    if kind == "lb_summation":
        return {"value": str(result)}
    if kind in ("label_window", "label_many"):
        return {"shape": list(result.shape), "sha": ints_digest(result.ravel().tolist())}
    if kind == "search":
        cert = sorted([x, y, lab] for (x, y), lab in result.certificate.items())
        return {"lam": result.minimal_lambda, "exhausted": result.exhausted,
                "nodes": result.nodes_explored, "cert": cert}
    if kind == "cli":
        code, out = result
        data = "".join(out.chunks).encode()
        return {"rc": code, "bytes": len(data), "sha": hashlib.sha256(data).hexdigest()}
    raise ValueError(f"unknown operation {kind!r}")


def run_pass(ops, calls) -> dict:
    """One pass: raw and scaled seconds in gridlabel calls, the mean loop
    time, and the summaries."""
    scaler = hostspeed.Scaler()
    summaries = []
    for op, call in zip(ops, calls):
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            scaler.add(perf_counter() - start)
            summaries.append({"error": repr(exc)})
            continue
        scaler.add(perf_counter() - start)
        summaries.append(summarize(op[0], result))
        del result
    return {**scaler.result(), "summaries": summaries}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = specs.ops(args.workload, args.seed)
    inputs = specs.exact_inputs(args.seed) if args.workload == "exact" else None
    calls = [make_call(op, inputs) for op in ops]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    spans = []
    began = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        started = perf_counter()
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            # A traced pass runs on the same CPU as the untraced one before
            # it, so trace.overhead_s compares like with like.
            with hostspeed.pinned(cpus, len(passes) // (2 if tracer else 1)):
                record = run_pass(ops, calls)
        finally:
            if traced:
                tracer.uninstall()
        record.update(traced=traced, duration=perf_counter() - started)
        summaries = record["summaries"]
        if traced:
            bytes_out = sum(s.get("bytes", 0) for s in summaries)
            record["layers"] = layer_metrics(tracer.spans, bytes_out)
            spans.append([span[:4] for span in tracer.spans])
        passes.append(record)
        elapsed = perf_counter() - began
        typical = statistics.median(p["duration"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    json.dump({"gridlabel_file": gl.__file__, "numpy": numpy.__version__,
               "passes": passes, "spans": spans}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
