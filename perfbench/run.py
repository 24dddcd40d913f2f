"""gridlabel benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Measures the gridlabel package in the checkout this file sits in, from the
outside: library workloads run in a fresh worker process (worker.py) with
the checkout's ``src`` as the only PYTHONPATH entry, and the ``cli``
workload runs ``python -m gridlabel`` subprocesses one at a time. Every
operation's output is checked against ``reference`` (library) or against
stdout digests recorded from the seed implementation (cli).

Pass and set-up times are scaled by the host's speed at the time they were
taken (hostspeed.py); the raw times are kept in the run record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, whose
spans are written to ``perfbench/results/`` when the run ends. A JSON line
with the environment, the commit, ``gridlabel.__file__`` and every pass is
printed before it and written to the same directory.

This process imports neither numpy nor gridlabel and keeps no child's
output in memory beyond a worker's JSON report. On Linux a child's
``ru_maxrss`` starts from the high-water mark of the process that spawned
it, so a large parent would hide the memory of every smaller child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import hostspeed
import reference
import specs
from tracing import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "results"

# Set-up is timed this many times before the measured passes and as many
# times after them, so that its median spans the run.
SETUP_SAMPLES = 4
# The whole run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


class BenchError(Exception):
    pass


class Child:
    """A finished child process: latency, exit code, peak RSS and stdout.

    stdout is always hashed as it streams in, and kept only when asked.
    """

    def __init__(self, argv, deadline, wait_ready=False, keep_stdout=True):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        killer = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
        err: list[bytes] = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        killer.start()
        drain.start()
        kept: list[bytes] = []
        sha = hashlib.sha256()
        self.stdout_bytes = 0
        self.ready_s = None
        try:
            if wait_ready and proc.stdout.readline().strip() == b"ready":
                self.ready_s = perf_counter() - start
            while chunk := proc.stdout.read(1 << 16):
                sha.update(chunk)
                self.stdout_bytes += len(chunk)
                if keep_stdout:
                    kept.append(chunk)
            # os.wait4 reports this child's own peak RSS; RUSAGE_CHILDREN
            # would keep the largest child seen so far.
            _, status, usage = os.wait4(proc.pid, 0)
            self.latency_s = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            drain.join()
            killer.join()
            proc.stdout.close()
            proc.stderr.close()
        self.returncode = proc.returncode
        self.stdout = b"".join(kept)
        self.stdout_sha256 = sha.hexdigest()
        self.stderr = b"".join(err)
        self.peak_rss_mb = usage.ru_maxrss / 1024
        if monotonic() >= deadline:
            raise BenchError(f"{' '.join(argv)} overran the run deadline")


def python(*args) -> list[str]:
    return [sys.executable, *args]


def script(name, deadline, *args, **kwargs) -> Child:
    """Run one of the benchmark's own scripts; it must exit 0."""
    child = Child(python(str(BENCH_DIR / name), *map(str, args)), deadline, **kwargs)
    if child.returncode != 0 or (kwargs.get("wait_ready") and child.ready_s is None):
        raise BenchError(f"{name} {' '.join(map(str, args))} failed:\n"
                         f"{child.stderr.decode(errors='replace')}")
    return child


def worker(workload, seed, deadline, seconds=0.0, trace=0, setup_only=False) -> Child:
    args = ["--workload", workload, "--seed", seed, "--seconds", f"{seconds:.3f}",
            "--trace", trace] + (["--setup-only"] if setup_only else [])
    return script("worker.py", deadline, *args, wait_ready=True)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def steal_ticks():
    """Steal ticks of all CPUs from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "steal_ticks": steal_ticks(),
    }


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(str(what))


def median_layers(traced_passes) -> dict[str, float]:
    """Per-layer metrics of the traced passes, metric by metric; the low
    median keeps counts whole and every value one that was measured."""
    names = traced_passes[0]["layers"]
    return {name: statistics.median_low(p["layers"][name] for p in traced_passes)
            for name in names}


def traced_layers(passes) -> tuple[dict[str, float], float]:
    """Per-layer metrics of a traced run's passes and its median untraced
    pass time (scaled)."""
    traced = [p for p in passes if p["traced"]]
    untraced = statistics.median(p["scaled"] for p in passes if not p["traced"])
    layers = median_layers(traced)
    layers["trace.overhead_s"] = statistics.median(p["scaled"] for p in traced) - untraced
    layers["host.loop_s"] = statistics.median(p["loop_s"] for p in passes)
    return layers, untraced


def run_library(workload, seed, seconds, trace, deadline, tally, record):
    ops = specs.ops(workload, seed)
    # References first, so they never compete with a timed child.
    expectations = json.loads(script("expect.py", deadline, "--workload", workload,
                                     "--seed", seed).stdout)
    cpus = sorted(os.sched_getaffinity(0))
    setups = []

    def setup_samples():
        for _ in range(0 if trace else SETUP_SAMPLES):
            with hostspeed.pinned(cpus, len(setups)):
                scaler = hostspeed.Scaler()
                scaler.add(worker(workload, seed, deadline, setup_only=True).ready_s)
                setups.append(scaler.result())

    setup_samples()
    child = worker(workload, seed, deadline, seconds=seconds, trace=trace)
    setup_samples()
    out = json.loads(child.stdout)
    for number, p in enumerate(out["passes"]):
        for op, summary in zip(ops, p.pop("summaries"), strict=True):
            ok = (reference.search_ok(op, summary) if op[0] == "search"
                  else summary == expectations[repr(op)])
            tally.add(ok, f"pass {number} {op!r}: got {summary}")
    record.update(gridlabel_file=out["gridlabel_file"], numpy=out["numpy"],
                  passes=out["passes"], setup_samples=setups)
    if trace:
        record["spans"] = out["spans"]
        return traced_layers(out["passes"])[0]
    return {"wall_s": statistics.median(p["scaled"] for p in out["passes"]),
            "setup_s": statistics.median(p["scaled"] for p in setups),
            "peak_rss_mb": child.peak_rss_mb}


def run_cli(workload, seed, seconds, trace, deadline, tally, record):
    cases = specs.cli_cases()
    trivial = next(c for c in cases if c.get("setup"))
    probe = Child(python("-c", "import gridlabel, numpy; "
                         "print(gridlabel.__file__); print(numpy.__version__)"), deadline)
    record["gridlabel_file"], record["numpy"] = probe.stdout.decode().split()
    cpus = sorted(os.sched_getaffinity(0))
    setups, passes, peak_by_command = [], [], {}

    def run(case) -> Child:
        child = Child(python("-m", "gridlabel", *case["argv"]), deadline,
                      keep_stdout=False)
        ok = (child.returncode == case["rc"] and child.stdout_bytes == case["bytes"]
              and child.stdout_sha256 == case["sha256"])
        tally.add(ok, f"{case['argv']}: exit {child.returncode}, {child.stdout_bytes} bytes")
        key = " ".join(case["argv"])
        peak_by_command[key] = max(peak_by_command.get(key, 0.0), child.peak_rss_mb)
        return child

    def timed(samples, commands):
        with hostspeed.pinned(cpus, len(samples)):
            scaler = hostspeed.Scaler()
            for case in commands:
                scaler.add(run(case).latency_s)
            samples.append(scaler.result())

    def run_pass():
        timed(passes, cases)

    def setup_samples():
        for _ in range(SETUP_SAMPLES):
            timed(setups, [trivial])

    began = monotonic()
    if not trace:
        setup_samples()
        while True:
            started = monotonic()
            run_pass()
            if len(passes) >= 3 and monotonic() - began + (monotonic() - started) > seconds:
                break
        setup_samples()
        record.update(passes=passes, setup_samples=setups,
                      peak_rss_mb_by_command=peak_by_command)
        return {"wall_s": statistics.median(p["scaled"] for p in passes),
                "setup_s": statistics.median(p["scaled"] for p in setups),
                "peak_rss_mb": max(peak_by_command.values())}

    # Traced: one subprocess pass for the latency users see, then the same
    # argv in-process, alternating untraced and traced passes.
    run_pass()
    rest = max(0.0, seconds - (monotonic() - began))
    out = json.loads(worker(workload, seed, deadline, seconds=rest, trace=1).stdout)
    for p in out["passes"]:
        for case, summary in zip(cases, p.pop("summaries"), strict=True):
            want = {"rc": case["rc"], "bytes": case["bytes"], "sha": case["sha256"]}
            tally.add(summary == want, f"in-process {case['argv']}: {summary}")
    layers, in_process = traced_layers(out["passes"])
    layers["cli.startup_s"] = (passes[0]["scaled"] - in_process) / len(cases)
    record.update(subprocess_pass=passes[0], in_process_passes=out["passes"],
                  spans=out["spans"])
    return layers


def run_workload(workload, seed, seconds, trace) -> tuple[dict, dict]:
    deadline = monotonic() + RUN_DEADLINE_S
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "commit": git_commit(), "env_before": environment()}
    runner = run_cli if workload == "cli" else run_library
    values = runner(workload, seed, seconds, trace, deadline, tally, record)
    src = (ROOT / "src").resolve()
    if not Path(record["gridlabel_file"]).resolve().is_relative_to(src):
        raise BenchError(f"gridlabel was imported from {record['gridlabel_file']}, "
                         f"not from {src}")
    if trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        values["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    spans = record.pop("spans", None)
    record.update(env_after=environment(), attempted=tally.attempted,
                  failed=tally.failed, messages=tally.messages,
                  parent_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "passes": spans}) + "\n")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return record, result


def run_all(seed, seconds) -> int:
    """Every workload, untraced then traced, each in its own run.py process,
    printed as one table."""
    correct = True
    for workload in specs.WORKLOADS:
        for trace in (0, 1):
            argv = python(__file__, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace))
            done = subprocess.run(argv, stdout=subprocess.PIPE, check=False)
            if done.returncode != 0:
                print(f"# {workload} trace={trace} exited {done.returncode}")
                correct = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            correct &= result["correct"]
            print(f"# {workload} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:8s} {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridlabel" / "__init__.py").is_file():
        print(f"error: no gridlabel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        record, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
