"""The fixed operation list of each workload.

An operation is a tuple ``(kind, *params)``. The parent process and the
worker build the same list from the workload name and seed; the worker runs
it against gridlabel and the parent judges the results with ``reference``.
Only ``exact`` draws inputs from the seed, and every seed gives it the same
amount of work, so run-to-run spread is not spread in work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from reference import coefficients

LIBRARY_WORKLOADS = ("certify", "exact", "search")
WORKLOADS = LIBRARY_WORKLOADS + ("cli",)

# The enumeration route of check_no_hole is capped at c^2 <= 4*10^6.
NOHOLE_ENUMERATION_CAP = 4_000_000

# First k where 2(c-1)^2 overflows int64, so label evaluation takes the
# exact object path from here on.
FIRST_OBJECT_K = 2254
EXACT_KS = (FIRST_OBJECT_K, 3001, 5001)
EXACT_WINDOW = 400
EXACT_POINTS = 200_000
EXACT_COORD = 10**12

# (rows, cols, k, lambda) fixtures the exact search proves within its
# default node budget; lambda is the proven minimal label count.
SEARCH_FIXTURES = (
    (2, 5, 4, 18), (2, 4, 5, 22), (1, 12, 7, 29), (1, 6, 9, 34),
    (2, 3, 7, 29), (3, 6, 3, 12), (3, 3, 4, 18), (4, 5, 3, 12),
    (5, 5, 3, 12), (6, 6, 2, 7), (8, 8, 1, 2), (2, 2, 2, 5),
)

CLI_CASES_FILE = Path(__file__).with_name("cli_expected.json")


def certify_ops() -> list[tuple]:
    ks = [k for k in range(1, 81) if coefficients(k) is not None]
    ops: list[tuple] = [("diamond", k) for k in ks]
    ops.append(("diamond", 501))
    ops += [("window", k, 100, 100) for k in ks if k <= 41 and k % 2]
    ops.append(("window", 7, 1000, 1000))
    for k in ks:
        c = coefficients(k)[2]
        ops.append(("nohole", k, "both" if c * c <= NOHOLE_ENUMERATION_CAP else "gcd"))
    for m in range(0, 61):
        ops += [("sphere", m), ("ball", m), ("t_set", m)]
    ops.append(("bounds_table", 1, 10_000))
    ops += [("lb_summation", p, parity)
            for p in range(1, 301) for parity in ("even-k", "odd-k")]
    return ops


def exact_inputs(seed: int):
    """One (xs, ys) int64 coordinate pair per k in EXACT_KS.

    numpy is imported here rather than at the top so that run.py, which
    only builds operation lists, stays small: see run.Child.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    return [(rng.integers(-EXACT_COORD, EXACT_COORD, EXACT_POINTS),
             rng.integers(-EXACT_COORD, EXACT_COORD, EXACT_POINTS))
            for _ in EXACT_KS]


def exact_ops(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    ops: list[tuple] = []
    for index, k in enumerate(EXACT_KS):
        x0, y0 = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
        ops.append(("label_window", k, x0, y0, EXACT_WINDOW, EXACT_WINDOW))
        ops.append(("label_many", k, index))
        ops.append(("window", k, 30, 30))
    return ops


def search_ops() -> list[tuple]:
    return [("search", *fixture) for fixture in SEARCH_FIXTURES]


def cli_cases() -> list[dict]:
    """Commands with the exit code, byte count and stdout sha256 recorded
    from the seed implementation; the README fixes CLI output byte for byte."""
    return json.loads(CLI_CASES_FILE.read_text())["cases"]


def ops(workload: str, seed: int) -> list[tuple]:
    if workload == "certify":
        return certify_ops()
    if workload == "exact":
        return exact_ops(seed)
    if workload == "search":
        return search_ops()
    if workload == "cli":
        return [("cli", case["argv"]) for case in cli_cases()]
    raise ValueError(f"unknown workload {workload!r}")
