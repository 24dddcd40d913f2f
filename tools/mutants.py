"""Mutation check: does tier-1 fail when one line of the package is wrong?

Each mutant replaces one piece of text, found exactly once, in one file
under src/. The repository is copied to a temporary directory, tier-1
runs there once unchanged, and then once per mutant with ``-x``, the
mutant applied to the copy alone. Each mutant is printed as killed (with
the first failing test) or survived.

A mutant whose note starts with "equivalent:" changes no output, and the
note says why; it is expected to survive. The exit code is 0 when every
other mutant is killed, 1 when one survives, and 2 when tier-1 fails
unchanged or a mutant's text is not found exactly once. Hypothesis runs
with a fixed seed, so a verdict does not depend on the draw.

Standard library only. Not part of tier-1; it takes several minutes:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "tests"]

SCHEME, VERIFIER = "src/gridlabel/scheme.py", "src/gridlabel/verifier.py"
BOUNDS, SEARCH = "src/gridlabel/bounds.py", "src/gridlabel/search.py"
LATTICE, CLI = "src/gridlabel/lattice.py", "src/gridlabel/cli.py"

# (file, old, new, note)
MUTANTS = [
    (SCHEME, "3 * p * p + 7 * p + 5,", "3 * p * p + 7 * p + 6,",
     "coefficients: b of the odd-k, odd-p case"),
    (SCHEME, "if c < 1:", "if c < 0:", "the modulus check lets c = 0 through"),
    (SCHEME, "(a % c + b % c) * (c - 1) <= _INT64_MAX",
     "(a % c + b % c) * (c - 1) < _INT64_MAX", "_int64_safe one off at its bound"),
    (SCHEME, "where=total < 0)", "where=total <= 0)",
     "_add_mod wraps a zero sum to c: the grid's and the axes' wrap"),
    (SCHEME, "coef * m % c", "coef * (m - 1) % c",
     "_progression steps its heads by m - 1 cells"),
    (SCHEME, "c // math.gcd(a, c)))]", "c // math.gcd(b, c)))]",
     "label_rows repeats its columns with the row period"),
    (SCHEME, "        if v.dtype == object:", "        if False:",
     "label_many reads an object operand only where broadcasting reaches"),
    (VERIFIER, "required[-x_lo, h] = 0", "required[-x_lo, h] = 1",
     "the diamond checks the origin against itself"),
    (VERIFIER, "h = k - int(np.abs(xs).min())", "h = k - int(np.abs(xs).min()) - 1",
     "diamond blocks one row short of their tallest column"),
    (VERIFIER, "        reach = min(k - dx, height - 1)",
     "        reach = min(k - dx - 1, height - 1)",
     "window reach one offset short"),
    (VERIFIER, "last = min(n, height - (lo + i) - r0) * cols",
     "last = min(n - 1, height - (lo + i) - r0) * cols",
     "chunk trimming drops the last base row of a band"),
    (VERIFIER, "(dx, dy) if tall else (dy, dx)", "(dx, dy) if tall else (dx, dy)",
     "a wide window reports its offsets unmapped from the transpose"),
    (VERIFIER, "if widest < 1 << (bits - 1)", "if widest <= 1 << (bits - 1)",
     "_window_dtype takes a type one too narrow at its bound"),
    (VERIFIER, "if count in (before, c):", "if count >= before:",
     "the no-hole enumeration stops after its first row"),
    (VERIFIER, "total = width * (m * height - m * (m + 1) // 2)",
     "total = width * (m * height - m * m // 2)", "window_pairs miscounts dx = 0"),
    (VERIFIER, "diff >= 0 if offset > (0, 0)", "diff > 0 if offset > (0, 0)",
     "_orient sends a zero gap to the offset with x < 0"),
    (VERIFIER, "surjective != (g == 1)", "False",
     "the no-hole cross-check of both routes never fires"),
    (VERIFIER, "step = min(step, c - step)", "step = step",
     "_mark_row marks with step a mod c where c - step is shorter"),
    (VERIFIER, "if count > budget:", "if count > budget + 1:",
     "_check_size lets one unit over the budget through"),
    (VERIFIER, "partner.fill(-(k + 1))", "partner.fill(-k)",
     "equivalent: a sentinel of -k is at least k from every label, and no "
     "offset at distance r >= 1 requires more than k"),
    (BOUNDS, "2 * p * (p + 1) * (2 * p + 1) + 6", "2 * p * (p + 1) * (2 * p + 1) + 5",
     "the even-k bound numerator"),
    (BOUNDS, "ceiled=-(-num // 3)", "ceiled=num // 3",
     "the lower bound floored, not ceiled"),
    (BOUNDS, "outer = sum(m * (p + 1 - m) for m in range(1, p + 1))",
     "outer = sum(m * (p + 1 - m) for m in range(1, p))",
     "lb_summation's outer sum drops its last term"),
    (SEARCH, "limits[0] = (lam - 1) // 2", "limits[0] = lam - 1",
     "the search's first-vertex cap dropped"),
    (SEARCH, "least_gap = k + 1 - k // 2", "least_gap = k - k // 2",
     "clique radius one too large"),
    (SEARCH, "lab = max(lab, end)", "lab = end",
     "greedy sweep steps back to a nested band's end"),
    (SEARCH, "if start == 0:", "if True:",
     "equivalent: the far-neighbour union is rebuilt on every candidate, "
     "the same union, only slower"),
    (LATTICE, "for y in (-rest, rest + 1)]", "for y in (-rest, rest)]",
     "t_set takes the upper point of the unshifted sphere"),
    (LATTICE, "for y in range(-rest, rest + 1)]", "for y in range(-rest, rest)]",
     "ball drops the top point of each column"),
    (LATTICE, "2 * rest or 1)", "2 * rest or 2)",
     "equivalent: the step matters only where rest = 0, and there the "
     "range holds one point either way"),
    (CLI, "out.write(sep + text if n else text)", "out.write(sep + text)",
     "_stream writes the separator before the first row too"),
    (CLI, "return 0 if passed else 1", "return 0",
     "verify exits 0 on a violation"),
    (CLI, "return 141", "return 1", "a closed stdout exits 1, as a violation"),
    (CLI, '"case": scheme.parity_case}', '"parity_case": scheme.parity_case}',
     "the JSON envelope renames the scheme's case field"),
    (CLI, "shifted = (x0, y0) != (0, 0)", "shifted = (x0, y0) > (0, 0)",
     "verify reports leave out an origin that sorts below 0,0"),
    (CLI, "{upper / lower:.6g}", "{upper / lower:.7g}",
     "the bounds decimal takes seven significant digits"),
    (CLI, "down = range(y0 + height - 1, y0 - 1, -1)",
     "down = range(y0 + height - 1, y0, -1)",
     "label's ascii and pgm grids drop their bottom row"),
    (CLI, "period = scheme.c // math.gcd(scheme.b, scheme.c)",
     "period = scheme.c // math.gcd(scheme.a, scheme.c)",
     "label fills its rows once per column period, not row period"),
    (CLI, "g = math.gcd(n, d)", "g = 1",
     "bounds fractions are printed unreduced"),
    (CLI, "cell = len(str(result.minimal_lambda - 1))",
     "cell = len(str(result.minimal_lambda))",
     "search's ascii columns sized for one label too many"),
    (CLI, "if value < 0:", "if value < -1:",
     "--max-violations and --pair-budget accept -1"),
]


def tier1(copy: Path) -> tuple[bool, str, float]:
    """Run tier-1 in copy: (passed, first failing test, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    failed = [line.split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed or [""])[0], time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "results"))
        passed, failure, seconds = tier1(copy)
        print(f"unchanged: {'passed' if passed else 'FAILED ' + failure} "
              f"({seconds:.1f} s)", flush=True)
        if not passed:
            return 2
        stale = survived = 0
        for path, old, new, note in MUTANTS:
            target = copy / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"STALE     {path}: {old!r} found {text.count(old)} times")
                stale += 1
                continue
            target.write_text(text.replace(old, new))
            try:
                passed, failure, seconds = tier1(copy)
            finally:
                target.write_text(text)
            equivalent = note.startswith("equivalent:")
            survived += passed and not equivalent
            verdict = "survived" if passed else "killed  "
            print(f"{verdict}  {path}: {old!r} -> {new!r} ({seconds:.1f} s)\n"
                  f"          {note}{'' if passed else '; by ' + failure}",
                  flush=True)
    return 2 if stale else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
