"""Exhaustive validity and no-hole audits for grid labeling schemes.

The separation requirement: vertices at Manhattan distance r, 1 <= r <= k,
must carry labels differing by at least k+1-r. Two independent routes
check it.

``check_diamond`` evaluates the scheme on every offset vector with
1 <= |x|+|y| <= k. Because the absolute label gap of any pair collapses
to the label of their difference vector (``label_difference``), and the
offset diamond is closed under negation, this finite check is exact for
the whole infinite grid: a clean diamond certifies the scheme, while a
violating offset names a concrete offending pair (the origin plus that
offset, since the origin's label is 0). The diamond is labelled in
blocks of whole columns x, about BLOCK_CELLS cells each, by one
``label_window`` call per block (int64 for every k <= 2908167, exact
Python integers past that), so memory stays O(BLOCK_CELLS + k) at any k.
Each block is a rectangle only as tall as its tallest column, and each
cell is compared with the gap k+1-|x|-|y| it requires. A cell outside
the diamond requires a gap of at most 0, which no label misses when
c >= 1, since labels then lie in [0, c); so only the origin, whose
required gap is set to 0, needs excluding.

``check_window`` brute-forces |L(u) - L(v)| over all vertex pairs of a
finite rectangle, using nothing but label evaluation and absolute
differences. It is deliberately redundant with ``check_diamond`` so the
two can cross-validate each other. Rectangles embed isometrically in the
grid, so in-window distances need no boundary correction. An int64 label
grid is first cast to int16 or int32 when that type holds +-c, so every
difference fits. For each column offset dx the grid's first and last
width-dx columns are copied once into row-major buffers, so the two
operands of every offset (dx, dy) are single contiguous runs whatever
the window's shape. Each offset writes its absolute differences into a
gap buffer and costs one smallest-gap test; the violating pairs are only
located when that test fails. The three buffers are allocated once per
call, each the size of the grid. ``window_pairs``
counts the pairs it compares without labelling anything, and
``window_pair_budget`` gives the most a caller should let it compare, so
callers can bound the work first.

``check_no_hole`` audits surjectivity onto {0, ..., c-1}: the attained
label set is the subgroup of Z_c generated by gcd(a, b, c), so the gcd
predicate decides it; enumeration of one full c-by-c period provides the
independent confirmation.

All checks are pure; violation lists are reported in lexicographic
offset order, capped at a configurable maximum. The array checks import
numpy when they first run, not when this module is imported, and the
gcd route of ``check_no_hole`` needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .scheme import (
    EVEN_K_EVEN_P,
    EVEN_K_ODD_P,
    ODD_K_EVEN_P,
    ODD_K_ODD_P,
    LabelingScheme,
    _check_modulus,
    _int64_window,
    label,
    label_window,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_VIOLATIONS = 16
DEFAULT_PAIR_BUDGET = 4_000_000
#: Pairs a window check should compare, counted by window_pairs.
#: Int64 label grids (k <= 2908167, scheme._int64_window) compare up to
#: 2.3 G pairs/s on square windows: a 1000x1000 window at k = 50 (2.5e9
#: pairs) takes about 1 s end to end. Thin and tall windows run somewhat
#: slower, since each column offset copies the grid: 3e9 pairs at
#: k = 9189 took about 5 s on 25000x4 and 3.5 s on 4x25000, and at
#: k = 10^6 about 4 s on 19000x4 and 3 s on 4x19000 (in process, on 2
#: shared cores).
#: Python-integer labels (k > 2908167) compare about 13 M pairs/s and get
#: the smaller budget: about 4 s, and still the whole default 100x100
#: window (49 995 000 pairs).
MAX_WINDOW_PAIRS = 3 * 10**9
MAX_OBJECT_WINDOW_PAIRS = 5 * 10**7
#: Cells per block of the diamond check and of the no-hole enumeration.
BLOCK_CELLS = 1 << 18

#: Values gcd(a, b) can take in each parity case.
GCD_AB_ALLOWED = {
    ODD_K_ODD_P: frozenset({1, 5}),
    ODD_K_EVEN_P: frozenset({1, 3}),
    EVEN_K_ODD_P: frozenset({1, 3}),
    EVEN_K_EVEN_P: frozenset({1}),
}


class BudgetExceeded(ValueError):
    """A request over one of its budgets, refused before any work starts."""

    def __init__(self, what: str, needed: int, unit: str, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what} needs {needed} {unit}, budget is {budget}")


@dataclass(frozen=True)
class ViolationReport:
    """Witness that the separation requirement fails at one offset."""

    offset: tuple[int, int]
    r: int
    required_gap: int
    actual: int


@dataclass(frozen=True)
class VerificationVerdict:
    passed: bool
    checked_pairs: int
    violations: tuple[ViolationReport, ...]


@dataclass(frozen=True)
class NoHoleReport:
    is_no_hole: bool
    gcd_triple: int
    attained_count: Optional[int]  # None unless enumeration ran


def _check_non_negative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def label_difference(scheme: LabelingScheme, u, v) -> int:
    """|L(u) - L(v)| computed as the label of the difference vector.

    Both labels live in [0, c), so once the arguments are ordered
    larger-label-first their gap equals the non-negative remainder of the
    difference, which is exactly the label of u - v. Arguments are
    reordered internally; equal labels give 0.
    """
    if label(scheme, u) < label(scheme, v):
        u, v = v, u
    return label(scheme, (u[0] - v[0], u[1] - v[1]))


def check_diamond(scheme: LabelingScheme,
                  max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationVerdict:
    """Exact validity check via offset labels (2k(k+1) offsets for parameter k).

    Only the first max_violations violating offsets, in lexicographic
    order, become reports; passed is False whenever any offset violates.
    Raises ValueError, from label_window, for a modulus c < 1, whose
    labels can be negative.
    """
    import numpy as np

    _check_non_negative("max_violations", max_violations)
    k = scheme.k
    violations: list[ViolationReport] = []
    failed = False
    columns = max(1, BLOCK_CELLS // (2 * k + 1))
    for x_lo in range(-k, k + 1, columns):
        xs = np.arange(x_lo, min(x_lo + columns, k + 1))
        h = k - int(np.abs(xs).min())
        # Rows are x and columns y, so row-major order is lexicographic.
        actual = label_window(scheme, x_lo, -h, xs.size, 2 * h + 1).T
        required = (k + 1 - np.abs(xs))[:, None] - np.abs(np.arange(-h, h + 1))
        if x_lo <= 0 < x_lo + xs.size:
            required[-x_lo, h] = 0  # the origin
        # Cells off the diamond need a gap <= 0, which no label in [0, c) misses.
        bad = actual < required
        if not bad.any():
            continue
        ix, iy = np.nonzero(bad)
        failed = True
        keep = max_violations - len(violations)
        ix, iy = ix[:keep], iy[:keep]
        ox, oy = xs[ix], iy - h
        violations += map(ViolationReport, zip(ox.tolist(), oy.tolist()),
                          (np.abs(ox) + np.abs(oy)).tolist(),
                          required[ix, iy].tolist(), actual[ix, iy].tolist())
    return VerificationVerdict(
        passed=not failed,
        checked_pairs=2 * k * (k + 1),
        violations=tuple(violations),
    )


def window_pairs(k: int, width: int, height: int) -> int:
    """Unordered pairs of a width x height rectangle at distance 1..k.

    This is the number of pairs check_window compares, in
    O(min(k, width)): for dx >= 1 each column offset reaches
    m = min(k - dx, height - 1) rows up and down, which gives
    (width - dx) * (height * (2m + 1) - m(m + 1)) pairs, and dx = 0
    counts only the upward half.
    """
    m = min(k, height - 1)
    total = width * (m * height - m * (m + 1) // 2)
    for dx in range(1, min(k, width - 1) + 1):
        m = min(k - dx, height - 1)
        total += (width - dx) * (height * (2 * m + 1) - m * (m + 1))
    return total


def window_pair_budget(scheme: LabelingScheme) -> int:
    """The most pairs a window check of scheme should compare: the dtype
    of its label_window grid sets the speed, so Python-integer labels get
    the smaller budget."""
    return MAX_WINDOW_PAIRS if _int64_window(scheme) else MAX_OBJECT_WINDOW_PAIRS


def check_window(scheme: LabelingScheme, width: int, height: int,
                 max_violations: int = DEFAULT_MAX_VIOLATIONS, *,
                 x0: int = 0, y0: int = 0) -> VerificationVerdict:
    """Brute-force pair check over [x0, x0 + width) x [y0, y0 + height).

    Every unordered in-window pair at distance <= k is compared by
    absolute label difference; no difference-vector shortcut is used for
    the gap itself. A violating pair is reported under its witness
    offset, the difference vector taken larger-label-first, which makes
    window reports directly comparable with diamond reports, and with
    the smallest gap observed in that orientation.

    Each column offset dx copies the grid's columns [0, width-dx) and
    [dx, width) into two row-major buffers, so every (dx, dy) compares
    one contiguous run of each, and writes the gaps into a third buffer.
    Memory is the grid and these three buffers of its size, allocated
    once per call; only a failing offset computes its signed differences
    to tell its two orientations apart.
    """
    import numpy as np

    if width < 1 or height < 1:
        raise ValueError("window must have positive dimensions")
    _check_non_negative("max_violations", max_violations)
    k = scheme.k
    grid = _narrowed(label_window(scheme, x0, y0, width, height), scheme.c)
    left_buffer, right_buffer, gap_buffer = np.empty((3, grid.size),
                                                     dtype=grid.dtype)
    reports: dict[tuple[int, int], ViolationReport] = {}
    pairs = 0
    for dx in range(0, min(k, width - 1) + 1):
        cols = width - dx
        left, right = left_buffer[: height * cols], right_buffer[: height * cols]
        np.copyto(left.reshape(height, cols), grid[:, :cols])
        np.copyto(right.reshape(height, cols), grid[:, dx:])
        reach = min(k - dx, height - 1)
        dy_values = range(1, reach + 1) if dx == 0 else range(-reach, reach + 1)
        for dy in dy_values:
            n = (height - abs(dy)) * cols
            if dy >= 0:
                base, shifted = left[:n], right[dy * cols:]
            else:
                base, shifted = left[-dy * cols:], right[:n]
            pairs += n
            gap = gap_buffer[:n]
            np.subtract(shifted, base, out=gap)
            np.abs(gap, out=gap)
            r = dx + abs(dy)
            required = k + 1 - r
            if gap.min() >= required:
                continue
            diff = shifted - base
            mask = gap < required
            for off, side in (((dx, dy), diff >= 0), ((-dx, -dy), diff < 0)):
                hit = mask & side
                if hit.any():
                    reports[off] = ViolationReport(off, r, required,
                                                   int(gap[hit].min()))
    ordered = tuple(sorted(reports.values(), key=lambda rep: rep.offset))
    return VerificationVerdict(
        passed=not reports,
        checked_pairs=pairs,
        violations=ordered[:max_violations],
    )


def _narrowed(grid: np.ndarray, c: int) -> np.ndarray:
    """An int64 label grid in the narrowest signed type holding +-c."""
    import numpy as np

    if grid.dtype == np.int64:
        for dtype in (np.int16, np.int32):
            if c <= np.iinfo(dtype).max:
                return grid.astype(dtype)
    return grid


def check_no_hole(scheme: LabelingScheme, mode: str = "both",
                  pair_budget: int = DEFAULT_PAIR_BUDGET) -> NoHoleReport:
    """Audit that every label in {0, ..., c-1} is attained.

    mode "gcd":       no-hole iff gcd(a, b, c) == 1 (subgroup argument).
    mode "enumerate": evaluate one full c-by-c period and count distinct
                      labels; raises BudgetExceeded when c*c exceeds
                      pair_budget.
    mode "both":      run both routes and insist they agree.
    A negative pair_budget or a modulus c < 1, whose labels would leave
    [0, c), raises ValueError in every mode.
    """
    _check_non_negative("pair_budget", pair_budget)
    _check_modulus(scheme.c)
    g = math.gcd(scheme.a, scheme.b, scheme.c)
    if mode == "gcd":
        return NoHoleReport(is_no_hole=(g == 1), gcd_triple=g, attained_count=None)
    if mode not in ("enumerate", "both"):
        raise ValueError(f"unknown no-hole mode {mode!r}")
    needed = scheme.c * scheme.c
    if needed > pair_budget:
        raise BudgetExceeded("no-hole enumeration", needed, "evaluations",
                             pair_budget)
    import numpy as np

    # Labels lie in [0, c), so histograms count them in O(c^2). The period
    # is labelled in row blocks, so memory stays O(block + c) whatever the
    # budget. Blocks are int64: label_window only leaves int64 for
    # c > 2^62, far past any c*c a budget could allow.
    c = scheme.c
    rows = max(1, BLOCK_CELLS // c)
    hits = np.zeros(c, dtype=np.int64)
    for y0 in range(0, c, rows):
        block = label_window(scheme, 0, y0, c, min(rows, c - y0))
        hits += np.bincount(block.ravel(), minlength=c)
    count = int(np.count_nonzero(hits))
    surjective = count == scheme.c
    if mode == "both" and surjective != (g == 1):
        raise AssertionError(
            "gcd predicate and enumeration disagree; scheme arithmetic is broken"
        )
    return NoHoleReport(is_no_hole=surjective, gcd_triple=g, attained_count=count)
