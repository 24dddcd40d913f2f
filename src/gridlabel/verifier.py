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
``label_window`` call per block, so memory stays O(BLOCK_CELLS + k) at
any k.
Each block is a rectangle only as tall as its tallest column, and each
cell is compared with the gap k+1-|x|-|y| it requires. A cell outside
the diamond requires a gap of at most 0, which no label misses, since
labels lie in [0, c); so only the origin, whose required gap is set to
0, needs excluding.

``check_window`` brute-forces |L(u) - L(v)| over all vertex pairs of a
finite rectangle, using nothing but label evaluation and absolute
differences. It is deliberately redundant with ``check_diamond`` so the
two can cross-validate each other. Rectangles embed isometrically in the
grid, so in-window distances need no boundary correction. A wide window
is checked as the tall window it transposes to. The window is labelled
once, by ``label_window``'s kernel, into the narrowest type holding
c + k + 1, which is int64 for every k <= 3664061, as for
``label_window``. Each column offset compares bands of rows with their
partner rows, padded with the sentinel -(k+1), one chunk of row offsets
per numpy call, so memory stays near the narrow grid's size.
``window_pairs`` counts the pairs it compares without labelling
anything, and ``window_pair_budget`` gives the most a caller should let
it compare, so callers can bound the work first.

``check_no_hole`` audits surjectivity onto {0, ..., c-1}: the attained
label set is the subgroup of Z_c generated by gcd(a, b, c), so the gcd
predicate decides it; enumeration of the c-by-c period, in row blocks
labelled in pieces of at most BLOCK_CELLS cells, provides the independent
confirmation. The enumeration stops after the first row block that
brings the attained count to c, which for the paper's schemes is the
first row block.

All checks are pure; violation lists are reported in lexicographic
offset order, capped at a configurable maximum. The array checks import
numpy when they first run, not when this module is imported, and the
gcd route of ``check_no_hole`` needs none.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from .scheme import (
    EVEN_K_EVEN_P,
    EVEN_K_ODD_P,
    ODD_K_EVEN_P,
    ODD_K_ODD_P,
    LabelingScheme,
    _label_grid,
    label,
    label_window,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_VIOLATIONS = 16
DEFAULT_PAIR_BUDGET = 4_000_000
#: Pairs a window check should compare, counted by window_pairs.
#: Int16 comparisons (c + k + 1 < 2^15, k <= 55) reach about 3.5 G
#: pairs/s: a 1000x1000 window at k = 50 (2.5e9 pairs) takes about 0.7 s
#: end to end. Thin windows of either orientation compare on int64 at
#: about 1 G pairs/s: 3e9 pairs at k = 9189 take about 3 s on 4x25000
#: and on 25000x4, and at k = 10^6 on 19000x4 and on 4x19000 (in
#: process, on 2 shared cores).
#: Schemes whose window grid holds Python integers (k > 3664061) get
#: the smaller budget: they compare about 11-13 M pairs/s, about 4 s for
#: the whole default 100x100 window (49 995 000 pairs). Up to
#: k = 3664061 the grid is int64: 101x100 (50 999 950 pairs) takes about
#: 0.1 s at k = 3000000 and at 3664061.
MAX_WINDOW_PAIRS = 3 * 10**9
MAX_OBJECT_WINDOW_PAIRS = 5 * 10**7
#: Cells per block of the diamond check and of the no-hole enumeration,
#: and per gap chunk of check_window's subtract/abs/min calls. Its bands
#: of base rows hold 2*BLOCK_CELLS bytes: BLOCK_CELLS int16 labels, fewer
#: wider ones.
BLOCK_CELLS = 1 << 17

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
    reordered internally; equal labels give 0. Coordinates are read with
    operator.index, as in label, so numpy integers cannot wrap.
    """
    u, v = tuple(map(operator.index, u)), tuple(map(operator.index, v))
    if label(scheme, u) < label(scheme, v):
        u, v = v, u
    return label(scheme, (u[0] - v[0], u[1] - v[1]))


def check_diamond(scheme: LabelingScheme,
                  max_violations: int = DEFAULT_MAX_VIOLATIONS) -> VerificationVerdict:
    """Exact validity check via offset labels (2k(k+1) offsets for parameter k).

    Only the first max_violations violating offsets, in lexicographic
    order, become reports; passed is False whenever any offset violates.
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
    counts only the upward half. Raises ValueError for k < 1 or an
    empty window.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if width < 1 or height < 1:
        raise ValueError("window must have positive dimensions")
    m = min(k, height - 1)
    total = width * (m * height - m * (m + 1) // 2)
    for dx in range(1, min(k, width - 1) + 1):
        m = min(k - dx, height - 1)
        total += (width - dx) * (height * (2 * m + 1) - m * (m + 1))
    return total


def window_pair_budget(scheme: LabelingScheme) -> int:
    """The most pairs a window check of scheme should compare: the type
    it compares in (_window_dtype) sets the speed, so Python integers get
    the smaller budget."""
    if _window_dtype(scheme) == "object":
        return MAX_OBJECT_WINDOW_PAIRS
    return MAX_WINDOW_PAIRS


def check_window(scheme: LabelingScheme, width: int, height: int,
                 max_violations: int = DEFAULT_MAX_VIOLATIONS, *,
                 x0: int = 0, y0: int = 0) -> VerificationVerdict:
    """Brute-force pair check over [x0, x0 + width) x [y0, y0 + height).

    Every unordered in-window pair at distance <= k is compared by
    absolute label difference; no difference-vector shortcut is used for
    the gap itself. A violating pair is reported under its witness
    offset, the difference vector taken larger-label-first (equal labels
    take the offset with x > 0, or x = 0 and y > 0), which makes window
    reports directly comparable with diamond reports, and with the
    smallest gap observed in that orientation.

    A window wider than it is tall is checked as the tall window it
    transposes to (a and b swapped), with reports mapped back. The window
    is labelled once, in the narrowest type holding c + k + 1
    (_window_dtype). For each column offset dx, bands of
    2 * BLOCK_CELLS bytes of base rows are copied into one buffer, and
    their partner rows, reach = min(k - dx, height - 1) more on either
    side, into another, rows outside the window holding the sentinel
    -(k+1). Row i of a strided view of that buffer partners the band at
    the i-th offset dy, so a chunk of offsets costs one subtract, abs and
    smallest-gap call over BLOCK_CELLS cells. A sentinel is at least k+1
    from every label, more than any offset requires, so it never fails.
    Only an offset whose smallest gap fails computes its signed
    differences to tell its two orientations apart. Raises ValueError
    for an empty window.
    """
    import numpy as np

    pairs = window_pairs(scheme.k, width, height)
    _check_non_negative("max_violations", max_violations)
    k = scheme.k
    tall = height >= width
    if not tall:
        scheme = replace(scheme, a=scheme.b, b=scheme.a)
        x0, y0, width, height = y0, x0, height, width
    grid = _label_grid(scheme, x0, y0, width, height, _window_dtype(scheme))
    # Bands of 2 * BLOCK_CELLS bytes and gap chunks of BLOCK_CELLS cells:
    # wider labels compare more offsets dy per call over fewer rows, which
    # measured faster for int32 and int64 windows.
    band_cells = max(2 * BLOCK_CELLS // grid.itemsize, width)
    reach = min(k, height - 1)
    base_buffer = np.empty(min(band_cells, grid.size), dtype=grid.dtype)
    partner_buffer = np.empty(base_buffer.size + 2 * reach * width, dtype=grid.dtype)
    gap_buffer = np.empty(min(max(BLOCK_CELLS, width), (2 * reach + 1) * grid.size),
                          dtype=grid.dtype)
    least = np.empty(2 * reach + 1, dtype=grid.dtype)
    found: dict[tuple[int, int], ViolationReport] = {}
    for dx in range(0, min(k, width - 1) + 1):
        cols = width - dx
        reach = min(k - dx, height - 1)
        lo = 1 if dx == 0 else -reach
        dys = np.arange(lo, reach + 1)
        required = k + 1 - dx - np.abs(dys).astype(grid.dtype)
        band = band_cells // cols
        for r0 in range(0, height, band):
            n = min(band, height - r0)
            base = base_buffer[: n * cols]
            np.copyto(base.reshape(n, cols), grid[r0:r0 + n, :cols])
            # Partner row j is window row r0 + lo + j, or the sentinel.
            span = n + reach - lo
            partner = partner_buffer[: span * cols].reshape(span, cols)
            top, bottom = max(0, r0 + lo), min(height, r0 + n + reach)
            partner.fill(-(k + 1))
            partner[top - r0 - lo: bottom - r0 - lo] = grid[top:bottom, dx:]
            # Row i of shifted is the partner of the band at dy = lo + i.
            shifted = np.ndarray((dys.size, n * cols), grid.dtype, partner_buffer,
                                 strides=(cols * grid.itemsize, grid.itemsize))
            shifted.setflags(write=False)
            # A chunk pays for up to chunk - 1 rows of sentinels per offset:
            # less than a call costs on fixed-width labels, not on objects.
            # Measured at k = 3664062 (Python-integer labels), chunking
            # objects too made the default 100x100 window take 4.3-4.7 s
            # instead of 3.5-4.0 s, and a 30x30 one 0.06-0.07 s instead
            # of 0.03-0.04 s, so objects keep one offset per call.
            chunk = max(1, BLOCK_CELLS // (n * cols))
            if grid.dtype == object:
                chunk = 1
            least.fill(k + 1)
            for i in range(0, dys.size, chunk):
                nd = min(chunk, dys.size - i)
                # Only base rows with a partner in the window for some dy.
                first = max(0, -(lo + i + nd - 1) - r0) * cols
                last = min(n, height - (lo + i) - r0) * cols
                if first >= last:
                    continue
                rows = shifted[i: i + nd, first:last]
                gap = gap_buffer[: rows.size].reshape(rows.shape)
                np.subtract(rows, base[first:last], out=gap)
                np.abs(gap, out=gap)
                np.minimum.reduce(gap, axis=1, out=least[i: i + nd])
            low = least[: dys.size] < required
            if not low.any():
                continue
            for i in np.flatnonzero(low).tolist():
                dy = lo + i
                _orient(found, (dx, dy) if tall else (dy, dx),
                        shifted[i] - base, dx + abs(dy), int(required[i]))
    ordered = tuple(sorted(found.values(), key=lambda rep: rep.offset))
    return VerificationVerdict(
        passed=not found,
        checked_pairs=pairs,
        violations=ordered[:max_violations],
    )


def _orient(found: dict, offset: tuple[int, int], diff: np.ndarray,
            r: int, required: int) -> None:
    """Record the smallest gap below required on each side of offset.

    diff holds the signed label differences of one comparison, partner
    minus base, so its pairs with diff > 0 witness offset and those with
    diff < 0 witness -offset. A zero gap goes to whichever of the two has
    x > 0, or x = 0 and y > 0.
    """
    gap = abs(diff)
    low = gap < required
    ahead = diff >= 0 if offset > (0, 0) else diff > 0
    for off, side in ((offset, ahead), ((-offset[0], -offset[1]), ~ahead)):
        hit = low & side
        if hit.any():
            actual = int(gap[hit].min())
            if off not in found or actual < found[off].actual:
                found[off] = ViolationReport(off, r, required, actual)


def _window_dtype(scheme: LabelingScheme) -> str:
    """The narrowest signed type holding c + k + 1, past the widest gap
    between a label in [0, c) and the sentinel -(k+1); "object" (Python
    integers) when no fixed-width type does."""
    widest = scheme.c + scheme.k + 1
    return next((f"int{bits}" for bits in (16, 32, 64)
                 if widest < 1 << (bits - 1)), "object")


def check_no_hole(scheme: LabelingScheme, mode: str = "both",
                  pair_budget: int = DEFAULT_PAIR_BUDGET) -> NoHoleReport:
    """Audit that every label in {0, ..., c-1} is attained.

    mode "gcd":       no-hole iff gcd(a, b, c) == 1 (subgroup argument).
    mode "enumerate": evaluate the c-by-c period in row blocks and count
                      distinct labels, stopping after the first block
                      that brings the count to c; raises BudgetExceeded
                      when c*c exceeds pair_budget.
    mode "both":      run both routes and insist they agree.
    A negative pair_budget raises ValueError in every mode.
    """
    _check_non_negative("pair_budget", pair_budget)
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

    # Labels lie in [0, c), so they index one flag each; the flags take c
    # bytes. A row block is whole rows of BLOCK_CELLS cells at most, or
    # one row labelled in pieces of BLOCK_CELLS cells once c exceeds it,
    # so memory is c bytes plus one block whatever the budget. Blocks are
    # int64: label_window only leaves int64 past c = 2^63-1, where numpy
    # refuses the flag array (ValueError). A flag array that no memory
    # can hold raises MemoryError; the CLI reports both and exits 2.
    c = scheme.c
    rows, cols = max(1, BLOCK_CELLS // c), min(c, BLOCK_CELLS)
    seen = np.zeros(c, dtype=bool)
    for y0 in range(0, c, rows):
        for x0 in range(0, c, cols):
            seen[label_window(scheme, x0, y0, min(cols, c - x0),
                              min(rows, c - y0))] = True
        count = int(np.count_nonzero(seen))
        if count == c:
            break
    surjective = count == scheme.c
    if mode == "both" and surjective != (g == 1):
        raise AssertionError(
            "gcd predicate and enumeration disagree; scheme arithmetic is broken"
        )
    return NoHoleReport(is_no_hole=surjective, gcd_triple=g, attained_count=count)
