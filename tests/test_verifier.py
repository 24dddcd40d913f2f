"""Validity and no-hole audits: examples, pair counts, memory, speed, the
no-hole enumeration's rows, and the agreement tables of both claims."""

import functools
import math
import time
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import Column, Row, check_row, hand_built, peak_traced_bytes, plain
from gridlabel import verifier
from gridlabel import (
    BudgetExceeded,
    LabelingScheme,
    check_diamond,
    check_no_hole,
    check_window,
    label_difference,
    label_many,
    label_window,
    scheme_params,
    window_pairs,
)
from gridlabel.cli import MAX_DIAMOND_OFFSETS, write_verify
from gridlabel.verifier import DEFAULT_PAIR_BUDGET, window_pair_budget


# ------------------------------------------------------- label_difference

@settings(max_examples=300)
@given(
    st.sampled_from([1, 3, 4, 5, 6, 7, 8, 9]),
    st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
    st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
)
def test_label_difference_equals_absolute_gap(k, x1, y1, x2, y2):
    s = scheme_params(k)
    a, b, c = s.a, s.b, s.c
    expected = abs(oracle.label(a, b, c, x1, y1) - oracle.label(a, b, c, x2, y2))
    assert label_difference(s, (x1, y1), (x2, y2)) == expected


# ------------------------------------------ check_diamond and check_window

def test_checks_report_sixteen_violations_by_default():
    s = hand_built(1, 1, 3, 5)
    assert len(check_diamond(s, 10**6).violations) > 16
    assert len(check_window(s, 10, 10, 10**6).violations) > 16
    assert len(check_diamond(s).violations) == 16
    assert len(check_window(s, 10, 10).violations) == 16

def test_k1_adjacent_labels_differ_by_exactly_one():
    s1 = scheme_params(1)
    grid = label_window(s1, 0, 0, 10, 10)
    assert (abs(grid[:, 1:] - grid[:, :-1]) == 1).all()
    assert (abs(grid[1:, :] - grid[:-1, :]) == 1).all()


def test_window_checks_the_window_at_its_origin():
    # L = (x + y) mod 12 gives (0,0),(1,0) labels 0,1 (gap 1 < 3) but
    # (11,0),(12,0) labels 11,0 (gap 11).
    s = hand_built(1, 1, 12)
    assert not check_window(s, 2, 1).passed
    assert check_window(s, 2, 1, x0=11).passed
    assert check_window(s, 2, 1, x0=11, y0=12).passed


@pytest.mark.parametrize("k, width, height", [
    (7, 12, 3), (7, 3, 12), (7, 1, 20), (7, 20, 1), (4, 2, 2), (9, 5, 6),
])
def test_window_pair_count_when_window_is_narrower_than_k(k, width, height):
    verdict = check_window(scheme_params(k), width, height)
    assert verdict.checked_pairs == oracle.brute_pair_count(k, width, height)


def test_window_pair_count_when_k_spans_the_window():
    # k = 5001 reaches across the whole 30x30 window: every pair is checked.
    verdict = check_window(scheme_params(5001), 30, 30)
    assert verdict.passed
    assert verdict.checked_pairs == 900 * 899 // 2


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 90), st.integers(1, 90))
def test_window_pairs_sums_the_pairs_of_every_offset(k, width, height):
    assert window_pairs(k, width, height) == oracle.offset_pair_count(k, width, height)
    if width * height <= 40:
        assert window_pairs(k, width, height) == \
            oracle.brute_pair_count(k, width, height)


def test_a_hand_built_k2_scheme_passes_every_audit():
    # (2x + 3y) mod 7: k = 2 has no scheme_params case, but a scheme may
    # carry it, and it is a valid, no-hole labeling.
    s = hand_built(2, 3, 7, 2)
    assert check_diamond(s).passed
    assert check_window(s, 20, 20).passed
    assert check_no_hole(s, "both").is_no_hole


# ------------------------------------------ validity: the agreement table
#
# Columns are the routes to validity, check_diamond and check_window. Each
# test from here to the speed tests is one row: a named corpus of cases,
# each route in whose domain a case lies runs it and is compared with the
# references in oracle.py.

class Case(NamedTuple):
    scheme: LabelingScheme
    cap: int = oracle.MAX_VIOLATIONS
    window: Optional[tuple] = None  # width, height, x0, y0


#: The largest window oracle.naive_window_check's literal pair loop also
#: checks: 12x12, 10 296 pairs.
NAIVE_CELLS = 144


def window_reference(case):
    return oracle.check_window(*plain(case.scheme), *case.window[:2], case.cap,
                               *case.window[2:])


def diamond_agrees(case):
    s = case.scheme
    assert check_diamond(s, case.cap) == oracle.check_diamond(*plain(s), case.cap), case


def window_agrees(case):
    width, height, x0, y0 = case.window
    got = check_window(case.scheme, width, height, case.cap, x0=x0, y0=y0)
    assert got == window_reference(case), case
    if width * height <= NAIVE_CELLS:
        witnesses = oracle.naive_window_check(*plain(case.scheme), *case.window)
        assert got.passed == (not witnesses), case
        assert tuple(rep.offset for rep in got.violations) == witnesses[:case.cap], case


VALIDITY_COLUMNS = {
    # The CLI's budgets: 2k(k+1) diamond offsets, k <= 9189, and the pairs
    # window_pair_budget allows a window check.
    "diamond": Column(lambda case: 2 * case.scheme.k * (case.scheme.k + 1)
                      <= MAX_DIAMOND_OFFSETS, diamond_agrees, lambda case: case[:2]),
    "window": Column(lambda case: case.window is not None
                     and window_pairs(case.scheme.k, *case.window[:2])
                     <= window_pair_budget(case.scheme), window_agrees),
}
BOTH = set(VALIDITY_COLUMNS)

CAPS = [0, 1, 4, 16, 10**6]

# Triples past 2^64: no int64 path applies, labels are Python integers.
# The first two put small labels next to the origin, so most offsets
# violate; the last is valid-looking noise.
HUGE = 2**70 + 11
OBJECT_PATH_SCHEMES = [
    hand_built(a, b, c, k)
    for k in (1, 3, 4, 9)
    for a, b, c in [(HUGE + 1, 2 * HUGE - 1, HUGE), (2**65 + 3, 2**66 + 5, HUGE),
                    (3**45, 5**30, 2**67 + 1)]
]

PAPER = Row(lambda: [Case(scheme_params(k), window=(16, 12, -7, 13))
                     for k in [1, *range(3, 81), 501]], BOTH)


def test_diamond_matches_reference_on_real_schemes():
    check_row(VALIDITY_COLUMNS, PAPER, only={"diamond"})


def test_window_matches_reference_on_real_schemes():
    check_row(VALIDITY_COLUMNS, PAPER, only={"window"})


def past_the_cap():
    # The +-1 mutants, and schemes that violate at most offsets, far past
    # every finite cap.
    schemes = [hand_built(*m) for m in oracle.perturbed([1, *range(3, 13)])]
    schemes += [hand_built(a, b, c, k) for k in (3, 5, 9, 14)
                for a, b, c in [(1, 1, 3), (1, 2, 50), (0, 0, 7), (2, 3, 7)]]
    counts = [len(oracle.check_diamond(*plain(s), 10**6).violations) for s in schemes]
    assert len(schemes) >= 20 and sum(n > 16 for n in counts) >= 5, counts
    return [Case(s, cap, (20, 20, 5, -3)) for s in schemes for cap in CAPS]


def test_kernels_match_reference_past_the_violation_cap():
    check_row(VALIDITY_COLUMNS, Row(past_the_cap, BOTH))


def naive_mutants():
    # Violating triples at four origins of a window small enough for the
    # literal pair loop.
    schemes = [hand_built(1, 1, 12), hand_built(5, 15, 15), hand_built(5, 19, 26, 4),
               hand_built(7, 27, 37, 5), hand_built(2, 3, 4, 1)]
    return [Case(s, cap, (12, 12, x0, y0)) for s in schemes
            for x0, y0 in [(0, 0), (11, 0), (5, 7), (-3, 4)] for cap in CAPS]


def test_window_matches_naive_oracle_on_mutants():
    check_row(VALIDITY_COLUMNS, Row(naive_mutants, BOTH))


def object_path():
    for s in OBJECT_PATH_SCHEMES:
        assert label_many(s, np.arange(3), np.arange(3)).dtype == object
    assert not all(oracle.check_diamond(*plain(s)).passed for s in OBJECT_PATH_SCHEMES)
    return [Case(s, cap, (12, 12, -5, 2)) for s in OBJECT_PATH_SCHEMES
            for cap in (0, 16, 10**6)]


def test_kernels_match_reference_on_the_object_path():
    check_row(VALIDITY_COLUMNS, Row(object_path, BOTH))


def past_int64():
    # The required gaps and the sentinel -(k+1) are Python integers too;
    # x + y mod c fails every offset at this k.
    cases = [Case(s, cap, (5, 7, -3, 10**20))
             for s in [scheme_params(10**30 + 1), hand_built(1, 1, 2**70 + 1, 2**64)]
             for cap in (0, 10**6)]
    assert [window_reference(case).passed for case in cases] == [True, True, False, False]
    return cases


def test_window_matches_reference_when_k_is_past_int64():
    check_row(VALIDITY_COLUMNS, Row(past_int64, {"window"}))


def dtype_limit(c):
    # a = c - 1 puts labels 0 and c - 1 side by side, the widest gap the
    # narrowed grid must hold; b = 1 makes vertical neighbours violate.
    return [Case(hand_built(a, b, c, k), cap, (11, 9, x0, y0))
            for k in (1, 3, 5, 9)
            for a, b in [(c - 1, 1), (c - 1, c // 2), (c // 3, c - 2), (1, c - 1)]
            for x0, y0 in [(0, 0), (c - 3, 1 - c), (-(10**12), 7)]
            for cap in (0, 10**6)]


@pytest.mark.parametrize("c", [2**15 - 11, 2**15 - 1, 2**15, 2**31 - 11,
                               2**31 - 1, 2**31])
def test_window_matches_reference_at_the_narrow_dtype_limits(c):
    check_row(VALIDITY_COLUMNS, Row(functools.partial(dtype_limit, c), BOTH))


# Windows one cell wide or tall, thin and tall, and narrower or shorter
# than k, which cut the per-dx row copies down to one or a few cells.
WINDOW_SHAPES = [(1, 1), (1, 37), (37, 1), (4, 300), (300, 4), (2, 25), (25, 3)]
SHAPE_SCHEMES = [
    scheme_params(3), scheme_params(9), scheme_params(30),
    hand_built(1, 1, 3, 5), hand_built(2, 9, 40, 9), hand_built(18, 151, 248, 7),
    hand_built(2**15 - 2, 1, 2**15 - 1, 5), hand_built(1, 2**15 - 1, 2**15),
    hand_built(2**31 - 2, 2**30, 2**31 - 1, 5), hand_built(2**31 - 1, 1, 2**31),
    OBJECT_PATH_SCHEMES[3],
]


def shaped(width, height):
    assert not oracle.check_diamond(*plain(SHAPE_SCHEMES[5])).passed
    assert label_window(OBJECT_PATH_SCHEMES[3], 0, 0, 2, 2).dtype == object
    return [Case(s, cap, (width, height, x0, y0)) for s in SHAPE_SCHEMES
            for x0, y0 in [(0, 0), (-7, 13), (10**12, -3)] for cap in (0, 16, 10**6)]


@pytest.mark.parametrize("width, height", WINDOW_SHAPES)
def test_window_matches_reference_on_every_shape(width, height):
    check_row(VALIDITY_COLUMNS, Row(functools.partial(shaped, width, height), BOTH))


def equal_labels():
    # a = b gives equal labels at offset (1, -1) and its negation. A wide
    # window is checked transposed, where that offset comes out as (-1, 1);
    # reports still name the orientation with x > 0.
    cases = [Case(hand_built(5, 5, 40), 10**6, (width, height, -4, 7))
             for width, height in [(20, 3), (3, 20), (9, 9)]]
    assert all(((1, -1), 2, 2, 0) in window_reference(case).violations for case in cases)
    return cases


def test_window_wide_and_tall_agree_on_equal_labels():
    check_row(VALIDITY_COLUMNS, Row(equal_labels, BOTH))


BLOCK_SCHEMES = [scheme_params(1), scheme_params(9), scheme_params(24),
                 hand_built(1, 1, 3, 5), hand_built(2, 9, 40, 7), OBJECT_PATH_SCHEMES[1]]


@functools.cache
def window_blocks():
    # Tall, wide and square windows. At k = 40 the farthest offsets
    # (1, -36) and (-36, 1) of 2x37 and 37x2 windows have one pair each.
    shapes = [(s, shape) for s in [*BLOCK_SCHEMES, hand_built(7, 7, 300, 9)]
              for shape in [(1, 37), (37, 1), (4, 50), (50, 4), (20, 17), (17, 20),
                            (30, 30)]]
    shapes += [(hand_built(1, 1, 3, 40), shape) for shape in [(2, 37), (37, 2)]]
    cases = [Case(s, cap, (*shape, -7, 3)) for s, shape in shapes for cap in (0, 10**6)]
    assert sum(not window_reference(case).passed for case in cases) >= 40
    return tuple(cases)


@pytest.mark.parametrize("block_cells", [1, 7, 40, 100, 10**9])
def test_window_blocks_match_reference(monkeypatch, block_cells):
    # Bands of one row or cell, of a few rows not dividing the window, and
    # of all of it.
    monkeypatch.setattr(verifier, "BLOCK_CELLS", block_cells)
    check_row(VALIDITY_COLUMNS, Row(window_blocks, BOTH), only={"window"})


@pytest.mark.parametrize("block_cells", [1, 7, 57, 95, 100, 10**9])
def test_diamond_blocks_match_reference(monkeypatch, block_cells):
    # Blocks of one column, of a few columns not dividing 2k+1, and of all.
    # At k = 9, 57 and 95 put x = 0 first and last in a block of 3 and 5.
    monkeypatch.setattr(verifier, "BLOCK_CELLS", block_cells)
    check_row(VALIDITY_COLUMNS, Row(lambda: [Case(s, cap) for s in BLOCK_SCHEMES
                                             for cap in (0, 5, 10**6)], {"diamond"}))


def label_refused():
    schemes = (SHAPE_SCHEMES + OBJECT_PATH_SCHEMES
               + [hand_built(*m) for m in oracle.perturbed([1, *range(3, 14)])])
    cases = [Case(s, cap, (20, 17, -7, 13)) for s in schemes for cap in (0, 16, 10**6)]
    assert sum(not window_reference(case).passed for case in cases) >= 200
    return cases


def test_window_reports_the_gaps_it_observed(monkeypatch):
    # With scalar label evaluation refused, every reported gap comes from
    # the checks' own comparisons of their grids.
    def refuse(*args):
        raise AssertionError("a check evaluated a label by itself")

    monkeypatch.setattr(verifier, "label", refuse)
    check_row(VALIDITY_COLUMNS, Row(label_refused, BOTH))


def drawn(k, width, height, coeffs, x0, y0, cap):
    # None draws the paper's scheme (k = 2 has none: its mutant stands in).
    if coeffs is None:
        s = scheme_params(k) if k != 2 else hand_built(2, 3, 7, 2)
    else:
        s = hand_built(*coeffs, k)
    return Case(s, cap, (width, height, x0, y0))


def test_window_matches_reference_on_random_shapes():
    check_row(VALIDITY_COLUMNS, Row(st.builds(
        drawn, st.integers(1, 9), st.integers(1, 40), st.integers(1, 40),
        st.one_of(st.tuples(st.integers(0, 300), st.integers(0, 300), st.integers(1, 300)),
                  st.sampled_from([None, (2**15 - 2, 1, 2**15 - 1),
                                   (1, 2**31 - 2, 2**31 - 1), (3, 2**31 + 1, 2**31)])),
        st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
        st.sampled_from([0, 1, 16, 10**6])), BOTH, max_examples=200))


def test_window_agrees_with_naive_oracle_fuzz():
    # Windows of k + 3 cells a side, for the literal pair loop.
    check_row(VALIDITY_COLUMNS, Row(st.builds(
        lambda k, a, b, c, x0, y0: Case(hand_built(a, b, c, k), 10**6,
                                        (k + 3, k + 3, x0, y0)),
        st.integers(1, 5), st.integers(1, 40), st.integers(1, 40), st.integers(2, 40),
        st.integers(-50, 50), st.integers(-50, 50)), BOTH, max_examples=60))



def test_wide_windows_check_as_fast_as_tall_ones():
    # A wide window is checked as the tall one it transposes to.
    s = scheme_params(2001)
    best = {}
    for _ in range(3):
        for shape in [(8000, 4), (4, 8000)]:
            t0 = time.perf_counter()
            assert check_window(s, *shape).passed
            elapsed = time.perf_counter() - t0
            best[shape] = min(best.get(shape, elapsed), elapsed)
    assert best[8000, 4] <= 2 * best[4, 8000], best


def test_tall_windows_check_as_fast_as_wide_ones():
    # The same pairs on a 4-wide, 8000-tall window and on its transpose:
    # each offset compares one contiguous run, so the shape barely matters.
    # Slicing the 2-D grid per offset makes the tall one about 5x slower.
    s = scheme_params(2001)
    assert window_pairs(2001, 4, 8000) == window_pairs(2001, 8000, 4)
    best = {}
    for _ in range(3):
        for shape in [(4, 8000), (8000, 4)]:
            t0 = time.perf_counter()
            assert check_window(s, *shape).passed
            elapsed = time.perf_counter() - t0
            best[shape] = min(best.get(shape, elapsed), elapsed)
    assert best[4, 8000] <= 2 * best[8000, 4], best


@pytest.mark.parametrize("bound, dtype", [
    (2**15 - 1, np.int16), (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
])
def test_window_grid_takes_the_narrowest_type_holding_c(bound, dtype):
    # The grid must hold c + k + 1, the gap between the label c - 1 and
    # the sentinel -(k+1), so each boundary on c moves down by k + 1.
    def window_grid(s):
        grid = verifier._label_grid(s, -1, 2, 3, 3, verifier._window_dtype(s))
        assert grid.tolist() == oracle.label_grid(s.a, s.b, s.c, -1, 2, 3, 3)
        return grid

    for k in (1, 3, 9):
        assert window_grid(hand_built(1, 1, bound - k - 1, k)).dtype == dtype, k
    assert window_grid(hand_built(1, 1, 7, 2**63)).dtype == object


def test_diamond_memory_is_bounded_by_the_block():
    s = scheme_params(3001)  # 18 million offsets: 144 MB per int64 array
    verdict, peak = peak_traced_bytes(lambda: check_diamond(s))
    assert verdict.passed and verdict.checked_pairs == 2 * 3001 * 3002
    assert peak < 32 * 2**20, peak


def test_window_memory_stays_below_four_mib():
    # An int64 grid alone would be 7.6 MiB; the int16 grid is 1.9 MiB.
    verdict, peak = peak_traced_bytes(lambda: check_window(scheme_params(7),
                                                           1000, 1000))
    assert verdict.passed and verdict.checked_pairs == window_pairs(7, 1000, 1000)
    assert peak < 4 * 2**20, peak


def test_diamond_memory_stays_below_four_mib():
    verdict, peak = peak_traced_bytes(lambda: check_diamond(scheme_params(501)))
    assert verdict.passed
    assert peak < 4 * 2**20, peak


# ------------------------------------------------------------ no-hole

@pytest.mark.parametrize("k, mode, budget, mib", [
    (21, "both", verifier.DEFAULT_PAIR_BUDGET, 4),
    # c = 5153102: c one-byte flags (4.9 MiB) and runs of c / (a mod c)
    # ones, whatever the budget; the peak measured 4.95 MiB.
    (301, "enumerate", 10**14, 6),
])
def test_no_hole_memory_stays_bounded(k, mode, budget, mib):
    report, peak = peak_traced_bytes(lambda: check_no_hole(scheme_params(k), mode,
                                                           budget))
    assert report.is_no_hole and report.attained_count == scheme_params(k).c
    assert peak < mib * 2**20, peak


@pytest.fixture
def marked_rows(monkeypatch):
    """(start, step, c) of every row the no-hole enumeration marks."""
    rows = []
    mark_row = verifier._mark_row

    def counted(seen, start, step):
        rows.append((start, step, len(seen)))
        mark_row(seen, start, step)

    monkeypatch.setattr(verifier, "_mark_row", counted)
    return rows


def test_no_hole_enumeration_stops_once_every_label_is_seen(marked_rows):
    rows = marked_rows
    s = scheme_params(21)
    # gcd(a, c) = 1: row 0 alone attains every label of the c^2 period.
    assert math.gcd(s.a, s.c) == 1 and s.c * s.c > 3 * 10**6
    assert check_no_hole(s, "both").attained_count == s.c
    assert rows == [(0, s.a % s.c, s.c)]
    # gcd(a, b, c) = 2: only even labels, and row 1 adds none of them, so
    # the enumeration stops after two rows.
    rows.clear()
    holey = hand_built(2, 4, 1000)
    assert check_no_hole(holey, "enumerate").attained_count == 500
    assert rows == [(0, 2, 1000), (4, 2, 1000)]
    # c > 2 * 10^5 and gcd(a, c) = 2: two rows of c labels each.
    rows.clear()
    wide = hand_built(2, 1, 300002)
    assert check_no_hole(wide, "enumerate", wide.c**2).attained_count == wide.c
    assert rows == [(0, 2, wide.c), (1, 2, wide.c)]
    assert sum(c for _, _, c in rows) == 2 * wide.c


@pytest.mark.parametrize("k", [k for k in range(1, 61) if k != 2] + [63, 115])
def test_no_hole_enumeration_labels_gcd_a_c_rows(marked_rows, k):
    # Row y attains b*y + gcd(a, c)*Z_c, so rows 0 .. gcd(a, c) - 1 attain
    # every label and no fewer do; k = 11, 63 and 115 have gcd(a, c) = 13.
    s = scheme_params(k)
    assert check_no_hole(s, "enumerate", s.c**2).attained_count == s.c
    rows = math.gcd(s.a, s.c)
    assert [start for start, _, _ in marked_rows] == \
        oracle.row_starts(s.a, s.b, s.c, rows)
    assert all(step == s.a % s.c for _, step, _ in marked_rows)
    assert sum(c for _, _, c in marked_rows) == rows * s.c


@pytest.mark.parametrize("a, b, c", [
    (2, 4, 1000), (0, 4, 2000), (5, 15, 15), (6, 10, 100), (0, 4, 30),
    (-6, 9, 60), (10, -4, 60), (0, 0, 7), (4, 0, 12), (2, 4, 300002),
])
def test_no_hole_enumeration_of_a_hole_stops_at_the_first_repeated_row(
        marked_rows, a, b, c):
    # Row y attains b*y + gcd(a, c)*Z_c, a coset that first repeats at
    # y = gcd(a, c)/gcd(a, b, c): that row adds no label and is the last.
    s = hand_built(a, b, c)
    report = check_no_hole(s, "enumerate", c * c)
    assert not report.is_no_hole and report.attained_count == c // math.gcd(a, b, c)
    rows = math.gcd(a, c) // math.gcd(a, b, c) + 1
    assert [start for start, _, _ in marked_rows] == \
        oracle.row_starts(s.a, s.b, s.c, rows)
    assert sum(c for _, _, c in marked_rows) == rows * c


class CountingFlags(bytearray):
    """Flags that count the assignments made into them."""

    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def marked_row(a, b, c, y):
    # One assignment per non-wrapping run: step s makes at most s + 1 runs,
    # and steps s and c - s flag the same labels, so the smaller is taken.
    seen, step = CountingFlags(c), a % c
    verifier._mark_row(seen, (b * y) % c, step)
    assert seen.writes <= min(step, c - step) + 1
    return seen


@settings(max_examples=300, deadline=None)
@given(st.integers(-70, 70), st.integers(-70, 70), st.integers(1, 60))
def test_mark_row_flags_the_row_labels(a, b, c):
    # Zero, negative and a >= c coefficients, so steps of 0, of c - 1 and
    # ones that divide c or not, and starts anywhere in [0, c).
    for y in range(c):
        assert marked_row(a, b, c, y) == oracle.row_flags(a, b, c, y), y


@pytest.mark.parametrize("a, b, c", [(1234, 977, 300002), (299999, 5, 300001)])
def test_mark_row_flags_the_row_labels_of_a_wide_period(a, b, c):
    # Runs of unequal length: a step that does not divide c with
    # gcd(a, c) = 2, and a step of c - 2, marked as its mirror step 2.
    for y in (0, 1):
        assert marked_row(a, b, c, y) == oracle.row_flags(a, b, c, y), y


def test_gcd_a_c_is_at_most_thirteen_up_to_k_20000():
    # Bounds the rows the no-hole enumeration labels for a paper scheme.
    gcds = {math.gcd(s.a, s.c)
            for s in (scheme_params(k) for k in range(1, 20_001) if k != 2)}
    assert gcds == {1, 5, 7, 13}


def test_no_hole_both_refuses_disagreeing_routes(monkeypatch):
    # Broken arithmetic that labels every vertex 0 leaves holes the gcd
    # route does not predict.
    def zeros(seen, start, step):
        seen[0] = 1

    monkeypatch.setattr(verifier, "_mark_row", zeros)
    assert check_no_hole(scheme_params(3), "enumerate").attained_count == 1
    with pytest.raises(AssertionError, match="disagree"):
        check_no_hole(scheme_params(3), "both")


def test_no_hole_budget():
    with pytest.raises(BudgetExceeded):
        check_no_hole(scheme_params(15), "enumerate", pair_budget=100)
    with pytest.raises(BudgetExceeded):
        check_no_hole(scheme_params(15), "both", pair_budget=100)


def test_no_hole_default_budget_is_four_million_evaluations():
    # c^2 = 4 * 10^6 is enumerated; c = 2001 needs 4 004 001 and is refused.
    report = check_no_hole(hand_built(1, 1, 2000), "enumerate")
    assert report.is_no_hole and report.attained_count == 2000
    with pytest.raises(BudgetExceeded) as info:
        check_no_hole(hand_built(1, 1, 2001), "enumerate")
    assert (info.value.needed, info.value.budget) == (2001**2, 4_000_000)


def test_no_hole_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_no_hole(scheme_params(3), "telepathy")


def test_no_hole_enumeration_memory_is_far_below_a_dense_period():
    s = scheme_params(25)  # c = 3218: a dense period would be 83 MB of int64
    dense_bytes = s.c * s.c * 8
    report, peak = peak_traced_bytes(
        lambda: check_no_hole(s, "enumerate", pair_budget=s.c * s.c))
    assert report.attained_count == s.c
    assert peak < 16 * 2**20 < dense_bytes / 4, peak


# ------------------------------------------- no-hole: the agreement table
#
# Columns are check_no_hole's modes; each test below is one row, every
# mode in whose domain a scheme lies compared with the dense count.

def no_hole_agrees(mode):
    def agrees(s):
        dense = oracle.dense_label_count(s.a, s.b, s.c)
        want = (dense == s.c, s.c // dense, None if mode == "gcd" else dense)
        assert check_no_hole(s, mode) == want, s
    return agrees


NO_HOLE_COLUMNS = {
    "gcd": Column(lambda s: True, no_hole_agrees("gcd")),
    # The default budget: c^2 labels.
    **{mode: Column(lambda s: s.c * s.c <= DEFAULT_PAIR_BUDGET, no_hole_agrees(mode))
       for mode in ("enumerate", "both")},
}


def test_gcd_and_enumeration_agree_for_small_k():
    check_row(NO_HOLE_COLUMNS, Row(lambda: [scheme_params(k) for k in [1, *range(3, 14)]],
                                   set(NO_HOLE_COLUMNS)))


def test_no_hole_counts_like_the_dense_period():
    # In the last three, single rows miss labels other rows attain.
    check_row(NO_HOLE_COLUMNS, Row(lambda: [scheme_params(5), hand_built(5, 15, 15),
                                            hand_built(6, 10, 100), hand_built(10, 3, 30),
                                            hand_built(0, 1, 30), hand_built(0, 4, 30)],
                                   set(NO_HOLE_COLUMNS)))


def test_no_hole_reports_match_a_dense_count():
    # Any linear scheme, holes, zero and negative coefficients, a >= c and
    # c = 1 included: the attained labels are the multiples of gcd(a, b, c).
    check_row(NO_HOLE_COLUMNS, Row(st.builds(hand_built, st.integers(-70, 70),
                                             st.integers(-70, 70), st.integers(1, 60)),
                                   set(NO_HOLE_COLUMNS), max_examples=300))


def test_both_routes_of_a_claim_run_in_full_up_to_k_290_and_21():
    # The full window of k, (k+1) x (k+1), holds every offset of the
    # diamond: both validity routes run in full for k <= 290. Both no-hole
    # routes run at the default budget for k <= 21.
    supported = [1, *range(3, 400)]
    diamond, window = (VALIDITY_COLUMNS[name].domain for name in ("diamond", "window"))
    full = [k for k in supported
            if window(Case(scheme_params(k), window=(k + 1, k + 1, 0, 0)))]
    assert full == [1, *range(3, 291)]
    with pytest.raises(BudgetExceeded, match="^window check needs"):
        write_verify(None, scheme_params(291), "window", 292, 292, "csv")
    assert [k for k in (9189, 9190) if diamond(Case(scheme_params(k)))] == [9189]
    enumerated = [k for k in supported
                  if NO_HOLE_COLUMNS["enumerate"].domain(scheme_params(k))]
    assert enumerated == [1, *range(3, 22)]
    with pytest.raises(BudgetExceeded):
        check_no_hole(scheme_params(22), "enumerate")
