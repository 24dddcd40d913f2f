"""Validity and no-hole audits, cross-checked against naive oracles."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlabel import verifier
from gridlabel import (
    GCD_AB_ALLOWED,
    BudgetExceeded,
    LabelingScheme,
    ViolationReport,
    check_diamond,
    check_no_hole,
    check_window,
    label,
    label_difference,
    label_many,
    label_window,
    scheme_params,
    window_pairs,
)


def naive_window_check(scheme, width, height, x0=0, y0=0):
    """Oracle: literal double loop over all pairs at distance <= k.

    Violating pairs are keyed by their difference vector taken
    larger-label-first; ties use the x >= 0 half representative, matching
    the library's reporting convention.
    """
    k = scheme.k
    cells = [(x0 + x, y0 + y) for y in range(height) for x in range(width)]
    witness_offsets = set()
    for i, u in enumerate(cells):
        for v in cells[:i]:
            d = abs(u[0] - v[0]) + abs(u[1] - v[1])
            if d > k:
                continue
            lu, lv = label(scheme, u), label(scheme, v)
            if abs(lu - lv) >= k + 1 - d:
                continue
            if lu != lv:
                hi, lo = (u, v) if lu > lv else (v, u)
                off = (hi[0] - lo[0], hi[1] - lo[1])
            else:
                off = (u[0] - v[0], u[1] - v[1])
                if off[0] < 0 or (off[0] == 0 and off[1] < 0):
                    off = (-off[0], -off[1])
            witness_offsets.add(off)
    return witness_offsets


def mutant(k, a, b, c):
    return LabelingScheme(k=k, p=(k - 1) // 2 if k % 2 else k // 2,
                          parity_case="hand-built", a=a, b=b, c=c)


# ------------------------------------------------- reference kernels
#
# The scalar diamond loop and the window loop over 2-D slices, one per
# offset, that the array kernels replaced. They are kept only here, as the
# reference the kernels must match verdict for verdict.

def diamond_offsets(k):
    """All offsets (x, y) with 1 <= |x|+|y| <= k, lexicographic order."""
    for x in range(-k, k + 1):
        span = k - abs(x)
        for y in range(-span, span + 1):
            if x == 0 and y == 0:
                continue
            yield (x, y)


def reference_check_diamond(scheme, max_violations=verifier.DEFAULT_MAX_VIOLATIONS):
    k = scheme.k
    violations = []
    checked = 0
    for off in diamond_offsets(k):
        checked += 1
        r = abs(off[0]) + abs(off[1])
        required = k + 1 - r
        actual = label(scheme, off)
        if actual < required:
            violations.append(ViolationReport(off, r, required, actual))
    return verifier.VerificationVerdict(
        passed=not violations,
        checked_pairs=checked,
        violations=tuple(violations[:max_violations]),
    )


def reference_check_window(scheme, width, height,
                           max_violations=verifier.DEFAULT_MAX_VIOLATIONS, *,
                           x0=0, y0=0):
    k = scheme.k
    grid = label_window(scheme, x0, y0, width, height)
    reports = {}
    pairs = 0
    for dx in range(0, min(k, width - 1) + 1):
        reach = min(k - dx, height - 1)
        dy_values = range(1, reach + 1) if dx == 0 else range(-reach, reach + 1)
        for dy in dy_values:
            if dy >= 0:
                base = grid[: height - dy, : width - dx]
                shifted = grid[dy:, dx:]
            else:
                base = grid[-dy:, : width - dx]
                shifted = grid[: height + dy, dx:]
            pairs += base.size
            diff = shifted - base
            gap = np.abs(diff)
            r = dx + abs(dy)
            required = k + 1 - r
            mask = gap < required
            if not mask.any():
                continue
            if (mask & (diff >= 0)).any():
                off = (dx, dy)
                reports[off] = ViolationReport(off, r, required, label(scheme, off))
            if (mask & (diff < 0)).any():
                off = (-dx, -dy)
                reports[off] = ViolationReport(off, r, required, label(scheme, off))
    ordered = tuple(sorted(reports.values(), key=lambda rep: rep.offset))
    return verifier.VerificationVerdict(
        passed=not reports,
        checked_pairs=pairs,
        violations=ordered[:max_violations],
    )


# ------------------------------------------------------- label_difference

def test_label_difference_examples():
    s3 = scheme_params(3)
    u, v = (1, 0), (2, 1)
    assert label(s3, u) == 5 and label(s3, v) == 1
    assert label_difference(s3, u, v) == 4
    assert label_difference(s3, u, v) == label(s3, (-1, -1))
    assert label_difference(s3, (4, -7), (4, -7)) == 0
    s7 = scheme_params(7)
    assert label_difference(s7, (1, 0), (0, 0)) == 9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_label_difference_exact_for_numpy_coordinates():
    # 2^62 - (-2^62) leaves int64: the coordinates must be subtracted as
    # Python integers, not as np.int64.
    s7 = scheme_params(7)
    u, v = (np.int64(2**62), np.int64(0)), (np.int64(-2**62), np.int64(0))
    expected = abs(label(s7, (2**62, 0)) - label(s7, (-2**62, 0)))
    assert expected == 4
    assert label_difference(s7, u, v) == expected
    assert label_difference(s7, v, u) == expected


@settings(max_examples=300)
@given(
    st.sampled_from([1, 3, 4, 5, 6, 7, 8, 9]),
    st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
    st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
)
def test_label_difference_equals_absolute_gap(k, x1, y1, x2, y2):
    s = scheme_params(k)
    expected = abs(label(s, (x1, y1)) - label(s, (x2, y2)))
    assert label_difference(s, (x1, y1), (x2, y2)) == expected


# ----------------------------------------------------------- check_diamond

def test_diamond_offsets_count_and_order():
    offs = list(diamond_offsets(3))
    assert len(offs) == 24
    assert offs == sorted(offs)
    assert all(1 <= abs(x) + abs(y) <= 3 for x, y in offs)


def test_diamond_passes_for_real_schemes():
    v3 = check_diamond(scheme_params(3))
    assert v3.passed and v3.checked_pairs == 24 and v3.violations == ()
    assert check_diamond(scheme_params(7)).passed
    assert check_diamond(scheme_params(4)).passed


def test_diamond_flags_hand_built_scheme():
    verdict = check_diamond(mutant(3, 1, 1, 12))
    assert not verdict.passed
    assert ViolationReport((1, 0), 1, 3, 1) in verdict.violations
    assert list(verdict.violations) == sorted(verdict.violations,
                                              key=lambda r: r.offset)
    for rep in verdict.violations:
        assert 1 <= rep.r <= 3
        assert rep.actual < rep.required_gap


def test_diamond_violation_cap():
    verdict = check_diamond(mutant(5, 1, 1, 3), max_violations=4)
    assert not verdict.passed
    assert len(verdict.violations) == 4
    verdict = check_diamond(mutant(5, 1, 1, 3), max_violations=0)
    assert not verdict.passed and verdict.violations == ()


def test_checks_report_sixteen_violations_by_default():
    s = mutant(5, 1, 1, 3)
    assert len(check_diamond(s, 10**6).violations) > 16
    assert len(check_window(s, 10, 10, 10**6).violations) > 16
    assert len(check_diamond(s).violations) == 16
    assert len(check_window(s, 10, 10).violations) == 16


@pytest.mark.parametrize("check", [check_diamond,
                                   lambda s, m: check_window(s, 10, 10, m)])
def test_negative_max_violations_rejected(check):
    with pytest.raises(ValueError, match="max_violations"):
        check(mutant(3, 1, 1, 12), -1)


# ------------------------------------------------------------ check_window

def test_window_passes_for_real_schemes():
    assert check_window(scheme_params(3), 50, 50).passed
    assert check_window(scheme_params(1), 10, 10).passed


def test_window_pair_count():
    # 10x10, k=1: 90 horizontal + 90 vertical adjacent pairs.
    verdict = check_window(scheme_params(1), 10, 10)
    assert verdict.checked_pairs == 180


def test_k1_adjacent_labels_differ_by_exactly_one():
    s1 = scheme_params(1)
    grid = label_window(s1, 0, 0, 10, 10)
    assert (abs(grid[:, 1:] - grid[:, :-1]) == 1).all()
    assert (abs(grid[1:, :] - grid[:-1, :]) == 1).all()


def test_window_flags_hand_built_scheme():
    verdict = check_window(mutant(3, 1, 1, 12), 10, 10)
    assert not verdict.passed
    assert ViolationReport((1, 0), 1, 3, 1) in verdict.violations
    assert list(verdict.violations) == sorted(verdict.violations,
                                              key=lambda r: r.offset)


def test_window_matches_naive_oracle_on_mutants():
    cases = [
        mutant(3, 1, 1, 12),
        mutant(3, 5, 15, 15),
        mutant(4, 5, 19, 26),
        mutant(5, 7, 27, 37),
        mutant(1, 2, 3, 4),
    ]
    for s in cases:
        for x0, y0 in [(0, 0), (11, 0), (5, 7), (-3, 4)]:
            verdict = check_window(s, 12, 12, max_violations=10**6, x0=x0, y0=y0)
            oracle = naive_window_check(s, 12, 12, x0, y0)
            assert verdict.passed == (not oracle)
            assert {rep.offset for rep in verdict.violations} == oracle


def test_window_checks_the_window_at_its_origin():
    # L = (x + y) mod 12 gives (0,0),(1,0) labels 0,1 (gap 1 < 3) but
    # (11,0),(12,0) labels 11,0 (gap 11).
    s = mutant(3, 1, 1, 12)
    assert not check_window(s, 2, 1).passed
    assert check_window(s, 2, 1, x0=11).passed
    assert check_window(s, 2, 1, x0=11, y0=12).passed


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 40), st.integers(1, 40), st.integers(2, 40),
    st.integers(-50, 50), st.integers(-50, 50),
)
def test_window_agrees_with_naive_oracle_fuzz(k, a, b, c, x0, y0):
    s = mutant(k, a, b, c)
    w = h = k + 3
    verdict = check_window(s, w, h, max_violations=10**6, x0=x0, y0=y0)
    oracle = naive_window_check(s, w, h, x0, y0)
    assert verdict.passed == (not oracle)
    assert {rep.offset for rep in verdict.violations} == oracle


def brute_pair_count(k, width, height):
    cells = [(x, y) for y in range(height) for x in range(width)]
    return sum(1 for i, u in enumerate(cells) for v in cells[:i]
               if abs(u[0] - v[0]) + abs(u[1] - v[1]) <= k)


@pytest.mark.parametrize("k, width, height", [
    (7, 12, 3), (7, 3, 12), (7, 1, 20), (7, 20, 1), (4, 2, 2), (9, 5, 6),
])
def test_window_pair_count_when_window_is_narrower_than_k(k, width, height):
    verdict = check_window(scheme_params(k), width, height)
    assert verdict.checked_pairs == brute_pair_count(k, width, height)


def test_window_pair_count_when_k_spans_the_window():
    # k = 5001 reaches across the whole 30x30 window: every pair is checked.
    verdict = check_window(scheme_params(5001), 30, 30)
    assert verdict.passed
    assert verdict.checked_pairs == 900 * 899 // 2


def offset_pair_count(k, width, height):
    """Pairs at each offset (dx, dy) with dx > 0, or dx = 0 < dy, summed."""
    return sum((width - dx) * (height - abs(dy))
               for dx in range(min(k, width - 1) + 1)
               for dy in range(-min(k - dx, height - 1), min(k - dx, height - 1) + 1)
               if dx > 0 or dy > 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 90), st.integers(1, 90))
def test_window_pairs_sums_the_pairs_of_every_offset(k, width, height):
    assert window_pairs(k, width, height) == offset_pair_count(k, width, height)
    if width * height <= 40:
        assert window_pairs(k, width, height) == brute_pair_count(k, width, height)


def test_window_validates_dimensions():
    with pytest.raises(ValueError):
        check_window(scheme_params(3), 0, 10)


@pytest.mark.parametrize("size", [0, -2])
def test_window_pairs_refuses_an_empty_window(size):
    for width, height in [(size, 5), (5, size), (size, size)]:
        with pytest.raises(ValueError, match="^window must have positive dimensions$"):
            window_pairs(3, width, height)
        with pytest.raises(ValueError, match="^window must have positive dimensions$"):
            check_window(scheme_params(3), width, height)


@pytest.mark.parametrize("k", [0, -3])
def test_window_pairs_refuses_k_below_one(k):
    # k <= 0 used to send window_pairs negative. No scheme can carry it
    # (test_a_scheme_refuses_k_or_c_below_one), so no check is handed one.
    for width, height in [(5, 5), (3, 1)]:
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            window_pairs(k, width, height)


def test_a_hand_built_k2_scheme_passes_every_audit():
    # (2x + 3y) mod 7: k = 2 has no scheme_params case, but a scheme may
    # carry it, and it is a valid, no-hole labeling.
    s = LabelingScheme(2, 1, "hand-built", 2, 3, 7)
    assert check_diamond(s).passed
    assert check_window(s, 20, 20).passed
    assert check_no_hole(s, "both").is_no_hole


def test_injectivity_within_reuse_distance():
    # Distinct vertices at distance <= k never share a label (gap >= 1).
    for k in [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]:
        s = scheme_params(k)
        for off in diamond_offsets(k):
            assert label(s, off) != 0, (k, off)


# ------------------------------------------- kernels against references

SUPPORTED_UP_TO_80 = [1] + list(range(3, 81))
CAPS = [0, 1, 4, 16, 10**6]


def perturbed_schemes(ks):
    """+-1 on one of a, b, c of each real scheme, kept when it breaks."""
    for k in ks:
        s = scheme_params(k)
        for a, b, c in [(s.a + 1, s.b, s.c), (s.a - 1, s.b, s.c),
                        (s.a, s.b + 1, s.c), (s.a, s.b - 1, s.c),
                        (s.a, s.b, s.c + 1), (s.a, s.b, s.c - 1)]:
            m = mutant(k, a, b, c)
            if not reference_check_diamond(m).passed:
                yield m


# Triples past 2^64: no int64 path applies, labels are Python integers.
# The first two put small labels next to the origin, so most offsets
# violate; the last is valid-looking noise.
HUGE = 2**70 + 11
OBJECT_PATH_SCHEMES = [
    mutant(k, a, b, c)
    for k in (1, 3, 4, 9)
    for a, b, c in [(HUGE + 1, 2 * HUGE - 1, HUGE), (2**65 + 3, 2**66 + 5, HUGE),
                    (3**45, 5**30, 2**67 + 1)]
]


def test_diamond_matches_reference_on_real_schemes():
    for k in SUPPORTED_UP_TO_80 + [501]:
        s = scheme_params(k)
        assert check_diamond(s) == reference_check_diamond(s), k


def test_window_matches_reference_on_real_schemes():
    for k in SUPPORTED_UP_TO_80 + [501]:
        s = scheme_params(k)
        assert (check_window(s, 16, 12, x0=-7, y0=13)
                == reference_check_window(s, 16, 12, x0=-7, y0=13)), k


def test_kernels_match_reference_past_the_violation_cap():
    schemes = list(perturbed_schemes([1] + list(range(3, 13))))
    # Schemes that violate at most offsets, far past every finite cap.
    schemes += [mutant(k, a, b, c) for k in (3, 5, 9, 14)
                for a, b, c in [(1, 1, 3), (1, 2, 50), (0, 0, 7), (2, 3, 7)]]
    assert len(schemes) >= 20
    counts = [len(reference_check_diamond(s, 10**6).violations) for s in schemes]
    assert sum(n > 16 for n in counts) >= 5, counts
    for s in schemes:
        for cap in CAPS:
            assert check_diamond(s, cap) == reference_check_diamond(s, cap), (s, cap)
        # The window caps its sorted reports in one slice, as before.
        for cap in (0, 10**6):
            assert (check_window(s, 20, 20, cap, x0=5, y0=-3)
                    == reference_check_window(s, 20, 20, cap, x0=5, y0=-3)), (s, cap)


def test_kernels_match_reference_on_the_object_path():
    failing = 0
    for s in OBJECT_PATH_SCHEMES:
        assert label_many(s, np.arange(3), np.arange(3)).dtype == object
        for cap in (0, 16, 10**6):
            d = check_diamond(s, cap)
            assert d == reference_check_diamond(s, cap), (s, cap)
            assert (check_window(s, 12, 12, cap, x0=-5, y0=2)
                    == reference_check_window(s, 12, 12, cap, x0=-5, y0=2)), (s, cap)
            failing += not d.passed
    assert failing, "no object-path scheme fails"


def test_window_matches_reference_when_k_is_past_int64():
    # The required gaps and the sentinel -(k+1) are Python integers too;
    # x + y mod c fails every offset at this k.
    for s in [scheme_params(10**30 + 1), mutant(2**64, 1, 1, 2**70 + 1)]:
        for cap in (0, 10**6):
            got = check_window(s, 5, 7, cap, x0=-3, y0=10**20)
            assert got == reference_check_window(s, 5, 7, cap, x0=-3, y0=10**20)
            assert got.passed == (s.a != 1), s


@pytest.mark.parametrize("c", [2**15 - 11, 2**15 - 1, 2**15, 2**31 - 11,
                               2**31 - 1, 2**31])
def test_window_matches_reference_at_the_narrow_dtype_limits(c):
    # a = c - 1 puts labels 0 and c - 1 side by side, the widest gap the
    # narrowed grid must hold; b = 1 makes vertical neighbours violate.
    for k in (1, 3, 5, 9):
        for a, b in [(c - 1, 1), (c - 1, c // 2), (c // 3, c - 2), (1, c - 1)]:
            s = mutant(k, a, b, c)
            for x0, y0 in [(0, 0), (c - 3, 1 - c), (-(10**12), 7)]:
                for cap in (0, 10**6):
                    assert (check_window(s, 11, 9, cap, x0=x0, y0=y0)
                            == reference_check_window(s, 11, 9, cap, x0=x0, y0=y0)), \
                        (k, a, b, c, x0, y0, cap)


# Windows one cell wide or tall, thin and tall, and narrower or shorter
# than k, which cut the per-dx row copies down to one or a few cells.
WINDOW_SHAPES = [(1, 1), (1, 37), (37, 1), (4, 300), (300, 4), (2, 25), (25, 3)]
SHAPE_SCHEMES = [
    scheme_params(3), scheme_params(9), scheme_params(30),
    mutant(5, 1, 1, 3), mutant(9, 2, 9, 40), mutant(7, 18, 151, 248),
    mutant(5, 2**15 - 2, 1, 2**15 - 1), mutant(3, 1, 2**15 - 1, 2**15),
    mutant(5, 2**31 - 2, 2**30, 2**31 - 1), mutant(3, 2**31 - 1, 1, 2**31),
    OBJECT_PATH_SCHEMES[3],
]


@pytest.mark.parametrize("width, height", WINDOW_SHAPES)
def test_window_matches_reference_on_every_shape(width, height):
    assert not check_diamond(SHAPE_SCHEMES[5]).passed
    assert label_window(OBJECT_PATH_SCHEMES[3], 0, 0, 2, 2).dtype == object
    for s in SHAPE_SCHEMES:
        for x0, y0 in [(0, 0), (-7, 13), (10**12, -3)]:
            for cap in (0, 16, 10**6):
                assert (check_window(s, width, height, cap, x0=x0, y0=y0)
                        == reference_check_window(s, width, height, cap,
                                                  x0=x0, y0=y0)), (s, x0, y0, cap)


def test_window_reports_the_gaps_it_observed(monkeypatch):
    # With label evaluation outside label_window refused, every reported
    # gap comes from the window's own comparisons.
    def refuse(*args):
        raise AssertionError("check_window evaluated a label by itself")

    schemes = (SHAPE_SCHEMES + list(perturbed_schemes([1] + list(range(3, 14))))
               + OBJECT_PATH_SCHEMES)
    expected = {(s, cap): reference_check_window(s, 20, 17, cap, x0=-7, y0=13)
                for s in schemes for cap in (0, 16, 10**6)}
    monkeypatch.setattr(verifier, "label", refuse)
    failing = 0
    for (s, cap), want in expected.items():
        assert check_window(s, 20, 17, cap, x0=-7, y0=13) == want, (s, cap)
        failing += not want.passed
    assert failing >= 200, failing


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9), st.integers(1, 40), st.integers(1, 40),
    st.one_of(st.tuples(st.integers(0, 300), st.integers(0, 300),
                        st.integers(1, 300)),
              st.sampled_from([None, (2**15 - 2, 1, 2**15 - 1),
                               (1, 2**31 - 2, 2**31 - 1), (3, 2**31 + 1, 2**31)])),
    st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
    st.sampled_from([0, 1, 16, 10**6]),
)
def test_window_matches_reference_on_random_shapes(k, width, height, coeffs,
                                                   x0, y0, cap):
    # None draws the paper's scheme (k = 2 has none: its mutant stands in).
    if coeffs is None:
        s = scheme_params(k) if k != 2 else mutant(2, 2, 3, 7)
    else:
        s = mutant(k, *coeffs)
    assert (check_window(s, width, height, cap, x0=x0, y0=y0)
            == reference_check_window(s, width, height, cap, x0=x0, y0=y0))


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
        assert grid.tolist() == label_window(s, -1, 2, 3, 3).tolist()
        return grid

    for k in (1, 3, 9):
        assert window_grid(mutant(k, 1, 1, bound - k - 1)).dtype == dtype, k
    assert window_grid(mutant(2**63, 1, 1, 7)).dtype == object


def test_window_wide_and_tall_agree_on_equal_labels():
    # a = b gives equal labels at offset (1, -1) and its negation. A wide
    # window is checked transposed, where that offset comes out as (-1, 1);
    # reports still name the orientation with x > 0.
    s = mutant(3, 5, 5, 40)
    for width, height in [(20, 3), (3, 20), (9, 9)]:
        verdict = check_window(s, width, height, 10**6, x0=-4, y0=7)
        assert verdict == reference_check_window(s, width, height, 10**6,
                                                 x0=-4, y0=7)
        assert ViolationReport((1, -1), 2, 2, 0) in verdict.violations
        assert {rep.offset for rep in verdict.violations} == \
            naive_window_check(s, width, height, -4, 7)


WINDOW_BLOCK_SHAPES = [(1, 37), (37, 1), (4, 50), (50, 4), (20, 17), (17, 20),
                       (30, 30)]


@pytest.mark.parametrize("block_cells", [1, 7, 40, 100, 10**9])
def test_window_blocks_match_reference(monkeypatch, block_cells):
    # Bands of one row or cell, of a few rows not dividing the window, and
    # of all of it, on tall, wide and square windows. At k = 40 the
    # farthest offsets (1, -36) and (-36, 1) of 2x37 and 37x2 windows have
    # one pair each.
    schemes = [scheme_params(1), scheme_params(9), scheme_params(24),
               mutant(5, 1, 1, 3), mutant(7, 2, 9, 40), mutant(9, 7, 7, 300),
               OBJECT_PATH_SCHEMES[1]]
    cases = [(s, shape) for s in schemes for shape in WINDOW_BLOCK_SHAPES]
    cases += [(mutant(40, 1, 1, 3), shape) for shape in [(2, 37), (37, 2)]]
    expected = {(s, shape, cap): reference_check_window(s, *shape, cap, x0=-7, y0=3)
                for s, shape in cases for cap in (0, 10**6)}
    monkeypatch.setattr(verifier, "BLOCK_CELLS", block_cells)
    failing = 0
    for (s, shape, cap), want in expected.items():
        got = check_window(s, *shape, cap, x0=-7, y0=3)
        assert got == want, (s, shape, cap)
        assert got.checked_pairs == window_pairs(s.k, *shape)
        failing += not got.passed
    assert failing >= 40, failing


@pytest.mark.parametrize("block_cells", [1, 7, 57, 95, 100, 10**9])
def test_diamond_blocks_match_reference(monkeypatch, block_cells):
    # Blocks of one column, of a few columns not dividing 2k+1, and of all.
    # At k = 9, 57 and 95 put x = 0 first and last in a block of 3 and 5.
    monkeypatch.setattr(verifier, "BLOCK_CELLS", block_cells)
    for s in [scheme_params(1), scheme_params(9), scheme_params(24),
              mutant(5, 1, 1, 3), mutant(7, 2, 9, 40), OBJECT_PATH_SCHEMES[1]]:
        for cap in (0, 5, 10**6):
            assert check_diamond(s, cap) == reference_check_diamond(s, cap), (s, cap)


def test_diamond_memory_is_bounded_by_the_block():
    s = scheme_params(3001)  # 18 million offsets: 144 MB per int64 array
    tracemalloc.start()
    try:
        verdict = check_diamond(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and verdict.checked_pairs == 2 * 3001 * 3002
    assert peak < 32 * 2**20, peak


def peak_traced_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


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
    # c = 5153102: c one-byte flags plus one block of BLOCK_CELLS labels,
    # whatever the budget.
    (301, "enumerate", 10**14, 16),
])
def test_no_hole_memory_stays_bounded(k, mode, budget, mib):
    report, peak = peak_traced_bytes(lambda: check_no_hole(scheme_params(k), mode,
                                                           budget))
    assert report.is_no_hole and report.attained_count == scheme_params(k).c
    assert peak < mib * 2**20, peak


def test_no_hole_enumeration_stops_once_every_label_is_seen(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return label_window(*args)

    monkeypatch.setattr(verifier, "label_window", counted)
    s = scheme_params(21)
    assert s.c * s.c > 20 * verifier.BLOCK_CELLS
    assert check_no_hole(s, "both").attained_count == s.c
    assert len(calls) == 1
    # gcd(a, b, c) = 2: only even labels, so every block of the period runs.
    calls.clear()
    holey = mutant(3, 2, 4, 1000)
    rows = verifier.BLOCK_CELLS // holey.c
    assert check_no_hole(holey, "enumerate").attained_count == 500
    assert len(calls) == -(-holey.c // rows) > 1
    assert sum(args[4] for args in calls) == holey.c
    # c > BLOCK_CELLS and gcd(a, c) = 2: two rows, each labelled in pieces
    # of at most BLOCK_CELLS cells.
    calls.clear()
    wide = LabelingScheme(3, 1, "h", 2, 1, 300002)
    assert check_no_hole(wide, "enumerate", wide.c**2).attained_count == wide.c
    assert [args[2] for args in calls] == [0, 0, 0, 1, 1, 1]
    assert all(args[3] * args[4] <= verifier.BLOCK_CELLS for args in calls)
    assert sum(args[3] for args in calls) == 2 * wide.c


def test_no_hole_k3_both_modes():
    report = check_no_hole(scheme_params(3), "both")
    assert report.is_no_hole and report.gcd_triple == 1
    assert report.attained_count == 12


def test_no_hole_k7_gcd_mode():
    report = check_no_hole(scheme_params(7), "gcd")
    assert report.is_no_hole and report.gcd_triple == 1
    assert report.attained_count is None


def test_no_hole_detects_altered_modulus():
    report = check_no_hole(mutant(3, 5, 15, 15), "enumerate")
    assert not report.is_no_hole
    assert report.gcd_triple == 5
    assert report.attained_count == 3  # only multiples of 5


def test_no_hole_both_refuses_disagreeing_routes(monkeypatch):
    # Broken arithmetic that labels every vertex 0 leaves holes the gcd
    # route does not predict.
    def zeros(scheme, x0, y0, width, height):
        return np.zeros((height, width), dtype=np.int64)

    monkeypatch.setattr(verifier, "label_window", zeros)
    assert check_no_hole(scheme_params(3), "enumerate").attained_count == 1
    with pytest.raises(AssertionError, match="disagree"):
        check_no_hole(scheme_params(3), "both")


def test_no_hole_budget():
    with pytest.raises(BudgetExceeded):
        check_no_hole(scheme_params(15), "enumerate", pair_budget=100)
    with pytest.raises(BudgetExceeded):
        check_no_hole(scheme_params(15), "both", pair_budget=100)


@pytest.mark.parametrize("mode", ["gcd", "enumerate", "both"])
def test_no_hole_rejects_negative_pair_budget(mode):
    with pytest.raises(ValueError, match="pair_budget"):
        check_no_hole(scheme_params(3), mode, pair_budget=-5)


def test_no_hole_default_budget_is_four_million_evaluations():
    # c^2 = 4 * 10^6 is enumerated; c = 2001 needs 4 004 001 and is refused.
    report = check_no_hole(mutant(3, 1, 1, 2000), "enumerate")
    assert report.is_no_hole and report.attained_count == 2000
    with pytest.raises(BudgetExceeded) as info:
        check_no_hole(mutant(3, 1, 1, 2001), "enumerate")
    assert (info.value.needed, info.value.budget) == (2001**2, 4_000_000)


def test_no_hole_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_no_hole(scheme_params(3), "telepathy")


@pytest.mark.parametrize("block_cells", [1, 7, 100, 10**9])
def test_no_hole_row_blocks_count_like_the_dense_period(monkeypatch, block_cells):
    # Block sizes below one row, not dividing c, and above c*c.
    monkeypatch.setattr(verifier, "BLOCK_CELLS", block_cells)
    # In the last three, single rows miss labels other rows attain.
    for s in [scheme_params(5), mutant(3, 5, 15, 15), mutant(3, 6, 10, 100),
              mutant(3, 10, 3, 30), mutant(3, 0, 1, 30), mutant(3, 0, 4, 30)]:
        dense = np.bincount(label_window(s, 0, 0, s.c, s.c).ravel(), minlength=s.c)
        report = check_no_hole(s, "enumerate")
        assert report.attained_count == np.count_nonzero(dense), (block_cells, s)


def test_no_hole_enumeration_memory_is_bounded_by_the_block():
    s = scheme_params(25)  # c = 3218: a dense period would be 83 MB of int64
    dense_bytes = s.c * s.c * 8
    tracemalloc.start()
    try:
        report = check_no_hole(s, "enumerate", pair_budget=s.c * s.c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.attained_count == s.c
    assert peak < 16 * 2**20 < dense_bytes / 4, peak


def test_gcd_and_enumeration_agree_for_small_k():
    for k in range(1, 14):
        if k == 2:
            continue
        report = check_no_hole(scheme_params(k), "both")
        assert report.is_no_hole == (report.gcd_triple == 1)
        assert report.attained_count == scheme_params(k).c


# ------------------------------------------------------------- gcd(a, b)

def test_gcd_ab_examples():
    schemes = [scheme_params(k) for k in (3, 7, 4, 1)]
    assert [math.gcd(s.a, s.b) for s in schemes] == [5, 1, 1, 3]


def test_gcd_ab_membership_up_to_500():
    for k in range(1, 501):
        if k == 2:
            continue
        s = scheme_params(k)
        assert math.gcd(s.a, s.b) in GCD_AB_ALLOWED[s.parity_case], k
        assert math.gcd(s.a, s.b, s.c) == 1
