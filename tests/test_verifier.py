"""Validity and no-hole audits, cross-checked against naive oracles."""

import math
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
    diamond_offsets,
    gcd_ab,
    label,
    label_difference,
    label_window,
    scheme_params,
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


def test_window_validates_dimensions():
    with pytest.raises(ValueError):
        check_window(scheme_params(3), 0, 10)


def test_injectivity_within_reuse_distance():
    # Distinct vertices at distance <= k never share a label (gap >= 1).
    for k in [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]:
        s = scheme_params(k)
        for off in diamond_offsets(k):
            assert label(s, off) != 0, (k, off)


# ------------------------------------------------------------ no-hole

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


def test_no_hole_budget():
    with pytest.raises(BudgetExceeded):
        check_no_hole(scheme_params(15), "enumerate", pair_budget=100)
    with pytest.raises(BudgetExceeded):
        check_no_hole(scheme_params(15), "both", pair_budget=100)


@pytest.mark.parametrize("mode", ["gcd", "enumerate", "both"])
def test_no_hole_rejects_negative_pair_budget(mode):
    with pytest.raises(ValueError, match="pair_budget"):
        check_no_hole(scheme_params(3), mode, pair_budget=-5)


def test_no_hole_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_no_hole(scheme_params(3), "telepathy")


@pytest.mark.parametrize("block_cells", [1, 7, 100, 10**9])
def test_no_hole_row_blocks_count_like_the_dense_period(monkeypatch, block_cells):
    # Block sizes below one row, not dividing c, and above c*c.
    monkeypatch.setattr(verifier, "NOHOLE_BLOCK_CELLS", block_cells)
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


# ------------------------------------------------------------- gcd_ab

def test_gcd_ab_examples():
    assert gcd_ab(3) == 5
    assert gcd_ab(7) == 1
    assert gcd_ab(4) == 1
    assert gcd_ab(1) == 3


def test_gcd_ab_membership_up_to_500():
    for k in range(1, 501):
        if k == 2:
            continue
        s = scheme_params(k)
        assert gcd_ab(k) in GCD_AB_ALLOWED[s.parity_case], k
        assert math.gcd(s.a, s.b, s.c) == 1
