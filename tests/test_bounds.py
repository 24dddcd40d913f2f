"""Bound formulas, summation cross-checks, and exact ratios."""

import itertools
import math
from fractions import Fraction

import pytest

from gridlabel import (
    EVEN_K,
    ODD_K,
    UnsupportedK,
    ball,
    bounds_table,
    lambda_lb,
    lb_summation,
    ratio,
    scheme_params,
    triangular_convolution,
)


def test_lambda_lb_known_values():
    assert lambda_lb(1).exact == 2 and lambda_lb(1).ceiled == 2
    assert lambda_lb(2).exact == 6
    assert lambda_lb(3).exact == Fraction(26, 3) and lambda_lb(3).ceiled == 9
    assert lambda_lb(4).exact == 22
    assert lambda_lb(5).exact == 30
    assert lambda_lb(6).exact == 58
    assert lambda_lb(7).exact == 74


def product_form_lambda_lb(k):
    """The closed form as a chain of Fraction products (the former code)."""
    p = k // 2
    if k % 2 == 0:
        return Fraction(2, 3) * p * (p + 1) * (2 * p + 1) + 2
    return Fraction(2, 3) * p * (p + 1) * (2 * p + 3) + 2


def test_lambda_lb_matches_product_form():
    ks = list(range(1, 10**4 + 1)) + [10**12 + d for d in range(-3, 4)]
    for k in ks:
        want = product_form_lambda_lb(k)
        lb = lambda_lb(k)
        assert lb.exact == want and lb.ceiled == math.ceil(want), k


def test_lambda_lb_rejects_bad_k():
    with pytest.raises(ValueError):
        lambda_lb(0)


def test_triangular_convolution_values():
    assert triangular_convolution(1) == 1
    assert triangular_convolution(3) == 10
    assert triangular_convolution(10) == 220


@pytest.mark.parametrize("p", [0, -4])
def test_triangular_convolution_rejects_p_below_one(p):
    with pytest.raises(ValueError, match="p must be >= 1"):
        triangular_convolution(p)


def test_triangular_convolution_closed_form_up_to_300():
    for p in range(1, 301):
        assert triangular_convolution(p) == p * (p + 1) * (p + 2) // 6


def test_lb_summation_examples():
    assert lb_summation(2, EVEN_K) == 22
    assert lb_summation(3, EVEN_K) == 58
    assert lb_summation(3, ODD_K) == 74
    assert lb_summation(1, ODD_K) == Fraction(26, 3)


def test_lb_summation_matches_closed_form_up_to_200():
    # The odd line pins lb_summation's arithmetic only: its odd term is the
    # closed form's own difference. The packing chain below is the
    # independent check.
    for p in range(1, 201):
        assert lb_summation(p, EVEN_K) == lambda_lb(2 * p).exact
        assert lb_summation(p, ODD_K) == lambda_lb(2 * p + 1).exact


def packing_chain_bound(k):
    """Labels the radius-p ball needs, p = k // 2, by the packing chain.

    Its vertices lie pairwise within 2p <= k, so their labels differ. Take
    them in label order: neighbours u, v of the chain differ by at least
    k + 1 - d(u, v) >= k + 1 - |u| - |v|. Summed, every |v| counts at most
    twice, each end once, and at most one end is the origin, so the span is
    at least (n - 1)(k + 1) - 2 sum |v| + 1, and the label count one more.
    """
    points = ball(k // 2)
    return ((len(points) - 1) * (k + 1)
            - 2 * sum(abs(x) + abs(y) for x, y in points) + 2)


def test_lambda_lb_against_the_packing_chain():
    # Even k: the closed form is the chain. Odd k: it lies exactly
    # (2/3) p (p+1) below the chain, so it is a valid but weaker bound.
    for k in range(2, 201):
        p = k // 2
        slack = 0 if k % 2 == 0 else Fraction(2, 3) * p * (p + 1)
        assert packing_chain_bound(k) - lambda_lb(k).exact == slack, k


def test_radius_one_ball_needs_ten_labels_at_k3():
    # Exhaustive over labels 0..9: the 5-vertex ball admits no labelling
    # with 9 labels, one more than lambda_lb(3) = 26/3 ceiled.
    points = ball(1)
    pairs = [(i, j, 4 - abs(u[0] - v[0]) - abs(u[1] - v[1]))
             for (i, u), (j, v) in itertools.combinations(enumerate(points), 2)]
    spans = [max(labels) for labels in itertools.permutations(range(10), 5)
             if all(abs(labels[i] - labels[j]) >= gap for i, j, gap in pairs)]
    assert min(spans) + 1 == 10 == packing_chain_bound(3)
    assert lambda_lb(3).ceiled == 9


def test_lb_summation_validates_arguments():
    with pytest.raises(ValueError):
        lb_summation(0, EVEN_K)
    with pytest.raises(ValueError):
        lb_summation(3, "sideways")


def test_fractionality_pattern():
    # Even-k bound is always an integer; odd-k is fractional iff p = 1 (mod 3).
    for p in range(1, 1001):
        assert lambda_lb(2 * p).exact.denominator == 1
        frac = lambda_lb(2 * p + 1).exact.denominator != 1
        assert frac == (p % 3 == 1)


def test_ratio_values():
    assert ratio(1) == 1
    assert ratio(3) == Fraction(4, 3)
    assert ratio(199) == Fraction(1495100, 1326602)
    with pytest.raises(UnsupportedK):
        ratio(2)


def test_ratio_exceeds_nine_eighths_at_every_supported_k():
    # The ratio approaches 9/8 from above; it never reaches it.
    assert ratio(1) == 1
    for k in range(3, 20_001):
        assert ratio(k) > Fraction(9, 8), k


def test_lower_never_exceeds_upper_up_to_1000():
    for rec in bounds_table(1, 1000):
        if rec.upper is not None:
            assert rec.lower <= rec.upper, rec.k
            assert rec.ratio >= 1


def test_ratio_nonincreasing_per_case_19_to_1000():
    by_case = {}
    for k in range(19, 1001):
        if k == 2:
            continue
        case = scheme_params(k).parity_case
        by_case.setdefault(case, []).append(ratio(k))
    assert len(by_case) == 4
    for case, seq in by_case.items():
        assert all(a >= b for a, b in zip(seq, seq[1:])), case


def test_bounds_table_single_k():
    (rec,) = bounds_table(1, 1)
    assert (rec.lower_exact, rec.lower, rec.upper, rec.ratio) == (2, 2, 2, 1)


def test_bounds_table_k2_has_no_upper():
    (rec,) = bounds_table(2, 2)
    assert rec.lower == 6 and rec.upper is None and rec.ratio is None


def test_bounds_table_range_3_to_7():
    recs = bounds_table(3, 7)
    assert [r.k for r in recs] == [3, 4, 5, 6, 7]
    assert [r.lower for r in recs] == [9, 22, 30, 58, 74]
    assert [r.upper for r in recs] == [12, 27, 38, 71, 92]


def test_bounds_table_validates_range():
    with pytest.raises(ValueError):
        bounds_table(5, 3)
    with pytest.raises(ValueError):
        bounds_table(0, 3)
