"""Bound formulas, summation cross-checks, and exact ratios."""

import itertools
import math
from fractions import Fraction

import pytest

import oracle
from conftest import Column, Row, check_row
from gridlabel import (
    EVEN_K,
    ODD_K,
    bounds_table,
    lambda_lb,
    lb_summation,
    ratio,
    scheme_params,
)


# The lower bound's agreement table: its columns are the routes to the
# closed form, lambda_lb, bounds_table and lb_summation per parity, each
# compared with oracle.lambda_lb's product form (bounds_table's upper
# bound with oracle.coefficients); its rows are the tests below.

def lambda_lb_agrees(k):
    got = lambda_lb(k)
    assert got.exact == oracle.lambda_lb(k) and got.ceiled == math.ceil(got.exact), k


def lb_summation_agrees(parity):
    def agrees(k):
        assert lb_summation(k // 2, parity) == oracle.lambda_lb(k), k
    return agrees


def bounds_table_agrees(k):
    # One record for the one k; upper and ratio are None where the paper
    # has no scheme (k = 2).
    lower = oracle.lambda_lb(k)
    upper = None if oracle.coefficients(k) is None else oracle.coefficients(k)[2]
    (rec,) = bounds_table(k, k)
    assert rec == (k, lower, math.ceil(lower), upper,
                   None if upper is None else Fraction(upper, math.ceil(lower))), k


#: lb_summation sums p terms, so the table takes it to p = 200.
SUMMATION_P = 200

LOWER_BOUND_COLUMNS = {
    "lambda_lb": Column(lambda k: True, lambda_lb_agrees),
    "lb_summation-even": Column(lambda k: k % 2 == 0 and k // 2 <= SUMMATION_P,
                                lb_summation_agrees(EVEN_K)),
    # Not independent: the odd sum adds the paper's difference between its
    # two closed forms, so this column checks lb_summation's arithmetic.
    # The packing chain below is the independent check.
    "lb_summation-odd": Column(lambda k: k % 2 == 1 and 1 <= k // 2 <= SUMMATION_P,
                               lb_summation_agrees(ODD_K)),
    "bounds_table": Column(lambda k: True, bounds_table_agrees),
}
UP_TO_10_4 = Row(lambda: range(1, 10**4 + 1), set(LOWER_BOUND_COLUMNS))
NEAR_10_12 = Row(lambda: [10**12 + d for d in range(-3, 4)],
                 {"lambda_lb", "bounds_table"})


def test_lambda_lb_matches_product_form():
    check_row(LOWER_BOUND_COLUMNS, UP_TO_10_4, only={"lambda_lb"})
    check_row(LOWER_BOUND_COLUMNS, NEAR_10_12, only={"lambda_lb"})


def test_lb_summation_matches_closed_form_up_to_200():
    check_row(LOWER_BOUND_COLUMNS, UP_TO_10_4,
              only={"lb_summation-even", "lb_summation-odd"})


def test_bounds_table_matches_the_oracle_up_to_10_4():
    check_row(LOWER_BOUND_COLUMNS, UP_TO_10_4, only={"bounds_table"})
    check_row(LOWER_BOUND_COLUMNS, NEAR_10_12, only={"bounds_table"})


def test_lambda_lb_against_the_packing_chain():
    # Even k: the closed form is the chain. Odd k: it lies exactly
    # (2/3) p (p+1) below the chain, so it is a valid but weaker bound.
    for k in range(2, 201):
        p = k // 2
        slack = 0 if k % 2 == 0 else Fraction(2, 3) * p * (p + 1)
        assert oracle.packing_chain_bound(k) - lambda_lb(k).exact == slack, k


def test_lb_summation_refuses_an_unknown_parity():
    with pytest.raises(ValueError, match="parity must be"):
        lb_summation(3, "sideways")


def test_radius_one_ball_needs_ten_labels_at_k3():
    # Exhaustive over labels 0..9: the 5-vertex ball admits no labelling
    # with 9 labels, one more than lambda_lb(3) = 26/3 ceiled.
    points = oracle.scan_box(lambda x, y: abs(x) + abs(y) <= 1, 1)
    pairs = [(i, j, 4 - abs(u[0] - v[0]) - abs(u[1] - v[1]))
             for (i, u), (j, v) in itertools.combinations(enumerate(points), 2)]
    spans = [max(labels) for labels in itertools.permutations(range(10), 5)
             if all(abs(labels[i] - labels[j]) >= gap for i, j, gap in pairs)]
    assert min(spans) + 1 == 10 == oracle.packing_chain_bound(3)
    assert lambda_lb(3).ceiled == 9


def test_fractionality_pattern():
    # Even-k bound is always an integer; odd-k is fractional iff p = 1 (mod 3).
    for p in range(1, 1001):
        assert lambda_lb(2 * p).exact.denominator == 1
        frac = lambda_lb(2 * p + 1).exact.denominator != 1
        assert frac == (p % 3 == 1)


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


def test_bounds_table_range_3_to_7():
    recs = bounds_table(3, 7)
    assert [r.k for r in recs] == [3, 4, 5, 6, 7]
    assert [r.lower for r in recs] == [9, 22, 30, 58, 74]
    assert [r.upper for r in recs] == [12, 27, 38, 71, 92]
