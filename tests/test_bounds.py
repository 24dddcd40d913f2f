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
    UnsupportedK,
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


# The lower bound's agreement table: its columns are the routes to the
# closed form, lambda_lb and lb_summation per parity, each compared with
# oracle.lambda_lb's product form; its rows are the tests below.

def lambda_lb_agrees(k):
    got = lambda_lb(k)
    assert got.exact == oracle.lambda_lb(k) and got.ceiled == math.ceil(got.exact), k


def lb_summation_agrees(parity):
    def agrees(k):
        assert lb_summation(k // 2, parity) == oracle.lambda_lb(k), k
    return agrees


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
}
UP_TO_10_4 = Row(lambda: range(1, 10**4 + 1), set(LOWER_BOUND_COLUMNS))


def test_lambda_lb_matches_product_form():
    check_row(LOWER_BOUND_COLUMNS, UP_TO_10_4, only={"lambda_lb"})
    check_row(LOWER_BOUND_COLUMNS, Row(lambda: [10**12 + d for d in range(-3, 4)],
                                       {"lambda_lb"}))


def test_lb_summation_matches_closed_form_up_to_200():
    check_row(LOWER_BOUND_COLUMNS, UP_TO_10_4,
              only={"lb_summation-even", "lb_summation-odd"})


def test_lambda_lb_against_the_packing_chain():
    # Even k: the closed form is the chain. Odd k: it lies exactly
    # (2/3) p (p+1) below the chain, so it is a valid but weaker bound.
    for k in range(2, 201):
        p = k // 2
        slack = 0 if k % 2 == 0 else Fraction(2, 3) * p * (p + 1)
        assert oracle.packing_chain_bound(k) - lambda_lb(k).exact == slack, k


def test_triangular_convolution_values():
    assert triangular_convolution(1) == 1
    assert triangular_convolution(3) == 10
    assert triangular_convolution(10) == 220


def test_triangular_convolution_closed_form_up_to_300():
    for p in range(1, 301):
        assert triangular_convolution(p) == p * (p + 1) * (p + 2) // 6


def test_lb_summation_examples():
    assert lb_summation(2, EVEN_K) == 22
    assert lb_summation(3, EVEN_K) == 58
    assert lb_summation(3, ODD_K) == 74
    assert lb_summation(1, ODD_K) == Fraction(26, 3)
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
