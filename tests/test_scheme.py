"""Scheme construction and label evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlabel import (
    EVEN_K_EVEN_P,
    EVEN_K_ODD_P,
    ODD_K_EVEN_P,
    ODD_K_ODD_P,
    LabelingScheme,
    UnsupportedK,
    label,
    label_many,
    label_window,
    lambda_ub,
    scheme_params,
)

coords = st.integers(min_value=-10**9, max_value=10**9)
supported_k = st.sampled_from([1, 3, 4, 5, 6, 7, 8, 9, 12, 15, 40, 41])


def test_known_triples():
    s3 = scheme_params(3)
    assert (s3.a, s3.b, s3.c) == (5, 15, 12)
    assert s3.parity_case == ODD_K_ODD_P and s3.p == 1
    s7 = scheme_params(7)
    assert (s7.a, s7.b, s7.c) == (9, 53, 92)
    s1 = scheme_params(1)
    assert (s1.a, s1.b, s1.c) == (3, 3, 2)
    assert s1.parity_case == ODD_K_EVEN_P and s1.p == 0
    s4 = scheme_params(4)
    assert (s4.a, s4.b) == (5, 19)
    assert s4.parity_case == EVEN_K_EVEN_P
    s6 = scheme_params(6)
    assert (s6.a, s6.b, s6.c) == (7, 41, 71)
    assert s6.parity_case == EVEN_K_ODD_P


def test_k2_unsupported():
    with pytest.raises(UnsupportedK):
        scheme_params(2)
    with pytest.raises(UnsupportedK):
        lambda_ub(2)


def test_k_below_one_rejected():
    with pytest.raises(ValueError):
        scheme_params(0)
    with pytest.raises(ValueError):
        scheme_params(-3)


def test_lambda_ub_values():
    assert lambda_ub(3) == 12
    assert lambda_ub(7) == 92
    assert lambda_ub(1) == 2


def test_label_examples():
    s3 = scheme_params(3)
    assert label(s3, (0, 0)) == 0
    assert label(s3, (1, 1)) == 8
    assert label(s3, (-1, 0)) == 7
    s7 = scheme_params(7)
    assert label(s7, (1, 0)) == 9


def test_k1_is_checkerboard():
    s1 = scheme_params(1)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert label(s1, (x, y)) == (x + y) % 2


@given(supported_k, coords, coords, coords, coords)
def test_linearity_mod_c(k, x1, y1, x2, y2):
    s = scheme_params(k)
    lhs = label(s, (x1 + x2, y1 + y2))
    rhs = (label(s, (x1, y1)) + label(s, (x2, y2))) % s.c
    assert lhs == rhs


@given(supported_k, coords, coords)
def test_periodicity_and_range(k, x, y):
    s = scheme_params(k)
    v = label(s, (x, y))
    assert 0 <= v < s.c
    assert label(s, (x + s.c, y)) == v
    assert label(s, (x, y + s.c)) == v


def test_all_cases_appear_and_exact_halving_up_to_1e4():
    seen = set()
    for k in range(1, 10_001):
        if k == 2:
            continue
        s = scheme_params(k)  # raises ArithmeticError if a division were inexact
        seen.add(s.parity_case)
        assert lambda_ub(k) == s.c
    assert seen == {ODD_K_ODD_P, ODD_K_EVEN_P, EVEN_K_ODD_P, EVEN_K_EVEN_P}


def test_coefficient_ordering():
    # k=3 is the one scheme whose modulus is smaller than b (15 > 12).
    s3 = scheme_params(3)
    assert 0 < s3.a < s3.c < s3.b
    for k in range(4, 1001):
        if k == 2:
            continue
        s = scheme_params(k)
        assert 0 < s.a < s.b < s.c, k


def test_label_many_matches_scalar():
    for k in (1, 3, 4, 7):
        s = scheme_params(k)
        xs = np.array([-5, -1, 0, 1, 2, 100, -1000])
        ys = np.array([3, 0, -1, 1, -2, 99, 1000])
        out = label_many(s, xs, ys)
        assert out.tolist() == [label(s, (int(x), int(y))) for x, y in zip(xs, ys)]


def test_label_many_object_fallback_for_huge_coordinates():
    s = scheme_params(3)
    xs = np.array([10**30, -(10**30)], dtype=object)
    ys = np.array([0, 0], dtype=object)
    out = label_many(s, xs, ys)
    assert list(out) == [label(s, (10**30, 0)), label(s, (-(10**30), 0))]


def test_label_many_rejects_floats():
    s = scheme_params(3)
    with pytest.raises(TypeError):
        label_many(s, np.array([0.5]), np.array([1.0]))


def test_label_window_orientation():
    s = scheme_params(3)
    grid = label_window(s, 0, 0, 4, 2)
    assert grid.shape == (2, 4)
    assert grid[0].tolist() == [0, 5, 10, 3]   # y = 0
    assert grid[1].tolist() == [3, 8, 1, 6]    # y = 1
    shifted = label_window(s, -2, 5, 3, 1)
    assert shifted[0].tolist() == [label(s, (x, 5)) for x in (-2, -1, 0)]


def test_label_window_validates_dimensions():
    s = scheme_params(3)
    with pytest.raises(ValueError):
        label_window(s, 0, 0, 0, 5)


# ------------------------------------------ int64 / object path boundary

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
EDGE_COORDS = [INT64_MIN, INT64_MIN + 1, -1, 0, 1, 12345, INT64_MAX - 1, INT64_MAX]


def hand_built(a, b, c):
    return LabelingScheme(k=3, p=1, parity_case="hand-built", a=a, b=b, c=c)


def assert_matches_scalar(s, xs, ys):
    out = label_many(s, np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
    assert out.tolist() == [label(s, (x, y)) for x, y in zip(xs, ys)]
    return out


@pytest.mark.parametrize("k, dtype", [(2253, np.int64), (2254, np.int64),
                                      (9189, np.int64), (9190, object)])
def test_label_many_exact_at_path_boundary(k, dtype):
    s = scheme_params(k)
    xs = [x for x in EDGE_COORDS for _ in EDGE_COORDS]
    ys = EDGE_COORDS * len(EDGE_COORDS)
    assert assert_matches_scalar(s, xs, ys).dtype == dtype


def assert_window_matches_scalar(s, x0, y0, width, height):
    grid = label_window(s, x0, y0, width, height)
    assert grid.tolist() == [[label(s, (x0 + i, y0 + j)) for i in range(width)]
                             for j in range(height)]
    # The grid sums two labels in [0, c) before subtracting c.
    assert grid.dtype == (np.int64 if 2 * (s.c - 1) <= INT64_MAX else object)
    return grid


# (-2, -1) puts x = y = -1 in the window: with a = b = 1 or a = b = c-1
# both axis labels reach c-1 there, and the sum its maximum 2(c-1).
WINDOW_ORIGINS = [(INT64_MAX - 3, INT64_MIN), (INT64_MIN, INT64_MAX - 2),
                  (-7, 5), (-2, -1), (10**30, -(10**30)), (-(10**30), 10**30)]


@pytest.mark.parametrize("k, dtype", [(2253, np.int64), (2254, np.int64),
                                      (9189, np.int64), (9190, np.int64),
                                      (2908167, np.int64), (2908168, object)])
def test_label_window_exact_at_path_boundary(k, dtype):
    s = scheme_params(k)
    for x0, y0 in WINDOW_ORIGINS:
        assert assert_window_matches_scalar(s, x0, y0, 6, 4).dtype == dtype


@pytest.mark.parametrize("c, dtype", [(2**62, np.int64), (2**62 + 1, object)])
def test_label_window_int64_guard_is_tight(c, dtype):
    # 2(c-1) <= 2^63-1 exactly when c <= 2^62.
    for a, b in [(1, 1), (c - 1, c - 1), (3**50, -(7**20))]:
        for x0, y0 in WINDOW_ORIGINS:
            grid = assert_window_matches_scalar(hand_built(a, b, c), x0, y0, 6, 4)
            assert grid.dtype == dtype


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-2**72, 2**72), b=st.integers(-2**72, 2**72),
       c=st.integers(1, 50) | st.integers(2**62 - 3, 2**62 + 3) | st.integers(1, 2**70),
       x0=st.integers(-10**30, 10**30), y0=st.integers(-10**30, 10**30),
       w=st.integers(1, 8), h=st.integers(1, 8))
def test_label_window_matches_scalar(a, b, c, x0, y0, w, h):
    assert_window_matches_scalar(hand_built(a, b, c), x0, y0, w, h)


@pytest.mark.parametrize("c", [0, -7])
def test_label_window_rejects_a_modulus_below_one(c):
    # The conditional subtract needs axis labels in [0, c).
    with pytest.raises(ValueError, match="modulus"):
        label_window(hand_built(2, 5, c), -3, 4, 3, 2)


def test_int64_guard_is_tight():
    # (a + b) * (c - 1) == 2**63 - 1 exactly: the int64 path's largest sum fits.
    a, b = 200, 311
    c = INT64_MAX // (a + b) + 1
    assert (a + b) * (c - 1) == INT64_MAX
    xs = [c - 1, c - 1, INT64_MAX, INT64_MIN, 0]
    ys = [c - 1, 0, INT64_MIN, INT64_MAX, c - 1]
    assert assert_matches_scalar(hand_built(a, b, c), xs, ys).dtype == np.int64
    assert assert_matches_scalar(hand_built(a, b, c + 1), xs, ys).dtype == object


@settings(max_examples=200, deadline=None)
@given(st.integers(2254, 12000),
       st.lists(st.tuples(st.integers(INT64_MIN, INT64_MAX),
                          st.integers(INT64_MIN, INT64_MAX)), min_size=1, max_size=20))
def test_label_many_matches_scalar_for_large_k(k, points):
    s = scheme_params(k)
    assert_matches_scalar(s, [x for x, _ in points], [y for _, y in points])


def test_object_path_keeps_numpy_integer_elements_exact():
    s = scheme_params(9190)
    xs = np.array([np.int64(INT64_MAX), 10**30], dtype=object)
    ys = np.array([np.int64(INT64_MIN), np.uint64(2**64 - 1)], dtype=object)
    out = label_many(s, xs, ys)
    assert out.tolist() == [label(s, (INT64_MAX, INT64_MIN)),
                            label(s, (10**30, 2**64 - 1))]


def test_label_many_rejects_floats_in_object_arrays():
    with pytest.raises(TypeError):
        label_many(scheme_params(9190), np.array([0.5], dtype=object), np.array([1]))


NARROW_DTYPES = [np.int8, np.uint8, np.int16, np.uint16,
                 np.int32, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", NARROW_DTYPES)
@pytest.mark.parametrize("k", [3, 2254, 9189, 9190])
def test_label_many_exact_for_every_integer_dtype(k, dtype):
    # c exceeds the range of the narrow dtypes from k = 2254 on.
    s = scheme_params(k)
    info = np.iinfo(dtype)
    edges = [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
    xs = np.array([x for x in edges for _ in edges], dtype=dtype)
    ys = np.array(edges * len(edges), dtype=dtype)
    out = label_many(s, xs, ys)
    assert out.tolist() == [label(s, (int(x), int(y))) for x, y in zip(xs, ys)]
