"""Scheme construction and label evaluation."""

import tracemalloc

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
    label_rows,
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


def test_scalar_coordinates_must_be_integers():
    # A numpy integer coordinate is taken as the Python integer it holds,
    # so no product wraps (5 * big + 15 * big = 8 mod 12, where int64
    # arithmetic overflows), and anything else is refused, as label_many
    # refuses it.
    s = scheme_params(3)
    big = np.int64(1 << 62)
    assert label(s, (big, big)) == 8
    assert list(label_rows(s, big, 2, range(1))) == [[8, 1]]
    assert list(label_rows(s, 0, 1, [big])) == [[label(s, (0, 1 << 62))]]
    for call in [lambda: label(s, (0.5, 0)), lambda: label_window(s, 0.5, 0, 2, 1),
                 lambda: label_window(s, 0, 0.5, 2, 1),
                 lambda: next(label_rows(s, 0.5, 2, range(1))),
                 lambda: next(label_rows(s, 0, 2, [0.5])),
                 lambda: label_many(s, 0.5, 0)]:
        with pytest.raises(TypeError):
            call()


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
                                      (9189, np.int64), (9190, object),
                                      (3664061, object), (3664062, object)])
def test_label_many_exact_at_path_boundary(k, dtype):
    s = scheme_params(k)
    xs = [x for x in EDGE_COORDS for _ in EDGE_COORDS]
    ys = EDGE_COORDS * len(EDGE_COORDS)
    assert assert_matches_scalar(s, xs, ys).dtype == dtype


def assert_window_matches_scalar(s, x0, y0, width, height):
    grid = label_window(s, x0, y0, width, height)
    x0, y0 = int(x0), int(y0)
    assert grid.tolist() == [[label(s, (x0 + i, y0 + j)) for i in range(width)]
                             for j in range(height)]
    # No intermediate exceeds c in magnitude, so the grid is int64 while
    # its labels fit.
    assert grid.dtype == (np.int64 if s.c <= INT64_MAX else object)
    return grid


# (-2, -1) puts x = y = -1 in the window: with a = b = 1 or a = b = c-1
# both axis labels reach c-1 there, the largest labels the sum can add.
WINDOW_ORIGINS = [(INT64_MAX - 3, INT64_MIN), (INT64_MIN, INT64_MAX - 2),
                  (-7, 5), (-2, -1), (10**30, -(10**30)), (-(10**30), 10**30)]


def window_origins():
    """WINDOW_ORIGINS, then those that fit as numpy int64 origins."""
    yield from WINDOW_ORIGINS
    for x0, y0 in WINDOW_ORIGINS:
        if max(abs(x0), abs(y0)) <= INT64_MAX:
            yield np.int64(x0), np.int64(y0)


@pytest.mark.parametrize("k, dtype", [(2253, np.int64), (2254, np.int64),
                                      (9189, np.int64), (9190, np.int64),
                                      (3664061, np.int64), (3664062, object)])
def test_label_window_exact_at_path_boundary(k, dtype):
    s = scheme_params(k)
    for x0, y0 in window_origins():
        assert assert_window_matches_scalar(s, x0, y0, 6, 4).dtype == dtype


@pytest.mark.parametrize("c, dtype", [(INT64_MAX, np.int64), (INT64_MAX + 1, object)])
def test_label_window_int64_guard_is_tight(c, dtype):
    # The grid is int64 exactly while c fits.
    for a, b in [(1, 1), (c - 1, c - 1), (3**50, -(7**20))]:
        for x0, y0 in window_origins():
            grid = assert_window_matches_scalar(hand_built(a, b, c), x0, y0, 6, 4)
            assert grid.dtype == dtype


@settings(max_examples=300, deadline=None)
@given(a=st.integers(-2**72, 2**72), b=st.integers(-2**72, 2**72),
       c=st.integers(1, 50) | st.integers(2**63 - 3, 2**63 + 3) | st.integers(1, 2**70),
       x0=st.integers(-10**30, 10**30), y0=st.integers(-10**30, 10**30),
       w=st.integers(1, 8), h=st.integers(1, 8))
def test_label_window_matches_scalar(a, b, c, x0, y0, w, h):
    assert_window_matches_scalar(hand_built(a, b, c), x0, y0, w, h)


@pytest.mark.parametrize("k, c, message", [
    (0, 7, "k must be a positive integer"),
    (-3, 7, "k must be a positive integer"),
    (3, 0, "modulus c must be >= 1, got 0"),
    (3, -7, "modulus c must be >= 1, got -7"),
], ids=["k=0", "k=-3", "c=0", "c=-7"])
def test_a_scheme_refuses_k_or_c_below_one(k, c, message):
    # Checked once, when a scheme is built, so label, label_rows and
    # label_many never see a modulus whose labels leave [0, c).
    with pytest.raises(ValueError, match=f"^{message}$"):
        LabelingScheme(k, 1, "hand-built", 2, 5, c)


def test_int64_guard_is_tight():
    # (a + b) * (c - 1) == 2**63 - 1 exactly: the int64 path's largest sum fits.
    a, b = 200, 311
    c = INT64_MAX // (a + b) + 1
    assert (a + b) * (c - 1) == INT64_MAX
    xs = [c - 1, c - 1, INT64_MAX, INT64_MIN, 0]
    ys = [c - 1, 0, INT64_MIN, INT64_MAX, c - 1]
    assert assert_matches_scalar(hand_built(a, b, c), xs, ys).dtype == np.int64
    assert assert_matches_scalar(hand_built(a, b, c + 1), xs, ys).dtype == object


def test_label_many_with_c_past_int64_and_zero_coefficients():
    # a = b = 0 (mod c) keeps (a%c + b%c)(c-1) at 0, but c = 2^64 is no
    # int64, so the labels are Python-integer zeros.
    s = hand_built(2**64, 2**65, 2**64)
    xs = np.array(EDGE_COORDS, dtype=np.int64)
    out = label_many(s, xs, xs[::-1])
    assert out.dtype == object
    assert out.tolist() == [0] * len(EDGE_COORDS)


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
@pytest.mark.parametrize("k", [3, 2254, 9189, 9190, 3664061, 3664062])
def test_label_many_exact_for_every_integer_dtype(k, dtype):
    # c exceeds the range of the narrow dtypes from k = 2254 on, and of
    # int64 from k = 3664062 on, below uint64's largest values.
    s = scheme_params(k)
    info = np.iinfo(dtype)
    edges = [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
    xs = np.array([x for x in edges for _ in edges], dtype=dtype)
    ys = np.array(edges * len(edges), dtype=dtype)
    out = label_many(s, xs, ys)
    assert out.tolist() == [label(s, (int(x), int(y))) for x, y in zip(xs, ys)]


# ------------------------------------------------- in-place int64 kernel

# The int64 path reduces by floor division, whose (v // c) * c wraps next
# to INT64_MIN. The kernel tests run it on a short and a long array.
KERNEL_SIZES = [9, 1024]


def sized(values, size, dtype=np.int64):
    """values repeated or cut to size elements."""
    return np.resize(np.array(values, dtype=dtype), size)


def scalar_labels(s, xs, ys):
    """label at every broadcast position of xs and ys, as tolist() gives."""
    bx, by = np.broadcast_arrays(np.asarray(xs), np.asarray(ys))
    flat = [label(s, (int(x), int(y))) for x, y in zip(bx.flat, by.flat)]
    return np.array(flat, dtype=object).reshape(bx.shape).tolist()


def kernel_inputs(s, size):
    c = s.c
    return {
        "int64": sized(EDGE_COORDS, size),
        "uint64": sized([0, 1, c, 2**63, 2**64 - 1], size, np.uint64),
        "int8": sized([-128, -1, 0, 1, 127], size, np.int8),
        "reduced int64": sized(range(0, c, c // 7), size),
        "read-only view": np.broadcast_to(np.int64(INT64_MIN + 5), (size,)),
        "0-d int64": np.array(INT64_MIN),
        "0-d uint64": np.array(2**64 - 1, dtype=np.uint64),
    }


@pytest.mark.parametrize("size", KERNEL_SIZES)
@pytest.mark.parametrize("k", [3001, 9190])
def test_label_many_never_writes_its_inputs(k, size):
    s = scheme_params(k)
    inputs = kernel_inputs(s, size)
    for xs in inputs.values():
        for ys in inputs.values():
            before = xs.copy(), ys.copy()
            out = np.asarray(label_many(s, xs, ys))
            assert out.tolist() == scalar_labels(s, xs, ys)
            for old, new in zip(before, (xs, ys)):
                assert new.dtype == old.dtype
                assert np.array_equal(new, old)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_int64_kernel_edge_cases(size):
    s = scheme_params(3001)
    # c does not divide 2^63, so (INT64_MIN // c) * c wraps past INT64_MIN.
    assert (INT64_MIN // s.c) * s.c < INT64_MIN
    a, b = 200, 311
    tight = hand_built(a, b, INT64_MAX // (a + b) + 1)
    assert (a + b) * (tight.c - 1) == INT64_MAX
    extremes = [INT64_MIN, INT64_MIN + 1, INT64_MAX]
    for scheme in (s, tight):
        xs = sized([x for x in extremes for _ in extremes], size)
        ys = sized(extremes * len(extremes), size)
        out = label_many(scheme, xs, ys)
        assert out.dtype == np.int64
        assert out.tolist() == scalar_labels(scheme, xs, ys)
        # A 0-d operand is reduced in Python integers: on numpy scalars
        # the wrapping product would warn.
        for x0 in (np.int64(INT64_MIN), np.array(INT64_MIN)):
            point = label_many(scheme, x0, x0)
            assert type(point) is np.int64
            assert point == label(scheme, (INT64_MIN, INT64_MIN))
            assert label_many(scheme, x0, ys).tolist() == scalar_labels(scheme, x0, ys)
    column = sized(EDGE_COORDS, size).reshape(-1, 1)
    row = np.array(EDGE_COORDS, dtype=np.int64)
    for xs, ys in [(column, row), (row, column)]:
        out = label_many(s, xs, ys)
        assert out.shape == (column.size, row.size)
        assert out.tolist() == scalar_labels(s, xs, ys)
    top = sized([2**64 - 1], size, np.uint64)
    assert label_many(s, top, top).tolist() == scalar_labels(s, top, top)


def test_int64_kernel_allocates_two_arrays():
    # Two temporaries of the points' size: the reduced coordinates, the
    # sum built in one and reduced into the other.
    s = scheme_params(3001)
    n = 10**5
    rng = np.random.default_rng(0)
    xs = rng.integers(INT64_MIN, INT64_MAX, n, endpoint=True)
    ys = rng.integers(INT64_MIN, INT64_MAX, n, endpoint=True)
    label_many(s, xs[:10], ys[:10])  # first-call imports stay out of the peak
    tracemalloc.start()
    try:
        label_many(s, xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n + 64 * 1024
