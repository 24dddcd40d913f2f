"""Scheme construction and label evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import hand_built, peak_traced_bytes
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
    ratio,
    scheme_params,
)
from gridlabel.scheme import _progression

coords = st.integers(min_value=-10**9, max_value=10**9)
supported_k = st.sampled_from([1, 3, 4, 5, 6, 7, 8, 9, 12, 15, 40, 41])


def test_k2_unsupported():
    with pytest.raises(UnsupportedK):
        scheme_params(2)
    with pytest.raises(UnsupportedK):
        lambda_ub(2)
    with pytest.raises(UnsupportedK):
        ratio(2)


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


# The case of k, p = k // 2, by the parities of k and of p.
CASES = {(1, 1): ODD_K_ODD_P, (1, 0): ODD_K_EVEN_P,
         (0, 1): EVEN_K_ODD_P, (0, 0): EVEN_K_EVEN_P}


def test_all_cases_appear_and_exact_halving_up_to_1e4():
    for k in range(1, 10_001):
        if k == 2:
            continue
        s = scheme_params(k)  # raises ArithmeticError if a division were inexact
        assert (s.a, s.b, s.c) == oracle.coefficients(k), k
        assert (s.p, s.parity_case) == (k // 2, CASES[k % 2, k // 2 % 2]), k
        assert lambda_ub(k) == s.c


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
        assert out.tolist() == oracle.broadcast_labels(s.a, s.b, s.c, xs, ys)


def test_label_many_object_fallback_for_huge_coordinates():
    s = scheme_params(3)
    xs = np.array([10**30, -(10**30)], dtype=object)
    ys = np.array([0, 0], dtype=object)
    out = label_many(s, xs, ys)
    assert list(out) == oracle.broadcast_labels(s.a, s.b, s.c, xs, ys)


def test_label_many_rejects_floats():
    # One TypeError for every non-integer coordinate, on the int64 path
    # (k = 3) and the exact one (k = 9190), whichever operand carries it,
    # also where it meets an empty operand or one it cannot broadcast with.
    # numpy turns timedelta64[ns] elements into Python integers, so the
    # dtype is refused as well as the element.
    ones = np.array([1])
    non_integers = [np.array([0.5]), np.array([1j]), np.array(["1"]), None,
                    np.array([1], dtype="timedelta64[s]"),
                    np.array([1], dtype="timedelta64[ns]")]
    for k in (3, 9190):
        s = scheme_params(k)
        with pytest.raises(TypeError):
            label_many(s, np.array([0.5]), np.array([1.0]))
        for bad, other in [*((bad, ones) for bad in non_integers),
                           (np.array([None], dtype=object), []),
                           (np.array([0.5, 1], dtype=object), np.arange(3))]:
            for xs, ys in [(bad, other), (other, bad)]:
                with pytest.raises(TypeError):
                    label_many(s, xs, ys)


def test_label_window_orientation():
    s = scheme_params(3)
    grid = label_window(s, 0, 0, 4, 2)
    assert grid.shape == (2, 4)
    assert grid[0].tolist() == [0, 5, 10, 3]   # y = 0
    assert grid[1].tolist() == [3, 8, 1, 6]    # y = 1
    shifted = label_window(s, -2, 5, 3, 1)
    assert shifted.tolist() == oracle.label_grid(s.a, s.b, s.c, -2, 5, 3, 1)


# ------------------------------------------ int64 / object path boundary

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
EDGE_COORDS = [INT64_MIN, INT64_MIN + 1, -1, 0, 1, 12345, INT64_MAX - 1, INT64_MAX]


def assert_matches_scalar(s, xs, ys):
    out = label_many(s, np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
    assert out.tolist() == oracle.broadcast_labels(s.a, s.b, s.c, xs, ys)
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
    assert grid.tolist() == oracle.label_grid(s.a, s.b, s.c, x0, y0, width, height)
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
        for w, h in [(6, 4), (np.int64(6), np.int64(4))]:
            assert assert_window_matches_scalar(s, x0, y0, w, h).dtype == dtype


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


NEAR_SQUARES = [n for q in range(1, 18) for n in (q * q - 1, q * q, q * q + 1) if n]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 300) | st.sampled_from(NEAR_SQUARES),
       coef=st.integers(-100, 100) | st.integers(-2**72, 2**72),
       wraps=st.integers(-3, 3),
       origin=st.integers(-10**6, 10**6) | st.integers(-10**30, 10**30),
       c=st.integers(1, 60) | st.integers(1, 2**15) | st.integers(2**63 - 3, 2**63 + 3)
       | st.integers(2**64 - 3, 2**70))
def test_progression_matches_a_plain_comprehension(n, coef, wraps, origin, c):
    # A window axis: zero, negative and >= c coefficients, in each type
    # check_window and label_window build a grid in that holds c.
    coef += wraps * c
    want = [(coef * (origin + j)) % c for j in range(n)]
    for dtype in ("int16", "int32", "int64", "object"):
        if dtype == "object" or c <= np.iinfo(dtype).max:
            axis = _progression(coef, origin, n, c, dtype)
            assert axis.dtype == dtype
            assert axis.tolist() == want


def test_label_window_of_a_long_axis_matches_label_rows():
    # k = 20001 labels points on the exact path but windows on int64.
    s = scheme_params(20001)
    n = 100_000
    for x0, y0 in [(0, 0), (-(10**20), 3**40)]:
        for w, h in [(n, 1), (1, n)]:
            want = oracle.label_grid(s.a, s.b, s.c, x0, y0, w, h)
            assert label_window(s, x0, y0, w, h).tolist() == want
            assert list(label_rows(s, x0, w, range(y0, y0 + h))) == want


@pytest.mark.parametrize("change, message", [
    ({"c": 0}, "modulus c must be >= 1, got 0"),
    ({"k": 0}, "k must be a positive integer"),
])
def test_replace_and_make_check_a_scheme_like_the_constructor(change, message):
    # namedtuple's _make, which _replace calls, would skip __new__.
    s = scheme_params(7)
    with pytest.raises(ValueError, match=f"^{message}$"):
        s._replace(**change)
    with pytest.raises(ValueError, match=f"^{message}$"):
        LabelingScheme._make({**s._asdict(), **change}.values())
    with pytest.raises(TypeError):
        s._replace(a=5.0)
    swapped = s._replace(a=np.int64(s.b), b=s.a)
    assert (type(swapped.a), swapped.a, swapped.b) == (int, s.b, s.a)


@pytest.mark.parametrize("k", [3, 9190])
def test_label_many_of_empty_coordinates_is_empty(k):
    # numpy reads [] as float64; it must label like an empty int64 array.
    s = scheme_params(k)
    empty = np.array([], dtype=np.int64)
    want = label_many(s, empty, empty)
    assert want.shape == (0,)
    for xs, ys in [([], []), ([], 0), (0, []), (empty, [])]:
        got = label_many(s, xs, ys)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)


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
    assert out.tolist() == oracle.broadcast_labels(s.a, s.b, s.c, xs, ys)


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
    assert out.tolist() == oracle.broadcast_labels(s.a, s.b, s.c, xs, ys)


# ------------------------------------------------- in-place int64 kernel

# The int64 path reduces by floor division, whose (v // c) * c wraps next
# to INT64_MIN. The kernel tests run it on a short and a long array.
KERNEL_SIZES = [9, 1024]


def sized(values, size, dtype=np.int64):
    """values repeated or cut to size elements."""
    return np.resize(np.array(values, dtype=dtype), size)


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
            assert out.tolist() == oracle.broadcast_labels(s.a, s.b, s.c, xs, ys)
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
        abc = scheme.a, scheme.b, scheme.c
        xs = sized([x for x in extremes for _ in extremes], size)
        ys = sized(extremes * len(extremes), size)
        out = label_many(scheme, xs, ys)
        assert out.dtype == np.int64
        assert out.tolist() == oracle.broadcast_labels(*abc, xs, ys)
        # Two 0-d operands are labelled in Python integers and a lone one
        # as a 1-element array: on numpy scalars the wrapping product
        # would warn.
        for x0 in (np.int64(INT64_MIN), np.array(INT64_MIN)):
            point = label_many(scheme, x0, x0)
            assert type(point) is np.int64
            assert point == oracle.label(*abc, INT64_MIN, INT64_MIN)
            assert label_many(scheme, x0, ys).tolist() == \
                oracle.broadcast_labels(*abc, x0, ys)
    column = sized(EDGE_COORDS, size).reshape(-1, 1)
    row = np.array(EDGE_COORDS, dtype=np.int64)
    for xs, ys in [(column, row), (row, column)]:
        out = label_many(s, xs, ys)
        assert out.shape == (column.size, row.size)
        assert out.tolist() == oracle.broadcast_labels(s.a, s.b, s.c, xs, ys)
    top = sized([2**64 - 1], size, np.uint64)
    assert label_many(s, top, top).tolist() == \
        oracle.broadcast_labels(s.a, s.b, s.c, top, top)


def test_int64_kernel_allocates_two_arrays():
    # Two temporaries of the points' size: the reduced coordinates, the
    # sum built in one and reduced into the other.
    s = scheme_params(3001)
    n = 10**5
    rng = np.random.default_rng(0)
    xs = rng.integers(INT64_MIN, INT64_MAX, n, endpoint=True)
    ys = rng.integers(INT64_MIN, INT64_MAX, n, endpoint=True)
    label_many(s, xs[:10], ys[:10])  # first-call imports stay out of the peak
    _, peak = peak_traced_bytes(lambda: label_many(s, xs, ys))
    assert peak <= 2 * 8 * n + 64 * 1024
