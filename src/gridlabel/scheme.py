"""Linear modular labeling schemes for the square grid.

For a separation parameter k, every vertex receives the label
``L(x, y) = (a*x + b*y) mod c``. The coefficient triple (a, b, c) depends
on the parity of k and of p, where k = 2p + 1 (odd k) or k = 2p (even k):

    odd k,  odd p  (p >= 1):  a = 2p+3, b = 3p^2+7p+5, c = (p+1)(3p^2+5p+4)/2
    odd k,  even p (p >= 0):  a = 2p+3, b = 3p^2+6p+3, c = (3p^3+8p^2+8p+4)/2
    even k, odd p  (p >= 3):  a = 2p+1, b = 3p^2+4p+2, c = (3p^3+5p^2+5p+1)/2
    even k, even p (p >= 2):  a = 2p+1, b = 3p^2+3p+1, c = (p+1)(3p^2+2p+2)/2

c is the number of labels used. The mathematical (always non-negative)
remainder keeps every label inside [0, c), negative coordinates included.

k = 2 is the single unsupported value: the even-k/odd-p case starts at
p = 3, so no case covers p = 1.

Scalar evaluation (label, and label_rows for the rows of a window) uses
Python integers, hence stays exact at any magnitude, and needs no numpy,
which the vectorized helpers (label_many, label_window) import when they
first run. Coordinates must be integers. Points (label_many) are int64
while their products fit, (a mod c + b mod c)*(c-1) <= 2^63-1, which is
every k <= 9189, and one exact object-array (Python-integer) expression
past that. The int64 path reduces by floor division, v - (v // c)*c,
into at most two arrays of the broadcast shape; the product may wrap
next to INT64_MIN, and the subtraction wraps back to the exact remainder
in [0, c). Windows (label_window) are int64 while their labels fit,
c <= 2^63-1, which is every k <= 3664061, and Python integers past that.
Schemes are immutable; functions are pure.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

ODD_K_ODD_P = "odd-k-odd-p"
ODD_K_EVEN_P = "odd-k-even-p"
EVEN_K_ODD_P = "even-k-odd-p"
EVEN_K_EVEN_P = "even-k-even-p"

class UnsupportedK(ValueError):
    """No coefficient case covers this k (only k = 2 is excluded)."""

    def __init__(self, k: int, reason: str = ""):
        self.k = k
        msg = f"k={k} is not covered by any coefficient case"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


@dataclass(frozen=True)
class LabelingScheme:
    """One instantiation of the labeling rule L(x, y) = (a*x + b*y) mod c.

    Instances built by scheme_params satisfy 0 < a < b < c for k >= 3.
    Hand-built ones may carry any a and b, and k = 2; construction raises
    ValueError for k < 1 or c < 1, so labels always lie in [0, c).
    """

    k: int
    p: int
    parity_case: str
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.c < 1:
            raise ValueError(f"modulus c must be >= 1, got {self.c}")


def _halved(n: int) -> int:
    q, r = divmod(n, 2)
    if r:
        raise ArithmeticError(f"modulus numerator {n} is not even")
    return q


def scheme_params(k: int) -> LabelingScheme:
    """Coefficient triple for the case matching k's parity and p's parity.

    Raises UnsupportedK for k = 2 and ValueError for k < 1. The divisions
    by two in the modulus expressions are exact for every covered k.
    """
    return LabelingScheme(k, *_coefficients(k))


def _coefficients(k: int) -> tuple[int, str, int, int, int]:
    """(p, parity_case, a, b, c) for k, the fields scheme_params fills."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k % 2 == 1:
        p = (k - 1) // 2
        if p % 2 == 1:
            return (p, ODD_K_ODD_P,
                    2 * p + 3,
                    3 * p * p + 7 * p + 5,
                    _halved((p + 1) * (3 * p * p + 5 * p + 4)))
        return (p, ODD_K_EVEN_P,
                2 * p + 3,
                3 * p * p + 6 * p + 3,
                _halved(3 * p**3 + 8 * p * p + 8 * p + 4))
    p = k // 2
    if p % 2 == 1:
        if p < 3:
            raise UnsupportedK(k, "even k needs odd p >= 3, and k=2 gives p=1")
        return (p, EVEN_K_ODD_P,
                2 * p + 1,
                3 * p * p + 4 * p + 2,
                _halved(3 * p**3 + 5 * p * p + 5 * p + 1))
    return (p, EVEN_K_EVEN_P,
            2 * p + 1,
            3 * p * p + 3 * p + 1,
            _halved((p + 1) * (3 * p * p + 2 * p + 2)))


def label(scheme: LabelingScheme, v) -> int:
    """Label of the integer vertex v = (x, y); always in [0, c)."""
    x, y = map(operator.index, v)
    return (scheme.a * x + scheme.b * y) % scheme.c


def label_rows(scheme: LabelingScheme, x0: int, width: int,
               ys: range) -> Iterator[list[int]]:
    """Exact labels of x0, ..., x0+width-1 for each y of ys, one list per row.

    Row y is the progression (L(x0, y) + a*j) mod c, made as it is read,
    with no numpy. An empty window raises ValueError, as in label_window.
    """
    if width < 1 or not ys:
        raise ValueError("window must have positive dimensions")
    a, b, c = scheme.a, scheme.b, scheme.c
    start = a * operator.index(x0)
    steps = [a * j for j in range(width)]
    return ([(first + s) % c for s in steps]
            for y in ys for first in [(start + b * operator.index(y)) % c])


def lambda_ub(k: int) -> int:
    """Number of labels the scheme for k uses, i.e. its modulus c."""
    return _coefficients(k)[4]


_INT64_MAX = 2**63 - 1


def _int64_safe(scheme: LabelingScheme) -> bool:
    # The int64 path evaluates ((a%c)*xr + (b%c)*yr) % c with 0 <= xr, yr < c,
    # so its largest intermediate is the sum before the final reduction,
    # at most (a%c + b%c)*(c-1). c must fit as well: with a = b = 0 (mod c)
    # that bound holds at any c, but np.int64(c) would overflow.
    a, b, c = scheme.a, scheme.b, scheme.c
    return c <= _INT64_MAX and (a % c + b % c) * (c - 1) <= _INT64_MAX


def label_many(scheme: LabelingScheme, xs, ys) -> np.ndarray:
    """Vectorized label evaluation over integer coordinate arrays.

    xs and ys broadcast together. While _int64_safe holds, integer arrays
    are reduced mod c and labelled exactly in int64; otherwise the labels
    come from one Python-integer (object dtype) array expression on the
    coordinates as given. Object arrays must hold integers.
    """
    import numpy as np

    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.dtype.kind == "f" or ys.dtype.kind == "f":
        raise TypeError("coordinates must be integers")
    a, b, c = scheme.a, scheme.b, scheme.c
    if xs.dtype.kind in "iu" and ys.dtype.kind in "iu" and _int64_safe(scheme):
        return _label_int64(xs, ys, a % c, b % c, c)
    return (a * _as_python_ints(xs) + b * _as_python_ints(ys)) % c


def _label_int64(xs: np.ndarray, ys: np.ndarray, a: int, b: int,
                 c: int) -> np.ndarray:
    """(a*xs + b*ys) mod c on int64, for a, b in [0, c) under _int64_safe.

    Each array operand is reduced into a new array and scaled there. The
    sum goes into one of them that has the broadcast shape, and is reduced
    into the other if it has it too, so at most two arrays of that shape
    are allocated and the inputs are only read. A 0-d operand's term is
    one Python integer; two give an np.int64, as label would.
    """
    import numpy as np

    x, y = _term(xs, a, c), _term(ys, b, c)
    if isinstance(x, int):
        if isinstance(y, int):
            return np.int64((x + y) % c)
        x, y = y, x
    if isinstance(y, int):
        x += y
        return _floor_mod(x, np.int64(c))
    shape = np.broadcast(x, y).shape
    full = [t for t in (x, y) if t.shape == shape]
    total = np.add(x, y, out=full[0] if full else None)
    return _floor_mod(total, np.int64(c), out=full[1] if len(full) > 1 else None)


def _term(values: np.ndarray, coef: int, c: int):
    """coef * (values mod c): a Python integer for a 0-d operand, else a
    new int64 array."""
    import numpy as np

    if values.ndim == 0:
        return coef * (int(values) % c)
    # A numpy scalar modulus widens the result: with a Python int, NEP 50
    # makes narrow arrays (int32, uint8, ...) raise OverflowError once c
    # exceeds their range. uint64 is divided as uint64, so values past
    # 2^63-1 are reduced exactly; the remainders in [0, c) read the same
    # as int64.
    modulus = (np.uint64 if values.dtype == np.uint64 else np.int64)(c)
    reduced = _floor_mod(values, modulus).view(np.int64)
    reduced *= coef
    return reduced


def _floor_mod(values: np.ndarray, modulus, out=None) -> np.ndarray:
    """values mod modulus (a numpy scalar) as values - (values // modulus)
    * modulus, written into out or a new array.

    This is np.mod's floored remainder, but numpy divides by a scalar
    with a precomputed reciprocal, which np.mod does not. The product can
    wrap in int64 next to INT64_MIN. The subtraction then wraps back, and
    the result is exact because it lies between 0 and the modulus. Only
    arrays wrap silently: numpy scalars warn on overflow, so 0-d operands
    are reduced in Python integers instead.
    """
    import numpy as np

    quotient = np.floor_divide(values, modulus, out=out)
    quotient *= modulus
    return np.subtract(values, quotient, out=quotient)


@functools.cache
def _index_ufunc():
    # Elements of an object array may be numpy integers, whose fixed-width
    # products would wrap; operator.index turns them into Python integers
    # and rejects non-integers.
    import numpy as np

    return np.frompyfunc(operator.index, 1, 1)


def _as_python_ints(values: np.ndarray) -> np.ndarray:
    if values.dtype == object:
        return _index_ufunc()(values)
    return values.astype(object)


def _axis(origin: int, n: int, c: int) -> np.ndarray:
    """origin, ..., origin+n-1 shifted by a multiple of c into [0, c+n-1)."""
    import numpy as np

    start = origin % c
    dtype = np.int64 if start + n - 1 <= _INT64_MAX else object
    return np.arange(start, start + n, dtype=dtype)


def label_window(scheme: LabelingScheme, x0: int, y0: int,
                 width: int, height: int) -> np.ndarray:
    """Labels of the rectangle [x0, x0+width) x [y0, y0+height).

    Returned array is indexed [row, col] where row i holds y = y0 + i and
    col j holds x = x0 + j. It is int64 while c fits, which is every
    k <= 3664061, and Python integers (object dtype) past that. Raises
    ValueError for an empty window and TypeError for a coordinate that
    is not an integer.
    """
    return _label_grid(scheme, x0, y0, width, height,
                       "int64" if scheme.c <= _INT64_MAX else "object")


def _label_grid(scheme: LabelingScheme, x0: int, y0: int,
                width: int, height: int, dtype) -> np.ndarray:
    """label_window's grid in dtype, a signed type that holds c, or object.

    By linearity the label at [i, j] is X[j] + (Y[i] - c), plus c where
    that is negative, with X[j] = L(x0+j, 0) and Y[i] = L(0, y0+i) in
    [0, c) from label_many. Both terms and their sum lie in [-c, c), so
    no intermediate exceeds c in magnitude.
    """
    import numpy as np

    x0, y0 = operator.index(x0), operator.index(y0)
    if width < 1 or height < 1:
        raise ValueError("window must have positive dimensions")
    c = scheme.c
    x_labels = label_many(scheme, _axis(x0, width, c), 0).astype(dtype, copy=False)
    y_labels = label_many(scheme, 0, _axis(y0, height, c)).astype(dtype, copy=False)
    grid = x_labels[np.newaxis, :] + (y_labels - c)[:, np.newaxis]
    np.add(grid, c, out=grid, where=grid < 0)
    return grid
