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
k = 2 is the one k that no case covers (UnsupportedK).

Scalar evaluation (label, and label_rows for the rows of a window) uses
Python integers, hence stays exact at any magnitude, and needs no numpy,
which the vectorized helpers (label_many, label_window) import when they
first run. Coordinates must be integers. Points (label_many) are labelled
in int64 while their products fit, which is every k <= 9189, and by one
exact Python-integer rule per point past that. Windows (label_window) are
int64 while their labels fit, c <= 2^63-1, which is every k <= 3664061,
and Python integers past that; their axes are exact progressions, not
points. Schemes are immutable; functions are pure.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

ODD_K_ODD_P = "odd-k-odd-p"
ODD_K_EVEN_P = "odd-k-even-p"
EVEN_K_ODD_P = "even-k-odd-p"
EVEN_K_EVEN_P = "even-k-even-p"


class UnsupportedK(ValueError):
    """No coefficient case covers this k (only k = 2 is excluded)."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"k={k} is not covered by any coefficient case: even k "
                         f"needs odd p >= 3, and k={k} gives p={k // 2}")


class _SchemeFields(NamedTuple):
    k: int
    p: int
    parity_case: str
    a: int
    b: int
    c: int


class LabelingScheme(_SchemeFields):
    """One instantiation of the labeling rule L(x, y) = (a*x + b*y) mod c.

    Instances built by scheme_params satisfy 0 < a < b < c for k >= 3.
    Hand-built ones may carry any a and b, and k = 2; construction raises
    ValueError for k < 1 or c < 1, so labels always lie in [0, c). k, p,
    a, b and c are stored as the Python integers operator.index gives,
    so numpy integers cannot wrap and a non-integer raises TypeError.
    Every way of building one (_make, _replace, unpickling) is checked.
    """

    __slots__ = ()

    def __new__(cls, k: int, p: int, parity_case: str, a: int, b: int, c: int):
        k, p, a, b, c = map(operator.index, (k, p, a, b, c))
        if k < 1:
            raise ValueError("k must be a positive integer")
        if c < 1:
            raise ValueError(f"modulus c must be >= 1, got {c}")
        return super().__new__(cls, k, p, parity_case, a, b, c)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__.
        return cls(*iterable)


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
    """(p, parity_case, a, b, c) for k, the fields scheme_params fills.

    k is read with operator.index, so a numpy integer cannot wrap.
    """
    k = operator.index(k)
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
            raise UnsupportedK(k)
        return (p, EVEN_K_ODD_P,
                2 * p + 1,
                3 * p * p + 4 * p + 2,
                _halved(3 * p**3 + 5 * p * p + 5 * p + 1))
    return (p, EVEN_K_EVEN_P,
            2 * p + 1,
            3 * p * p + 3 * p + 1,
            _halved((p + 1) * (3 * p * p + 2 * p + 2)))


#: Values gcd(a, b) can take in each parity case.
GCD_AB_ALLOWED = {
    ODD_K_ODD_P: frozenset({1, 5}),
    ODD_K_EVEN_P: frozenset({1, 3}),
    EVEN_K_ODD_P: frozenset({1, 3}),
    EVEN_K_EVEN_P: frozenset({1}),
}


def label(scheme: LabelingScheme, v) -> int:
    """Label of the integer vertex v = (x, y); always in [0, c)."""
    x, y = map(operator.index, v)
    return (scheme.a * x + scheme.b * y) % scheme.c


def label_rows(scheme: LabelingScheme, x0: int, width: int,
               ys: range) -> Iterator[list[int]]:
    """Exact labels of x0, ..., x0+width-1 for each y of ys, one list per row.

    Row y is the progression (L(x0, y) + a*j) mod c, made as it is read,
    with no numpy. It repeats every c // gcd(a, c) columns, so only that
    period is computed and the rest of the row is copies of it. An empty
    window raises ValueError, as in label_window.
    """
    x0, width = operator.index(x0), operator.index(width)
    if width < 1 or not ys:
        raise ValueError("window must have positive dimensions")
    a, b, c = scheme.a, scheme.b, scheme.c
    start = a * x0
    steps = [a * j for j in range(min(width, c // math.gcd(a, c)))]
    rows = ([(first + s) % c for s in steps]
            for y in ys for first in [(start + b * operator.index(y)) % c])
    if len(steps) == width:
        return rows
    copies, rest = divmod(width, len(steps))
    return (period * copies + period[:rest] for period in rows)


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
    are reduced mod c and labelled exactly in int64; otherwise each
    broadcast pair gets (a*x + b*y) mod c in Python integers (object
    dtype), x and y read with operator.index so numpy integers cannot
    wrap. Any dtype but bool, integer or object, and any object element
    that is not an integer, raises TypeError. An empty operand is read
    as int64, since numpy reads [] as float64.
    """
    import numpy as np

    xs, ys = (v if v.size else v.astype(np.int64)
              for v in map(np.asarray, (xs, ys)))
    if {xs.dtype.kind, ys.dtype.kind} - set("biuO"):
        raise TypeError("coordinates must be integers")
    a, b, c = scheme.a, scheme.b, scheme.c
    if xs.dtype.kind in "iu" and ys.dtype.kind in "iu" and _int64_safe(scheme):
        return _label_int64(xs, ys, a % c, b % c, c)
    index = operator.index
    # Broadcasting reads an element only where a position reaches it, so
    # an object operand is read in full first.
    for v in (xs, ys):
        if v.dtype == object:
            for element in v.flat:
                index(element)
    return np.frompyfunc(lambda x, y: (a * index(x) + b * index(y)) % c, 2, 1)(xs, ys)


def _label_int64(xs: np.ndarray, ys: np.ndarray, a: int, b: int,
                 c: int) -> np.ndarray:
    """(a*xs + b*ys) mod c on int64, for a, b in [0, c) under _int64_safe.

    Two 0-d operands are labelled in Python integers into an np.int64, as
    label would, and a lone 0-d operand is taken as a 1-element array.
    Each operand is reduced into a new array and scaled there. The sum
    goes into one of them that has the broadcast shape, and is reduced
    into the other if it has it too, so at most two arrays of that shape
    are allocated and the inputs are only read.
    """
    import numpy as np

    if xs.ndim == ys.ndim == 0:
        return np.int64((a * int(xs) + b * int(ys)) % c)
    x, y = _term(np.atleast_1d(xs), a, c), _term(np.atleast_1d(ys), b, c)
    shape = np.broadcast(x, y).shape
    full = [t for t in (x, y) if t.shape == shape]
    total = np.add(x, y, out=full[0] if full else None)
    return _floor_mod(total, np.int64(c), out=full[1] if len(full) > 1 else None)


def _term(values: np.ndarray, coef: int, c: int) -> np.ndarray:
    """coef * (values mod c) in a new int64 array."""
    import numpy as np

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
    arrays wrap silently, as numpy scalars warn on overflow, so values
    has at least one dimension.
    """
    import numpy as np

    quotient = np.floor_divide(values, modulus, out=out)
    quotient *= modulus
    return np.subtract(values, quotient, out=quotient)


def label_window(scheme: LabelingScheme, x0: int, y0: int,
                 width: int, height: int) -> np.ndarray:
    """Labels of the rectangle [x0, x0+width) x [y0, y0+height).

    Returned array is indexed [row, col] where row i holds y = y0 + i and
    col j holds x = x0 + j. It is int64 while c fits, which is every
    k <= 3664061, and Python integers (object dtype) past that. Raises
    ValueError for an empty window and TypeError for a coordinate or
    size that is not an integer.
    """
    return _label_grid(scheme, x0, y0, width, height,
                       "int64" if scheme.c <= _INT64_MAX else "object")


def _label_grid(scheme: LabelingScheme, x0: int, y0: int,
                width: int, height: int, dtype) -> np.ndarray:
    """label_window's grid in dtype, a signed type that holds c, or object.

    L is linear, L(u + v) = L(u) + L(v) mod c, so the label at [i, j] is
    _add_mod of the axis labels X[j] = L(x0+j, 0) and Y[i] = L(0, y0+i),
    and each axis is made the same way from fewer labels (_progression).
    """
    x0, y0, width, height = map(operator.index, (x0, y0, width, height))
    if width < 1 or height < 1:
        raise ValueError("window must have positive dimensions")
    c = scheme.c
    x_labels = _progression(scheme.a, x0, width, c, dtype)
    y_labels = _progression(scheme.b, y0, height, c, dtype)
    return _add_mod(x_labels, y_labels[:, None], c)


def _progression(coef: int, origin: int, n: int, c: int, dtype) -> np.ndarray:
    """(coef * (origin + j)) mod c for j in [0, n), in dtype. With m =
    ceil(sqrt(n)) and j = q*m + r, label j is the _add_mod of head q,
    coef * (origin + q*m), and tail r, coef * r, both mod c: about
    2*sqrt(n) labels in Python integers."""
    import numpy as np

    m = math.isqrt(n - 1) + 1
    start, step = coef * origin % c, coef * m % c
    heads = [(start + step * q) % c for q in range(-(-n // m))]
    tails = [coef * r % c for r in range(m)]
    grid = _add_mod(np.array(heads, dtype)[:, None], np.array(tails, dtype), c)
    return grid.ravel()[:n]


def _add_mod(x: np.ndarray, y: np.ndarray, c: int) -> np.ndarray:
    """(x + y) mod c for labels in [0, c), broadcast together: x + (y - c)
    lies in [-c, c) and gets c back where negative, so no intermediate
    exceeds c in magnitude."""
    import numpy as np

    total = x + (y - c)
    np.add(total, c, out=total, where=total < 0)
    return total
