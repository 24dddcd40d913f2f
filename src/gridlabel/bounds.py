"""Bounds on the grid labeling number, with exact rational ratios.

The lower bound comes from packing the radius-p ball: its vertices are
pairwise within the reuse distance, so they carry distinct labels, and
chaining the sorted labels forces a minimum spread. The closed form is

    (2/3) p (p+1) (2p+1) + 2   for even k = 2p,
    (2/3) p (p+1) (2p+3) + 2   for odd  k = 2p+1.

The odd expression is fractional when p = 1 (mod 3); the labeling number
is an integer, so its ceiling is reported as the usable bound and the
exact rational is kept for transparency.

The upper bound is the modulus c of the constructive scheme. Ratios are
exact rationals built on the ceiled lower bound; decimal renderings are
display-only. All functions are pure. fractions (which loads decimal) is
imported by the functions that make a Fraction, so importing this module
does not load it.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from .scheme import UnsupportedK, lambda_ub

if TYPE_CHECKING:
    from fractions import Fraction

EVEN_K = "even-k"
ODD_K = "odd-k"


class LowerBound(NamedTuple):
    exact: Fraction
    ceiled: int


class BoundsRecord(NamedTuple):
    k: int
    lower_exact: Fraction
    lower: int
    upper: Optional[int]
    ratio: Optional[Fraction]


def lambda_lb(k: int) -> LowerBound:
    """Closed-form lower bound for k >= 1 (k = 2 included)."""
    from fractions import Fraction

    num = _lb_numerator(k)
    return LowerBound(exact=Fraction(num, 3), ceiled=-(-num // 3))


def _lb_numerator(k: int) -> int:
    """3 * lambda_lb(k).exact, an integer; k is read with operator.index,
    so a numpy integer cannot wrap."""
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    # (2/3) p (p+1) (2p+1 or 2p+3) + 2, as one fraction over 3.
    if k % 2 == 0:
        p = k // 2
        return 2 * p * (p + 1) * (2 * p + 1) + 6
    p = (k - 1) // 2
    return 2 * p * (p + 1) * (2 * p + 3) + 6


def lb_summation(p: int, parity: str) -> Fraction:
    """Lower bound recomputed from the explicit packing sums.

    The chain over the sorted labels of the radius-p ball gives a spread
    of at least 4*(sum_{m=1..p} m(p+1-m) + sum_{m=1..p-1} m(p-m)) plus a
    minimal boundary contribution of 1; adding 1 converts spread to a
    label count. That is the even-k closed form, recomputed. For odd k
    this adds (2/3)(2p^2+2p), the paper's difference between its two
    closed forms, taken as given: the odd result agrees with lambda_lb by
    construction and is no cross-check. (The same chain at k = 2p+1 gives
    (2/3)p(p+1) more than lambda_lb, a valid but unpublished bound.)
    """
    p = operator.index(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    if parity not in (EVEN_K, ODD_K):
        raise ValueError(f"parity must be {EVEN_K!r} or {ODD_K!r}")
    from fractions import Fraction

    outer = sum(m * (p + 1 - m) for m in range(1, p + 1))
    inner = sum(m * (p - m) for m in range(1, p))
    total = Fraction(4 * (outer + inner) + 1 + 1)
    if parity == ODD_K:
        total += Fraction(2, 3) * (2 * p * p + 2 * p)
    return total


def ratio(k: int) -> Fraction:
    """Exact upper/lower ratio, using the ceiled lower bound.

    1 at k = 1; at every supported k >= 3 it exceeds 9/8 (4/3 at k = 3)
    and approaches 9/8 from above as k grows.
    """
    from fractions import Fraction

    return Fraction(lambda_ub(k), lambda_lb(k).ceiled)


_Row = tuple[int, int, int, Optional[int]]


def _bounds_rows(k_min: int, k_max: int) -> Iterator[_Row]:
    """(k, 3 * lower_exact, lower, upper) per k in [k_min, k_max], in plain
    integers, each made as it is read; upper is None for k = 2.

    The range is checked at the call, before any row is made.
    """
    k_min, k_max = operator.index(k_min), operator.index(k_max)
    if not 1 <= k_min <= k_max:
        raise ValueError("need 1 <= k_min <= k_max")

    def row(k: int) -> _Row:
        num = _lb_numerator(k)
        try:
            ub: Optional[int] = lambda_ub(k)
        except UnsupportedK:
            ub = None
        return k, num, -(-num // 3), ub

    return map(row, range(k_min, k_max + 1))


def bounds_table(k_min: int, k_max: int) -> list[BoundsRecord]:
    """One record per k in [k_min, k_max], increasing k.

    The range is checked before any record is made. upper and ratio are
    None for k = 2, where no scheme exists.
    """
    rows = _bounds_rows(k_min, k_max)
    from fractions import Fraction

    return [BoundsRecord(k, Fraction(num, 3), lower, upper,
                         None if upper is None else Fraction(upper, lower))
            for k, num, lower, upper in rows]
