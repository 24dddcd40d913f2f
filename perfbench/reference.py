"""Expected results, computed without importing gridlabel.

Everything here is re-derived from the definitions in the README: the four
coefficient cases, the closed-form bounds, the Manhattan spheres, balls and
two-centre shells, and the separation requirement itself. The parent process
uses it to judge the summaries a worker sends back, so a defect in the
package cannot hide behind the same defect in its own cross-checks.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ints_digest(values) -> str:
    """Digest of integers in order, as one comma-separated decimal string."""
    return digest(",".join(map(str, values)))


def coefficients(k: int):
    """(a, b, c) of the modular scheme for k, or None for k = 2."""
    if k % 2:
        p = (k - 1) // 2
        if p % 2:
            return 2 * p + 3, 3 * p * p + 7 * p + 5, (p + 1) * (3 * p * p + 5 * p + 4) // 2
        return 2 * p + 3, 3 * p * p + 6 * p + 3, (3 * p**3 + 8 * p * p + 8 * p + 4) // 2
    p = k // 2
    if p % 2:
        if p < 3:
            return None
        return 2 * p + 1, 3 * p * p + 4 * p + 2, (3 * p**3 + 5 * p * p + 5 * p + 1) // 2
    return 2 * p + 1, 3 * p * p + 3 * p + 1, (p + 1) * (3 * p * p + 2 * p + 2) // 2


def labels(k: int, points) -> list[int]:
    a, b, c = coefficients(k)
    return [(a * x + b * y) % c for x, y in points]


def window_pairs(k: int, width: int, height: int) -> int:
    """Unordered pairs of a width x height rectangle at distance 1..k.

    Summed per horizontal offset dx: with m = min(k - dx, height - 1)
    vertical offsets on each side, the column contributes
    (width - dx) * (height * (2m + 1) - m(m + 1)) pairs, and dx = 0 counts
    only the upward half.
    """
    m0 = min(k, height - 1)
    total = width * (m0 * height - m0 * (m0 + 1) // 2)
    for dx in range(1, min(k, width - 1) + 1):
        m = min(k - dx, height - 1)
        total += (width - dx) * (height * (2 * m + 1) - m * (m + 1))
    return total


def sphere(m: int) -> list[tuple[int, int]]:
    if m == 0:
        return [(0, 0)]
    return sorted({(x, s * (m - abs(x))) for x in range(-m, m + 1) for s in (1, -1)})


def ball(m: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(-m, m + 1)
            for y in range(abs(x) - m, m - abs(x) + 1)]


def t_set(m: int) -> list[tuple[int, int]]:
    """The shell at distance m from {(0, 0), (0, 1)}: both spheres, minus
    the points of each that lie closer than m to the other centre."""
    candidates = set(sphere(m)) | {(x, y + 1) for x, y in sphere(m)}
    return sorted(v for v in candidates
                  if min(abs(v[0]) + abs(v[1]), abs(v[0]) + abs(v[1] - 1)) == m)


def lower_exact(k: int) -> Fraction:
    if k % 2 == 0:
        p = k // 2
        return Fraction(2 * p * (p + 1) * (2 * p + 1), 3) + 2
    p = (k - 1) // 2
    return Fraction(2 * p * (p + 1) * (2 * p + 3), 3) + 2


def bounds_rows(k_min: int, k_max: int) -> list[tuple]:
    rows = []
    for k in range(k_min, k_max + 1):
        exact = lower_exact(k)
        lower = math.ceil(exact)
        coeffs = coefficients(k)
        upper = None if coeffs is None else coeffs[2]
        ratio = None if upper is None else str(Fraction(upper, lower))
        rows.append((k, str(exact), lower, upper, ratio))
    return rows


def certificate_ok(rows: int, cols: int, k: int, lam: int, cert) -> bool:
    """Pairwise re-check of a patch labeling given as [x, y, label] rows."""
    cells = {(x, y): lab for x, y, lab in cert}
    if set(cells) != {(x, y) for y in range(rows) for x in range(cols)}:
        return False
    if any(not 0 <= lab < lam for lab in cells.values()):
        return False
    items = list(cells.items())
    for i, ((xi, yi), li) in enumerate(items):
        for (xj, yj), lj in items[i + 1:]:
            d = abs(xi - xj) + abs(yi - yj)
            if d <= k and abs(li - lj) < k + 1 - d:
                return False
    return True


def expected(spec, inputs):
    """The summary a correct worker reports for one operation.

    Search results are judged by ``search_ok`` instead, because any valid
    optimal certificate is acceptable.
    """
    kind = spec[0]
    if kind == "diamond":
        k = spec[1]
        return {"passed": True, "checked": 2 * k * (k + 1), "violations": 0}
    if kind == "window":
        _, k, width, height = spec
        return {"passed": True, "checked": window_pairs(k, width, height),
                "violations": 0}
    if kind == "nohole":
        _, k, mode = spec
        a, b, c = coefficients(k)
        return {"is_no_hole": True, "gcd": math.gcd(a, b, c),
                "attained": None if mode == "gcd" else c}
    if kind in ("sphere", "ball", "t_set"):
        points = {"sphere": sphere, "ball": ball, "t_set": t_set}[kind](spec[1])
        return {"n": len(points), "sha": digest(repr(points))}
    if kind == "bounds_table":
        rows = bounds_rows(spec[1], spec[2])
        return {"n": len(rows), "sha": digest(repr(rows))}
    if kind == "lb_summation":
        _, p, parity = spec
        return {"value": str(lower_exact(2 * p if parity == "even-k" else 2 * p + 1))}
    if kind == "label_window":
        _, k, x0, y0, width, height = spec
        cells = [(x0 + i, y0 + j) for j in range(height) for i in range(width)]
        return {"shape": [height, width], "sha": ints_digest(labels(k, cells))}
    if kind == "label_many":
        _, k, index = spec
        xs, ys = inputs[index]
        return {"shape": [len(xs)],
                "sha": ints_digest(labels(k, zip(xs.tolist(), ys.tolist())))}
    raise ValueError(f"no reference for {kind!r}")


def search_ok(spec, summary) -> bool:
    _, rows, cols, k, lam = spec
    return (summary.get("lam") == lam and summary.get("exhausted") is True
            and certificate_ok(rows, cols, k, lam, summary.get("cert", [])))
