"""Expected results for the tests, computed from the definitions alone.

Every function takes plain integers, or lists and arrays of them: a
scheme's a, b, c and k, window corners and sizes, patch rows and
columns. Nothing here imports the
package under test, so no reference can share a defect with the code it
checks; a test loads this module with the package made unimportable.

The definitions: a scheme labels (x, y) with ``label`` below,
(a*x + b*y) mod c, and vertices at Manhattan distance r <= k need labels
at least k + 1 - r apart. The paper's coefficients, lower bound and
packing ball are written out again from their formulas. numpy is used
where a pure-Python loop would cost seconds (the window reference
compares shifted slices of its own label grid, the packing chain filters
a square of norms) and to broadcast coordinates as label_many does.

Results that several tests ask for are cached on their integer
arguments, so each is computed once per session. Cached values are
tuples, and callers slice them, never change them.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import count, product
from typing import NamedTuple

import numpy as np

#: The number of violations a check reports unless told otherwise.
MAX_VIOLATIONS = 16


def label(a, b, c, x, y):
    return (a * x + b * y) % c


def cells(rows, cols):
    """A rows x cols rectangle's points in row-major order: y, then x."""
    return [(x, y) for y in range(rows) for x in range(cols)]


def label_grid(a, b, c, x0, y0, width, height):
    """Labels of [x0, x0 + width) x [y0, y0 + height), one list per y."""
    return [[label(a, b, c, x0 + i, y0 + j) for i in range(width)]
            for j in range(height)]


def broadcast_labels(a, b, c, xs, ys):
    """label at every broadcast position of xs and ys, nested as tolist() nests."""
    bx, by = np.broadcast_arrays(np.asarray(xs), np.asarray(ys))
    flat = [label(a, b, c, int(x), int(y)) for x, y in zip(bx.flat, by.flat)]
    return np.array(flat, dtype=object).reshape(bx.shape).tolist()


def coefficients(k):
    """(a, b, c) of the paper's scheme for k, by the parity of k and of
    p = floor(k/2); None for k = 2, which no case covers."""
    p = k // 2
    if k % 2:
        if p % 2:
            return 2*p + 3, 3*p*p + 7*p + 5, (p + 1) * (3*p*p + 5*p + 4) // 2
        return 2*p + 3, 3*p*p + 6*p + 3, (3*p**3 + 8*p*p + 8*p + 4) // 2
    if p % 2:
        if p < 3:
            return None
        return 2*p + 1, 3*p*p + 4*p + 2, (3*p**3 + 5*p*p + 5*p + 1) // 2
    return 2*p + 1, 3*p*p + 3*p + 1, (p + 1) * (3*p*p + 2*p + 2) // 2


def perturbed(ks):
    """(a, b, c, k) for +-1 on one of a, b, c of the paper's scheme for
    each k in ks, kept where the diamond fails."""
    corpus = []
    for k in ks:
        a, b, c = coefficients(k)
        for t in [(a + 1, b, c), (a - 1, b, c), (a, b + 1, c), (a, b - 1, c),
                  (a, b, c + 1), (a, b, c - 1)]:
            if not check_diamond(*t, k).passed:
                corpus.append((*t, k))
    return corpus


# ------------------------------------------------------------- validity

class Verdict(NamedTuple):
    """passed, checked_pairs and violations, each violation a tuple
    (offset, r, required_gap, actual) in lexicographic offset order."""

    passed: bool
    checked_pairs: int
    violations: tuple


def diamond_offsets(k):
    """All offsets (x, y) with 1 <= |x|+|y| <= k, lexicographic order."""
    return [(x, y) for x in range(-k, k + 1)
            for y in range(abs(x) - k, k - abs(x) + 1) if x or y]


@functools.cache
def _diamond(a, b, c, k):
    """(offsets checked, every violation): the label of each offset is the
    gap between the origin's label 0 and its own."""
    offsets = diamond_offsets(k)
    violations = []
    for x, y in offsets:
        r = abs(x) + abs(y)
        actual = label(a, b, c, x, y)
        if actual < k + 1 - r:
            violations.append(((x, y), r, k + 1 - r, actual))
    return len(offsets), tuple(violations)


def check_diamond(a, b, c, k, cap=MAX_VIOLATIONS):
    checked, violations = _diamond(a, b, c, k)
    return Verdict(not violations, checked, violations[:cap])


@functools.cache
def _window(a, b, c, k, width, height, x0, y0):
    """(pairs compared, every violation) of the window, one shifted slice
    of its label grid per offset (dx, dy) with dx > 0, or dx = 0 < dy.

    A failing pair is reported under the offset from its smaller label to
    its larger one, equal labels under (dx, dy), with the offset's label
    as the gap: L(u + d) - L(u) = L(d) mod c.
    """
    fits = max(c, k) < 2**62
    grid = np.array(label_grid(a, b, c, x0, y0, width, height),
                    dtype=np.int64 if fits else object)
    reports = {}
    pairs = 0
    for dx in range(min(k, width - 1) + 1):
        reach = min(k - dx, height - 1)
        for dy in range(1 if dx == 0 else -reach, reach + 1):
            base = grid[max(0, -dy): height - max(0, dy), : width - dx]
            shifted = grid[max(0, dy): height + min(0, dy), dx:]
            pairs += base.size
            diff = shifted - base
            r = dx + abs(dy)
            low = abs(diff) < k + 1 - r
            for off, side in [((dx, dy), diff >= 0), ((-dx, -dy), diff < 0)]:
                if (low & side).any():
                    reports[off] = (off, r, k + 1 - r, label(a, b, c, *off))
    return pairs, tuple(sorted(reports.values()))


def check_window(a, b, c, k, width, height, cap=MAX_VIOLATIONS, x0=0, y0=0):
    pairs, violations = _window(a, b, c, k, width, height, x0, y0)
    return Verdict(not violations, pairs, violations[:cap])


@functools.cache
def naive_window_check(a, b, c, k, width, height, x0=0, y0=0):
    """Witness offsets of the window, sorted, by a literal loop over its pairs.

    Each violating pair is keyed by its difference vector taken
    larger-label-first; equal labels take the representative with x > 0,
    or x = 0 and y > 0.
    """
    points = [((x0 + x, y0 + y), label(a, b, c, x0 + x, y0 + y))
              for x, y in cells(height, width)]
    witnesses = set()
    for i, (u, lu) in enumerate(points):
        for v, lv in points[:i]:
            d = abs(u[0] - v[0]) + abs(u[1] - v[1])
            if d > k or abs(lu - lv) >= k + 1 - d:
                continue
            hi, lo = (u, v) if lu > lv or (lu == lv and u > v) else (v, u)
            witnesses.add((hi[0] - lo[0], hi[1] - lo[1]))
    return tuple(sorted(witnesses))


def brute_pair_count(k, width, height):
    """Unordered pairs of the window at distance <= k, one at a time."""
    points = cells(height, width)
    return sum(1 for i, u in enumerate(points) for v in points[:i]
               if abs(u[0] - v[0]) + abs(u[1] - v[1]) <= k)


def offset_pair_count(k, width, height):
    """Pairs at each offset (dx, dy) with dx > 0, or dx = 0 < dy, summed."""
    return sum((width - dx) * (height - abs(dy))
               for dx in range(min(k, width - 1) + 1)
               for dy in range(-min(k - dx, height - 1), min(k - dx, height - 1) + 1)
               if dx > 0 or dy > 0)


# -------------------------------------------------------------- no-hole

@functools.cache
def dense_label_count(a, b, c):
    """Distinct labels of the c-by-c period."""
    return len({label(a, b, c, x, y) for x in range(c) for y in range(c)})


def row_flags(a, b, c, y):
    """The flags of row y's labels, set one label at a time."""
    flags = bytearray(c)
    for x in range(c):
        flags[label(a, b, c, x, y)] = 1
    return bytes(flags)


def row_starts(a, b, c, rows):
    """L(0, y) for y = 0 .. rows - 1, the start of each row's progression."""
    return [label(a, b, c, 0, y) for y in range(rows)]


# --------------------------------------------------------------- bounds

def lambda_lb(k):
    """The closed-form lower bound as a product of Fractions."""
    p = k // 2
    if k % 2 == 0:
        return Fraction(2, 3) * p * (p + 1) * (2 * p + 1) + 2
    return Fraction(2, 3) * p * (p + 1) * (2 * p + 3) + 2


def scan_box(predicate, reach):
    """The points of [-reach, reach] x [-reach, reach + 1] that satisfy
    predicate, in lexicographic order."""
    return sorted((x, y) for x in range(-reach, reach + 1)
                  for y in range(-reach, reach + 2) if predicate(x, y))


@functools.cache
def packing_chain_bound(k):
    """Labels the radius-p ball needs, p = k // 2, by the packing chain.

    Its vertices lie pairwise within 2p <= k, so their labels differ. Take
    them in label order: neighbours u, v of the chain differ by at least
    k + 1 - d(u, v) >= k + 1 - |u| - |v|. Summed, every |v| counts at most
    twice, each end once, and at most one end is the origin, so the span is
    at least (n - 1)(k + 1) - 2 sum |v| + 1, and the label count one more.
    The ball's norms |v| are filtered from the square around it.
    """
    p = k // 2
    xs, ys = np.ogrid[-p:p + 1, -p:p + 1]
    norms = (abs(xs) + abs(ys)).ravel()
    norms = norms[norms <= p]
    return (norms.size - 1) * (k + 1) - 2 * int(norms.sum()) + 2


# -------------------------------------------------------------- renders

def decimal_str(f):
    return f"{float(f):.6g}"


def render_label(a, b, c, k, p, case, x0, y0, width, height, fmt):
    """The label command's output for the window, built as one string."""
    grid = label_grid(a, b, c, x0, y0, width, height)
    triples = [[x0 + ix, y0 + iy, v] for iy, row in enumerate(grid)
               for ix, v in enumerate(row)]
    if fmt == "csv":
        return "".join(f"{x},{y},{v}\n" for x, y, v in [("x", "y", "label"), *triples])
    if fmt == "ascii":  # matrix orientation: top row = max y
        cell = len(str(c - 1))
        return "".join(" ".join(f"{v:>{cell}}" for v in row) + "\n"
                       for row in grid[::-1])
    if fmt == "pgm":
        return "".join(line + "\n" for line in [
            "P2", f"{width} {height}", f"{c - 1}",
            *(" ".join(map(str, row)) for row in grid[::-1])])
    if fmt == "json":
        return json.dumps({
            "k": k,
            "scheme": {"a": a, "b": b, "c": c, "p": p, "case": case},
            "window": {"x0": x0, "y0": y0, "width": width, "height": height},
            "cells": triples,
        }, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_bounds(k_min, k_max, fmt):
    """The bounds command's output for [k_min, k_max], built as one string.

    Each row is k, the closed form, its ceiling, the scheme's c and c over
    the ceiling; k = 2 has no scheme, so no c and no ratio.
    """
    rows = []
    for k in range(k_min, k_max + 1):
        exact, coeffs = lambda_lb(k), coefficients(k)
        lower, upper = math.ceil(exact), coeffs and coeffs[2]
        rows.append((k, exact, lower, upper, upper and Fraction(upper, lower)))
    if fmt == "csv":
        return "".join(line + "\n" for line in [
            "k,lower_exact,lower,upper,ratio_exact,ratio_decimal",
            *(f"{k},{exact},{lower},{'' if upper is None else upper},"
              f"{'' if ratio is None else ratio},"
              f"{'' if ratio is None else decimal_str(ratio)}"
              for k, exact, lower, upper, ratio in rows)])
    if fmt == "json":
        return json.dumps({"k_min": k_min, "k_max": k_max, "records": [
            {"k": k, "lower_exact": str(exact), "lower": lower, "upper": upper,
             "ratio_exact": None if ratio is None else str(ratio),
             "ratio_decimal": None if ratio is None else decimal_str(ratio)}
            for k, exact, lower, upper, ratio in rows]}, indent=2) + "\n"
    if fmt == "ascii":
        table = [("k", "lower_exact", "lower", "upper", "ratio", "ratio_dec")]
        table += [(str(k), str(exact), str(lower),
                   "-" if upper is None else str(upper),
                   "-" if ratio is None else str(ratio),
                   "-" if ratio is None else decimal_str(ratio))
                  for k, exact, lower, upper, ratio in rows]
        widths = [max(map(len, column)) for column in zip(*table)]
        return "".join("  ".join(f"{cell:>{w}}" for cell, w in zip(row, widths)) + "\n"
                       for row in table)
    raise ValueError(f"unknown format {fmt!r}")


# --------------------------------------------------------------- search
#
# A patch is the rows x cols points of ``cells``. The search references
# are the label-by-label scans the bitmask search replaced: they define
# the search tree, the node count and the certificate the package must
# reproduce exactly.

def valid_assignment(vertices, labels, k):
    for i, u in enumerate(vertices):
        for j in range(i):
            v = vertices[j]
            d = abs(u[0] - v[0]) + abs(u[1] - v[1])
            if d <= k and abs(labels[i] - labels[j]) < k + 1 - d:
                return False
    return True


def certificate_ok(rows, cols, k, cert, lam):
    """cert labels every vertex of the patch from [0, lam), validly."""
    vertices = cells(rows, cols)
    return (set(cert) == set(vertices)
            and all(0 <= cert[v] < lam for v in vertices)
            and valid_assignment(vertices, [cert[v] for v in vertices], k))


def brute_minimal_lambda(rows, cols, k, lam_cap):
    """Try every assignment from {0..lam-1}^n, smallest lam first."""
    vertices = cells(rows, cols)
    for lam in range(1, lam_cap + 1):
        for asg in product(range(lam), repeat=len(vertices)):
            if valid_assignment(vertices, asg, k):
                return lam
    return None


def constraints(rows, cols, k):
    """Per vertex i: (j, gap) for every earlier vertex j within distance k."""
    vertices = cells(rows, cols)
    return [[(j, k + 1 - d) for j, (xj, yj) in enumerate(vertices[:i])
             for d in [abs(xi - xj) + abs(yi - yj)] if d <= k]
            for i, (xi, yi) in enumerate(vertices)]


def greedy_certificate(rows, cols, k):
    """First fit in row-major order: each vertex takes the smallest label
    that no earlier neighbour j blocks, those within gap of labels[j]."""
    labels = []
    for row in constraints(rows, cols, k):
        blocked = {lab for j, gap in row
                   for lab in range(labels[j] - gap + 1, labels[j] + gap)}
        labels.append(next(lab for lab in count() if lab not in blocked))
    return dict(zip(cells(rows, cols), labels))


def clique_lower_bound(rows, cols, k):
    """The largest in-patch ball of radius floor(k/2), by distance."""
    vertices = cells(rows, cols)
    return max(sum(abs(x - cx) + abs(y - cy) <= k // 2 for x, y in vertices)
               for cx, cy in vertices)


def probe_feasible(rows, cols, k, lam, node_budget):
    """(feasible, certificate, nodes) of a depth-first search in row-major
    order, labels ascending, the first vertex capped at (lam-1)//2. A node
    is one label tried at one vertex; past node_budget the search stops
    with (None, None, nodes)."""
    if lam < 1:
        return False, None, 0
    cons = constraints(rows, cols, k)
    labels = []
    nodes = 0

    def extend():
        # True once every vertex is labelled, False when no label fits the
        # next one, None past the budget.
        nonlocal nodes
        i = len(labels)
        if i == len(cons):
            return True
        for lab in range((lam - 1) // 2 + 1 if i == 0 else lam):
            nodes += 1
            if nodes > node_budget:
                return None
            if all(abs(lab - labels[j]) >= gap for j, gap in cons[i]):
                labels.append(lab)
                found = extend()
                if found is not False:
                    return found
                labels.pop()
        return False

    found = extend()
    return found, dict(zip(cells(rows, cols), labels)) if found else None, nodes
