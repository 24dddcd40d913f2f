"""Exact minimal-label-count search on small rectangular patches.

Complete and deterministic: iterative deepening over the candidate label
count, where each feasibility probe runs a depth-first assignment in
row-major vertex order, pruning any partial assignment that violates the
separation requirement against an already-labeled vertex. The search is
independent of the modular schemes, so it serves as ground truth for
them on desk-scale instances (at most 64 vertices).

Both entry points read k, lam and the node budget with operator.index,
as ``Patch`` reads its dimensions, so a numpy integer cannot wrap and a
float raises TypeError before any work. They take one constraint list
from ``_gap_constraints``, which first refuses k < 1 and patches over the
vertex cap; ``exact_span`` builds it once for the greedy start, the
clique bound and every probe.

Domains are bitmasks held in Python ints. A vertex's free-label mask has
one bit per label it may still try, capped where a label would be over
the node budget, and the next candidate is its lowest set bit rather
than a re-check of every neighbour for every label. The bands blocked by
a vertex's earlier neighbours other than the previous vertex do not
change while the previous vertex tries its candidates, so their union is
built once per scan and each placement adds one band. Masks stay within
a few times min(label count, node budget) bits, and greedy first-fit
jumps past blocked bands in sorted order, so neither cost grows with k.

A single search is sequential; independent probes may run concurrently.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from ._budgets import DEFAULT_NODE_BUDGET

MAX_VERTICES = 64

# Per vertex i: (j, gap) for every earlier vertex j within distance k.
_Constraints = list[list[tuple[int, int]]]


class InvalidPatch(ValueError):
    pass


class _PatchFields(NamedTuple):
    rows: int
    cols: int


class Patch(_PatchFields):
    __slots__ = ()

    def __new__(cls, rows: int, cols: int):
        rows, cols = operator.index(rows), operator.index(cols)
        if rows < 1 or cols < 1:
            raise InvalidPatch(f"patch needs positive dimensions, got {rows}x{cols}")
        return super().__new__(cls, rows, cols)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__.
        return cls(*iterable)

    @property
    def n_vertices(self) -> int:
        return self.rows * self.cols

    def vertices(self) -> list[tuple[int, int]]:
        """Row-major order: y ascending, x ascending within each row."""
        return [(x, y) for y in range(self.rows) for x in range(self.cols)]


class PatchSearchResult(NamedTuple):
    minimal_lambda: int
    certificate: dict[tuple[int, int], int]
    nodes_explored: int
    exhausted: bool  # True iff optimality was proven within budget


def _gap_constraints(patch: Patch, k: int) -> _Constraints:
    # Refuse before any pair is looked at: the scan is quadratic in the patch.
    if k < 1:
        raise ValueError("k must be a positive integer")
    if patch.n_vertices > MAX_VERTICES:
        raise InvalidPatch(
            f"patch has {patch.n_vertices} vertices; exact search is limited "
            f"to {MAX_VERTICES}"
        )
    verts = patch.vertices()
    cons: _Constraints = []
    for i, (xi, yi) in enumerate(verts):
        row = []
        for j in range(i):
            xj, yj = verts[j]
            d = abs(xi - xj) + abs(yi - yj)
            if d <= k:
                row.append((j, k + 1 - d))
        cons.append(row)
    return cons


def _clique(cons: _Constraints, k: int) -> int:
    """Size of the largest in-patch ball of radius floor(k/2).

    Such a ball is pairwise within distance k, so all its vertices need
    distinct labels; its size is a valid starting point for iterative
    deepening. Each ball is read from the gap constraints: its centre
    plus every partner at distance <= floor(k/2), i.e. with a required
    gap >= k + 1 - floor(k/2).
    """
    least_gap = k + 1 - k // 2
    sizes = [1] * len(cons)
    for i, row in enumerate(cons):
        for j, gap in row:
            if gap >= least_gap:
                sizes[i] += 1
                sizes[j] += 1
    return max(sizes)


def _greedy(patch: Patch, cons: _Constraints) -> dict[tuple[int, int], int]:
    """First-fit row-major labeling; always feasible, usually not minimal.

    Each earlier neighbour j blocks the labels [l_j - gap + 1, l_j + gap).
    Sweeping those bands by lower end finds the smallest uncovered label
    in O(deg log deg) per vertex, whatever the size of the labels.
    """
    labels: list[int] = []
    for row in cons:
        lab = 0
        for lo, end in sorted((labels[j] - gap + 1, labels[j] + gap) for j, gap in row):
            if lo > lab:
                break
            lab = max(lab, end)
        labels.append(lab)
    return dict(zip(patch.vertices(), labels))


def probe_feasible(patch: Patch, k: int, lam: int,
                   node_budget: int = DEFAULT_NODE_BUDGET):
    """Decide whether the patch admits a labeling from {0, ..., lam-1}.

    Returns (feasible, certificate, nodes): feasible is True or False, or
    None when the budget ran out before the tree was exhausted (nodes is
    then max(node_budget, 0) + 1). Labels are tried in ascending order.
    The first vertex is capped at (lam-1)//2; this is sound because
    reflecting every label through lam-1 maps valid labelings to valid
    labelings, so any feasible instance has a solution in the restricted
    space.

    Domains are the free-label masks of the module docstring. A node is
    one candidate label considered at one vertex, blocked labels skipped
    included, so the count equals that of a label-by-label scan.
    """
    k, lam, node_budget = map(operator.index, (k, lam, node_budget))
    return _probe(patch, _gap_constraints(patch, k), lam, node_budget)


def _probe(patch: Patch, cons: _Constraints, lam: int, node_budget: int):
    if lam < 1:
        return False, None, 0
    n = len(cons)
    # A neighbour at gap g blocks the 2g-1 labels centred on its own label.
    # Only labels below cap matter: lam bounds them, and so does the budget,
    # since reaching label l at a vertex counts l + 1 nodes there. A gap of
    # cap or more blocks every such label, so gaps are capped at cap and no
    # mask grows with k. Each band is stored shifted up by top - g + 1 >= 1,
    # top being the largest capped gap, so placing it at label l is one
    # left shift and bit top of a union is label 0.
    over_budget = max(node_budget, 0) + 1  # the count reported on a stop
    cap = min(lam, over_budget)
    gaps = {min(gap, cap) for row in cons for _, gap in row}
    top = max(gaps, default=0)
    band = {g: ((1 << (2 * g - 1)) - 1) << (top - g + 1) for g in gaps}
    # near[i] is vertex i-1's band (0 when out of reach), far[i] the rest.
    near = [0] * n
    far: list[list[tuple[int, int]]] = []
    for i, row in enumerate(cons):
        far.append([])
        for j, gap in row:
            if j == i - 1:
                near[i] = band[min(gap, cap)]
            else:
                far[i].append((j, band[min(gap, cap)]))
    # free[i] holds vertex i's untried, unblocked labels below cap and up
    # to limits[i], bit top being label 0.
    limits = [lam - 1] * n
    limits[0] = (lam - 1) // 2
    labels_mask = ((1 << cap) - 1) << top
    free = [0] * n
    free[0] = ((1 << min(limits[0] + 1, cap)) - 1) << top
    partial = [0] * n
    labels = [0] * n
    nodes = 0
    i = 0
    start = 0
    while True:
        f = free[i]
        if f:
            low = f & -f
            free[i] = f ^ low
            lab = low.bit_length() - 1 - top
            nodes += lab - start + 1
            if nodes > node_budget:
                return None, None, over_budget
            labels[i] = lab
            i += 1
            if i == n:
                return True, dict(zip(patch.vertices(), labels)), nodes
            if start == 0:  # vertex i-1's first candidate of this scan
                union = 0
                for j, b in far[i]:
                    union |= b << labels[j]
                partial[i] = union
            free[i] = labels_mask & ~(partial[i] | near[i] << lab)
            start = 0
        else:
            # Every candidate up to limits[i] is tried or blocked; a capped
            # mask runs out only where this count passes the budget.
            nodes += limits[i] - start + 1
            if nodes > node_budget:
                return None, None, over_budget
            i -= 1
            if i < 0:
                return False, None, nodes
            start = labels[i] + 1


def exact_span(patch: Patch, k: int,
               node_budget: int = DEFAULT_NODE_BUDGET) -> PatchSearchResult:
    """Smallest feasible label count for the patch, with a certificate.

    Iterative deepening upward from the in-patch clique bound. Every
    probe below the answer exhausts its tree, so exhausted=True means
    optimality is proven. If the node budget runs out first, the result
    falls back to the best known feasible count (greedy first-fit) with
    exhausted=False; its certificate is still valid.
    """
    k, node_budget = operator.index(k), operator.index(node_budget)
    cons = _gap_constraints(patch, k)
    if node_budget < 1:
        raise ValueError("node budget must be positive")
    greedy = _greedy(patch, cons)
    greedy_lam = max(greedy.values()) + 1
    lam = _clique(cons, k)
    nodes_total = 0
    while lam < greedy_lam:
        feasible, cert, used = _probe(patch, cons, lam,
                                      node_budget - nodes_total)
        nodes_total += used
        if feasible is None:
            return PatchSearchResult(greedy_lam, greedy, nodes_total, False)
        if feasible:
            return PatchSearchResult(lam, cert, nodes_total, True)
        lam += 1
    # Everything below the greedy count is proven infeasible.
    return PatchSearchResult(greedy_lam, greedy, nodes_total, True)
