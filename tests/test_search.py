"""Exact patch search against brute-force enumeration oracles."""

import time
import tracemalloc
from itertools import product

import pytest

from gridlabel import (
    InvalidPatch,
    Patch,
    exact_span,
    probe_feasible,
)
from gridlabel.search import DEFAULT_NODE_BUDGET, _clique, _gap_constraints, _greedy


def valid_assignment(cells, labels, k):
    for i, u in enumerate(cells):
        for j in range(i):
            v = cells[j]
            d = abs(u[0] - v[0]) + abs(u[1] - v[1])
            if d <= k and abs(labels[i] - labels[j]) < k + 1 - d:
                return False
    return True


def brute_minimal_lambda(patch, k, lam_cap):
    """Oracle: try every assignment from {0..lam-1}^n, smallest lam first."""
    cells = patch.vertices()
    for lam in range(1, lam_cap + 1):
        for asg in product(range(lam), repeat=len(cells)):
            if valid_assignment(cells, asg, k):
                return lam
    return None


# exact_span's greedy start and clique bound, from a patch and k.
def greedy(patch, k):
    return _greedy(patch, _gap_constraints(patch, k))


def clique(patch, k):
    return _clique(_gap_constraints(patch, k), k)


def check_certificate(patch, k, cert, lam):
    cells = patch.vertices()
    assert set(cert) == set(cells)
    assert all(0 <= cert[v] < lam for v in cells)
    assert valid_assignment(cells, [cert[v] for v in cells], k)


# Reference implementations: the label-by-label scans the bitmask search
# replaced. They define the search tree, the node count and the certificate
# that the package must reproduce exactly.

def reference_constraints(patch, k):
    cells = patch.vertices()
    cons = []
    for i, (xi, yi) in enumerate(cells):
        row = []
        for j in range(i):
            xj, yj = cells[j]
            d = abs(xi - xj) + abs(yi - yj)
            if d <= k:
                row.append((j, k + 1 - d))
        cons.append(row)
    return cons


def reference_greedy_certificate(patch, k):
    cons = reference_constraints(patch, k)
    labels = []
    for i in range(patch.n_vertices):
        lab = 0
        while any(abs(lab - labels[j]) < gap for j, gap in cons[i]):
            lab += 1
        labels.append(lab)
    verts = patch.vertices()
    return {verts[i]: labels[i] for i in range(len(verts))}


def reference_clique_lower_bound(patch, k):
    """The ball scan by distance that the constraint-list bound replaced."""
    m = k // 2
    cells = patch.vertices()
    best = 1
    for cx, cy in cells:
        size = sum(1 for x, y in cells if abs(x - cx) + abs(y - cy) <= m)
        if size > best:
            best = size
    return best


def reference_probe_feasible(patch, k, lam, node_budget=DEFAULT_NODE_BUDGET):
    if lam < 1:
        return False, None, 0
    cons = reference_constraints(patch, k)
    n = patch.n_vertices
    labels = [-1] * n
    next_try = [0] * n
    limits = [lam - 1] * n
    limits[0] = (lam - 1) // 2
    nodes = 0
    i = 0
    while True:
        placed = False
        lab = next_try[i]
        limit = limits[i]
        while lab <= limit:
            nodes += 1
            if nodes > node_budget:
                return None, None, nodes
            ok = True
            for j, gap in cons[i]:
                if abs(lab - labels[j]) < gap:
                    ok = False
                    break
            if ok:
                placed = True
                break
            lab += 1
        if placed:
            labels[i] = lab
            next_try[i] = lab + 1
            i += 1
            if i == n:
                verts = patch.vertices()
                return True, {verts[t]: labels[t] for t in range(n)}, nodes
            next_try[i] = 0
        else:
            next_try[i] = 0
            i -= 1
            if i < 0:
                return False, None, nodes
            labels[i] = -1


# Patches up to 3x4 with k <= 6, kept to those whose probes up to the
# optimum + 2 take at most about 15 000 reference nodes each.
EQUIVALENCE_CASES = [
    (rows, cols, k)
    for rows in range(1, 4) for cols in range(1, 5) for k in range(1, 7)
    if rows * cols * k <= 27
]


@pytest.mark.parametrize("rows,cols,k", EQUIVALENCE_CASES)
def test_probe_matches_reference(rows, cols, k):
    patch = Patch(rows, cols)
    lam = 0
    while reference_probe_feasible(patch, k, lam)[0] is not True:
        lam += 1
    for lam in range(lam + 3):
        stop = reference_probe_feasible(patch, k, lam)[2]
        for budget in sorted({-1, 0, 1, 7, stop - 1, stop, DEFAULT_NODE_BUDGET}):
            expected = reference_probe_feasible(patch, k, lam, budget)
            assert probe_feasible(patch, k, lam, budget) == expected, (lam, budget)


@pytest.mark.parametrize("rows,cols,k,lam,budget", [
    (2, 3, 1000, 10**7, DEFAULT_NODE_BUDGET),
    (2, 3, 10**6, 10**7, 10_000),
    (3, 2, 40, 10**9, 50_000),
])
def test_probe_matches_reference_for_large_k_and_lam(rows, cols, k, lam, budget):
    patch = Patch(rows, cols)
    expected = reference_probe_feasible(patch, k, lam, budget)
    assert probe_feasible(patch, k, lam, budget) == expected


def test_probe_memory_follows_budget_not_k_or_lam():
    tracemalloc.start()
    try:
        res = probe_feasible(Patch(8, 8), 3 * 10**7, 10**8, node_budget=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == (None, None, 10_001)
    assert peak < 2**20, peak


@pytest.mark.parametrize("rows,cols,k", EQUIVALENCE_CASES + [
    (3, 7, 5), (4, 4, 7), (2, 8, 6), (8, 8, 3), (8, 8, 40), (1, 30, 3),
])
def test_greedy_matches_reference(rows, cols, k):
    patch = Patch(rows, cols)
    assert greedy(patch, k) == reference_greedy_certificate(patch, k)


# Every search fixture of the benchmark; the node counts sum to 9 045 428.
@pytest.mark.parametrize("rows,cols,k,lam,nodes", [
    (2, 5, 4, 18, 3284965), (2, 4, 5, 22, 1182344), (1, 12, 7, 29, 1283015),
    (1, 6, 9, 34, 925350), (2, 3, 7, 29, 777383), (3, 6, 3, 12, 723332),
    (3, 3, 4, 18, 389266), (4, 5, 3, 12, 230343), (5, 5, 3, 12, 230374),
    (6, 6, 2, 7, 18981), (8, 8, 1, 2, 2), (2, 2, 2, 5, 73),
])
def test_pinned_node_counts(rows, cols, k, lam, nodes):
    # nodes_explored is part of the CLI's json output; the bitmask search
    # must count the same tree as the reference scan.
    res = exact_span(Patch(rows, cols), k)
    assert (res.minimal_lambda, res.nodes_explored, res.exhausted) == (lam, nodes, True)
    check_certificate(Patch(rows, cols), k, res.certificate, lam)


def test_budget_stop_is_exact():
    full = exact_span(Patch(3, 3), 4)
    for budget in (full.nodes_explored - 1, 12345):
        res = exact_span(Patch(3, 3), 4, node_budget=budget)
        assert (res.nodes_explored, res.exhausted) == (budget + 1, False)
    assert exact_span(Patch(3, 3), 4, node_budget=full.nodes_explored) == full


def test_single_vertex():
    for k in (1, 2, 9):
        res = exact_span(Patch(1, 1), k)
        assert res.minimal_lambda == 1
        assert res.certificate == {(0, 0): 0}
        assert res.exhausted


def test_3x3_k1_bipartite():
    res = exact_span(Patch(3, 3), 1)
    assert res.minimal_lambda == 2 and res.exhausted
    check_certificate(Patch(3, 3), 1, res.certificate, 2)


def test_2x2_k2_is_five():
    res = exact_span(Patch(2, 2), 2)
    assert res.minimal_lambda == 5 and res.exhausted
    check_certificate(Patch(2, 2), 2, res.certificate, 5)
    feasible, _, _ = probe_feasible(Patch(2, 2), 2, 4)
    assert feasible is False
    assert brute_minimal_lambda(Patch(2, 2), 2, 6) == 5


@pytest.mark.parametrize(
    "rows,cols,k,cap",
    [
        (1, 2, 1, 3), (1, 3, 2, 6), (2, 2, 1, 3), (2, 2, 2, 6),
        (2, 2, 3, 9), (1, 4, 2, 6), (1, 3, 3, 8),
    ],
)
def test_matches_brute_force_oracle(rows, cols, k, cap):
    res = exact_span(Patch(rows, cols), k)
    assert res.exhausted
    assert res.minimal_lambda == brute_minimal_lambda(Patch(rows, cols), k, cap)
    check_certificate(Patch(rows, cols), k, res.certificate, res.minimal_lambda)


def test_4x4_k3_equals_scheme_size():
    res = exact_span(Patch(4, 4), 3)
    assert res.exhausted
    assert res.minimal_lambda == 12
    check_certificate(Patch(4, 4), 3, res.certificate, 12)


def test_monotone_in_patch_dimensions():
    for k in (1, 2, 3):
        spans = [
            exact_span(Patch(r, c), k).minimal_lambda
            for r, c in [(1, 1), (2, 2), (3, 3), (4, 4)]
        ]
        assert spans == sorted(spans), (k, spans)
        assert (
            exact_span(Patch(2, 3), k).minimal_lambda
            <= exact_span(Patch(3, 3), k).minimal_lambda
        )


def test_optimality_reprobe():
    for rows, cols, k in [(3, 3, 2), (2, 4, 2), (3, 3, 3)]:
        res = exact_span(Patch(rows, cols), k)
        assert res.exhausted
        feasible, _, _ = probe_feasible(Patch(rows, cols), k, res.minimal_lambda - 1)
        assert feasible is False


def test_deterministic_certificates():
    a = exact_span(Patch(3, 4), 3)
    b = exact_span(Patch(3, 4), 3)
    assert a == b


def test_budget_exhaustion_falls_back_to_greedy():
    res = exact_span(Patch(3, 3), 2, node_budget=5)
    assert not res.exhausted
    first_fit = greedy(Patch(3, 3), 2)
    assert res.certificate == first_fit
    assert res.minimal_lambda == max(first_fit.values()) + 1
    check_certificate(Patch(3, 3), 2, res.certificate, res.minimal_lambda)
    exact = exact_span(Patch(3, 3), 2)
    assert exact.minimal_lambda <= res.minimal_lambda


def test_clique_lower_bound_values():
    assert clique(Patch(3, 3), 1) == 1   # radius 0
    assert clique(Patch(2, 2), 2) == 3   # corner ball of radius 1
    assert clique(Patch(3, 3), 2) == 5   # centered ball of radius 1
    assert clique(Patch(4, 4), 4) == 11  # radius-2 ball clipped


def test_invalid_patches():
    with pytest.raises(InvalidPatch):
        Patch(0, 3)
    with pytest.raises(InvalidPatch):
        Patch(3, -1)
    with pytest.raises(InvalidPatch):
        exact_span(Patch(9, 9), 3)  # 81 vertices > 64 limit
    with pytest.raises(ValueError):
        exact_span(Patch(2, 2), 0)
    with pytest.raises(ValueError):
        exact_span(Patch(2, 2), 2, node_budget=0)



# Every entry point and the greedy start and clique bound of exact_span,
# called with a patch and k only.
ENTRY_POINTS = {
    "exact_span": exact_span,
    "probe_feasible": lambda patch, k: probe_feasible(patch, k, 10),
    "greedy_certificate": greedy,
    "clique_lower_bound": clique,
}
each_entry_point = pytest.mark.parametrize("entry", ENTRY_POINTS.values(),
                                           ids=ENTRY_POINTS)


@each_entry_point
@pytest.mark.parametrize("k", [0, -3])
def test_every_entry_point_refuses_k_below_one(entry, k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        entry(Patch(2, 2), k)


@each_entry_point
def test_every_entry_point_refuses_patches_over_the_cap_at_once(entry):
    with pytest.raises(InvalidPatch,
                       match="81 vertices; exact search is limited to 64"):
        entry(Patch(9, 9), 3)
    start = time.perf_counter()
    with pytest.raises(InvalidPatch, match="1000000 vertices"):
        entry(Patch(1000, 1000), 4)
    assert time.perf_counter() - start < 0.1


# Every patch of at most 64 vertices.
ALL_PATCHES = [Patch(rows, cols) for rows in range(1, 65)
               for cols in range(1, 64 // rows + 1)]


@pytest.mark.parametrize("k", range(1, 10))
def test_clique_and_greedy_match_reference_on_every_patch(k):
    for p in ALL_PATCHES:
        cons = _gap_constraints(p, k)
        assert _clique(cons, k) == reference_clique_lower_bound(p, k), p
        assert _greedy(p, cons) == reference_greedy_certificate(p, k), p
