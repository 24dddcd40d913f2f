"""Exact patch search against brute-force enumeration oracles."""

import time

import pytest

import oracle
from conftest import peak_traced_bytes
from gridlabel import (
    InvalidPatch,
    Patch,
    exact_span,
    probe_feasible,
)
from gridlabel.search import DEFAULT_NODE_BUDGET, _clique, _gap_constraints, _greedy


# exact_span's greedy start and clique bound, from a patch and k.
def greedy(patch, k):
    return _greedy(patch, _gap_constraints(patch, k))


def clique(patch, k):
    return _clique(_gap_constraints(patch, k), k)


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
    while oracle.probe_feasible(*patch, k, lam, DEFAULT_NODE_BUDGET)[0] is not True:
        lam += 1
    for lam in range(lam + 3):
        stop = oracle.probe_feasible(*patch, k, lam, DEFAULT_NODE_BUDGET)[2]
        for budget in sorted({-1, 0, 1, 7, stop - 1, stop, DEFAULT_NODE_BUDGET}):
            expected = oracle.probe_feasible(*patch, k, lam, budget)
            assert probe_feasible(patch, k, lam, budget) == expected, (lam, budget)


@pytest.mark.parametrize("rows,cols,k,lam,budget", [
    (2, 3, 1000, 10**7, DEFAULT_NODE_BUDGET),
    (2, 3, 10**6, 10**7, 10_000),
    (3, 2, 40, 10**9, 50_000),
])
def test_probe_matches_reference_for_large_k_and_lam(rows, cols, k, lam, budget):
    patch = Patch(rows, cols)
    expected = oracle.probe_feasible(*patch, k, lam, budget)
    assert probe_feasible(patch, k, lam, budget) == expected


def test_probe_memory_follows_budget_not_k_or_lam():
    res, peak = peak_traced_bytes(
        lambda: probe_feasible(Patch(8, 8), 3 * 10**7, 10**8, node_budget=10_000))
    assert res == (None, None, 10_001)
    assert peak < 2**20, peak


@pytest.mark.parametrize("rows,cols,k", EQUIVALENCE_CASES + [
    (3, 7, 5), (4, 4, 7), (2, 8, 6), (8, 8, 3), (8, 8, 40), (1, 30, 3),
])
def test_greedy_matches_reference(rows, cols, k):
    patch = Patch(rows, cols)
    assert greedy(patch, k) == oracle.greedy_certificate(*patch, k)


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
    assert oracle.certificate_ok(rows, cols, k, res.certificate, lam)


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
    assert oracle.certificate_ok(3, 3, 1, res.certificate, 2)


def test_2x2_k2_is_five():
    res = exact_span(Patch(2, 2), 2)
    assert res.minimal_lambda == 5 and res.exhausted
    assert oracle.certificate_ok(2, 2, 2, res.certificate, 5)
    feasible, _, _ = probe_feasible(Patch(2, 2), 2, 4)
    assert feasible is False
    assert oracle.brute_minimal_lambda(2, 2, 2, 6) == 5


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
    assert res.minimal_lambda == oracle.brute_minimal_lambda(rows, cols, k, cap)
    assert oracle.certificate_ok(rows, cols, k, res.certificate, res.minimal_lambda)


def test_4x4_k3_equals_scheme_size():
    res = exact_span(Patch(4, 4), 3)
    assert res.exhausted
    assert res.minimal_lambda == 12
    assert oracle.certificate_ok(4, 4, 3, res.certificate, 12)


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
    assert oracle.certificate_ok(3, 3, 2, res.certificate, res.minimal_lambda)
    exact = exact_span(Patch(3, 3), 2)
    assert exact.minimal_lambda <= res.minimal_lambda


def test_clique_lower_bound_values():
    assert clique(Patch(3, 3), 1) == 1   # radius 0
    assert clique(Patch(2, 2), 2) == 3   # corner ball of radius 1
    assert clique(Patch(3, 3), 2) == 5   # centered ball of radius 1
    assert clique(Patch(4, 4), 4) == 11  # radius-2 ball clipped


def test_replace_checks_a_patch_like_the_constructor():
    # namedtuple's _make, which _replace calls, would skip __new__.
    with pytest.raises(InvalidPatch, match="got 0x3$"):
        Patch(2, 3)._replace(rows=0)
    with pytest.raises(InvalidPatch, match="got 2x-1$"):
        Patch._make([2, -1])
    assert Patch(2, 3)._replace(cols=4) == Patch(2, 4)



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


# exact_span and probe_feasible refuse k < 1 in their rows of
# test_package.py::test_integer_arguments.
@pytest.mark.parametrize("entry", [greedy, clique],
                         ids=["greedy_certificate", "clique_lower_bound"])
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
        assert _clique(cons, k) == oracle.clique_lower_bound(*p, k), p
        assert _greedy(p, cons) == oracle.greedy_certificate(*p, k), p
