"""Lattice geometry: spheres, balls, two-center shells."""

import numpy as np
import pytest

import oracle
from gridlabel import ball, sphere, t_set


def test_sphere_examples():
    assert sphere(0) == [(0, 0)]
    assert len(sphere(1)) == 4
    assert len(sphere(3)) == 12


def test_ball_examples():
    assert len(ball(0)) == 1
    assert len(ball(2)) == 13
    assert len(ball(3)) == 25


def test_t_set_examples():
    assert t_set(0) == [(0, 0), (0, 1)]
    assert len(t_set(1)) == 6
    assert len(t_set(3)) == 14


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
def test_sets_match_box_scan_oracle(m):
    assert sphere(m) == oracle.scan_box(lambda x, y: abs(x) + abs(y) == m, m + 2)
    assert ball(m) == oracle.scan_box(lambda x, y: abs(x) + abs(y) <= m, m + 2)
    assert t_set(m) == oracle.scan_box(
        lambda x, y: min(abs(x) + abs(y), abs(x) + abs(y - 1)) == m, m + 2
    )


def test_t_set_matches_a_box_scan_up_to_200():
    # The same filter as oracle.scan_box, in array form: every point of the box
    # [-m, m] x [-m, m + 1] whose nearer centre is at distance m.
    for m in range(201):
        xs, ys = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 2),
                             indexing="ij")
        near = np.minimum(abs(xs) + abs(ys), abs(xs) + abs(ys - 1)) == m
        # Row-major order over (x, y) is lexicographic order.
        assert t_set(m) == list(zip(xs[near].tolist(), ys[near].tolist())), m


def test_counting_formulas_up_to_60():
    for m in range(1, 61):
        assert len(sphere(m)) == 4 * m
        assert len(ball(m)) == 2 * m * m + 2 * m + 1
        assert len(t_set(m)) == 4 * m + 2


@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_ball_is_disjoint_union_of_smaller_ball_and_sphere(m):
    inner = set(ball(m - 1))
    shell = set(sphere(m))
    assert inner.isdisjoint(shell)
    assert inner | shell == set(ball(m))


@pytest.mark.parametrize("m", [1, 2, 5])
def test_sphere_symmetries(m):
    pts = set(sphere(m))
    assert {(-x, y) for x, y in pts} == pts
    assert {(x, -y) for x, y in pts} == pts
    assert {(y, x) for x, y in pts} == pts


def test_outputs_lexicographically_sorted():
    for m in (0, 1, 4, 9):
        for fn in (sphere, ball, t_set):
            out = fn(m)
            assert out == sorted(out)
            assert len(out) == len(set(out))
