"""Lattice geometry: spheres, balls, two-center shells."""

import pytest

import oracle
from gridlabel import ball, sphere, t_set


def two_centre(x, y):
    return min(abs(x) + abs(y), abs(x) + abs(y - 1))


@pytest.mark.parametrize("m", range(10))
def test_sets_match_box_scan_oracle(m):
    assert sphere(m) == oracle.scan_box(lambda x, y: abs(x) + abs(y) == m, m + 2)
    assert ball(m) == oracle.scan_box(lambda x, y: abs(x) + abs(y) <= m, m + 2)
    assert t_set(m) == oracle.scan_box(lambda x, y: two_centre(x, y) == m, m + 2)


def test_t_set_matches_a_box_scan_up_to_200():
    for m, want in enumerate(oracle.shells(two_centre, 200)):
        assert t_set(m) == want, m
