"""Square-lattice geometry under the Manhattan metric.

Vertices are integer pairs (x, y). Spheres and balls are centered at the
origin; ``t_set`` enumerates the shells around the two-vertex center
{(0, 0), (0, 1)}, which tighten packing arguments for odd separation
parameters.

Each set is read column by column: column x of the radius-m sets spans
rest = m - |x| rows either side of its centre. All enumerations return
lists sorted lexicographically by (x, y) so that outputs are
deterministic and diffable. ``sphere`` and ``t_set`` build their O(m)
points directly; only ``ball`` is O(m^2). Every function here is pure
and safe to call from any number of threads.
"""

from __future__ import annotations

import operator

Vertex = tuple[int, int]


def _columns(m: int) -> list[tuple[int, int]]:
    """(x, m - |x|) for each column x of the radius-m sets; m is read
    with operator.index, so every coordinate is a Python int."""
    m = operator.index(m)
    if m < 0:
        raise ValueError("radius must be non-negative")
    return [(x, m - abs(x)) for x in range(-m, m + 1)]


def sphere(m: int) -> list[Vertex]:
    """All vertices at distance exactly m from the origin.

    Size is 1 for m = 0 and 4m otherwise.
    """
    # The step reaches from -rest to rest; range needs it positive, and
    # where rest = 0 the two ends are one point.
    return [(x, y) for x, rest in _columns(m)
            for y in range(-rest, rest + 1, 2 * rest or 1)]


def ball(m: int) -> list[Vertex]:
    """All vertices at distance at most m from the origin (2m^2 + 2m + 1 points)."""
    return [(x, y) for x, rest in _columns(m) for y in range(-rest, rest + 1)]


def t_set(m: int) -> list[Vertex]:
    """Vertices whose minimum distance to {(0, 0), (0, 1)} equals m.

    Returns the two centers themselves for m = 0 and 4m + 2 vertices for
    m >= 1.
    """
    # For y <= 0 the nearer center is (0, 0), for y >= 1 it is (0, 1): each
    # column x holds the lower point of sphere(m) and the upper point of
    # sphere(m) shifted up by one.
    return [(x, y) for x, rest in _columns(m) for y in (-rest, rest + 1)]
