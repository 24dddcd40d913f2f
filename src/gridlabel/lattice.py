"""Square-lattice geometry under the Manhattan metric.

Vertices are integer pairs (x, y). Spheres and balls are centered at the
origin; ``t_set`` enumerates the shells around the two-vertex center
{(0, 0), (0, 1)}, which tighten packing arguments for odd separation
parameters.

All enumerations return lists sorted lexicographically by (x, y) so that
outputs are deterministic and diffable. ``sphere`` and ``t_set`` build
their O(m) points directly; only ``ball`` is O(m^2). Every function here
is pure and safe to call from any number of threads.
"""

from __future__ import annotations

Vertex = tuple[int, int]


def sphere(m: int) -> list[Vertex]:
    """All vertices at distance exactly m from the origin.

    Size is 1 for m = 0 and 4m otherwise.
    """
    if m < 0:
        raise ValueError("radius must be non-negative")
    if m == 0:
        return [(0, 0)]
    points: list[Vertex] = []
    for x in range(-m, m + 1):
        rest = m - abs(x)
        if rest == 0:
            points.append((x, 0))
        else:
            points.append((x, -rest))
            points.append((x, rest))
    return points


def ball(m: int) -> list[Vertex]:
    """All vertices at distance at most m from the origin (2m^2 + 2m + 1 points)."""
    if m < 0:
        raise ValueError("radius must be non-negative")
    points: list[Vertex] = []
    for x in range(-m, m + 1):
        rest = m - abs(x)
        points.extend((x, y) for y in range(-rest, rest + 1))
    return points


def t_set(m: int) -> list[Vertex]:
    """Vertices whose minimum distance to {(0, 0), (0, 1)} equals m.

    Returns the two centers themselves for m = 0 and 4m + 2 vertices for
    m >= 1.
    """
    if m < 0:
        raise ValueError("radius must be non-negative")
    # For y <= 0 the nearer center is (0, 0), for y >= 1 it is (0, 1): each
    # column x holds the lower point of sphere(m) and the upper point of
    # sphere(m) shifted up by one.
    points: list[Vertex] = []
    for x in range(-m, m + 1):
        rest = m - abs(x)
        points.append((x, -rest))
        points.append((x, rest + 1))
    return points
