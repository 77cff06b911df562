"""Exact integer predicates for plane lattice geometry.

Everything here works on integer coordinates with integer arithmetic;
there are no floats and no epsilons anywhere in the package.
"""

from math import gcd

Point = tuple[int, int]


def cross(o: Point, a: Point, b: Point) -> int:
    """Cross product of (a - o) and (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    if cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments [a,b] and [c,d] share at least one point."""
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and on_segment(a, c, d):
        return True
    if d2 == 0 and on_segment(b, c, d):
        return True
    if d3 == 0 and on_segment(c, a, b):
        return True
    if d4 == 0 and on_segment(d, a, b):
        return True
    return False


def segment_integral_length(p: Point, q: Point) -> int:
    """Number of primitive pieces of the segment: gcd(|dx|, |dy|)."""
    return gcd(abs(q[0] - p[0]), abs(q[1] - p[1]))


def segment_lattice_points(p: Point, q: Point) -> list[Point]:
    """All lattice points of the closed segment, ordered from p to q."""
    n = segment_integral_length(p, q)
    if n == 0:
        return [p]
    sx = (q[0] - p[0]) // n
    sy = (q[1] - p[1]) // n
    return [(p[0] + k * sx, p[1] + k * sy) for k in range(n + 1)]


def polygon_double_area(ring: tuple[Point, ...]) -> int:
    """Twice the signed area (positive for counterclockwise rings)."""
    s = 0
    for i in range(len(ring)):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % len(ring)]
        s += x1 * y2 - x2 * y1
    return s
