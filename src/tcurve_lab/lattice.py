"""Lattice polygons and their parity calculus.

Parities live in (Z2)^2: a point (x, y) has parity (x mod 2, y mod 2), a
segment the sum of the two parity values its lattice points attain (this
equals the parity of its primitive direction vector and is never (0,0)).
A polygon vertex adds the parities of its two incident edge segments.
Odd-parity vertices cut the boundary into broken edges; all segments of
one broken edge share a single parity.  The broken parity of a broken
edge, the sum over its polygon edges of their two end vertex parities,
telescopes to the sum of the parities of its two ends.
"""

from functools import cached_property
from math import gcd
from operator import index
from typing import NamedTuple

from .errors import (CollinearConsecutiveEdges, DegenerateSegment, InputError,
                     NegativeCoordinate, NotSimple, TooFewVertices, check)
from .geometry import (cross, polygon_double_area, segment_integral_length,
                       segment_lattice_points, segments_intersect)

Point = tuple[int, int]
Parity = tuple[int, int]

EVEN: Parity = (0, 0)


def point_parity(p: Point) -> Parity:
    return (p[0] & 1, p[1] & 1)


def parity_sum(a: Parity, b: Parity) -> Parity:
    return ((a[0] + b[0]) & 1, (a[1] + b[1]) & 1)


def pairing(a: Parity, b: Parity) -> int:
    """The Z2 pairing <(a1,a2),(b1,b2)> = a1*b1 + a2*b2 mod 2."""
    return (a[0] * b[0] + a[1] * b[1]) & 1


def is_odd(par: Parity) -> bool:
    return par != EVEN


def segment_parity(p: Point, q: Point) -> Parity:
    """Parity of the segment [p, q].

    Equals the parity of the primitive direction vector, hence also the
    sum of the two parity values attained by the segment's lattice
    points.  Never (0,0).
    """
    if p == q:
        raise DegenerateSegment(f"degenerate segment at {p}")
    n = gcd(abs(q[0] - p[0]), abs(q[1] - p[1]))
    return (((q[0] - p[0]) // n) & 1, ((q[1] - p[1]) // n) & 1)


class BrokenEdge(NamedTuple):
    """A maximal boundary arc between consecutive odd-parity vertices.

    ``start``/``end`` are None exactly when the polygon has no odd
    vertex, in which case the single broken edge is the whole boundary
    and its broken parity is EVEN.
    """
    segment_parity: Parity
    broken_parity: Parity
    start: Point | None
    end: Point | None
    integral_length: int
    primitive_segments: tuple[tuple[Point, Point], ...]

    @property
    def is_odd(self) -> bool:
        return is_odd(self.broken_parity)


class LatticeCensus(NamedTuple):
    total_points: int          # V = |polygon ∩ Z^2|
    boundary_length: int       # L = integral length of the boundary
    interior_points: int       # i = V - L
    by_parity: dict            # parity -> interior count g(s,t)
    broken_edge_lengths: tuple[int, ...]


class Polygon:
    """A validated lattice polygon in the closed nonnegative quadrant.

    The boundary is simple, consecutive edges are never collinear, and
    vertices are stored counterclockwise.  Immutable once built.
    """

    def __init__(self, vertices):
        try:
            verts = tuple(map(tuple, vertices))
        except TypeError:  # not a sequence of sequences
            raise InputError("vertices must be a sequence of integer pairs") from None
        for v in verts:  # two of what operator.index takes, but no bool
            if len(v) != 2 or any(isinstance(c, bool)
                                  or not hasattr(type(c), "__index__") for c in v):
                raise InputError(f"vertex {v!r}: expected two integer coordinates")
        verts = tuple((index(x), index(y)) for x, y in verts)
        if len(verts) < 3:
            raise TooFewVertices(f"need at least 3 vertices, got {len(verts)}")
        for v in verts:
            if v[0] < 0 or v[1] < 0:
                raise NegativeCoordinate(f"vertex {v} outside the nonnegative quadrant")
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if cross(a, b, c) == 0:
                raise CollinearConsecutiveEdges(
                    f"vertices {a}, {b}, {c} are collinear")
        if len(set(verts)) != n:
            raise NotSimple("repeated vertex")
        edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or (i == 0 and j == n - 1):
                    continue  # adjacent edges share exactly one vertex
                if segments_intersect(*edges[i], *edges[j]):
                    raise NotSimple(f"edges {edges[i]} and {edges[j]} intersect")
        if polygon_double_area(verts) < 0:
            verts = verts[::-1]
        self.vertices: tuple[Point, ...] = verts

    # ------------------------------------------------------------------
    # basic derived data

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def double_area(self) -> int:
        return polygon_double_area(self.vertices)

    @cached_property
    def boundary_length(self) -> int:
        """L = the number of boundary lattice points, a sum of gcds over the
        edges: no lattice point is enumerated."""
        return sum(segment_integral_length(p, q) for p, q in self.edges)

    @cached_property
    def point_count(self) -> int:
        """V = |polygon ∩ Z^2| by Pick's theorem, V = A + L/2 + 1, from the
        vertices alone: no lattice point is enumerated."""
        return (self.double_area + self.boundary_length) // 2 + 1

    @cached_property
    def edges(self) -> tuple[tuple[Point, Point], ...]:
        n = self.n
        return tuple((self.vertices[i], self.vertices[(i + 1) % n])
                     for i in range(n))

    @cached_property
    def edge_segment_parities(self) -> tuple[Parity, ...]:
        return tuple(segment_parity(p, q) for p, q in self.edges)

    @cached_property
    def vertex_parities(self) -> tuple[Parity, ...]:
        # vertex i meets edges i-1 and i
        par = self.edge_segment_parities
        return tuple(parity_sum(par[i - 1], par[i]) for i in range(self.n))

    @cached_property
    def odd_vertex_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if is_odd(self.vertex_parities[i]))

    # ------------------------------------------------------------------
    # broken edges

    @cached_property
    def broken_edges(self) -> tuple[BrokenEdge, ...]:
        """The boundary cut at its odd vertices, counterclockwise from the
        lexicographically smallest one; with none, the whole boundary from
        ``vertices[0]``."""
        vs, n = self.vertices, self.n
        vp, seg_pars = self.vertex_parities, self.edge_segment_parities
        odd = self.odd_vertex_indices
        check(len(odd) != 1, "a polygon cannot have exactly one odd vertex")
        anchor = min(odd, key=vs.__getitem__, default=0)
        cuts = sorted(odd, key=lambda i: (i - anchor) % n) or [0]
        out = []
        for k, i0 in enumerate(cuts):
            i1 = cuts[(k + 1) % len(cuts)]
            # the edges i0, i0 + 1, ..., i1 - 1 (all n of them when i1 == i0)
            idxs = [(i0 + j) % n for j in range((i1 - i0 - 1) % n + 1)]
            check(all(seg_pars[i] == seg_pars[i0] for i in idxs),
                  "segments of one broken edge must share a parity")
            segs = []
            for i in idxs:
                pts = segment_lattice_points(*self.edges[i])
                segs.extend(zip(pts, pts[1:]))
            ends = (vs[i0], vs[i1]) if odd else (None, None)
            out.append(BrokenEdge(seg_pars[i0], parity_sum(vp[i0], vp[i1]),
                                  *ends, len(segs), tuple(segs)))
        return tuple(out)

    @property
    def r(self) -> int:
        return len(self.broken_edges)

    # ------------------------------------------------------------------
    # lattice point census

    @cached_property
    def boundary_points(self) -> frozenset:
        """All boundary lattice points, read off the broken edges' segments:
        L of them."""
        return frozenset(p for b in self.broken_edges
                         for p, _ in b.primitive_segments)

    @cached_property
    def lattice_points(self) -> tuple[Point, ...]:
        """All lattice points, sorted: the boundary points, and on each
        column x the integers strictly between the 1st and 2nd, 3rd and 4th,
        ... heights c at which the edges over [x, x + 1) cross it, each kept
        as 2 floor(c) + [c is not an integer], which sorts them as finely as
        the integers between them need."""
        x0 = min(x for x, _ in self.vertices)
        cuts: list = [[] for _ in range(max(x for x, _ in self.vertices) - x0)]
        for (x1, y1), (x2, y2) in map(sorted, self.edges):
            num = y1 * (x2 - x1)  # x2 - x1 times the height at x1, x1 + 1, ...
            for col in cuts[x1 - x0:x2 - x0]:
                q, r = divmod(num, x2 - x1)
                col.append(2 * q + (r != 0))
                num += y2 - y1
        pts = set(self.boundary_points)
        for x, col in enumerate(cuts, x0):
            col.sort()
            for lo, hi in zip(col[::2], col[1::2]):
                pts.update((x, y) for y in range((lo >> 1) + 1, (hi + 1) >> 1))
        check(len(pts) == self.point_count,
              "the column scan finds the Pick count of lattice points")
        return tuple(sorted(pts))

    @cached_property
    def interior_points(self) -> tuple[Point, ...]:
        bd = self.boundary_points
        return tuple(p for p in self.lattice_points if p not in bd)

    def census(self) -> LatticeCensus:
        total = len(self.lattice_points)
        length = len(self.boundary_points)
        g = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
        for p in self.interior_points:
            g[point_parity(p)] += 1
        check(total - length == len(self.interior_points),
              "interior points are the lattice points off the boundary")
        return LatticeCensus(total, length, total - length, g,
                             tuple(b.integral_length for b in self.broken_edges))

    def __repr__(self):
        return f"Polygon({list(self.vertices)})"


def validate_polygon(vertices) -> Polygon:
    """Validate a cyclic vertex sequence and return the polygon."""
    return Polygon(vertices)


def lattice_census(polygon: Polygon) -> LatticeCensus:
    return polygon.census()


def is_standard_triangle(polygon: Polygon) -> int | None:
    """Return d when the polygon is the triangle (0,0), (d,0), (0,d)."""
    d = max(polygon.vertices)[0]
    return d if sorted(polygon.vertices) == [(0, 0), (0, d), (d, 0)] else None


def is_axis_rectangle(polygon: Polygon) -> tuple[Point, Point] | None:
    """Return (lower-left, upper-right) for an axis-aligned rectangle."""
    lo, hi = min(polygon.vertices), max(polygon.vertices)
    corners = {lo, (lo[0], hi[1]), (hi[0], lo[1]), hi}
    return (lo, hi) if set(polygon.vertices) == corners and polygon.n == 4 else None
