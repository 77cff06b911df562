"""Lattice polygons and their parity calculus.

Parities live in (Z2)^2: a point (x, y) has parity (x mod 2, y mod 2), a
segment the sum of the two parity values its lattice points attain (this
equals the parity of its primitive direction vector and is never (0,0)).
A polygon vertex adds the parities of its two incident edge segments, a
polygon edge the parities of its two endpoint vertices.  Odd-parity
vertices cut the boundary into broken edges; all segments of one broken
edge share a single parity.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import (CollinearConsecutiveEdges, DegenerateSegment,
                     NegativeCoordinate, NotSimple, TooFewVertices)
from .geometry import (cross, locate_in_polygon, polygon_double_area,
                       segment_integral_length, segment_lattice_points,
                       segments_intersect)

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


def is_primitive(p: Point, q: Point) -> bool:
    return segment_integral_length(p, q) == 1


@dataclass(frozen=True)
class BrokenEdge:
    """A maximal boundary arc between consecutive odd-parity vertices.

    ``start``/``end`` are None exactly when the polygon has no odd
    vertex, in which case the single broken edge is the whole boundary.
    """
    index: int
    edge_indices: tuple[int, ...]
    segment_parity: Parity
    broken_parity: Parity
    start: Point | None
    end: Point | None
    integral_length: int
    primitive_segments: tuple[tuple[Point, Point], ...]

    @property
    def is_odd(self) -> bool:
        return is_odd(self.broken_parity)


@dataclass(frozen=True)
class LatticeCensus:
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
        verts = tuple((int(x), int(y)) for x, y in vertices)
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
    def point_count(self) -> int:
        """V = |polygon ∩ Z^2| by Pick's theorem, V = A + L/2 + 1, from the
        vertices alone: no lattice point is enumerated."""
        length = sum(segment_integral_length(p, q) for p, q in self.edges)
        return (self.double_area + length) // 2 + 1

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
    def edge_polygon_parities(self) -> tuple[Parity, ...]:
        # edge i runs from vertex i to vertex i+1
        vp = self.vertex_parities
        return tuple(parity_sum(vp[i], vp[(i + 1) % self.n])
                     for i in range(self.n))

    @cached_property
    def odd_vertex_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if is_odd(self.vertex_parities[i]))

    # ------------------------------------------------------------------
    # broken edges

    @cached_property
    def broken_edges(self) -> tuple[BrokenEdge, ...]:
        n = self.n
        odd = list(self.odd_vertex_indices)
        assert len(odd) != 1, "a polygon cannot have exactly one odd vertex"
        if not odd:
            segs = []
            for p, q in self.edges:
                pts = segment_lattice_points(p, q)
                segs.extend(zip(pts, pts[1:]))
            par = self.edge_segment_parities[0]
            assert all(par == ep for ep in self.edge_segment_parities)
            bp = EVEN
            for ep in self.edge_polygon_parities:
                bp = parity_sum(bp, ep)
            return (BrokenEdge(0, tuple(range(n)), par, bp, None, None,
                               len(segs), tuple(segs)),)
        # anchor the cyclic indexing at the lexicographically smallest
        # odd vertex, then walk counterclockwise
        anchor = min(odd, key=lambda i: self.vertices[i])
        odd.sort(key=lambda i: ((i - anchor) % n))
        r = len(odd)
        out = []
        for k in range(r):
            i0, i1 = odd[k], odd[(k + 1) % r]
            idxs = []
            i = i0
            while True:
                idxs.append(i)
                i = (i + 1) % n
                if i == i1:
                    break
            seg_par = self.edge_segment_parities[idxs[0]]
            assert all(self.edge_segment_parities[i] == seg_par for i in idxs), \
                "segments of one broken edge must share a parity"
            bp = EVEN
            for i in idxs:
                bp = parity_sum(bp, self.edge_polygon_parities[i])
            # equivalent formula: sum of the endpoint vertex parities
            assert bp == parity_sum(self.vertex_parities[i0],
                                    self.vertex_parities[i1])
            segs = []
            for i in idxs:
                pts = segment_lattice_points(*self.edges[i])
                segs.extend(zip(pts, pts[1:]))
            out.append(BrokenEdge(k, tuple(idxs), seg_par, bp,
                                  self.vertices[i0], self.vertices[i1],
                                  len(segs), tuple(segs)))
        return tuple(out)

    @property
    def r(self) -> int:
        return len(self.broken_edges)

    # ------------------------------------------------------------------
    # lattice point census

    def locate(self, p: Point) -> str:
        return locate_in_polygon(p, self.vertices)

    @cached_property
    def boundary_points(self) -> tuple[Point, ...]:
        """All boundary lattice points, counterclockwise, starting at
        ``vertices[0]``.  Its length is the integral boundary length L."""
        out = []
        for p, q in self.edges:
            out.extend(segment_lattice_points(p, q)[:-1])
        return tuple(out)

    @cached_property
    def boundary_point_set(self) -> frozenset:
        return frozenset(self.boundary_points)

    @cached_property
    def lattice_points(self) -> tuple[Point, ...]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        pts = []
        for x in range(min(xs), max(xs) + 1):
            for y in range(min(ys), max(ys) + 1):
                if self.locate((x, y)) != "exterior":
                    pts.append((x, y))
        return tuple(sorted(pts))

    @cached_property
    def interior_points(self) -> tuple[Point, ...]:
        bd = self.boundary_point_set
        return tuple(p for p in self.lattice_points if p not in bd)

    def census(self) -> LatticeCensus:
        total = len(self.lattice_points)
        length = len(self.boundary_points)
        g = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
        for p in self.interior_points:
            g[point_parity(p)] += 1
        assert total - length == len(self.interior_points)
        return LatticeCensus(total, length, total - length, g,
                             tuple(b.integral_length for b in self.broken_edges))

    def __repr__(self):
        return f"Polygon({list(self.vertices)})"


def validate_polygon(vertices) -> Polygon:
    """Validate a cyclic vertex sequence and return the polygon."""
    return Polygon(vertices)


def broken_edge_decomposition(polygon: Polygon) -> tuple[BrokenEdge, ...]:
    return polygon.broken_edges


def lattice_census(polygon: Polygon) -> LatticeCensus:
    return polygon.census()


def is_standard_triangle(polygon: Polygon) -> int | None:
    """Return d when the polygon is the triangle (0,0), (d,0), (0,d)."""
    vs = set(polygon.vertices)
    if len(vs) != 3 or (0, 0) not in vs:
        return None
    rest = sorted(vs - {(0, 0)})
    d = rest[1][0] if rest[1][1] == 0 else None
    if d and rest == [(0, d), (d, 0)]:
        return d
    return None


def is_axis_rectangle(polygon: Polygon) -> tuple[Point, Point] | None:
    """Return (lower-left, upper-right) for an axis-aligned rectangle."""
    if polygon.n != 4:
        return None
    xs = sorted({v[0] for v in polygon.vertices})
    ys = sorted({v[1] for v in polygon.vertices})
    if len(xs) != 2 or len(ys) != 2:
        return None
    want = {(x, y) for x in xs for y in ys}
    if set(polygon.vertices) == want:
        return ((xs[0], ys[0]), (xs[1], ys[1]))
    return None
