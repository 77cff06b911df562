"""Primitive triangulations and their lifts to the surface.

A primitive triangulation uses every lattice point of the polygon as a
vertex; equivalently all triangles have lattice area 1/2.  The incidence
graph joins each triangle's barycenter to the midpoints of its three
edges; downstairs it is G(Pi), upstairs (one copy per quadrant, midpoints
merged along the boundary identification) it is G(S).  G(S) is kept as
two integer lists (``incidence_graphs``): each lifted edge's midpoint,
and the prong across each midpoint.
"""

from functools import cached_property
from typing import NamedTuple

from .errors import (DanglingEdge, Gap, InvariantError, MissingLatticeVertex,
                     NonPrimitiveTriangle, Overlap, UnsupportedShape, check)
from .geometry import cross
from .lattice import (Point, Polygon, is_axis_rectangle, is_standard_triangle)
from .surface import QUADRANTS, AmbientSurface, quad_add
from .uf import find

Tri = tuple[Point, Point, Point]          # canonical: sorted
Edge = tuple[Point, Point]                # canonical: sorted


def tri_key(a: Point, b: Point, c: Point) -> Tri:
    return tuple(sorted((a, b, c)))


def edge_key(a: Point, b: Point) -> Edge:
    return (a, b) if a < b else (b, a)


def tri_edges(t: Tri) -> tuple[Edge, Edge, Edge]:
    a, b, c = t
    return (edge_key(a, b), edge_key(a, c), edge_key(b, c))


def tri_ccw(t: Tri) -> tuple[Point, Point, Point]:
    a, b, c = t
    return (a, b, c) if cross(a, b, c) > 0 else (a, c, b)


class PrimitiveTriangulation:
    """A validated primitive triangulation of a polygon."""

    def __init__(self, polygon: Polygon, triangles):
        self.polygon = polygon
        tris = tuple(sorted(tri_key(*t) for t in triangles))
        if len(set(tris)) != len(tris):
            raise Overlap("repeated triangle")
        self.triangles: tuple[Tri, ...] = tris
        self._validate()

    def _validate(self):
        poly = self.polygon
        lattice = set(poly.lattice_points)
        used = set()
        for t in self.triangles:
            a, b, c = t
            if abs(cross(a, b, c)) != 1:
                raise NonPrimitiveTriangle(f"triangle {t} has area {abs(cross(a,b,c))}/2")
            for v in t:
                if v not in lattice:
                    raise MissingLatticeVertex(
                        f"triangle vertex {v} is not a lattice point of the polygon")
            used.update(t)
        if used != lattice:
            missing = sorted(lattice - used)
            raise MissingLatticeVertex(f"unused lattice points: {missing}")

        # oriented edges must be pairwise distinct; undirected counts are
        # 1 (boundary) or 2 (interior)
        directed = set()
        undirected: dict[Edge, int] = {}
        for t in self.triangles:
            v0, v1, v2 = tri_ccw(t)
            for p, q in ((v0, v1), (v1, v2), (v2, v0)):
                if (p, q) in directed:
                    raise Overlap(f"directed edge {(p, q)} used twice")
                directed.add((p, q))
                undirected[edge_key(p, q)] = undirected.get(edge_key(p, q), 0) + 1
        boundary_segments = {edge_key(p, q)
                             for b in poly.broken_edges
                             for p, q in b.primitive_segments}
        for e, cnt in undirected.items():
            if cnt > 2:
                raise Overlap(f"edge {e} shared by {cnt} triangles")
            if cnt == 1 and e not in boundary_segments:
                raise DanglingEdge(f"interior edge {e} belongs to one triangle only")
        for e in boundary_segments:
            if undirected.get(e, 0) != 1:
                raise Gap(f"boundary segment {e} not covered exactly once")
        # each triangle has area 1/2, so the count equals twice the area
        if len(self.triangles) != poly.double_area:
            raise Gap("triangle areas do not sum to the polygon area")
        self._undirected = undirected

        # Euler relations, guaranteed by the checks above
        check(self.T - self.E + self.V == 1, "T - E + V = 1 on a disk")
        check(3 * self.T == 2 * self.E - self.L, "3T = 2E - L")

    # ------------------------------------------------------------------

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._undirected))

    @cached_property
    def boundary_edges(self) -> frozenset:
        return frozenset(e for e, c in self._undirected.items() if c == 1)

    @cached_property
    def interior_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e not in self.boundary_edges)

    @cached_property
    def edge_triangles(self) -> dict:
        out: dict[Edge, list] = {e: [] for e in self.edges}
        for t in self.triangles:
            for e in tri_edges(t):
                out[e].append(t)
        return {e: tuple(ts) for e, ts in out.items()}

    @cached_property
    def slots(self) -> dict:
        """Per triangle, its three edges in counterclockwise cyclic order
        (the order of their midpoints around the barycenter)."""
        out = {}
        for t in self.triangles:
            v0, v1, v2 = tri_ccw(t)
            out[t] = (edge_key(v0, v1), edge_key(v1, v2), edge_key(v2, v0))
        return out

    @property
    def T(self) -> int:
        return len(self.triangles)

    @property
    def E(self) -> int:
        return len(self._undirected)

    @property
    def V(self) -> int:
        return len(self.polygon.lattice_points)

    @property
    def L(self) -> int:
        return len(self.polygon.boundary_points)

    def __repr__(self):
        return f"PrimitiveTriangulation({self.polygon!r}, T={self.T})"


def validate_primitive_triangulation(polygon: Polygon, triangles) -> PrimitiveTriangulation:
    return PrimitiveTriangulation(polygon, triangles)


def generate_grid_triangulation(polygon: Polygon) -> PrimitiveTriangulation:
    """Staircase triangulation of the standard triangle (0,0),(d,0),(0,d)
    or of an axis-aligned rectangle: every unit cell is split along its
    NW-SE diagonal.  Other polygons must supply triangulations explicitly.
    """
    d = is_standard_triangle(polygon)
    tris = []
    if d is not None:
        for x in range(d):
            for y in range(d - x):
                tris.append(((x, y), (x + 1, y), (x, y + 1)))
                if x + y <= d - 2:
                    tris.append(((x + 1, y), (x + 1, y + 1), (x, y + 1)))
        return PrimitiveTriangulation(polygon, tris)
    rect = is_axis_rectangle(polygon)
    if rect is not None:
        (x0, y0), (x1, y1) = rect
        for x in range(x0, x1):
            for y in range(y0, y1):
                tris.append(((x, y), (x + 1, y), (x, y + 1)))
                tris.append(((x + 1, y), (x + 1, y + 1), (x, y + 1)))
        return PrimitiveTriangulation(polygon, tris)
    raise UnsupportedShape(
        "built-in generator covers the standard triangle and axis-aligned "
        "rectangles; supply the triangulation explicitly")


# ---------------------------------------------------------------------------
# the lift table

class Lifts(NamedTuple):
    """The lifts of one triangulation to its surface, numbered as in
    ``tcurve_lab.sweep`` (lift id ``q*E + e``, slot lift ``(q*T + t)*3 + k``).
    The two copies of a boundary segment that the gluing identifies share
    one midpoint of G(S), named by the lift id of the smaller quadrant."""
    edge_class: list  # per lift id: the lift id of its midpoint
    across: list      # per slot lift: the other prong on its midpoint


def incidence_graphs(surface: AmbientSurface,
                     tri: PrimitiveTriangulation) -> Lifts:
    """The lift table, once G(S) is checked on it: every midpoint joins
    exactly two lifted-triangle prongs, and G(S) is connected when S is
    (r >= 2)."""
    E, T = tri.E, tri.T
    ids = list(range(12 * T))  # one int object per id (4E <= 12T)
    edge_class = ids[:4 * E]
    for e, edge in enumerate(tri.edges):
        off = surface.boundary_segment_offset.get(edge)
        if off is not None and edge in tri.boundary_edges:
            for k, q in enumerate(QUADRANTS):
                edge_class[k * E + e] = ids[
                    QUADRANTS.index(min(q, quad_add(q, off))) * E + e]
    edge_id = {e: i for i, e in enumerate(tri.edges)}
    slot_edges = [edge_id[e] for t in tri.triangles for e in tri.slots[t]]
    # per midpoint, the slot lifts of the prongs that end there
    prongs: list = [[] for _ in range(4 * E)]
    for k in range(4):
        for s, e in enumerate(slot_edges):
            prongs[edge_class[k * E + e]].append(ids[3 * k * T + s])
    across = [0] * (12 * T)
    parent = list(range(4 * T))  # lifted triangle q*T + t
    for c, ends in enumerate(prongs):
        if edge_class[c] != c:
            continue
        if len(ends) != 2:
            m = ("m", QUADRANTS[c // E], tri.edges[c % E])
            raise InvariantError(f"upstairs midpoint {m} has degree {len(ends)}")
        u, w = ends
        across[u], across[w] = w, u
        parent[find(parent, u // 3)] = find(parent, w // 3)
    check(surface.r < 2 or sum(x == p for x, p in enumerate(parent)) == 1,
          "G(S) must be connected when S is")
    return Lifts(edge_class, across)
