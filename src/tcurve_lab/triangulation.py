"""Primitive triangulations and their lifts to the surface.

A primitive triangulation uses every lattice point of the polygon as a
vertex; equivalently all triangles have lattice area 1/2.  The incidence
graph joins each triangle's barycenter to the midpoints of its three
edges; downstairs it is G(Pi), upstairs (one copy per quadrant, midpoints
merged along the boundary identification) it is G(S).  G(S) is kept as
two integer lists (``incidence_graphs``): each lifted edge's midpoint,
and the prong across each midpoint.
"""

from collections import Counter
from functools import cached_property
from itertools import repeat
from operator import eq, itemgetter, rshift, xor
from typing import NamedTuple

from .errors import (DanglingEdge, Gap, InvariantError, MissingLatticeVertex,
                     NonPrimitiveTriangle, Overlap, UnsupportedShape,
                     ValidationError, check)
from .lattice import (Point, Polygon, is_axis_rectangle, is_standard_triangle)
from .surface import QUADRANTS, AmbientSurface, glue_offset
from .uf import join

Tri = tuple[Point, Point, Point]          # canonical: sorted
Edge = tuple[Point, Point]                # canonical: sorted


def edge_key(a: Point, b: Point) -> Edge:
    return (a, b) if a < b else (b, a)


class PrimitiveTriangulation:
    """A validated primitive triangulation of a polygon, numbered once.

    Point i is the i-th of ``polygon.lattice_points``, edge e the e-th
    in sorted order and triangle t the t-th in sorted order; slot 3t + k
    is its k-th edge counterclockwise from its smallest vertex.  Two
    integer lists hold it, ``slot_edges`` (the edge id of each slot) and
    ``edge_ends`` (the point indices of each edge, smaller first); the
    tuple forms (``triangles``, ``edges``, ``slots``, ...) are views
    derived from them.  ``boundary`` lists the edge ids on the boundary
    and ``broken_edge_of`` gives, per edge id, the index of the broken edge
    it lies on (-1 off the boundary), both from the validating pass.
    """

    def __init__(self, polygon: Polygon, triples):
        """Validate and number ``triples``, index triples into
        ``polygon.lattice_points``, in one pass."""
        self.polygon = polygon
        pts = polygon.lattice_points
        V = len(pts)
        tris = sorted(map(tuple, map(sorted, triples)))
        # the smallest index starts the first sorted triple
        if tris and not 0 <= tris[0][0] <= max(map(itemgetter(2), tris)) < V:
            k, bad = next((k, i) for k, t in enumerate(triples)
                          for i in t if not 0 <= i < V)
            raise ValidationError(f"triangulation[{k}]: index {bad} out of range "
                                  f"(have {V} lattice points)")
        if len(set(tris)) != len(tris):
            raise Overlap("repeated triangle")
        # per slot, its edge i-j (i < j) as 2 * (i * V + j), plus 1 when
        # the counterclockwise boundary of the triangle runs from j to i
        keys: list = []
        for a, b, c in tris:
            (xa, ya), (xb, yb), (xc, yc) = pts[a], pts[b], pts[c]
            area = (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)
            ab, bc, ac = 2 * (a * V + b), 2 * (b * V + c), 2 * (a * V + c)
            if area == 1:
                keys += (ab, bc, ac + 1)
            elif area == -1:
                keys += (ac, bc + 1, ab + 1)
            else:
                raise NonPrimitiveTriangle(f"triangle {(pts[a], pts[b], pts[c])} "
                                           f"has area {abs(area)}/2")
        used = set().union(*tris)
        if len(used) != V:
            missing = [p for i, p in enumerate(pts) if i not in used]
            raise MissingLatticeVertex(f"unused lattice points: {missing}")

        # oriented edges must be pairwise distinct; undirected counts are
        # 1 (boundary) or 2 (interior)
        directed = set(keys)
        if len(directed) != len(keys):
            seen: set = set()
            k = next(k for k in keys if k in seen or seen.add(k))  # first repeat
            i, j = divmod(k >> 1, V)
            p, q = (pts[j], pts[i]) if k & 1 else (pts[i], pts[j])
            raise Overlap(f"directed edge {(p, q)} used twice")
        single = {k >> 1 for k in directed.difference(map(xor, keys, repeat(1)))}
        point_id = dict(zip(pts, range(V)))
        # each boundary segment i-j (i < j) as i * V + j -> its broken edge
        on: dict = {}
        for n, b in enumerate(polygon.broken_edges):
            for p, q in b.primitive_segments:
                i, j = sorted((point_id[p], point_id[q]))
                on[i * V + j] = n
        if single != on.keys():
            # the first edge used once off the boundary, in order of first
            # use, else a boundary segment not used exactly once
            segments = {edge_key(p, q) for b in polygon.broken_edges
                        for p, q in b.primitive_segments}
            for u, cnt in Counter(k >> 1 for k in keys).items():
                e = (pts[u // V], pts[u % V])
                if cnt > 2:
                    raise Overlap(f"edge {e} shared by {cnt} triangles")
                if cnt == 1 and e not in segments:
                    raise DanglingEdge(f"interior edge {e} belongs to one triangle only")
            for e in segments:
                if point_id[e[0]] * V + point_id[e[1]] not in single:
                    raise Gap(f"boundary segment {e} not covered exactly once")
        # each triangle has area 1/2, so the count equals twice the area
        if len(tris) != polygon.double_area:
            raise Gap("triangle areas do not sum to the polygon area")

        ukeys = list(map(rshift, keys, repeat(1)))
        order = sorted(set(ukeys))
        edge_id = dict(zip(order, range(len(order))))
        self.slot_edges: list = list(map(edge_id.__getitem__, ukeys))
        self.edge_ends: list = list(map(divmod, order, repeat(V)))
        self.boundary: list = sorted(map(edge_id.__getitem__, single))
        self.broken_edge_of: list = list(map(on.get, order, repeat(-1)))
        # Euler relations, guaranteed by the checks above
        check(self.T - self.E + self.V == 1, "T - E + V = 1 on a disk")
        check(3 * self.T == 2 * self.E - self.L, "3T = 2E - L")

    # ------------------------------------------------------------------
    # views

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        pts = self.polygon.lattice_points
        return tuple((pts[i], pts[j]) for i, j in self.edge_ends)

    @cached_property
    def triangles(self) -> tuple[Tri, ...]:
        # slot 3t runs from the smallest vertex, slot 3t + 2 back to it
        pts, ends, se = self.polygon.lattice_points, self.edge_ends, self.slot_edges
        out = []
        for s in range(0, len(se), 3):
            (a, b), c = ends[se[s]], ends[se[s + 2]][1]
            out.append((pts[a], pts[min(b, c)], pts[max(b, c)]))
        return tuple(out)

    @cached_property
    def boundary_edges(self) -> frozenset:
        return frozenset(map(self.edges.__getitem__, self.boundary))

    @cached_property
    def slots(self) -> dict:
        """Per triangle, its three edges in counterclockwise cyclic order
        (the order of their midpoints around the barycenter)."""
        edges = self.edges
        by_slot = [edges[e] for e in self.slot_edges]
        return {t: tuple(by_slot[3 * k:3 * k + 3])
                for k, t in enumerate(self.triangles)}

    @property
    def T(self) -> int:
        return len(self.slot_edges) // 3

    @property
    def E(self) -> int:
        return len(self.edge_ends)

    @property
    def V(self) -> int:
        return len(self.polygon.lattice_points)

    @property
    def L(self) -> int:
        return self.polygon.boundary_length

    def __repr__(self):
        return f"PrimitiveTriangulation({self.polygon!r}, T={self.T})"


def generate_grid_triangulation(polygon: Polygon) -> PrimitiveTriangulation:
    """Staircase triangulation of the standard triangle (0,0),(d,0),(0,d)
    or of an axis-aligned rectangle: lattice point p gives p, p+(1,0),
    p+(0,1) when both are lattice points, then p+(1,0), p+(1,1), p+(0,1)
    when p+(1,1) is one.  Other polygons must supply triangulations
    explicitly.  The index triples go through the same checks as any other."""
    if is_standard_triangle(polygon) is None and is_axis_rectangle(polygon) is None:
        raise UnsupportedShape(
            "built-in generator covers the standard triangle and axis-aligned "
            "rectangles; supply the triangulation explicitly")
    index = {p: i for i, p in enumerate(polygon.lattice_points)}
    tris = []
    for (x, y), i in index.items():
        right, up = index.get((x + 1, y)), index.get((x, y + 1))
        if right is not None and up is not None:
            tris.append((i, right, up))
            corner = index.get((x + 1, y + 1))
            if corner is not None:
                tris.append((right, corner, up))
    return PrimitiveTriangulation(polygon, tris)


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
    exactly two lifted-triangle prongs, G(Pi) is connected, and G(S) is
    connected when S is (r >= 2).  G(S) is four copies of G(Pi) joined
    only at the glued boundary midpoints, so the last check is a union of
    the four quadrants over the gluing.  The gluing is read once per
    broken edge of ``surface``, the ``glue_offset`` of its segment parity,
    and reaches each boundary edge through ``tri.broken_edge_of``."""
    E, T, n = tri.E, tri.T, 12 * tri.T
    ids = list(range(n))  # one int object per id (4E <= 12T)
    edge_class = ids[:4 * E]
    offsets = [glue_offset(b.segment_parity) for b in surface.broken_edges]
    for e in tri.boundary:
        a, b = offsets[tri.broken_edge_of[e]]
        o = 2 * a + b  # quadrant index k moves to k ^ o
        for k in range(4):
            edge_class[k * E + e] = ids[min(k, k ^ o) * E + e]
    # per slot lift, its midpoint; per midpoint, its first prong until the
    # second one pairs with it, then 12T
    by_slot = itemgetter(*tri.slot_edges)  # 3 or more indices: a tuple
    mids = [m for x in range(0, 4 * E, E) for m in by_slot(edge_class[x:x + E])]
    across = [-1] * n
    first = [-1] * (4 * E)
    for u, m in zip(ids, mids):
        w = first[m]
        if w < 0:
            first[m] = u
        elif w < n:
            across[u], across[w] = w, u
            first[m] = n
        else:
            break
    if -1 in across:
        degree = Counter(mids)
        c = next(c for c, x in enumerate(edge_class) if c == x and degree[c] != 2)
        m = ("m", QUADRANTS[c // E], tri.edges[c % E])
        raise InvariantError(f"upstairs midpoint {m} has degree {degree[c]}")
    # quadrant 0 holds one copy of G(Pi): its prongs across an interior
    # midpoint stay in it, those across a boundary one leave it
    T3 = 3 * T
    parent = join(ids[:T], ((u // 3, w // 3)  # ids[:T]: shared ints
                            for u, w in zip(ids, across[:T3]) if u < w < T3))
    check(sum(map(eq, parent, ids)) == 1, "G(Pi) is connected, so the filling is")
    if surface.r >= 2:
        # so G(S) is connected exactly when the gluing joins its copies:
        # the copy of a boundary edge in quadrant k shares its midpoint
        # with the copy in quadrant edge_class[k*E + e] // E
        quads = join([0, 1, 2, 3], {(k, c // E) for e in tri.boundary
                                    for k, c in enumerate(edge_class[e::E])})
        check(sum(map(eq, quads, range(4))) == 1, "G(S) must be connected when S is")
    return Lifts(edge_class, across)
