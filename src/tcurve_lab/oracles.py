"""Independent classifiers that the fast paths are tested against.

The cell-complex classifiers deliberately share no code with the main
computations: the surface is rebuilt as four polygon faces with explicit
edge pairings, the filling as one hexagonal disk per thick-Y with
explicit end-segment identifications.  Euler characteristics come from
counting identified cells, orientability from propagating face
orientations, boundary circles from walking free edges.  The component
classifier finds the ovals and the crossing parities in the nodes of each
component and the segments of the broken edges, and nests the ovals by
planar point-in-ring tests instead of the regions of ``TCurve.regions``;
the per-component split cuts the surface along one component at a time
and counts the cells of each side, where ``TCurve.regions`` cuts along
all of them at once; it glues the copies of each boundary point by the
offsets of the polygon's edges (``boundary_offset``, ``point_class``),
where ``TCurve.regions`` reads the lift table.  The curve and its filling are rebuilt on tuples, apart
from the integer strand kernel of ``tcurve_lab.sweep`` and its lift
table: midpoints of G(S) from the gluing of each boundary segment
(``midpoint_node``), components by walking the adjacency of the negative
dual edges, twist bits by the arc pairings at each midpoint, and
boundary circles, orientability and shadows by tracing tuple strand
states, each component a tuple of nodes.
The lattice points are listed by locating every point of the bounding
box against the ring (``lattice_points_by_box``), where
``Polygon.lattice_points`` scans columns.
G(Pi) and G(S) are found connected by walking the lifted triangles
(``lifted_triangle_components``), where ``incidence_graphs`` joins the
triangles of one copy and then the four copies over the gluing.
The regions are also found with one ``find`` per lookup
(``regions_by_find``), where ``TCurve.regions`` joins in two batches, and
D and orientability by the orbits of all 12T strand states, a successor
chosen per state (``trace_by_comprehension``), where the kernel counts
its walks.  The spins come also from a union-find on the double cover
of G(Pi) (``spins_by_double_cover``), where ``thick_y_spins`` tests the
twist parity at each interior point, and a sweep's type-I vectors are
counted by a GF(2) rank (``type_one_count``), where ``run_sweep`` tests
each run.  The picture is also drawn one line string at a time
(``svg_by_lines``).
Only ``component_nodes`` turns a walk into G(S) nodes; ``oriented_nodes``
and ``directed_projection`` read an ``orient_curve`` bit through them.
Only ``walk_states`` turns a walk into its shadow's strand states
(``shadows`` gives every component's, ``surface_left`` a state's side);
the kernel and ``orient_curve`` read them as they walk.
Tests demand exact agreement with the fast paths on every instance.
"""

from itertools import chain, repeat
from operator import eq, ne
from typing import NamedTuple

from .lattice import Point, Polygon, segment_parity
from .surface import (QUADRANTS, AmbientSurface, Quadrant, TopologyClass,
                      glue_offset)
from .filling import TFilling
from .geometry import on_segment, segment_lattice_points
from .errors import check
from .svg import PALETTE, SIGNS, SUB, UNIT
from .sweep import SweepTables, trace_vector
from .tcurve import ComponentClass, TCurve, _midpoint
from .triangulation import Edge, PrimitiveTriangulation
from .uf import join


def reflect(q: Quadrant, p: Point) -> Point:
    return (-p[0] if q[0] else p[0], -p[1] if q[1] else p[1])


def quad_add(a: Quadrant, b: Quadrant) -> Quadrant:
    return ((a[0] + b[0]) & 1, (a[1] + b[1]) & 1)


def point_on_ring(pt: Point, ring: tuple[Point, ...]) -> bool:
    n = len(ring)
    return any(on_segment(pt, ring[i], ring[(i + 1) % n]) for i in range(n))


def point_in_ring(pt: Point, ring: tuple[Point, ...]) -> bool:
    """Even-odd test, exact.  The point must not lie on the ring itself
    (use :func:`point_on_ring` first when that can happen)."""
    px, py = pt
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            # px versus the x-coordinate of the crossing, cross-multiplied
            t = (px - x1) * (y2 - y1) - (py - y1) * (x2 - x1)
            if y2 > y1:
                inside ^= t < 0
            else:
                inside ^= t > 0
    return inside


def locate_in_polygon(pt: Point, ring: tuple[Point, ...]) -> str:
    """Return 'interior', 'boundary' or 'exterior' for a simple ring."""
    if point_on_ring(pt, ring):
        return "boundary"
    return "interior" if point_in_ring(pt, ring) else "exterior"


def lattice_points_by_box(polygon: Polygon) -> tuple:
    """The lattice points of ``polygon``, sorted: every point of the
    bounding box located against every edge, the reference for the column
    scan of ``Polygon.lattice_points``."""
    xs, ys = zip(*polygon.vertices)
    return tuple((x, y) for x in range(min(xs), max(xs) + 1)
                 for y in range(min(ys), max(ys) + 1)
                 if locate_in_polygon((x, y), polygon.vertices) != "exterior")


class UnionFind:
    """Union-find on a dict: any hashable element, added on first use."""

    def __init__(self):
        self.parent = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


class ParityUnionFind:
    """Union-find where each element carries a Z2 offset to its root.

    ``union(x, y, rel)`` enforces parity(x) + parity(y) = rel; it returns
    False when that contradicts earlier constraints (the constraint graph
    has an odd cycle).
    """

    def __init__(self):
        self.parent = {}
        self.offset = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.offset[x] = 0

    def find(self, x):
        self.add(x)
        path = []
        root = x
        while self.parent[root] != root:
            path.append(root)
            root = self.parent[root]
        par = 0
        for node in reversed(path):
            par ^= self.offset[node]
            self.parent[node] = root
            self.offset[node] = par
        return root, self.offset[x]

    def union(self, x, y, rel: int) -> bool:
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == rel
        self.parent[ry] = rx
        self.offset[ry] = px ^ py ^ rel
        return True


def classify_surface_by_cells(polygon: Polygon) -> TopologyClass:
    """Classify the glued surface from an explicit polygon-identification
    cell complex: four faces, one 1-cell per primitive boundary segment
    copy (identified in pairs), 0-cells at boundary lattice points."""
    seg_offset = {}
    base_cycle = []  # directed primitive segments, counterclockwise
    for edge, par in zip(polygon.edges, polygon.edge_segment_parities):
        off = glue_offset(par)
        pts = segment_lattice_points(*edge)
        for p, q in zip(pts, pts[1:]):
            base_cycle.append((p, q))
            seg_offset[frozenset((p, q))] = off
    offsets = boundary_offset(AmbientSurface(polygon))

    def eclass(q, seg):
        off = seg_offset[frozenset(seg)]
        return ("e", min(q, quad_add(q, off)), frozenset(seg))

    vertices = set()
    edges = set()
    # per face: list of (edge class, direction of traversal on the base
    # segment) for the face's own counterclockwise boundary cycle
    face_traversal = {}
    for q in QUADRANTS:
        preserves = (q[0] + q[1]) % 2 == 0  # sigma_q orientation-preserving
        cyc = base_cycle if preserves else [(b, a) for a, b in base_cycle[::-1]]
        tr = []
        for p, r in cyc:
            vertices.add(point_class(offsets, q, p))
            edges.add(eclass(q, (p, r)))
            tr.append((eclass(q, (p, r)), (p, r)))
        face_traversal[q] = tr

    chi_total = len(vertices) - len(edges) + 4

    # connectivity and orientability via faces
    conn = UnionFind()
    spin = ParityUnionFind()
    incid = {}
    for q in QUADRANTS:
        conn.add(q)
        spin.add(q)
        for ec, direction in face_traversal[q]:
            incid.setdefault(ec, []).append((q, direction))
    orientable_all = True
    for ec, uses in sorted(incid.items()):
        assert len(uses) == 2, "every boundary segment copy is glued to one other"
        (q1, d1), (q2, d2) = uses
        assert q1 != q2
        conn.union(q1, q2)
        # compatible orientations traverse the shared segment oppositely
        rel = 0 if d1 == (d2[1], d2[0]) else 1
        if not spin.union(q1, q2, rel):
            orientable_all = False

    groups = conn.groups()
    n_comp = len(groups)
    if n_comp == 2:
        assert chi_total == 4, "two components must both be spheres"
        return TopologyClass(2, True, 0, None, 4, "two spheres")
    assert n_comp == 1
    return TopologyClass.connected(chi_total, orientable_all)


# ---------------------------------------------------------------------------

def classify_filling_by_cells(filling: TFilling):
    """(euler characteristic, boundary circles, orientable) of the filling
    built as hexagonal disks with end-segment identifications.

    Each thick-Y becomes a hexagon with two corners and a midpoint per
    prong; interior gluings identify end halves by x -> eps*x, folds
    identify the two halves of one end with each other.
    """
    tri = filling.tri

    vuf = UnionFind()
    euf = UnionFind()

    def corner(t, k, s):
        return ("c", t, k, s)

    def emid(t, k):
        return ("m", t, k)

    def ehalf(t, k, s):
        return ("h", t, k, s)

    def flank(t, k):
        return ("f", t, k)

    all_v = []
    all_e = []
    for t in tri.triangles:
        for k in range(3):
            all_v += [corner(t, k, 1), corner(t, k, -1), emid(t, k)]
            all_e += [ehalf(t, k, 1), ehalf(t, k, -1), flank(t, k)]
    for x in all_v:
        vuf.add(x)
    for x in all_e:
        euf.add(x)

    slot_of = {t: {e: i for i, e in enumerate(tri.slots[t])}
               for t in tri.triangles}
    on_edge = edge_triangles(tri)
    for e, twisted in filling.twists.items():
        t1, t2 = on_edge[e]
        k1, k2 = slot_of[t1][e], slot_of[t2][e]
        eps = 1 if twisted else -1
        vuf.union(emid(t1, k1), emid(t2, k2))
        for s in (1, -1):
            vuf.union(corner(t1, k1, s), corner(t2, k2, eps * s))
            euf.union(ehalf(t1, k1, s), ehalf(t2, k2, eps * s))
    for e in filling.folds:
        (t,) = on_edge[e]
        k = slot_of[t][e]
        vuf.union(corner(t, k, 1), corner(t, k, -1))
        euf.union(ehalf(t, k, 1), ehalf(t, k, -1))

    n_v = len({vuf.find(x) for x in all_v})
    n_e = len({euf.find(x) for x in all_e})
    chi = n_v - n_e + tri.T

    # boundary circles: flank edges joined at corner classes
    corner_flanks = {}
    for t in tri.triangles:
        for k in range(3):
            # flank k runs from corner (k,-1) to corner (k+1,+1)
            for c in (corner(t, k, -1), corner(t, (k + 1) % 3, 1)):
                corner_flanks.setdefault(vuf.find(c), []).append(flank(t, k))
    buf = UnionFind()
    for t in tri.triangles:
        for k in range(3):
            buf.add(flank(t, k))
    for c, flanks in corner_flanks.items():
        assert len(flanks) == 2, "boundary corners join exactly two flanks"
        buf.union(flanks[0], flanks[1])
    boundary_circles = len(buf.groups())

    # orientability: every face traverses its hexagon counterclockwise;
    # an interior 1-cell must be traversed once in each direction, where
    # a face's two traversals of a folded half count with their own
    # directions.  Directions are tracked on the class representative of
    # each half-edge, oriented from its midpoint to its corner.
    spin = ParityUnionFind()
    for t in tri.triangles:
        spin.add(t)
    uses = {}
    for t in tri.triangles:
        for k in range(3):
            # counterclockwise hexagon: corner(k,+1) -> emid(k) ->
            # corner(k,-1) -> flank -> corner(k+1,+1) ...
            uses.setdefault(euf.find(ehalf(t, k, 1)), []).append((t, -1))
            uses.setdefault(euf.find(ehalf(t, k, -1)), []).append((t, +1))
    orientable = True
    for cls, lst in sorted(uses.items()):
        assert len(lst) == 2
        (t1, d1), (t2, d2) = lst
        if t1 == t2:
            # a fold: the face passes the cell twice; opposite directions
            # mean no constraint, equal directions would be a conflict
            if d1 == d2:
                orientable = False
            continue
        # need directions opposite once spins are applied
        rel = 0 if d1 != d2 else 1
        if not spin.union(t1, t2, rel):
            orientable = False
    return chi, boundary_circles, orientable


# ---------------------------------------------------------------------------

def component_nodes(curve: TCurve, walk: list) -> tuple:
    """The G(S) nodes of the component of ``curve`` with ``walk``, ("b",
    quadrant, triangle) and ("m", quadrant, edge), from its smallest node,
    smaller neighbor first: visit v of the walk at node 2v."""
    tab, tri = curve.tables, curve.tri
    T3, E = 3 * tab.T, tab.E
    out = []
    for u, u_next in zip(walk, walk[1:] + walk[:1]):
        m_q, e = divmod(_midpoint(tab, u_next), E)
        out += (("b", QUADRANTS[u // T3], tri.triangles[u % T3 // 3]),
                ("m", QUADRANTS[m_q], tri.edges[e]))
    return tuple(out)


def oriented_nodes(curve: TCurve, walk: list, along: int) -> tuple:
    """The nodes of the component with ``walk`` in the direction of its
    ``orient_curve`` bit: along the walk, or else backward from the same
    first node."""
    nodes = component_nodes(curve, walk)
    return nodes if along else nodes[:1] + nodes[:0:-1]


def directed_projection(nodes: tuple) -> tuple:
    """Directed downstairs half-edges (barycenter/midpoint pairs) in the
    traversal order of the oriented cycle ``nodes``."""
    return tuple((a[:1] + a[2:], b[:1] + b[2:])
                 for a, b in zip(nodes, nodes[1:] + nodes[:1]))


def walk_states(tab: SweepTables, walk) -> list:
    """The strand states beside ``walk``, in and out of each lifted
    triangle it visits: the exit prong of a visit is the one across the
    next entry, and the walk turns to the next prong (strand -1 in, +1
    out) or the previous one (the reverse).  The kernel has checked that
    they form one orbit of the run's strand transitions."""
    across, nxt, T3 = tab.across, tab.nxt, 3 * tab.T
    out = []
    for u, u_next in zip(walk, walk[1:] + walk[:1]):
        w = across[u_next]
        turn = w == nxt[u]
        out += (4 * (u % T3) + 3 - 2 * turn, 4 * (w % T3) + 2 * turn)
    return out


def shadows(curve: TCurve) -> tuple:
    """Per component of ``curve``, in order: the ribbon-boundary strand
    states beside it (``walk_states``), in the direction of its walk."""
    return tuple(walk_states(curve.tables, walk) for walk in curve.components)


def surface_left(x: int) -> int:
    """1 when strand state ``x`` walks with the thick-Y's own planar
    orientation on its left (out on strand +1 or in on strand -1)."""
    return (x ^ x >> 1) & 1


def node_coords6(q, node) -> tuple:
    """Planar coordinates of a G(S) node scaled by 6, in the frame of
    quadrant q (a boundary midpoint's label may name the other side)."""
    if node[0] == "b":
        (a, b), (c, d), (e, f) = node[2]
        return reflect(q, (2 * (a + c + e), 2 * (b + d + f)))
    (a, b), (c, d) = node[2]
    return reflect(q, (3 * (a + c), 3 * (b + d)))


def classify_components_by_nesting(curve: TCurve) -> dict:
    """Component number -> ComponentClass from the nodes of each component,
    the primitive segments of the broken edges and planar geometry, sharing
    nothing with ``TCurve.regions``.  A component is an in-quadrant oval
    when none of its midpoints lies on a broken edge; each oval is drawn
    as the polyline of its nodes, an oval lies inside another when its
    first node does (exact point-in-ring test), and its sign is the one
    sign of the lattice points inside it but outside the ovals it
    contains.  Every other component gets the parities of its midpoints on
    the broken edges of the homology basis, which on the projective plane
    tell whether it is trivial."""
    surface = curve.surface
    segments = [frozenset(tuple(sorted(s)) for s in b.primitive_segments)
                for b in surface.broken_edges]
    topo = classify_surface_by_cells(surface.polygon)
    basis = surface.homology_basis() if surface.r >= 3 else None
    by_quadrant: dict = {}
    result = {}
    nodes = [component_nodes(curve, walk) for walk in curve.components]
    for k, cycle in enumerate(nodes):
        mids = [m[2] for m in cycle[1::2]]
        vector = None if basis is None else \
            tuple(sum(m in segments[j] for m in mids) % 2 for j in basis)
        if not any(m in segs for segs in segments for m in mids):
            (q,) = {n[1] for n in cycle}  # it stays in one quadrant
            by_quadrant.setdefault(q, []).append(k)
        elif topo.components == 1 and topo.crosscaps == 1:
            kind = "nontrivial_rp2" if vector == (1,) else "oval_rp2"
            result[k] = ComponentClass(kind, crossing_vector=vector)
        else:
            result[k] = ComponentClass("boundary", crossing_vector=vector)
    rings = {k: tuple(node_coords6(n[1], n) for n in nodes[k])
             for ovals in by_quadrant.values() for k in ovals}
    for q, ovals in by_quadrant.items():
        contains = {a: {b for b in ovals
                        if b != a and point_in_ring(rings[b][0], rings[a])}
                    for a in ovals}
        for k in ovals:
            depth = sum(1 for other in ovals if k in contains[other])
            inner = []
            for p in surface.polygon.lattice_points:
                sp = reflect(q, (6 * p[0], 6 * p[1]))
                if point_in_ring(sp, rings[k]) and \
                        not any(point_in_ring(sp, rings[c]) for c in contains[k]):
                    inner.append(p)
            assert inner, "an oval surrounds at least one lattice point"
            signs = {copy_sign(curve.delta, q, p) for p in inner}
            assert len(signs) == 1, "the sign of an oval is well defined"
            result[k] = ComponentClass("oval", quadrant=q,
                                       sign=signs.pop(), depth=depth)
    return result


def boundary_offset(surface: AmbientSurface) -> dict:
    """Map boundary lattice point -> gluing offset, or None at the odd
    vertices where all four copies merge: the gluing point by point, from
    the polygon's edges rather than the lift table."""
    out = {}
    polygon = surface.polygon
    odd = {polygon.vertices[i] for i in polygon.odd_vertex_indices}
    for edge, par in zip(polygon.edges, polygon.edge_segment_parities):
        off = glue_offset(par)
        for p in segment_lattice_points(*edge):
            if p in odd:
                out[p] = None
            elif p in out:
                check(out[p] == off, "even vertex joins equal-parity edges")
            else:
                out[p] = off
    return out


def point_class(offsets: dict, q: Quadrant, p: Point) -> tuple:
    """Canonical orbit of the copy of p in quadrant q, as sorted (quadrant,
    point) pairs; ``offsets`` is ``boundary_offset(surface)``."""
    if p not in offsets:
        return ((q, p),)
    off = offsets[p]
    if off is None:
        return tuple((qq, p) for qq in QUADRANTS)
    return tuple(sorted(((q, p), (quad_add(q, off), p))))


def sides_by_split(curve: TCurve, k: int) -> dict:
    """Split the surface along component k: side (frozenset of surface
    point classes) -> Euler characteristic of its closure, counted cell by
    cell.  A union-find over point classes joins the ends of every lifted
    edge that k does not cross; the sets touching k are its sides, one
    when it does not separate and two when it does."""
    surface, tri = curve.surface, curve.tri
    # its midpoints
    crossed = {(m[1], m[2])
               for m in component_nodes(curve, curve.components[k])[1::2]}
    offsets = boundary_offset(surface)

    def mid(q, e):
        return midpoint_node(surface, tri, q, e)[1:]

    def pclass(q, p):
        return point_class(offsets, q, p)

    uf = UnionFind()
    for q in QUADRANTS:
        for p in surface.polygon.lattice_points:
            uf.add(pclass(q, p))
        for e in tri.edges:
            if mid(q, e) not in crossed:
                uf.union(pclass(q, e[0]), pclass(q, e[1]))
    groups = uf.groups()
    out = {}
    for side in {uf.find(pclass(q, p)) for q, e in crossed for p in e}:
        v = len(groups[side]) + len(crossed)  # plus a copy of each crossing midpoint
        e_count = len(crossed)                # half of each crossed edge
        f = 0
        for q in QUADRANTS:
            for t in tri.triangles:
                cut = sum(1 for e in tri.slots[t] if mid(q, e) in crossed)
                check(cut in (0, 2), "a component crosses 0 or 2 edges of a triangle")
                if cut:  # its arc and one of its two pieces
                    e_count, f = e_count + 1, f + 1
                elif uf.find(pclass(q, t[0])) == side:
                    f += 1
            for e in tri.edges:  # identified boundary edges count once
                if mid(q, e)[0] == q and mid(q, e) not in crossed and \
                        uf.find(pclass(q, e[0])) == side:
                    e_count += 1
        out[frozenset(groups[side])] = v - e_count + f
    return out


# ---------------------------------------------------------------------------
# the curve and its filling on tuple nodes and tuple strand states, the
# references for the strand kernel of ``tcurve_lab.sweep``

def _normalize_cycle(nodes: list) -> tuple:
    """The cycle from its smallest node, smaller neighbor first."""
    k = nodes.index(min(nodes))
    rot = nodes[k:] + nodes[:k]
    if rot[-1] < rot[1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def visits(nodes: tuple) -> list:
    """Barycenter passages as (quad, tri, in_edge, out_edge), in cycle
    order: the smallest node is a barycenter, so visit v is node 2v."""
    return [(nodes[i][1], nodes[i][2], nodes[i - 1][2],
             nodes[(i + 1) % len(nodes)][2]) for i in range(0, len(nodes), 2)]


def translated_components(curve: TCurve, vec) -> list:
    """The nodes of each component of ``curve`` translated by ``vec``, which
    keeps the order of points: the translated problem's components."""
    s, t = vec
    return [tuple(n[:2] + (tuple((x + s, y + t) for x, y in n[2]),)
                  for n in component_nodes(curve, walk))
            for walk in curve.components]


def edge_triangles(tri: PrimitiveTriangulation) -> dict:
    """Edge -> the triangles that have it, in triangle order."""
    out: dict = {}
    for t, edges in tri.slots.items():
        for e in edges:
            out.setdefault(e, []).append(t)
    return out


def midpoint_node(surface: AmbientSurface, tri: PrimitiveTriangulation,
                  q: Quadrant, e: Edge) -> tuple:
    """The midpoint node ("m", q', e) of G(S) on the lift of edge e to
    quadrant q: the two copies of a boundary segment that the gluing
    identifies share one, labelled by the smaller quadrant."""
    if e in tri.boundary_edges:
        q = min(q, quad_add(q, glue_offset(segment_parity(*e))))
    return ("m", q, e)


def lifted_triangle_components(across: list, n: int) -> int:
    """The components of the graph on lifted triangles 0..n-1 that joins
    x to w // 3 for each prong w = across[3x + k] below 3n, found by a
    walk from each unreached triangle.  With n = 4T and the ``across`` of
    a lift table this is G(S); with n = T it is G(Pi), the copy in
    quadrant 0, whose prongs across a boundary midpoint leave it."""
    seen = bytearray(n)
    count = 0
    for x0 in range(n):
        if seen[x0]:
            continue
        count += 1
        seen[x0], stack = 1, [x0]
        while stack:
            x = stack.pop()
            for w in across[3 * x:3 * x + 3]:
                if w < 3 * n and not seen[w // 3]:
                    seen[w // 3] = 1
                    stack.append(w // 3)
    return count


def midpoint_nodes(surface: AmbientSurface, tri: PrimitiveTriangulation) -> dict:
    """(quadrant, edge) -> ``midpoint_node`` for every lifted edge."""
    return {(q, e): midpoint_node(surface, tri, q, e)
            for q in QUADRANTS for e in tri.edges}


def copy_sign(delta: dict, q: Quadrant, p: Point) -> int:
    """The sign of the copy of ``p`` in quadrant ``q``: delta(p), negated
    when <q, parity of p> is odd.  ``TCurve.copy_signs`` states it apart."""
    (a, b), (x, y) = q, p
    return -delta[p] if (a * x + b * y) % 2 else delta[p]


def edge_signs(mid: dict, delta: dict) -> dict:
    """Signs of the edges of the lifted triangulation, keyed by midpoint
    node (``mid`` is ``midpoint_nodes``): the sign of lift (q, e) is the
    product of its endpoint signs in quadrant q."""
    out: dict = {}
    for (q, (p, r)), m in mid.items():
        s = copy_sign(delta, q, p) * copy_sign(delta, q, r)
        # identified boundary copies carry equal signs
        check(out.setdefault(m, s) == s, "edge sign must descend to the surface")
    return out


def components_by_adjacency(tri: PrimitiveTriangulation, mid: dict,
                            delta: dict) -> tuple:
    """The curve's components, sorted, by walking the adjacency of the
    negative dual edges on G(S); ``mid`` is ``midpoint_nodes``."""
    sign = edge_signs(mid, delta)
    adj: dict = {}
    neg_per_downstairs: dict = {}
    for q in QUADRANTS:
        for t in tri.triangles:
            neg = [mid[(q, e)] for e in tri.slots[t] if sign[mid[(q, e)]] < 0]
            check(len(neg) in (0, 2), f"triangle {q}:{t} has {len(neg)} negative edges")
            for m in neg:
                neg_per_downstairs[(t, m[2])] = neg_per_downstairs.get((t, m[2]), 0) + 1
                adj.setdefault(("b", q, t), []).append(m)
                adj.setdefault(m, []).append(("b", q, t))
    # exactly two of the four lifts of every downstairs edge are negative
    check(all(neg_per_downstairs.get((t, e), 0) == 2
              for t in tri.triangles for e in tri.slots[t]),
          "a downstairs edge lacks exactly two negative lifts")
    check(all(len(nbrs) == 2 for nbrs in adj.values()), "curve nodes have degree 2")
    seen = set()
    cycles = []
    for start in sorted(adj):
        if start in seen:
            continue
        prev, cur = None, start
        cyc = []
        while True:
            cyc.append(cur)
            seen.add(cur)
            a, b = adj[cur]
            nxt = b if a == prev else a if b == prev else min(a, b)
            prev, cur = cur, nxt
            if cur == start:
                break
        cycles.append(_normalize_cycle(cyc))
    return tuple(sorted(cycles))


def twists_by_arc_pairing(tri: PrimitiveTriangulation, mid: dict,
                          components) -> tuple[dict, frozenset]:
    """(twists, folds) of the filling: an interior edge is twisted when the
    curve runs on into matching prongs of its two triangles at its
    negative lifts; every boundary edge, a U-turn of the curve, is folded.
    ``mid`` is ``midpoint_nodes``."""
    # arc pairing at every midpoint the curve passes through: each
    # neighboring barycenter with the curve's other edge there, the edge of
    # the midpoint two steps on
    pairings: dict = {}
    for nodes in components:
        n = len(nodes)
        for i, node in enumerate(nodes):
            if node[0] == "m":
                pairings[node] = ((nodes[i - 1], nodes[i - 2][2]),
                                  (nodes[(i + 1) % n], nodes[(i + 2) % n][2]))
    twists: dict = {}
    on_edge = edge_triangles(tri)
    for e in tri.edges:
        if e in tri.boundary_edges:
            continue
        t_a, t_b = sorted(on_edge[e])
        readings = []
        for q in QUADRANTS:
            if mid[(q, e)] in pairings:
                (b1, o1), (b2, o2) = pairings[mid[(q, e)]]
                sides = {b1[2]: o1, b2[2]: o2}
                check(set(sides) == {t_a, t_b}, "interior edge joins its two triangles")
                # where the curve runs on after e: 1 = next prong, 2 = previous
                readings.append(tuple((tri.slots[t].index(sides[t])
                                       - tri.slots[t].index(e)) % 3
                                      for t in (t_a, t_b)))
        readings = sorted(set(readings))
        check(len(readings) == 2 and {r[0] for r in readings} == {1, 2}
              and {r[1] for r in readings} == {1, 2}, f"edge {e}: pairings {readings}")
        (i1, j1), (i2, j2) = readings
        check((i1 == j1) == (i2 == j2), f"edge {e}: pairings {readings}")
        twists[e] = i1 == j1  # matched slots = glued with a twist
    for e in tri.boundary_edges:
        passed = [m for m in {mid[(q, e)] for q in QUADRANTS} if m in pairings]
        check(len(passed) == 1, "one negative lift per boundary edge")
        (b1, _), (b2, _) = pairings[passed[0]]
        check(b1[2] == b2[2], "the projected curve U-turns at the boundary")
    return twists, tri.boundary_edges


def strands_by_tuples(tri: PrimitiveTriangulation, twists: dict, folds,
                      components) -> tuple[int, bool, dict]:
    """(D, orientable, shadows) of the filling with these twists and folds.

    A state (t, k, s, d) walks prong k of triangle t on the ribbon-boundary
    strand s (+1 or -1), heading 'out' toward the end of the prong or 'in'
    toward the center of the thick-Y.  The boundary circles are the orbit
    pairs of the strand transitions, orientability comes from parity
    constraints between the thick-Ys, and the shadow of a component
    (component -> its states, two per barycenter passage from ``visits``)
    is the strand that runs beside it, one boundary circle per component."""
    on_edge = edge_triangles(tri)

    def next_state(state):
        t, k, s, d = state
        slots = tri.slots[t]
        if d == "out":
            e = slots[k]
            if e in folds:
                return (t, k, -s, "in")
            t_a, t_b = on_edge[e]
            t2 = t_b if t_a == t else t_a
            return (t2, tri.slots[t2].index(e), s if twists[e] else -s, "in")
        if s == -1:
            return (t, (k + 1) % 3, 1, "out")
        return (t, (k - 1) % 3, -1, "out")

    orbit_of: dict = {}
    count = 0
    for st in [(t, k, s, "out") for t in tri.triangles for k in range(3)
               for s in (-1, 1)]:
        for start in (st, st[:3] + ("in",)):
            if start in orbit_of:
                continue
            cur = start
            while cur not in orbit_of:
                orbit_of[cur] = count
                cur = next_state(cur)
            check(cur == start, "boundary transitions must permute the states")
            count += 1
        check(orbit_of[st] != orbit_of[st[:3] + ("in",)],
              "a boundary circle cannot reverse onto itself")

    shadows = {}
    circles = set()
    for comp in components:
        seq = []
        for q, t, e_in, e_out in visits(comp):
            k_in, k_out = tri.slots[t].index(e_in), tri.slots[t].index(e_out)
            s_in = -1 if k_out == (k_in + 1) % 3 else 1
            check(k_out == (k_in - s_in) % 3, "a component leaves a triangle by another edge")
            seq += [(t, k_in, s_in, "in"), (t, k_out, -s_in, "out")]
        check(all(next_state(st) == seq[(i + 1) % len(seq)] for i, st in enumerate(seq)),
              "shadow must follow the boundary transitions")
        k = orbit_of[seq[0]]
        k_reverse = orbit_of[seq[0][:3] + ("out",)]
        check(frozenset((k, k_reverse)) not in circles, "one boundary circle per component")
        circles.add(frozenset((k, k_reverse)))
        shadows[comp] = tuple(seq)
    check(len(circles) * 2 == count, "boundary circles correspond to curve components")

    spin = ParityUnionFind()
    for t in tri.triangles:
        spin.add(t)
    # no twist: the planar orientations agree; twist: they oppose
    orientable = all(spin.union(*on_edge[e], 1 if twisted else 0)
                     for e, twisted in sorted(twists.items()))
    return count // 2, orientable, shadows


# ---------------------------------------------------------------------------
# the regions and the strand trace, one lookup at a time

def _find(parent: list, x: int) -> int:
    """The root of ``x`` in the integer forest ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class RegionsByFind(NamedTuple):
    first_copy: list
    region_of: list
    count: int
    sides: list
    crossings: dict
    ovals: dict


def regions_by_find(curve: TCurve) -> RegionsByFind:
    """What ``TCurve.regions`` computes, with a ``find`` for each end of
    each merged lift and of each lifted edge in turn, where ``Regions``
    joins them in two batches (``uf.join``): the copies glued by the lift
    table, then the ends of every lifted edge whose midpoint no component
    crosses.  Regions are numbered by their first copy; a component's side
    pair is the sorted set of the regions at the ends of each edge it
    crosses."""
    polygon, tab = curve.surface.polygon, curve.tables
    V, E, T3, edge_class = tab.V, tab.E, 3 * tab.T, tab.edge_class
    first = list(range(4 * V))
    for x, c in zip(tab.merged, tab.canonical):
        for i, j in zip(tab.edge_ends[x % E], tab.edge_ends[c % E]):
            a, b = _find(first, x // E * V + i), _find(first, c // E * V + j)
            first[max(a, b)] = min(a, b)  # the smallest copy is the root
    first_copy = [_find(first, x) for x in range(4 * V)]
    copies = [0] * (4 * V)
    for f in first_copy:
        copies[f] += 1
    odd = {polygon.vertices[k] for k in polygon.odd_vertex_indices}
    bd = polygon.boundary_points
    want = [4 if p in odd else 2 if p in bd else 1
            for p in polygon.lattice_points]
    check(all(copies[f] == want[x % V] for x, f in enumerate(first_copy)),
          "a surface point has 1 copy inside, 2 on the boundary and 4 "
          "at an odd vertex")
    parent = list(first_copy)
    # per midpoint: the component that crosses it, if any
    crossing = [None] * (4 * E)
    slots, broken, r = tab.slots, curve.tri.broken_edge_of, curve.surface.r
    crossings, ovals = {}, {}
    for k, walk in enumerate(curve.components):
        count, quadrants = [0] * (r + 1), 0
        for u in walk:
            q, s = divmod(u, T3)
            e = slots[s]
            crossing[edge_class[q * E + e]] = k
            count[broken[e]] += 1  # the last entry: off the boundary
            quadrants |= 1 << q
        if count[r] < len(walk):
            crossings[k] = tuple(count[:r])
        else:
            check(quadrants & quadrants - 1 == 0,
                  "an interior component stays in one quadrant")
            ovals[k] = QUADRANTS[quadrants.bit_length() - 1]
    crossed = []
    for q in range(4):
        for e, (i, j) in enumerate(tab.edge_ends):
            x, y = q * V + i, q * V + j
            k = crossing[edge_class[q * E + e]]
            if k is None:
                parent[_find(parent, x)] = _find(parent, y)
            else:
                crossed.append((k, x, y))
    label: dict = {}
    region = [label.setdefault(_find(parent, x), len(label))
              for x in range(len(parent))]
    pairs: list = [None] * len(curve.components)
    for k, x, y in crossed:
        pair = tuple(sorted({region[x], region[y]}))
        check(pairs[k] in (None, pair),
              "a component borders the same regions on every edge it crosses")
        pairs[k] = pair
    return RegionsByFind(first_copy, region, len(label), pairs, crossings, ovals)


def trace_by_comprehension(tab: SweepTables, tw) -> int:
    """2 D + 1 when orientable, for the kernel run's (D, orientable) under
    twist bits ``tw``: D as half the orbits of the strand permutation (the
    untwisted successor, with an 'out' state's landing swapped for its
    prong's other one where the edge is twisted), where the kernel counts
    its walks; orientability from a ``ParityUnionFind`` over the
    triangles, where the filling reads ``thick_y_spins``."""
    succ, slots = tab.succ, tab.slots
    n = 12 * tab.T
    perm = [succ[x ^ 2] if tw[slots[x >> 2]] and not x & 1 else succ[x]
            for x in range(n)]
    orbit = [-1] * n
    count = 0
    for x in range(n):
        if orbit[x] >= 0:
            continue
        y = x
        while orbit[y] < 0:
            orbit[y] = count
            y = perm[y]
        check(y == x, "boundary transitions must permute the states")
        count += 1
    check(all(orbit[x] != orbit[x + 1] for x in range(0, n, 2)),
          "a boundary circle cannot reverse onto itself")
    check(count % 2 == 0, "boundary circles come in orbit pairs")
    spins = ParityUnionFind()
    return count + all(spins.union(s_a // 3, s_b // 3, tw[e])
                       for e, s_a, s_b in tab.interior)


def spins_by_double_cover(tab: SweepTables, tw) -> bytes | None:
    """What ``thick_y_spins`` gives, by a union-find on the double cover
    of G(Pi), where node 2t + o is triangle t with relative orientation o
    and each interior edge joins its two triangles with or without a swap
    by its twist bit: None when some 2t and 2t + 1 meet, where
    ``thick_y_spins`` tests the twist parity at each interior point."""
    ends = ((s_a // 3 * 2, s_b // 3 * 2 + tw[e]) for e, s_a, s_b in tab.interior)
    root = join(list(range(2 * tab.T)), chain.from_iterable(
        ((a, b), (a + 1, b ^ 1)) for a, b in ends))
    if any(map(eq, root[::2], root[1::2])):
        return None
    return bytes(map(ne, root[::2], repeat(root[0])))


def type_one_count(tab: SweepTables) -> int:
    """The number of the 2^V sign vectors whose filling is orientable, by
    linear algebra over GF(2) (ROADMAP item 11).  The twist vector is
    affine in the mask, tw(m) = tw(0) + M m, and orientable exactly when
    it is a coboundary, in C = the span of the T single-triangle
    coboundaries (each thick-Y's interior edges).  So the type-I masks are
    empty or a coset of the kernel of M mod C: 2^(V - rank(M mod C)), or 0
    when tw(0) is not in C + im M.  Rows are ints, one byte per edge as
    in the kernel; M's columns come from ``trace_vector`` on each mask
    1 << j."""
    pivots: dict = {}  # leading bit -> row

    def reduce(row: int) -> int:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        return row

    def add(row: int) -> None:
        row = reduce(row)
        if row:
            pivots[row.bit_length()] = row

    coboundary = [0] * tab.T
    for e, s_a, s_b in tab.interior:
        coboundary[s_a // 3] ^= 1 << 8 * e
        coboundary[s_b // 3] ^= 1 << 8 * e
    for row in coboundary:
        add(row)
    rank_c = len(pivots)
    tw0 = int.from_bytes(trace_vector(tab, 0).tw, "little")
    for j in range(tab.V):
        add(int.from_bytes(trace_vector(tab, 1 << j).tw, "little") ^ tw0)
    if reduce(tw0):
        return 0
    return 1 << (tab.V - (len(pivots) - rank_c))


# ---------------------------------------------------------------------------
# the picture, one line at a time

def svg_by_lines(curve: TCurve) -> str:
    """What ``svg.render_svg`` writes, one line string at a time, all of
    them joined at the end, each point sign from ``copy_sign``, where
    ``render_svg`` joins each section when it is done and reads the point
    signs off ``TCurve.copy_signs``."""
    polygon, tri, tab = curve.surface.polygon, curve.tri, curve.tables
    pts = polygon.lattice_points
    xs = [v[0] for v in polygon.vertices]
    ys = [v[1] for v in polygon.vertices]
    span_x, span_y = max(xs), max(ys)
    pad = UNIT
    w = 2 * span_x * UNIT + 2 * pad
    h = 2 * span_y * UNIT + 2 * pad
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="{-span_x * UNIT - pad} {-span_y * UNIT - pad} {w} {h}">',
        f'<rect x="{-span_x * UNIT - pad}" y="{-span_y * UNIT - pad}" '
        f'width="{w}" height="{h}" fill="white"/>',
    ]
    # pixel coordinates in quadrant (0,0); quadrant q multiplies them by
    # the signs SIGNS[q], which the y axis turns downward
    X, Y = [UNIT * x for x, _ in pts], [-UNIT * y for _, y in pts]

    # triangulation edges, all four copies
    out.append('<g stroke="#c8c8c8" stroke-width="1">')
    for sx, sy in SIGNS:
        for i, j in tri.edge_ends:
            out.append(f'<line x1="{sx * X[i]}" y1="{sy * Y[i]}" '
                       f'x2="{sx * X[j]}" y2="{sy * Y[j]}"/>')
    out.append('</g>')

    # quadrant outlines
    out.append('<g fill="none" stroke="#555555" stroke-width="2">')
    for sx, sy in SIGNS:
        corners = " ".join(f"{sx * UNIT * x},{-sy * UNIT * y}"
                           for x, y in polygon.vertices)
        out.append(f'<polygon points="{corners}"/>')
    out.append('</g>')

    # curve cycles: bold polylines through barycenters and midpoints.  A
    # visit runs from the barycenter of its lifted triangle to the midpoint
    # that the next visit enters by, and that visit on from there, each in
    # the frame of its own quadrant.  In sixths of a unit, a midpoint is 3
    # times the sum of its edge's ends, a barycenter that sum over its
    # triangle's three edges
    ex = [pts[i][0] + pts[j][0] for i, j in tri.edge_ends]
    ey = [pts[i][1] + pts[j][1] for i, j in tri.edge_ends]
    mx, my = [3 * SUB * x for x in ex], [-3 * SUB * y for y in ey]
    slots, T3 = tab.slots, 3 * tab.T
    by_t = list(zip(slots[::3], slots[1::3], slots[2::3]))
    bx = [SUB * (ex[a] + ex[b] + ex[c]) for a, b, c in by_t]
    by = [-SUB * (ey[a] + ey[b] + ey[c]) for a, b, c in by_t]
    for idx, walk in enumerate(curve.components):
        color = PALETTE[idx % len(PALETTE)]
        out.append(f'<g fill="none" stroke="{color}" stroke-width="4" '
                   'stroke-linecap="round">')
        for u, u_next in zip(walk, walk[1:] + walk[:1]):
            (sx, sy), t = SIGNS[u // T3], u % T3 // 3
            (nx, ny), s = SIGNS[u_next // T3], u_next % T3
            e = slots[s]
            out.append(f'<line x1="{sx * bx[t]}" y1="{sy * by[t]}" '
                       f'x2="{sx * mx[e]}" y2="{sy * my[e]}"/>')
            out.append(f'<line x1="{nx * mx[e]}" y1="{ny * my[e]}" '
                       f'x2="{nx * bx[s // 3]}" y2="{ny * by[s // 3]}"/>')
        out.append('</g>')

    # lattice point signs: filled disc is +, open circle is -
    out.append('<g stroke="black" stroke-width="1">')
    for q, (sx, sy) in zip(QUADRANTS, SIGNS):
        for i, p in enumerate(pts):
            fill = "black" if copy_sign(curve.delta, q, p) > 0 else "white"
            out.append(f'<circle cx="{sx * X[i]}" cy="{sy * Y[i]}" r="4" '
                       f'fill="{fill}"/>')
    out += ('</g>', '</svg>', '')
    return "\n".join(out)
