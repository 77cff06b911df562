"""T-curves: sign distributions, extraction, classification, censuses.

A sign distribution on the lattice points of the polygon extends to all
four quadrant copies by delta(sigma_{a,b} p) = (-1)^{<(a,b), parity p>}
delta(p).  Every edge of the lifted triangulation gets the product of
its endpoint signs; edge signs agree across the boundary identification
(point signs need not).  Exactly two of the four lifts of any downstairs
edge are negative, so the negative dual edges upstairs form disjoint
cycles covering every downstairs incidence-graph edge twice: the curve.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import (IncompleteDistribution, LeavesNonnegativeQuadrant,
                     WrongPolygon)
from .geometry import point_in_ring
from .lattice import (Point, Polygon, is_standard_triangle, pairing,
                      point_parity, validate_polygon)
from .surface import (QUADRANTS, AmbientSurface, Quadrant,
                      build_ambient_surface, reflect, vec_mat)
from .triangulation import (Edge, IncidencePair, PrimitiveTriangulation,
                            edge_key, incidence_graphs, midpoint_node,
                            validate_primitive_triangulation)
from .uf import UnionFind

Sign = int  # +1 or -1
HarnackType = tuple[int, int, int]  # (c, a, b)


def check_distribution(polygon: Polygon, delta: dict) -> dict:
    pts = set(polygon.lattice_points)
    d = {tuple(p): int(v) for p, v in delta.items()}
    missing = pts - set(d)
    if missing:
        raise IncompleteDistribution(f"no sign for {sorted(missing)[0]}")
    extra = set(d) - pts
    if extra:
        raise IncompleteDistribution(f"sign given for non-lattice point {sorted(extra)[0]}")
    if any(v not in (1, -1) for v in d.values()):
        raise IncompleteDistribution("signs must be +1 or -1")
    return d


class ExtendedSigns:
    """Signs on all four quadrant copies of the lattice points.

    The values live on the disjoint union of the copies; only edge signs
    descend to the glued surface.
    """

    def __init__(self, delta: dict, surface: AmbientSurface):
        self.surface = surface
        self.delta = check_distribution(surface.polygon, delta)
        self.values = {
            (q, p): v * (-1) ** pairing(q, point_parity(p))
            for p, v in self.delta.items()
            for q in QUADRANTS
        }

    def value(self, q: Quadrant, p: Point) -> Sign:
        return self.values[(q, p)]


def extend_signs(delta: dict, surface: AmbientSurface) -> ExtendedSigns:
    return ExtendedSigns(delta, surface)


def edge_signs(surface: AmbientSurface, tri: PrimitiveTriangulation,
               ext: ExtendedSigns) -> dict:
    """Signs of the edges of the lifted triangulation, keyed by surface
    edge class (canonical quadrant, downstairs edge)."""
    out: dict = {}
    for q in QUADRANTS:
        for e in tri.edges:
            p, r = e
            s = ext.value(q, p) * ext.value(q, r)
            key = midpoint_node(surface, tri, q, e)[1:]
            if key in out:
                # identified boundary copies carry equal signs
                assert out[key] == s, "edge sign must descend to the surface"
            else:
                out[key] = s
    # each lifted triangle has 0 or 2 negative edges
    for q in QUADRANTS:
        for t in tri.triangles:
            neg = sum(1 for e in tri.slots[t]
                      if out[midpoint_node(surface, tri, q, e)[1:]] < 0)
            assert neg in (0, 2), f"triangle {q}:{t} has {neg} negative edges"
    return out


@dataclass(frozen=True)
class Component:
    """One cycle of the curve on G(S): nodes alternate barycenters and
    midpoints, normalized to start at the smallest node, smaller neighbor
    first."""
    nodes: tuple

    @cached_property
    def barycenters(self) -> tuple:
        return tuple(n for n in self.nodes if n[0] == "b")

    @cached_property
    def midpoints(self) -> tuple:
        return tuple(n for n in self.nodes if n[0] == "m")

    @cached_property
    def quadrants(self) -> frozenset:
        return frozenset(n[1] for n in self.barycenters)

    def visits(self):
        """Barycenter passages as (quad, tri, in_edge, out_edge), in cycle
        order starting from nodes[0] or nodes[1]."""
        nodes = self.nodes
        n = len(nodes)
        start = 0 if nodes[0][0] == "b" else 1
        out = []
        for i in range(start, n + start, 2):
            b = nodes[i % n]
            m_in = nodes[(i - 1) % n]
            m_out = nodes[(i + 1) % n]
            out.append((b[1], b[2], m_in[2], m_out[2]))
        return out


@dataclass(frozen=True)
class ComponentClass:
    kind: str                      # 'oval' | 'nontrivial_rp2' | 'oval_rp2' | 'boundary'
    quadrant: Quadrant | None = None
    sign: Sign | None = None
    depth: int | None = None
    crossing_vector: tuple | None = None


def node_coords6(node) -> Point:
    """Planar coordinates of a G(S) node scaled by 6, in the frame of the
    node's own quadrant label."""
    if node[0] == "b":
        _, q, t = node
        x = 2 * (t[0][0] + t[1][0] + t[2][0])
        y = 2 * (t[0][1] + t[1][1] + t[2][1])
    else:
        _, q, e = node
        x = 3 * (e[0][0] + e[1][0])
        y = 3 * (e[0][1] + e[1][1])
    return reflect(q, (x, y))


class TCurve:
    """The curve cut out by the negative dual edges on G(S)."""

    def __init__(self, surface: AmbientSurface, tri: PrimitiveTriangulation,
                 delta: dict, pair: IncidencePair | None = None):
        self.surface = surface
        self.tri = tri
        self.pair = pair if pair is not None else incidence_graphs(surface, tri)
        self.ext = extend_signs(delta, surface)
        self.delta = self.ext.delta
        self.edge_sign = edge_signs(surface, tri, self.ext)
        self.components = self._extract()

    # ------------------------------------------------------------------

    def gs_edge_sign(self, q: Quadrant, e: Edge) -> Sign:
        return self.edge_sign[midpoint_node(self.surface, self.tri, q, e)[1:]]

    def _extract(self) -> tuple[Component, ...]:
        tri, surface = self.tri, self.surface
        adj: dict = {}

        def link(a, b):
            adj.setdefault(a, []).append(b)

        neg_per_downstairs: dict = {}
        for q in QUADRANTS:
            for t in tri.triangles:
                b = ("b", q, t)
                neg = []
                for e in tri.slots[t]:
                    if self.gs_edge_sign(q, e) < 0:
                        neg.append(self.pair.gs_midpoint[(q, e)])
                        neg_per_downstairs[(t, e)] = neg_per_downstairs.get((t, e), 0) + 1
                assert len(neg) in (0, 2)
                for m in neg:
                    link(b, m)
                    link(m, b)
        # exactly two of the four lifts of every downstairs edge are negative
        for t in tri.triangles:
            for e in tri.slots[t]:
                assert neg_per_downstairs.get((t, e), 0) == 2, \
                    f"downstairs edge {t}/{e} has {neg_per_downstairs.get((t, e), 0)} negative lifts"
        for node, nbrs in adj.items():
            assert len(nbrs) == 2

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
        cycles.sort(key=lambda c: c.nodes)
        assert cycles, "a T-curve always has at least one component"
        return tuple(cycles)

    # ------------------------------------------------------------------
    # classification

    def crossing_parities(self, comp: Component) -> tuple[int, ...]:
        """Z2 crossing vector of a component with the homology-basis
        circles (the lifts of broken edges 3..r)."""
        basis = self.surface.homology_basis()  # raises DegenerateAtlas if r < 3
        return tuple(self.crossing_count(comp, j) % 2 for j in basis)

    def crossing_count(self, comp: Component, broken_index: int) -> int:
        segs = {edge_key(p, q) for p, q in
                self.surface.broken_edges[broken_index].primitive_segments}
        return sum(1 for m in comp.midpoints if m[2] in segs)

    @cached_property
    def _polylines(self) -> dict:
        return {comp: tuple(node_coords6(n) for n in comp.nodes)
                for comp in self.components}

    def _in_quadrant_ovals(self) -> dict:
        """Interior components grouped by quadrant."""
        out: dict = {}
        for comp in self.components:
            if any(m[2] in self.tri.boundary_edges for m in comp.midpoints):
                continue
            qs = comp.quadrants
            assert len(qs) == 1, "an interior component stays in one quadrant"
            out.setdefault(next(iter(qs)), []).append(comp)
        return out

    @cached_property
    def classification(self) -> dict:
        """Map component -> ComponentClass."""
        surface, tri = self.surface, self.tri
        topo = surface.classify_topology()
        on_rp2 = topo.components == 1 and not topo.orientable and topo.crosscaps == 1
        result: dict = {}
        by_quadrant = self._in_quadrant_ovals()

        contains: dict = {}
        for q, ovals in by_quadrant.items():
            for a in ovals:
                ring = self._polylines[a]
                inside = set()
                for b in ovals:
                    if b is not a and point_in_ring(self._polylines[b][0], ring):
                        inside.add(b)
                contains[a] = inside

        for q, ovals in by_quadrant.items():
            for comp in ovals:
                depth = sum(1 for other in ovals if comp in contains[other])
                inner = set(comp.nodes)
                region_pts = self._innermost_points(q, comp, contains[comp])
                assert region_pts, "an oval surrounds at least one lattice point"
                signs = {self.ext.value(q, p) for p in region_pts}
                assert len(signs) == 1, "the sign of an oval is well defined"
                result[comp] = ComponentClass("oval", quadrant=q,
                                              sign=signs.pop(), depth=depth)

        for comp in self.components:
            if comp in result:
                continue
            vector = None
            if surface.r >= 3:
                vector = self.crossing_parities(comp)
            if on_rp2:
                # the single basis circle generates H_1(RP^2; Z2), so the
                # crossing parity decides triviality
                kind = "nontrivial_rp2" if vector[0] == 1 else "oval_rp2"
                result[comp] = ComponentClass(kind, crossing_vector=vector)
            else:
                result[comp] = ComponentClass("boundary", crossing_vector=vector)
        return result

    def _innermost_points(self, q: Quadrant, comp: Component, children) -> list:
        """Lattice points inside the oval but outside any nested oval."""
        ring = self._polylines[comp]
        child_rings = [self._polylines[c] for c in children]
        pts = []
        for p in self.surface.polygon.lattice_points:
            sp = reflect(q, (6 * p[0], 6 * p[1]))
            if point_in_ring(sp, ring) and \
               not any(point_in_ring(sp, cr) for cr in child_rings):
                pts.append(p)
        return pts

    # ------------------------------------------------------------------
    # census

    @cached_property
    def census(self) -> "CurveCensus":
        cls = self.classification
        quadrant_ovals = {q: [] for q in QUADRANTS}
        boundary = []
        for comp in self.components:
            c = cls[comp]
            if c.kind == "oval":
                quadrant_ovals[c.quadrant].append((c.sign, c.depth))
            else:
                boundary.append(c.kind)
        return CurveCensus(
            quadrant_ovals={q: tuple(sorted(v)) for q, v in quadrant_ovals.items()},
            boundary_kinds=tuple(sorted(boundary)),
            total=len(self.components))

    def __repr__(self):
        return (f"TCurve({self.surface.polygon!r}, components="
                f"{len(self.components)})")


def _normalize_cycle(nodes: list) -> Component:
    n = len(nodes)
    k = nodes.index(min(nodes))
    rot = nodes[k:] + nodes[:k]
    if rot[-1] < rot[1]:
        rot = [rot[0]] + rot[:0:-1]
    return Component(tuple(rot))


@dataclass(frozen=True)
class CurveCensus:
    quadrant_ovals: dict          # quadrant -> sorted tuple of (sign, depth)
    boundary_kinds: tuple
    total: int

    def comparable(self, relabel=None, sign_flip=None):
        """Canonical form; ``relabel`` maps this census's quadrants onto
        the reference census's quadrants and ``sign_flip`` multiplies the
        oval signs of a quadrant (translations flip the extended point
        signs of quadrant q by (-1)^<q, parity of the shift>)."""
        relabel = relabel or (lambda q: q)
        sign_flip = sign_flip or (lambda q: 1)
        return (tuple(sorted(
                    (relabel(q), tuple(sorted((s * sign_flip(q), dep)
                                              for s, dep in v)))
                    for q, v in self.quadrant_ovals.items())),
                self.boundary_kinds, self.total)


def extract_curve(surface: AmbientSurface, tri: PrimitiveTriangulation,
                  delta: dict, pair: IncidencePair | None = None) -> TCurve:
    return TCurve(surface, tri, delta, pair)


def classify_components(curve: TCurve) -> dict:
    """Map each component to its classification record."""
    return curve.classification


def degree_parity_check(curve: TCurve):
    """On the standard triangle, return the nontrivial component when the
    degree is odd, None when even; raises WrongPolygon elsewhere."""
    d = is_standard_triangle(curve.surface.polygon)
    if d is None:
        raise WrongPolygon("degree parity applies to the standard triangle only")
    nontrivial = [comp for comp, c in curve.classification.items()
                  if c.kind == "nontrivial_rp2"]
    assert len(nontrivial) == (d % 2), \
        f"degree {d} must have {d % 2} nontrivial components, found {len(nontrivial)}"
    return nontrivial[0] if nontrivial else None


# ---------------------------------------------------------------------------
# Harnack distributions and the (Z2)^3 action

def harnack_distribution(polygon: Polygon, htype: HarnackType) -> dict:
    """The distribution of type (c,a,b): on the base quadrant a point of
    parity (e,f) gets (-1)^(c + [(e,f) != 0] + <(e,f),(a,b)>)."""
    c, a, b = htype
    out = {}
    for p in polygon.lattice_points:
        ef = point_parity(p)
        expo = c + (1 if ef != (0, 0) else 0) + pairing(ef, (a, b))
        out[p] = (-1) ** (expo % 2)
    return out


def theta_action(theta: HarnackType, delta: dict) -> dict:
    """(theta . delta)(x,y) = (-1)^(c + <(a,b),(x,y)>) delta(x,y).  On
    Harnack types the action is addition in (Z2)^3."""
    c, a, b = theta
    return {p: v * (-1) ** ((c + a * p[0] + b * p[1]) % 2)
            for p, v in delta.items()}


@dataclass(frozen=True)
class PredictedCensus:
    quadrant_ovals: dict
    o_kind: str                    # 'nontrivial' | 'oval'
    o_inside_quadrant: Quadrant    # which quadrant's ovals O surrounds (oval case)
    total: int


def predicted_harnack_census(polygon: Polygon, htype: HarnackType) -> PredictedCensus:
    c, a, b = htype
    g = polygon.census().by_parity
    ovals = {q: [] for q in QUADRANTS}
    ovals[(a % 2, b % 2)].extend([((-1) ** c, 0)] * g[(0, 0)])
    for s, t in ((0, 1), (1, 0), (1, 1)):
        q = ((t + a) % 2, (s + b) % 2)
        ovals[q].extend([((-1) ** (c + 1), 0)] * g[(s, t)])
    odd_length = any(l % 2 for l in polygon.census().broken_edge_lengths)
    return PredictedCensus(
        quadrant_ovals={q: tuple(sorted(v)) for q, v in ovals.items()},
        o_kind="nontrivial" if odd_length else "oval",
        o_inside_quadrant=(a % 2, b % 2),
        total=polygon.census().interior_points + 1)


# ---------------------------------------------------------------------------
# region calculus: sides of a component, ovals it surrounds

def component_sides(curve: TCurve, comp: Component):
    """Split the surface along one component.

    Returns (side_of, sides) where side_of maps each surface point class
    to a side id and sides is the list of side ids adjacent to the
    component (1 = nonseparating, 2 = separating).  Components of the
    graph of uncrossed lifted edges correspond exactly to the regions of
    the complement.
    """
    surface, tri = curve.surface, curve.tri
    crossed = {(m[1], m[2]) for m in comp.midpoints}
    uf = UnionFind()
    for q in QUADRANTS:
        for p in surface.polygon.lattice_points:
            uf.add(surface.point_class(q, p))
    for q in QUADRANTS:
        for e in tri.edges:
            mid = midpoint_node(surface, tri, q, e)
            if (mid[1], mid[2]) in crossed:
                continue
            uf.union(surface.point_class(q, e[0]), surface.point_class(q, e[1]))
    side_of = {cls: uf.find(cls) for cls in uf.parent}
    adjacent = set()
    for cq, ce in crossed:
        for p in ce:
            adjacent.add(side_of[surface.point_class(cq, p)])
    return side_of, sorted(adjacent)


def side_euler_characteristic(curve: TCurve, comp: Component,
                              side_of: dict, side) -> int:
    """Euler characteristic of the closure of one side of the split."""
    surface, tri = curve.surface, curve.tri
    crossed = {(m[1], m[2]) for m in comp.midpoints}

    def cls(q, p):
        return surface.point_class(q, p)

    v = sum(1 for c, s in side_of.items() if s == side)
    v += len(crossed)  # crossing midpoints lie on the boundary circle
    e = len(crossed)   # one half of each crossed edge per side
    f = 0
    arcs = 0
    for q in QUADRANTS:
        for t in tri.triangles:
            t_crossed = [ee for ee in tri.slots[t]
                         if (midpoint_node(surface, tri, q, ee)[1],
                             midpoint_node(surface, tri, q, ee)[2]) in crossed]
            if not t_crossed:
                if side_of[cls(q, t[0])] == side:
                    f += 1
            else:
                assert len(t_crossed) == 2
                arcs += 1
                f += 1  # exactly one of the two pieces per side
    e += arcs          # curve arcs bound both closures
    for q in QUADRANTS:
        for ee in tri.edges:
            mid = midpoint_node(surface, tri, q, ee)
            if (mid[1], mid[2]) in crossed:
                continue
            if mid[1] != q:
                continue  # count identified boundary edges once
            if side_of[cls(mid[1], ee[0])] == side:
                e += 1
    return v - e + f


def ovals_inside(curve: TCurve, comp: Component):
    """The in-quadrant ovals inside the disk bounded by a separating
    component, or None when the component does not bound a disk."""
    side_of, adjacent = component_sides(curve, comp)
    if len(adjacent) != 2:
        return None
    chis = {s: side_euler_characteristic(curve, comp, side_of, s)
            for s in adjacent}
    disks = [s for s, chi in chis.items() if chi == 1]
    if len(disks) != 1:
        return None
    disk = disks[0]
    inside = []
    for other, c in curve.classification.items():
        if other is comp or c.kind != "oval":
            continue
        q = c.quadrant
        anchor = other.midpoints[0]
        pcls = curve.surface.point_class(q, anchor[2][0])
        if side_of[pcls] == disk:
            inside.append(other)
    return inside


def verify_harnack_census(curve: TCurve, htype: HarnackType) -> bool:
    """Extracted census equals the predicted one, including the nature of
    the boundary component and, in the oval case, what it surrounds."""
    pred = predicted_harnack_census(curve.surface.polygon, htype)
    got = curve.census
    if got.total != pred.total:
        return False
    if got.quadrant_ovals != pred.quadrant_ovals:
        return False
    boundary_comps = [comp for comp, c in curve.classification.items()
                      if c.kind != "oval"]
    if len(boundary_comps) != 1:
        return False
    o = boundary_comps[0]
    odd_crossings = any(curve.crossing_count(o, j) % 2
                        for j in range(curve.surface.r))
    if pred.o_kind == "nontrivial":
        return odd_crossings
    if odd_crossings:
        return False
    inside = ovals_inside(curve, o)
    if inside is None:
        return False
    want = {comp for comp, c in curve.classification.items()
            if c.kind == "oval" and c.quadrant == pred.o_inside_quadrant}
    return set(inside) == want


# ---------------------------------------------------------------------------
# transforms

def translate_problem(tri: PrimitiveTriangulation, delta: dict, vec: Point):
    s, t = vec
    poly = tri.polygon
    verts = [(x + s, y + t) for x, y in poly.vertices]
    if any(x < 0 or y < 0 for x, y in verts):
        raise LeavesNonnegativeQuadrant(f"translation by {vec} leaves the quadrant")
    poly2 = validate_polygon(verts)
    tris2 = [tuple((x + s, y + t) for x, y in tr) for tr in tri.triangles]
    delta2 = {(p[0] + s, p[1] + t): v for p, v in delta.items()}
    return poly2, validate_primitive_triangulation(poly2, tris2), delta2


def apply_unimodular(a_matrix, p: Point) -> Point:
    (a, b), (c, d) = a_matrix
    return (a * p[0] + b * p[1], c * p[0] + d * p[1])


def unimodular_problem(tri: PrimitiveTriangulation, delta: dict, a_matrix):
    (a, b), (c, d) = a_matrix
    det = a * d - b * c
    if abs(det) != 1:
        raise LeavesNonnegativeQuadrant(f"matrix {a_matrix} is not unimodular")
    poly = tri.polygon
    verts = [apply_unimodular(a_matrix, v) for v in poly.vertices]
    if any(x < 0 or y < 0 for x, y in verts):
        raise LeavesNonnegativeQuadrant("image polygon leaves the quadrant")
    poly2 = validate_polygon(verts)
    tris2 = [tuple(apply_unimodular(a_matrix, v) for v in tr)
             for tr in tri.triangles]
    delta2 = {apply_unimodular(a_matrix, p): v for p, v in delta.items()}
    a2 = ((a & 1, b & 1), (c & 1, d & 1))
    return poly2, validate_primitive_triangulation(poly2, tris2), delta2, a2


def transform_curve(curve: TCurve, *, translate: Point | None = None,
                    unimodular=None):
    """Translated or unimodularly transformed curve.

    Returns (curve', quadrant_map, sign_flip).  quadrant_map sends a
    quadrant of the new curve to the corresponding quadrant of the old
    one: identity for translations, (s,t) -> (s,t)*A2 for a unimodular
    map A.  Under a translation the curve is identical but the extended
    point signs of quadrant q all flip by (-1)^<q, parity of the shift>,
    which flips the recorded oval signs accordingly; unimodular maps
    preserve them.
    """
    if (translate is None) == (unimodular is None):
        raise ValueError("pass exactly one of translate= or unimodular=")
    if translate is not None:
        _, tri2, delta2 = translate_problem(curve.tri, curve.delta, translate)
        curve2 = TCurve(build_ambient_surface(tri2.polygon), tri2, delta2)
        shift_par = point_parity(translate)
        return curve2, (lambda q: q), (lambda q: (-1) ** pairing(q, shift_par))
    _, tri2, delta2, a2 = unimodular_problem(curve.tri, curve.delta, unimodular)
    curve2 = TCurve(build_ambient_surface(tri2.polygon), tri2, delta2)
    return curve2, (lambda q: vec_mat(q, a2)), (lambda q: 1)


def translated_components(curve: TCurve, vec: Point):
    """The component set of ``curve`` with every node translated: equal to
    the extracted components of the translated problem."""
    s, t = vec

    def move(node):
        if node[0] == "b":
            _, q, tr = node
            return ("b", q, tuple((x + s, y + t) for x, y in tr))
        _, q, e = node
        return ("m", q, tuple((x + s, y + t) for x, y in e))

    out = []
    for comp in curve.components:
        out.append(_normalize_cycle([move(n) for n in comp.nodes]))
    return tuple(sorted(out, key=lambda c: c.nodes))
