"""T-curves: sign distributions, extraction, classification, censuses.

A sign distribution on the lattice points of the polygon extends to all
four quadrant copies by delta(sigma_{a,b} p) = (-1)^{<(a,b), parity p>}
delta(p).  Every edge of the lifted triangulation gets the product of
its endpoint signs; edge signs agree across the boundary identification
(point signs need not).  Exactly two of the four lifts of any downstairs
edge are negative, so the negative dual edges upstairs form disjoint
cycles covering every downstairs incidence-graph edge twice: the curve.
"""

from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import eq, not_
from typing import NamedTuple

from .errors import IncompleteDistribution, InvariantError, check
from .lattice import Polygon, pairing, point_parity
from .surface import QUADRANTS, AmbientSurface, Quadrant
from .sweep import SweepTables, compile_sweep, trace_vector
from .triangulation import PrimitiveTriangulation, incidence_graphs
from .uf import join

Sign = int  # +1 or -1
HarnackType = tuple[int, int, int]  # (c, a, b)


def check_distribution(polygon: Polygon, delta: dict) -> dict:
    pts = set(polygon.lattice_points)
    try:
        d = {tuple(p): v for p, v in delta.items()}
    except (AttributeError, TypeError):  # not a mapping, or a key not a point
        raise IncompleteDistribution("signs must map points to +1 or -1") from None
    missing = pts - set(d)
    if missing:
        raise IncompleteDistribution(f"no sign for {sorted(missing)[0]}")
    extra = set(d) - pts
    if extra:
        try:
            first = sorted(extra)[0]
        except TypeError:  # keys that do not order, such as "ab" and (None, 0)
            first = min(extra, key=repr)
        raise IncompleteDistribution(f"sign given for non-lattice point {first}")
    if any(not isinstance(v, int) or isinstance(v, bool) or v not in (1, -1)
           for v in d.values()):
        raise IncompleteDistribution("signs must be +1 or -1")
    return d


def _midpoint(tab: SweepTables, u: int) -> int:
    """The midpoint id of slot lift ``u``."""
    T3 = 3 * tab.T
    return tab.edge_class[u // T3 * tab.E + tab.slots[u % T3]]


class ComponentClass(NamedTuple):
    kind: str                      # 'oval' | 'nontrivial_rp2' | 'oval_rp2' | 'boundary'
    quadrant: Quadrant | None = None
    sign: Sign | None = None
    depth: int | None = None
    crossing_vector: tuple | None = None


class TCurve:
    """The curve cut out by the negative dual edges on G(S).

    The strand kernel (``sweep.trace_vector``) runs once on the compiled
    tables of the problem: ``tables`` when given (one compilation serves
    any number of sign vectors), else compiled from a fresh lift table.

    Components: component k is ``components[k]``, the kernel's k-th walk,
    one cycle of the curve on G(S) as the slot lift by which it enters each
    lifted triangle (``sweep`` numbering).  The kernel yields each walk from
    its smallest slot lift, the smallest of its lifted triangles and so of
    its barycenters, and the walks in increasing order of it; midpoint ids
    order as their nodes do, so turning each walk in place toward the
    smaller of its first visit's two midpoints orders the components by
    their nodes.  Every per-component record (``classification``,
    ``Regions``) is keyed by k; compare curves by their walks or nodes
    (``oracles.component_nodes``).  The strands beside a walk are its
    shadow on the boundary of the filling, which the kernel checks as it
    walks and the oracles list (``oracles.shadows``).
    """

    def __init__(self, surface: AmbientSurface, tri: PrimitiveTriangulation,
                 delta: dict, tables: SweepTables | None = None):
        self.surface = surface
        self.tri = tri
        if tables is None:
            tables = compile_sweep(tri, incidence_graphs(surface, tri))
        self.tables = tables
        self.delta = check_distribution(surface.polygon, delta)
        mask = sum(1 << k for k, p in enumerate(tri.polygon.lattice_points)
                   if self.delta[p] > 0)
        self.trace = trace_vector(tables, mask)
        for walk in self.trace.walks:
            if _midpoint(tables, walk[0]) < _midpoint(tables, walk[1]):
                # run backward: each visit enters by its old exit
                walk[:] = [tables.across[u] for u in walk[1::-1] + walk[:1:-1]]
        self.components = tuple(self.trace.walks)

    @cached_property
    def copy_signs(self) -> bytes:
        """Byte q*V + k is 1 when the copy of lattice point k in quadrant
        ``QUADRANTS[q]`` is positive, by the rule of the module docstring."""
        pts = self.surface.polygon.lattice_points
        plus = [self.delta[p] > 0 for p in pts]
        return bytes(up ^ a & x ^ b & y for a, b in QUADRANTS
                     for up, (x, y) in zip(plus, pts))

    # ------------------------------------------------------------------
    # classification

    @cached_property
    def regions(self) -> "Regions":
        return Regions(self)

    @cached_property
    def classification(self) -> dict:
        """Map component number -> ComponentClass, in order: the oval
        classes of the regions; every other component gets the parities of
        its crossings with the homology-basis circles (the lifts of broken
        edges 3..r).  On RP^2 the single basis circle generates H_1(RP^2;
        Z2), so its parity decides whether the component is trivial."""
        regions, surface = self.regions, self.surface
        ovals, topo = regions.oval_classes, surface.classify_topology()
        on_rp2 = topo.components == 1 and not topo.orientable and topo.crosscaps == 1
        basis = surface.homology_basis() if surface.r >= 3 else None
        result = {}
        for k in range(len(self.components)):
            if k in ovals:
                result[k] = ovals[k]
            elif basis is None:
                result[k] = ComponentClass("boundary")
            else:
                vector = tuple(regions.crossings[k][j] % 2 for j in basis)
                kind = ("boundary" if not on_rp2 else
                        "nontrivial_rp2" if vector[0] else "oval_rp2")
                result[k] = ComponentClass(kind, crossing_vector=vector)
        return result

    # ------------------------------------------------------------------
    # census

    @cached_property
    def census(self) -> "CurveCensus":
        quadrant_ovals = {q: [] for q in QUADRANTS}
        boundary = []
        for c in self.classification.values():
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


class CurveCensus(NamedTuple):
    quadrant_ovals: dict          # quadrant -> sorted tuple of (sign, depth)
    boundary_kinds: tuple
    total: int


def extract_curve(surface: AmbientSurface, tri: PrimitiveTriangulation,
                  delta: dict, tables: SweepTables | None = None) -> TCurve:
    return TCurve(surface, tri, delta, tables)


def classify_components(curve: TCurve) -> dict:
    """Map each component number to its classification record."""
    return curve.classification


# ---------------------------------------------------------------------------
# Harnack distributions and their predicted censuses

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


class PredictedCensus(NamedTuple):
    quadrant_ovals: dict
    o_kind: str                    # 'nontrivial' | 'oval'
    o_disks: tuple                 # the quadrants whose ovals fill disk sides of O
    total: int


def predicted_harnack_census(polygon: Polygon, htype: HarnackType) -> PredictedCensus:
    c, a, b = htype
    census = polygon.census()
    g = census.by_parity
    ovals = {q: [] for q in QUADRANTS}
    ovals[(a % 2, b % 2)].extend([((-1) ** c, 0)] * g[(0, 0)])
    for s, t in ((0, 1), (1, 0), (1, 1)):
        q = ((t + a) % 2, (s + b) % 2)
        ovals[q].extend([((-1) ** (c + 1), 0)] * g[(s, t)])
    odd_length = any(l % 2 for l in census.broken_edge_lengths)
    # the parity P of the odd vertices, or the two of the boundary points
    # when there is no odd vertex; each gives the quadrant (a,b) + swap(P)
    odd = [polygon.vertices[k] for k in polygon.odd_vertex_indices]
    parities = {point_parity(p) for p in odd or polygon.boundary_points}
    return PredictedCensus(
        quadrant_ovals={q: tuple(sorted(v)) for q, v in ovals.items()},
        o_kind="nontrivial" if odd_length else "oval",
        o_disks=() if odd_length else tuple(sorted(
            ((a + y) % 2, (b + x) % 2) for x, y in parities)),
        total=census.interior_points + 1)


# ---------------------------------------------------------------------------
# regions of S minus the curve: oval classes, sides, what O surrounds

class Regions:
    """The regions of S minus the curve, from two batches of one
    union-find (``uf.join``).

    The four copies of the lattice points are numbered ``quadrant_index *
    V + point_index``, and ``first_copy`` gives the first copy of each one's
    surface point (another copy only at boundary points).  The lift table
    is the only gluing read: the first batch joins the ends of each lifted
    boundary edge that it merges into another with that one's, which must
    leave 1 copy per interior point, 2 per boundary point and 4 per odd
    vertex.  The second joins the two ends of every lifted edge that no
    component crosses (``uncrossed``, per lift id): each set is one region,
    numbered in the order of its smallest copy.  Component k borders one
    region or two (``sides[k]``), the same on every edge it crosses.  Lifted
    edges and midpoints are the lift ids of the curve's tables.  The one
    pass over each component's walk marks the midpoints it crosses and
    files its number in ``crossings``, how often it crosses each broken
    edge when it crosses one, or else ``ovals``, its one quadrant.
    """

    def __init__(self, curve: TCurve):
        # what the lazy passes read of the curve, which caches its regions:
        # holding the curve itself would make a cycle that only the cyclic
        # collector frees
        self.tables, self.components = curve.tables, curve.components
        self.surface, self.copy_signs = curve.surface, curve.copy_signs
        polygon, tab = curve.surface.polygon, curve.tables
        V, E, T3, edge_class = tab.V, tab.E, 3 * tab.T, tab.edge_class
        # per lift id: the copies of the two ends of its lifted edge
        ends_a = [q + i for q in range(0, 4 * V, V) for i, _ in tab.edge_ends]
        ends_b = [q + j for q in range(0, 4 * V, V) for _, j in tab.edge_ends]
        self.first_copy = join(list(range(4 * V)), chain.from_iterable(
            zip(map(end, tab.merged), map(end, tab.canonical))
            for end in (ends_a.__getitem__, ends_b.__getitem__)))
        copies = Counter(self.first_copy)
        odd = {polygon.vertices[k] for k in polygon.odd_vertex_indices}
        bd = polygon.boundary_points
        want = [4 if p in odd else 2 if p in bd else 1
                for p in polygon.lattice_points]
        check(list(map(copies.__getitem__, self.first_copy)) == want * 4,
              "a surface point has 1 copy inside, 2 on the boundary and 4 "
              "at an odd vertex")
        # per midpoint: the component that crosses it, else -1
        crossing = [-1] * (4 * E)
        slots, broken, r = tab.slots, curve.tri.broken_edge_of, curve.surface.r
        self.crossings, self.ovals = {}, {}
        for k, walk in enumerate(curve.components):
            count, quadrants = [0] * (r + 1), 0
            for u in walk:
                q, s = divmod(u, T3)
                e = slots[s]
                crossing[edge_class[q * E + e]] = k
                count[broken[e]] += 1  # the last entry: off the boundary
                quadrants |= 1 << q
            if count[r] < len(walk):
                self.crossings[k] = tuple(count[:r])
            else:
                check(quadrants & quadrants - 1 == 0,
                      "an interior component stays in one quadrant")
                self.ovals[k] = QUADRANTS[quadrants.bit_length() - 1]
        # per lift id: the component that crosses it, else -1; the ends of
        # every lifted edge that none crosses are joined
        by_lift = list(map(crossing.__getitem__, edge_class))
        crossed = [k >= 0 for k in by_lift]
        self.uncrossed = uncrossed = bytes(map(not_, crossed))
        parent = join(list(self.first_copy), zip(compress(ends_a, uncrossed),
                                                 compress(ends_b, uncrossed)))
        # regions numbered in order of their roots, the smallest copies
        rank = list(accumulate(map(eq, parent, range(4 * V))))
        self.region_of = region = [rank[x] - 1 for x in parent]
        self.count = rank[-1]
        self.sides = sides = [None] * len(curve.components)
        for k, x, y in zip(compress(by_lift, crossed), compress(ends_a, crossed),
                           compress(ends_b, crossed)):
            a, b = region[x], region[y]
            pair = (a, b) if a < b else (b, a) if b < a else (a,)
            if pair != sides[k]:
                check(sides[k] is None, "a component borders the same regions "
                      "on every edge it crosses")
                sides[k] = pair

    @cached_property
    def oval_classes(self) -> dict:
        """Sign and nesting depth of every in-quadrant oval, by a BFS that
        starts at every region holding a polygon-boundary point and
        crosses ovals only.  An oval bounds a disk, so regions and ovals
        form a tree below the start; an oval's depth is the BFS depth of
        its outer region, its sign the one point sign of its inner one.
        ``top`` gives the start that each region hangs below."""
        region, sides = self.region_of, self.sides
        ovals = list(self.ovals)
        at_region: dict = {}
        for o, k in enumerate(ovals):
            check(len(sides[k]) == 2, "an oval joins two regions")
            for r in sides[k]:
                at_region.setdefault(r, []).append(o)
        queue = list(dict.fromkeys(
            region[x] for x, f in enumerate(self.first_copy) if f != x))
        region_depth = dict.fromkeys(queue, 0)
        self.top = top = list(range(self.count))
        depth: list = [None] * len(ovals)
        inner: dict = {}
        for r in queue:  # breadth first: the loop reads what it appends
            for o in at_region.get(r, ()):
                if depth[o] is None:
                    a, b = sides[ovals[o]]
                    g = b if a == r else a
                    if g in region_depth:
                        raise InvariantError("regions and ovals form no tree")
                    region_depth[g], top[g] = region_depth[r] + 1, top[r]
                    depth[o], inner[g] = region_depth[r], o
                    queue.append(g)
        check(len(region_depth) == self.count and None not in depth,
              "every region and oval is reached from the boundary")
        signs: dict = {}
        for x, r in enumerate(region):
            if r in inner:
                signs.setdefault(inner[r], set()).add(self.copy_signs[x])
        check(all(len(s) == 1 for s in signs.values()),
              "the sign of an oval is well defined")
        return {k: ComponentClass("oval", self.ovals[k],
                                  2 * min(signs[o]) - 1, depth[o])
                for o, k in enumerate(ovals)}

    @cached_property
    def euler(self) -> list:
        """Euler characteristic of the closure of each region: point
        classes - uncrossed surface edges + unvisited lifted triangles, as
        the half-edge and midpoint copy, piece and arc copy that a side
        gets of each crossed edge and visited triangle cancel.  Edges and
        triangles count at the region of their first vertex (a triangle's
        is that of its first edge)."""
        region, tab, uncrossed = self.region_of, self.tables, self.uncrossed
        V, E, T, edge_ends = tab.V, tab.E, tab.T, tab.edge_ends
        ends = [i for i, _ in edge_ends]
        firsts = [edge_ends[e][0] for e in tab.slots[::3]]
        visited = {u // 3 for walk in self.components for u in walk}
        plus = Counter(compress(region, map(eq, self.first_copy, range(4 * V))))
        minus: Counter = Counter()
        for q in range(4):  # lifted triangle q*T + t, lifted edge q*E + e
            at = region[q * V:q * V + V].__getitem__
            plus.update(map(at, compress(firsts, map(
                not_, map(visited.__contains__, range(q * T, q * T + T))))))
            minus.update(map(at, compress(ends, uncrossed[q * E:q * E + E])))
        # a lifted edge merged into another is no surface edge of its own
        minus.subtract(region[x // E * V + ends[x % E]] for x in tab.merged
                       if uncrossed[x])
        chi = [plus[r] - minus[r] for r in range(self.count)]
        check(sum(chi) == self.surface.classify_topology().euler,
              "the Euler characteristics of the regions sum to chi(S)")
        return chi

    def disks(self, k: int) -> list:
        """For each side of component k whose closure is a disk, the ovals
        on it; none unless k separates.  Every other component must be an
        in-quadrant oval: then the sides of k are the trees of
        ``oval_classes`` below its side regions, which are starts, as k
        crosses the boundary."""
        check(list(self.crossings) == [k],
              "every other component is an in-quadrant oval")
        ovals, top, sides = self.oval_classes, self.top, self.sides[k]
        if len(sides) == 1:
            return []
        return [[o for o in ovals if top[self.sides[o][0]] == s] for s in sides
                if sum(chi for r, chi in enumerate(self.euler) if top[r] == s) == 1]


def verify_harnack_census(curve: TCurve, htype: HarnackType) -> bool:
    """Extracted census equals the predicted one, including the nature of
    the boundary component and, in the oval case, what it surrounds."""
    pred = predicted_harnack_census(curve.surface.polygon, htype)
    got = curve.census
    boundary_comps = [k for k, c in curve.classification.items()
                      if c.kind != "oval"]
    if (got.total, got.quadrant_ovals, len(boundary_comps)) != \
            (pred.total, pred.quadrant_ovals, 1):
        return False
    o = boundary_comps[0]
    odd_crossings = any(c % 2 for c in curve.regions.crossings[o])
    if pred.o_kind == "nontrivial":
        return odd_crossings
    if odd_crossings:
        return False
    # each predicted quadrant's ovals fill one disk side of O; on the
    # sphere both sides are disks, and either may be the one
    fills = Counter(frozenset(k for k, c in curve.classification.items()
                              if c.kind == "oval" and c.quadrant == q)
                    for q in pred.o_disks)
    return not fills - Counter(map(frozenset, curve.regions.disks(o)))
