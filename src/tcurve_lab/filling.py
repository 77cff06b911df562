"""The T-filling: a ribbon surface glued from one thick-Y per triangle.

Each downstairs triangle carries a 3-valent fat vertex (thick-Y) whose
prongs follow the counterclockwise order of the triangle's edges.  At an
interior edge the two end-segments are identified by x -> -x or x -> x
according to which arcs of the curve run consecutively at the two
negative lifts of that edge ("without" resp. "with" a twist).  At a
boundary edge the projected curve makes a U-turn, realized by folding
the end-segment onto itself by x -> -x.  Boundary circles of the result
correspond one-to-one to components of the curve; capping them with
disks gives a closed surface whose Euler characteristic proves the
interior-point bound on the number of components.
"""

from dataclasses import dataclass

from .errors import EmptyCurve, InconsistentArcPairing, NotTypeI
from .surface import QUADRANTS
from .tcurve import Component, TCurve
from .triangulation import Edge, Tri, midpoint_node
from .uf import ParityUnionFind, UnionFind

# A strand state: walking along prong ``slot`` of triangle ``tri`` on the
# ribbon-boundary strand ``s`` (+1 or -1), heading 'out' toward the end of
# the prong or 'in' toward the center of the thick-Y.
State = tuple[Tri, int, int, str]


def _rel_slot(slots: tuple, shared: Edge, other: Edge) -> int:
    """Position of ``other`` relative to ``shared`` in the cyclic
    counterclockwise prong order: 2 = next, 3 = previous."""
    k = slots.index(shared)
    if slots[(k + 1) % 3] == other:
        return 2
    assert slots[(k + 2) % 3] == other
    return 3


class TFilling:
    """Ribbon graph of the curve: twist bits and folds over G(Pi)."""

    def __init__(self, curve: TCurve):
        if not curve.components:
            raise EmptyCurve("cannot fill a curve with no components")
        self.curve = curve
        self.tri = curve.tri
        self._build_gluing()
        self._trace_boundary()

    # ------------------------------------------------------------------
    # gluing data read off the curve

    def _build_gluing(self):
        tri, curve = self.tri, self.curve
        surface = curve.surface
        # arc pairing at every midpoint the curve passes through
        pairings: dict = {}
        for comp in curve.components:
            nodes = comp.nodes
            n = len(nodes)
            for i, node in enumerate(nodes):
                if node[0] != "m":
                    continue
                b_prev, b_next = nodes[(i - 1) % n], nodes[(i + 1) % n]
                # the other curve edge at each neighboring barycenter
                def other_edge(b, mid):
                    q, t = b[1], b[2]
                    neg = [e for e in tri.slots[t]
                           if curve.gs_edge_sign(q, e) < 0]
                    assert len(neg) == 2 and mid[2] in neg
                    return neg[0] if neg[1] == mid[2] else neg[1]
                pairings[node] = ((b_prev, other_edge(b_prev, node)),
                                  (b_next, other_edge(b_next, node)), comp)

        twists: dict = {}
        for e in tri.interior_edges:
            t_a, t_b = sorted(tri.edge_triangles[e])
            readings = []
            for q in QUADRANTS:
                mid = midpoint_node(surface, tri, q, e)
                if mid not in pairings:
                    continue
                (b1, o1), (b2, o2), _ = pairings[mid]
                sides = {b1[2]: o1, b2[2]: o2}
                assert set(sides) == {t_a, t_b}, "interior edge joins its two triangles"
                i = _rel_slot(tri.slots[t_a], e, sides[t_a])
                j = _rel_slot(tri.slots[t_b], e, sides[t_b])
                readings.append((i, j))
            readings = sorted(set(readings))
            if len(readings) != 2 or {r[0] for r in readings} != {2, 3} \
                    or {r[1] for r in readings} != {2, 3}:
                raise InconsistentArcPairing(f"edge {e}: pairings {readings}")
            (i1, j1), (i2, j2) = readings
            if (i1 == j1) != (i2 == j2):
                raise InconsistentArcPairing(f"edge {e}: pairings {readings}")
            twists[e] = i1 == j1  # matched slots = glued with a twist

        folds = set()
        for e in tri.boundary_edges:
            hits = [midpoint_node(surface, tri, q, e) for q in QUADRANTS]
            passed = [m for m in set(hits) if m in pairings]
            assert len(passed) == 1, "one negative lift per boundary edge"
            (b1, o1), (b2, o2), _ = pairings[passed[0]]
            assert b1[2] == b2[2], "the projected curve U-turns at the boundary"
            folds.add(e)
        self.twists = twists
        self.folds = frozenset(folds)
        self._pairings = pairings

    @property
    def chi(self) -> int:
        """Euler characteristic: the filling retracts onto G(Pi)."""
        return self.tri.E - 2 * self.tri.T

    # ------------------------------------------------------------------
    # boundary tracing on strand states

    def _next_state(self, state: State) -> State:
        t, k, s, d = state
        slots = self.tri.slots[t]
        if d == "out":
            e = slots[k]
            if e in self.folds:
                return (t, k, -s, "in")
            t_a, t_b = self.tri.edge_triangles[e]
            t2 = t_b if t_a == t else t_a
            eps = 1 if self.twists[e] else -1
            return (t2, self.tri.slots[t2].index(e), eps * s, "in")
        if s == -1:
            return (t, (k + 1) % 3, 1, "out")
        return (t, (k - 1) % 3, -1, "out")

    def _trace_boundary(self):
        states = [(t, k, s, d)
                  for t in self.tri.triangles for k in range(3)
                  for s in (-1, 1) for d in ("out", "in")]
        orbit_of: dict = {}
        orbits = []
        for st in states:
            if st in orbit_of:
                continue
            orbit = []
            cur = st
            while cur not in orbit_of:
                orbit_of[cur] = len(orbits)
                orbit.append(cur)
                cur = self._next_state(cur)
            assert cur == st, "boundary transitions must permute the states"
            orbits.append(tuple(orbit))

        def reverse(state):
            t, k, s, d = state
            return (t, k, s, "in" if d == "out" else "out")

        paired = {}
        for idx, orbit in enumerate(orbits):
            rid = orbit_of[reverse(orbit[0])]
            assert rid != idx, "a boundary circle cannot reverse onto itself"
            paired[idx] = rid
        self._orbits = orbits
        self._orbit_of = orbit_of
        self._orbit_pair = paired

        # walk a shadow strand alongside each curve component
        shadows = {}
        for comp in self.curve.components:
            shadows[comp] = self._shadow(comp)
        used = {}
        for comp, (orbit_id, _) in shadows.items():
            pair_key = frozenset((orbit_id, self._orbit_pair[orbit_id]))
            assert pair_key not in used, "one boundary circle per component"
            used[pair_key] = comp
        assert len(used) * 2 == len(orbits), \
            "boundary circles correspond to curve components"
        self._shadows = shadows
        self._circle_of = used

    def _shadow(self, comp: Component):
        """Follow the ribbon-boundary strand that runs along a component.

        Returns (orbit id, state sequence); the sequence visits two
        states per barycenter passage of the component.
        """
        visits = comp.visits()
        seq = []
        for q, t, e_in, e_out in visits:
            slots = self.tri.slots[t]
            k_in, k_out = slots.index(e_in), slots.index(e_out)
            if k_out == (k_in + 1) % 3:
                s_in, s_out = -1, 1
            else:
                assert k_out == (k_in - 1) % 3
                s_in, s_out = 1, -1
            seq.append((t, k_in, s_in, "in"))
            seq.append((t, k_out, s_out, "out"))
        n = len(seq)
        for i, st in enumerate(seq):
            assert self._next_state(st) == seq[(i + 1) % n], \
                "shadow must follow the boundary transitions"
        return self._orbit_of[seq[0]], tuple(seq)

    # ------------------------------------------------------------------

    @property
    def boundary_count(self) -> int:
        return len(self._orbits) // 2

    def boundary_cycles(self):
        """One representative oriented orbit per boundary circle, with the
        curve component it runs along."""
        out = []
        for comp in self.curve.components:
            orbit_id, seq = self._shadows[comp]
            out.append((self._orbits[orbit_id], comp))
        return out

    def __repr__(self):
        return (f"TFilling(T={self.tri.T}, chi={self.chi}, "
                f"D={self.boundary_count})")


def build_filling(curve: TCurve) -> TFilling:
    return TFilling(curve)


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class CappedSurface:
    chi_filling: int
    boundary_count: int
    chi: int
    connected: bool
    orientable: bool
    genus: int | None
    crosscaps: int | None


@dataclass(frozen=True)
class FillingClass:
    capped: CappedSurface
    curve_type: str  # 'I' | 'II'


def _orientation_constraints(filling: TFilling) -> tuple[ParityUnionFind, bool]:
    """Parity constraints between the planar orientations of the thick-Ys,
    and whether they can all be met (the filling is orientable).  The
    constraints stop at the first one that cannot be met."""
    uf = ParityUnionFind()
    for t in filling.tri.triangles:
        uf.add(t)
    for e, twisted in sorted(filling.twists.items()):
        t_a, t_b = filling.tri.edge_triangles[e]
        # no twist: the planar orientations agree; twist: they oppose
        if not uf.union(t_a, t_b, 1 if twisted else 0):
            return uf, False
    return uf, True


def classify_filling(filling: TFilling) -> FillingClass:
    tri = filling.tri
    d = filling.boundary_count
    chi_f = filling.chi
    chi_sigma = chi_f + d
    assert chi_sigma == d + 1 - tri.V + tri.L, \
        "the two Euler characteristic computations must agree"

    # connectivity of the filling = connectivity of the thick-Y graph
    conn = UnionFind()
    for t in tri.triangles:
        conn.add(t)
    for e in tri.interior_edges:
        t_a, t_b = tri.edge_triangles[e]
        conn.union(t_a, t_b)
    connected = len(conn.groups()) == 1
    assert connected, "G(Pi) is connected, so the filling is"
    assert chi_sigma <= 2

    _, orientable = _orientation_constraints(filling)
    genus = (2 - chi_sigma) // 2 if orientable else None
    crosscaps = 2 - chi_sigma if not orientable else None
    capped = CappedSurface(chi_f, d, chi_sigma, connected, orientable,
                           genus, crosscaps)
    return FillingClass(capped, "I" if orientable else "II")


@dataclass(frozen=True)
class HarnackVerdict:
    boundary_count: int
    interior_points: int
    bound_holds: bool
    maximal: bool
    chi_sigma: int
    identity_holds: bool


def harnack_check(curve: TCurve, filling: TFilling) -> HarnackVerdict:
    tri = filling.tri
    d = filling.boundary_count
    i = curve.surface.polygon.census().interior_points
    chi_sigma = filling.chi + d
    # D = (V - L) + 1 - (2 - chi(Sigma))
    identity = d == (tri.V - tri.L) + 1 - (2 - chi_sigma)
    return HarnackVerdict(d, i, d <= i + 1, d == i + 1, chi_sigma, identity)


# ---------------------------------------------------------------------------
# orientation of type-I curves

@dataclass(frozen=True)
class OrientedComponent:
    nodes: tuple            # directed cyclic node sequence on G(S)
    directed_projection: tuple  # downstairs directed segments (node pairs)


@dataclass(frozen=True)
class OrientedCurve:
    components: tuple
    flipped: bool

    def reversed(self) -> "OrientedCurve":
        comps = tuple(
            OrientedComponent(c.nodes[:1] + c.nodes[:0:-1],
                              tuple((b, a) for a, b in c.directed_projection[::-1]))
            for c in self.components)
        return OrientedCurve(comps, not self.flipped)


def _surface_left(state: State) -> int:
    """+1 when the state walks with the thick-Y's own planar orientation
    on its left (out on strand +1 or in on strand -1)."""
    _, _, s, d = state
    return 1 if (s == 1) == (d == "out") else -1


def orient_curve(curve: TCurve, filling: TFilling,
                 flip: bool = False) -> OrientedCurve:
    """A coherent orientation of a type-I curve.

    Choose compatible orientations of the thick-Ys (one of two global
    choices), take the induced boundary orientation of each circle, push
    it to the projected cycles and lift back edge by edge: the copy of a
    downstairs segment directed p -> q in quadrant (a,b) is directed
    sigma_{a,b} p -> sigma_{a,b} q.
    """
    uf, orientable = _orientation_constraints(filling)
    if not orientable:
        raise NotTypeI("the filling is not orientable")
    color = uf.coloring()
    if flip:
        color = {t: -c for t, c in color.items()}

    strand_walks = set()
    out = []
    for comp in curve.components:
        orbit_id, seq = filling._shadows[comp]
        # induced boundary direction: along the shadow when the global
        # orientation agrees with the local planar reference there
        h = _surface_left(seq[0]) * color[seq[0][0]]
        for st in seq:
            assert _surface_left(st) * color[st[0]] == h, \
                "induced orientation must be constant along a circle"
        nodes = comp.nodes
        if h < 0:
            nodes = nodes[:1] + nodes[:0:-1]
            # reversing a walk keeps each strand, flips the heading
            walk = tuple((t, k, s, "in" if d == "out" else "out")
                         for t, k, s, d in reversed(seq))
        else:
            walk = seq
        for t, k, s, _ in walk:
            assert (t, k, s) not in strand_walks, \
                "each ribbon strand is traversed once"
            strand_walks.add((t, k, s))
        directed = _directed_projection(nodes)
        out.append(OrientedComponent(nodes, directed))
    return OrientedCurve(tuple(out), flip)


def _directed_projection(nodes: tuple) -> tuple:
    """Directed downstairs half-edges (barycenter/midpoint pairs) in the
    traversal order of the oriented cycle."""
    n = len(nodes)
    segs = []
    for i in range(n):
        a, b = nodes[i], nodes[(i + 1) % n]
        segs.append((a[:1] + a[2:], b[:1] + b[2:]))
    return tuple(segs)
