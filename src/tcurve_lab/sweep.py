"""The sweep over every sign vector of one triangulated polygon.

``sweep(surface, tri)`` yields (D, orientable) for each of the 2^V sign
vectors in mask order: bit k of the mask gives the k-th lexicographically
sorted lattice point the sign +1, a clear bit gives it -1.  It gives the
same D and orientability as ``TCurve`` -> ``build_filling`` ->
``classify_filling`` on every vector, without building either object.

The surface and triangulation are compiled once into flat integer tables
(``compile_sweep``).  Per vector the sweep derives the edge sign bits, the
sign of every lifted edge, reads each interior edge's twist bit off its two
triangles, and walks every curve component together with its shadow strand
on the ribbon boundary.  D and orientability depend on the twist vector
alone, so the trace of the 12T strand states runs once per distinct twist
vector, memoised on the full vector.  Every invariant that the reference
path checks is checked on every vector and raises ``InvariantError``.

Indices: lattice point i is the i-th sorted lattice point, edge e the e-th
of ``tri.edges``, triangle t the t-th of ``tri.triangles``.  Quadrant q is
``QUADRANTS[q]``.  A lift id ``q*E + e`` names the copy of edge e in
quadrant q; a slot id ``3*t + k`` names prong k of triangle t in
counterclockwise order; a slot lift ``(q*T + t)*3 + k`` names that prong in
quadrant q.  A strand state ``4*(3*t + k) + 2*sb + db`` walks prong k of
triangle t on strand +1 (sb = 1) or -1 (sb = 0), heading in (db = 1) or
out (db = 0); flipping bit 0 reverses it.
"""

from dataclasses import dataclass
from itertools import compress

from .errors import InconsistentArcPairing, InvariantError
from .lattice import pairing, segment_parity
from .surface import QUADRANTS, AmbientSurface
from .triangulation import PrimitiveTriangulation, midpoint_node
from .uf import ParityUnionFind, UnionFind

def _check(cond: bool, msg: str):
    if not cond:
        raise InvariantError(msg)


@dataclass
class SweepTables:
    """One surface and triangulation, compiled to flat integer lists."""
    V: int
    T: int
    E: int
    L: int
    interior_points: int
    edge_ends: list      # per edge: lattice point indices of its endpoints
    seg_par: list        # per lift id: <q, segment parity of e>
    edge_class: list     # per lift id: lift id of the canonical lift of its class
    slots: list          # per slot id: edge id
    interior: list       # per interior edge: (e, slot id in t_a, slot id in t_b)
    boundary: list       # per boundary edge: (e, its slot id)
    across: list         # per slot lift: the other slot lift on its midpoint
    succ: tuple          # (untwisted, twisted): successor of every strand state


def compile_sweep(surface: AmbientSurface,
                  tri: PrimitiveTriangulation) -> SweepTables:
    """The tables ``run_sweep`` reads; G(S) must give every upstairs
    midpoint degree 2 and G(Pi) must be connected."""
    pts = tri.polygon.lattice_points
    point_id = {p: i for i, p in enumerate(pts)}
    edge_id = {e: i for i, e in enumerate(tri.edges)}
    tri_id = {t: i for i, t in enumerate(tri.triangles)}
    quad_id = {q: i for i, q in enumerate(QUADRANTS)}
    T, E = tri.T, tri.E

    edge_ends = [(point_id[p], point_id[r]) for p, r in tri.edges]
    seg_par = [pairing(q, segment_parity(*e)) for q in QUADRANTS
               for e in tri.edges]
    edge_class = []
    for q in QUADRANTS:
        for e in tri.edges:
            _, qc, _ = midpoint_node(surface, tri, q, e)
            edge_class.append(quad_id[qc] * E + edge_id[e])
    slots = [edge_id[e] for t in tri.triangles for e in tri.slots[t]]

    def slot_of(t, e):
        return 3 * tri_id[t] + tri.slots[t].index(e)

    interior = []
    for e in tri.interior_edges:
        t_a, t_b = sorted(tri.edge_triangles[e])
        interior.append((edge_id[e], slot_of(t_a, e), slot_of(t_b, e)))
    boundary = [(edge_id[e], slot_of(tri.edge_triangles[e][0], e))
                for e in tri.edges if e in tri.boundary_edges]

    # G(S): each upstairs midpoint joins exactly two barycenter prongs
    ends: dict = {}
    for q in range(4):
        for s in range(3 * T):
            ends.setdefault(edge_class[q * E + slots[s]], []).append(
                q * 3 * T + s)
    across = [0] * (12 * T)
    for c, us in ends.items():
        _check(len(us) == 2, f"upstairs midpoint of lift {c} has degree {len(us)}")
        u, w = us
        across[u], across[w] = w, u

    # G(Pi) is connected, so every filling is
    conn = UnionFind()
    for t in range(T):
        conn.add(t)
    for _, s_a, s_b in interior:
        conn.union(s_a // 3, s_b // 3)
    _check(len(conn.groups()) == 1, "G(Pi) is connected, so the filling is")

    # strand transitions: 'in' turns to the neighboring prong of the same
    # thick-Y; 'out' crosses the prong's end, folding back at a boundary
    # edge, onto the other triangle's prong otherwise
    plain = [0] * (12 * T)
    for s in range(3 * T):
        t, k = divmod(s, 3)
        plain[4 * s + 1] = 4 * (3 * t + (k + 1) % 3) + 2
        plain[4 * s + 3] = 4 * (3 * t + (k - 1) % 3)
        plain[4 * s] = 4 * s + 3
        plain[4 * s + 2] = 4 * s + 1
    twisted = list(plain)
    for _, s_a, s_b in interior:
        for s, s2 in ((s_a, s_b), (s_b, s_a)):
            plain[4 * s], plain[4 * s + 2] = 4 * s2 + 3, 4 * s2 + 1
            twisted[4 * s], twisted[4 * s + 2] = 4 * s2 + 1, 4 * s2 + 3

    return SweepTables(tri.V, T, E, tri.L, tri.V - tri.L, edge_ends, seg_par,
                       edge_class, slots, interior, boundary, across,
                       (plain, twisted))


def _trace(tab: SweepTables, tw: bytearray) -> tuple[int, bool]:
    """Boundary circles and orientability of the filling with twist bits
    ``tw``: orbits of the strand-state permutation, two per circle."""
    plain, twisted = tab.succ
    slots = tab.slots
    n = 12 * tab.T
    perm = [twisted[x] if tw[slots[x >> 2]] else plain[x] for x in range(n)]
    orbit = [-1] * n
    count = 0
    for x in range(n):
        if orbit[x] >= 0:
            continue
        y = x
        while orbit[y] < 0:
            orbit[y] = count
            y = perm[y]
        _check(y == x, "boundary transitions must permute the states")
        count += 1
    _check(all(orbit[x] != orbit[x + 1] for x in range(0, n, 2)),
           "a boundary circle cannot reverse onto itself")
    _check(count % 2 == 0, "boundary circles come in orbit pairs")
    # no twist: the planar orientations agree; twist: they oppose
    uf = ParityUnionFind()
    for t in range(tab.T):
        uf.add(t)
    for e, s_a, s_b in tab.interior:
        if not uf.union(s_a // 3, s_b // 3, tw[e]):
            return count // 2, False
    return count // 2, True


def run_sweep(tab: SweepTables):
    """Yield (D, orientable) for every mask in order; see the module
    docstring for the checks made on each vector."""
    V, T, E = tab.V, tab.T, tab.E
    edge_ends, seg_par, edge_class = tab.edge_ends, tab.seg_par, tab.edge_class
    slots, across, succ = tab.slots, tab.across, tab.succ
    chi_filling = E - 2 * T
    chi_identity = 1 - V + tab.L
    bound = tab.interior_points + 1
    # lifts identified with another one, and the canonical lift of each
    merged = [x for x, c in enumerate(edge_class) if c != x]
    canonical = [edge_class[x] for x in merged]
    # slot lift -> lift id of its edge
    slot_lift = [q * E + slots[s] for q in range(4) for s in range(3 * T)]

    # per slot lift: the next and the previous prong of its triangle
    nxt = [u - u % 3 + (u + 1) % 3 for u in range(12 * T)]
    prv = [u - u % 3 + (u + 2) % 3 for u in range(12 * T)]
    # per slot lift u entering prong k and the sign bit of prong k+1 there:
    # (state in, state out, slot lift of the exit prong, entry edge, exit
    # edge).  Leaving at k+1 walks strand -1 in and +1 out, at k-1 the
    # reverse.
    exits = []
    for u in range(12 * T):
        s = u % (3 * T)
        for s_out, x_in, out_off in ((s - s % 3 + (s + 2) % 3, 4 * s + 3, 0),
                                     (s - s % 3 + (s + 1) % 3, 4 * s + 1, 2)):
            exits.append((x_in, 4 * s_out + out_off, u - s + s_out,
                          slots[s], slots[s_out]))

    def neg_quadrants(e, sign_bit):
        return [q for q in range(4) if seg_par[q * E + e] != sign_bit]

    # per interior edge and edge sign bit: in the two quadrants where its
    # lift is negative, the slot lifts of the next prong in t_a and in t_b
    readings = []
    for e, s_a, s_b in tab.interior:
        by_sign = []
        for sign_bit in (0, 1):
            qs = neg_quadrants(e, sign_bit)
            _check(len(qs) == 2, f"edge {e}: {len(qs)} negative lifts")
            by_sign.append(tuple(nxt[q * 3 * T + s]
                                 for q in qs for s in (s_a, s_b)))
        readings.append((e, by_sign))
    # per boundary edge and edge sign bit: its two negative lifts, as lift
    # ids and as slot lifts
    u_turns = []
    for e, s in tab.boundary:
        by_sign = []
        for sign_bit in (0, 1):
            qs = neg_quadrants(e, sign_bit)
            _check(len(qs) == 2, f"edge {e}: {len(qs)} negative lifts")
            by_sign.append(tuple(q * E + e for q in qs)
                           + tuple(q * 3 * T + s for q in qs))
        u_turns.append(by_sign)

    memo: dict = {}
    for mask in range(1 << V):
        # edge e = (p, r) has sign delta(p) delta(r); its lift to quadrant
        # q has that sign times (-1)^<q, parity of e>.  Bit 1 = negative.
        n = [(mask >> a ^ mask >> b) & 1 for a, b in edge_ends]
        lift = [x ^ p for x, p in zip(n * 4, seg_par)]
        if [lift[x] for x in merged] != [lift[c] for c in canonical]:
            raise InvariantError(f"mask {mask}: edge sign must descend to the surface")
        if [a + b + c + d for a, b, c, d in zip(
                lift[:E], lift[E:2 * E], lift[2 * E:3 * E], lift[3 * E:])
                ].count(2) != E:
            raise InvariantError(
                f"mask {mask}: a downstairs edge lacks exactly two negative lifts")
        sneg = [lift[u] for u in slot_lift]

        # twist bits: at each negative lift of an interior edge the curve
        # runs on into the next or the previous prong of t_a and of t_b;
        # matching turns mean a twist, and the two lifts must turn
        # oppositely on both sides
        tw = bytearray(E)
        for e, by_sign in readings:
            a1, b1, a2, b2 = by_sign[n[e]]
            i1, j1 = sneg[a1], sneg[b1]
            if i1 == sneg[a2] or j1 == sneg[b2]:
                raise InconsistentArcPairing(
                    f"mask {mask}: edge {e}: arc pairings disagree")
            if i1 == j1:
                tw[e] = 1
        # the one negative class of a boundary edge is a U-turn: its two
        # lifts meet at one midpoint, in the same triangle
        for by_sign, (e, _) in zip(u_turns, tab.boundary):
            l1, l2, u1, u2 = by_sign[n[e]]
            if edge_class[l1] != edge_class[l2] or across[u1] != u2:
                raise InvariantError(
                    f"mask {mask}: boundary edge {e} must U-turn in one class")

        key = bytes(tw)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _trace(tab, tw)
        d, orientable = hit

        # walk each curve component through its lifted triangles, with the
        # shadow strand beside it: every lifted triangle it enters has
        # exactly one more negative edge to leave by; the shadow must follow
        # the transitions of this twist vector, close up with the component
        # and share no strand with another component
        seen = bytearray(12 * T)
        used = bytearray(6 * T)
        components = 0
        for u0 in compress(range(12 * T), sneg):
            if seen[u0]:
                continue
            components += 1
            u, first, expected = u0, -1, -1
            while True:
                turn = sneg[nxt[u]]
                if not sneg[u] or turn == sneg[prv[u]]:
                    raise InvariantError(
                        f"mask {mask}: a lifted triangle has an odd number "
                        "of negative edges")
                x_in, x_out, w, e_in, e_out = exits[2 * u + turn]
                if x_in != expected:
                    if expected >= 0:
                        raise InvariantError(
                            f"mask {mask}: shadow must follow the boundary transitions")
                    first = x_in
                if succ[tw[e_in]][x_in] != x_out:
                    raise InvariantError(
                        f"mask {mask}: shadow must follow the boundary transitions")
                if used[x_in >> 1] or used[x_out >> 1]:
                    raise InvariantError(
                        f"mask {mask}: one boundary circle per component")
                used[x_in >> 1] = used[x_out >> 1] = seen[u] = seen[w] = 1
                expected = succ[tw[e_out]][x_out]
                u = across[w]
                if seen[u]:
                    break
            if u != u0 or expected != first:
                raise InvariantError(
                    f"mask {mask}: a curve component must close up with its shadow")
        if components != d:
            raise InvariantError(
                f"mask {mask}: {components} curve components but {d} boundary circles")

        chi_sigma = chi_filling + d
        if chi_sigma != d + chi_identity or chi_sigma > 2:
            raise InvariantError(
                f"mask {mask}: the two Euler characteristic computations must "
                "agree and give at most 2")
        if d > bound:
            raise InvariantError(
                f"component bound violated at mask {mask}: {d} > {bound}")
        yield d, orientable


def sweep(surface: AmbientSurface, tri: PrimitiveTriangulation):
    """Yield (D, orientable) for each of the 2^V sign vectors, in mask
    order."""
    yield from run_sweep(compile_sweep(surface, tri))
