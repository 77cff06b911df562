"""The strand kernel: one sign vector on compiled integer tables.

``compile_sweep(tri, lifts)`` compiles a triangulation and its lift
table ``lifts`` (``triangulation.incidence_graphs``) into flat integer
lists once.  It shares the two lists of the lift table, which is already
integer and in this numbering: the midpoint of each lift and the prong
across each midpoint.
``trace_vector(tab, mask)`` runs one sign vector on them: bit k of the
mask gives the k-th lexicographically sorted lattice point the sign +1, a
clear bit gives it -1.  It derives the edge sign bits and the sign of
every lifted edge, reads each interior edge's twist bit off its two
triangles, and walks every curve component together with its shadow
strand on the ribbon boundary.  D and orientability depend on the twist
vector alone; the trace of the 12T strand states that gives them can be
memoised on the full vector.  Every invariant of the T-curve and its
filling is checked on every vector and raises ``InvariantError``.

Both paths run this one kernel: ``TCurve`` calls it once for its problem
(``TFilling`` reads that run), and ``sweep(surface, tri)`` calls it for
each of the 2^V sign vectors in mask order, with the trace memoised per
twist vector.

Indices: lattice point i is the i-th sorted lattice point, edge e the e-th
of ``tri.edges``, triangle t the t-th of ``tri.triangles``.  Quadrant q is
``QUADRANTS[q]``.  A lift id ``q*E + e`` names the copy of edge e in
quadrant q; a midpoint of G(S) is named by the lift id of the smaller
quadrant of the copies it joins.  A slot id ``3*t + k`` names prong k of
triangle t in counterclockwise order; a slot lift ``(q*T + t)*3 + k``
names that prong in quadrant q.  A strand state ``4*(3*t + k) + 2*sb +
db`` walks prong k of triangle t on strand +1 (sb = 1) or -1 (sb = 0),
heading in (db = 1) or out (db = 0); flipping bit 0 reverses it.
"""

from itertools import compress
from typing import NamedTuple

from .errors import InconsistentArcPairing, InvariantError, check
from .lattice import pairing, segment_parity
from .surface import QUADRANTS, AmbientSurface
from .triangulation import Lifts, PrimitiveTriangulation, incidence_graphs
from .uf import find


class SweepTables(NamedTuple):
    """One surface and triangulation, compiled to flat integer lists."""
    V: int
    T: int
    E: int
    L: int
    interior_points: int
    edge_ends: list      # per edge: lattice point indices of its endpoints
    seg_par: list        # per lift id: <q, segment parity of e>
    edge_class: list     # per lift id: lift id of its midpoint (``Lifts``)
    merged: list         # the lift ids identified with another one
    canonical: list      # per merged lift id: the canonical lift of its class
    slots: list          # per slot id: edge id
    interior: list       # per interior edge: (e, slot id in t_a, slot id in t_b)
    boundary: list       # per boundary edge: (e, its slot id)
    across: list         # per slot lift: the other prong on its midpoint (``Lifts``)
    nxt: list            # per slot lift: the next prong of its triangle
    prv: list            # per slot lift: the previous prong of its triangle
    readings: tuple      # per sign bit, per interior edge: 4 slot lifts
    u_turns: list        # per boundary edge, per sign bit: 2 lift ids, 2 slot lifts
    succ: tuple          # (untwisted, twisted): successor of every strand state


def compile_sweep(tri: PrimitiveTriangulation, lifts: Lifts) -> SweepTables:
    """The tables ``trace_vector`` reads, sharing the midpoint of each lift
    and the prong across each midpoint with the lift table ``lifts`` of
    ``incidence_graphs``; G(Pi) must be connected."""
    pts = tri.polygon.lattice_points
    point_id = {p: i for i, p in enumerate(pts)}
    edge_id = {e: i for i, e in enumerate(tri.edges)}
    T, E, T3 = tri.T, tri.E, 3 * tri.T
    edge_class, across = lifts.edge_class, lifts.across
    # one int object per value below 12T, shared by every table of lift
    # ids, slot lifts and strand states (fresh ints would take about four
    # times the memory): ``across`` is an involution, so these are its own
    ids = [across[w] for w in across]

    def shared(values):
        return [ids[v] for v in values]

    edge_ends = [(point_id[p], point_id[r]) for p, r in tri.edges]
    par = [segment_parity(*e) for e in tri.edges]
    seg_par = [pairing(q, p) for q in QUADRANTS for p in par]
    merged = [x for x, c in enumerate(edge_class) if c != x]
    slots = shared(edge_id[e] for t in tri.triangles for e in tri.slots[t])
    edge_slots: list = [[] for _ in range(E)]  # in triangle order
    for s, e in enumerate(slots):
        edge_slots[e].append(ids[s])
    interior, boundary = [], []
    for e, ss in enumerate(edge_slots):
        (interior if len(ss) == 2 else boundary).append((ids[e], *ss))

    nxt, prv = [], []
    for u in range(0, 12 * T, 3):
        nxt += (ids[u + 1], ids[u + 2], ids[u])
        prv += (ids[u + 2], ids[u], ids[u + 1])

    # G(Pi) is connected, so every filling is
    parent = list(range(T))
    for _, s_a, s_b in interior:
        parent[find(parent, s_a // 3)] = find(parent, s_b // 3)
    check(sum(t == p for t, p in enumerate(parent)) == 1,
          "G(Pi) is connected, so the filling is")

    def neg_quadrants(e):
        """Per edge sign bit, the two quadrants where the lift of e is
        negative."""
        ones = [q for q in range(4) if seg_par[q * E + e]]
        check(len(ones) == 2, f"edge {e}: {len(ones)} negative lifts")
        return ones, [q for q in range(4) if q not in ones]

    # per edge sign bit and interior edge: in the two quadrants where its
    # lift is negative, the slot lifts of the next prong in t_a and in t_b
    readings = ([], [])
    for e, s_a, s_b in interior:
        for by_bit, (q1, q2) in zip(readings, neg_quadrants(e)):
            by_bit.append((nxt[q1 * T3 + s_a], nxt[q1 * T3 + s_b],
                           nxt[q2 * T3 + s_a], nxt[q2 * T3 + s_b]))
    # per boundary edge and edge sign bit: its two negative lifts, as lift
    # ids and as slot lifts
    u_turns = [[(q1 * E + e, q2 * E + e, q1 * T3 + s, q2 * T3 + s)
                for q1, q2 in neg_quadrants(e)]
               for e, s in boundary]

    # strand transitions: 'in' turns to the neighboring prong of the same
    # thick-Y; 'out' crosses the prong's end, folding back at a boundary
    # edge, onto the other triangle's prong otherwise
    plain = [0] * (12 * T)
    for s in range(T3):
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
    plain, twisted = shared(plain), shared(twisted)

    return SweepTables(tri.V, T, E, tri.L, tri.V - tri.L, edge_ends,
                       seg_par, edge_class, merged,
                       [edge_class[x] for x in merged], slots, interior,
                       boundary, across, nxt, prv, readings, u_turns,
                       (plain, twisted))


def thick_y_spins(tab: SweepTables, tw) -> bytes | None:
    """Per triangle, 1 when its thick-Y's planar orientation is reversed
    relative to that of triangle 0 under twist bits ``tw``: kept across an
    untwisted edge, reversed across a twisted one.  Union-find on the
    double cover of G(Pi), where node 2t + o is triangle t with relative
    orientation o.  None when some 2t and 2t + 1 meet, that is when the
    filling is not orientable."""
    parent = list(range(2 * tab.T))
    for e, s_a, s_b in tab.interior:
        a, b = s_a // 3 * 2, s_b // 3 * 2 + tw[e]
        parent[find(parent, a)] = find(parent, b)
        parent[find(parent, a + 1)] = find(parent, b ^ 1)
    root = [find(parent, x) for x in range(2 * tab.T)]
    if any(r == r1 for r, r1 in zip(root[::2], root[1::2])):
        return None
    return bytes(r != root[0] for r in root[::2])


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
        check(y == x, "boundary transitions must permute the states")
        count += 1
    check(all(orbit[x] != orbit[x + 1] for x in range(0, n, 2)),
          "a boundary circle cannot reverse onto itself")
    check(count % 2 == 0, "boundary circles come in orbit pairs")
    return count // 2, thick_y_spins(tab, tw) is not None


class VectorTrace(NamedTuple):
    """What the kernel reads off one sign vector."""
    tw: bytearray   # per edge id: 1 when the edge is glued with a twist
    walks: list     # per curve component: the slot lift by which it enters
                    # each lifted triangle, in order
    d: int          # boundary circles of the filling
    orientable: bool


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


def trace_vector(tab: SweepTables, mask: int, memo: dict | None = None
                 ) -> VectorTrace:
    """Run one sign vector; ``memo`` keeps (D, orientable) per twist
    vector across calls.  See the module docstring for the checks."""
    T, E, T3 = tab.T, tab.E, 3 * tab.T
    edge_class, slots, across, succ = tab.edge_class, tab.slots, tab.across, tab.succ
    nxt, prv = tab.nxt, tab.prv
    # edge e = (p, r) has sign delta(p) delta(r); its lift to quadrant q
    # has that sign times (-1)^<q, parity of e>.  Bit 1 = negative.
    n = [(mask >> a ^ mask >> b) & 1 for a, b in tab.edge_ends]
    lift = [x ^ p for x, p in zip(n * 4, tab.seg_par)]
    if [lift[x] for x in tab.merged] != [lift[c] for c in tab.canonical]:
        raise InvariantError("edge sign must descend to the surface")
    quads = [lift[:E], lift[E:2 * E], lift[2 * E:3 * E], lift[3 * E:]]
    if [a + b + c + d for a, b, c, d in zip(*quads)].count(2) != E:
        raise InvariantError("a downstairs edge lacks exactly two negative lifts")
    sneg = [part[e] for part in quads for e in slots]

    # twist bits: at each negative lift of an interior edge the curve runs
    # on into the next or the previous prong of t_a and of t_b; matching
    # turns mean a twist, and the two lifts must turn oppositely on both
    # sides
    tw = bytearray(E)
    for (e, _, _), r0, r1 in zip(tab.interior, *tab.readings):
        a1, b1, a2, b2 = r1 if n[e] else r0
        i1, j1 = sneg[a1], sneg[b1]
        if i1 == sneg[a2] or j1 == sneg[b2]:
            raise InconsistentArcPairing(f"edge {e}: arc pairings disagree")
        if i1 == j1:
            tw[e] = 1
    # the one negative class of a boundary edge is a U-turn: its two lifts
    # meet at one midpoint, in the same triangle
    for by_sign, (e, _) in zip(tab.u_turns, tab.boundary):
        l1, l2, u1, u2 = by_sign[n[e]]
        if edge_class[l1] != edge_class[l2] or across[u1] != u2:
            raise InvariantError(f"boundary edge {e} must U-turn in one class")

    memo = {} if memo is None else memo
    key = bytes(tw)
    if key not in memo:
        memo[key] = _trace(tab, tw)
    d, orientable = memo[key]

    # walk each curve component through its lifted triangles, with the
    # shadow strand beside it: every lifted triangle it enters has exactly
    # one more negative edge to leave by, at the next prong (strand -1 in,
    # +1 out) or the previous one (the reverse); the shadow must follow the
    # transitions of this twist vector, close up with the component and
    # share no strand with another component
    walks = []
    seen = bytearray(12 * T)
    used = bytearray(6 * T)
    for u0 in compress(range(12 * T), sneg):
        if seen[u0]:
            continue
        walk = []
        # the state the shadow enters by; it must come round to it again
        first = 4 * (u0 % T3) + 3 - 2 * sneg[nxt[u0]]
        u, expected = u0, first
        while True:
            w_next, w_prev = nxt[u], prv[u]
            turn = sneg[w_next]
            if not sneg[u] or turn == sneg[w_prev]:
                raise InvariantError(
                    "a lifted triangle has an odd number of negative edges")
            w = w_next if turn else w_prev
            s = u % T3
            s_out = w - u + s
            x_in, x_out = 4 * s + 3 - 2 * turn, 4 * s_out + 2 * turn
            if x_in != expected or succ[tw[slots[s]]][x_in] != x_out:
                raise InvariantError("shadow must follow the boundary transitions")
            if used[x_in >> 1] or used[x_out >> 1]:
                raise InvariantError("one boundary circle per component")
            used[x_in >> 1] = used[x_out >> 1] = seen[u] = seen[w] = 1
            walk.append(u)
            expected = succ[tw[slots[s_out]]][x_out]
            u = across[w]
            if seen[u]:
                break
        if u != u0 or expected != first:
            raise InvariantError("a curve component must close up with its shadow")
        walks.append(walk)
    if len(walks) != d:
        raise InvariantError(
            f"{len(walks)} curve components but {d} boundary circles")

    chi_sigma = E - 2 * T + d
    if chi_sigma != d + 1 - tab.V + tab.L or chi_sigma > 2:
        raise InvariantError("the two Euler characteristic computations must "
                             "agree and give at most 2")
    if d > tab.interior_points + 1:
        raise InvariantError(
            f"component bound violated: {d} > {tab.interior_points + 1}")
    return VectorTrace(tw, walks, d, orientable)


def run_sweep(tab: SweepTables):
    """Yield (D, orientable) for every mask in order; an invariant that
    fails names its mask."""
    memo: dict = {}
    for mask in range(1 << tab.V):
        try:
            run = trace_vector(tab, mask, memo)
        except InvariantError as exc:
            raise type(exc)(f"mask {mask}: {exc}") from None
        yield run.d, run.orientable


def sweep(surface: AmbientSurface, tri: PrimitiveTriangulation):
    """Yield (D, orientable) for each of the 2^V sign vectors, in mask
    order."""
    yield from run_sweep(compile_sweep(tri, incidence_graphs(surface, tri)))
