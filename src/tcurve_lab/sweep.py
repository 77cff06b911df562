"""The strand kernel: sign vectors on compiled integer tables.

``compile_sweep(tri, lifts)`` compiles a triangulation and its lift
table ``lifts`` (``triangulation.incidence_graphs``) into flat integer
lists once.  It shares the two lists of the lift table, which is already
integer and in this numbering: the midpoint of each lift and the prong
across each midpoint.

Bit k of a mask gives the k-th lexicographically sorted lattice point the
sign +1, a clear bit gives it -1.  The kernel holds what one sign vector
makes of the tables as ten Python ints, one byte (0 or 1) per entry,
entry i in byte i (``int.from_bytes(..., "little")``):

- ``n``: per edge, 1 when its sign is negative;
- ``sneg``: per slot lift, 1 when its lifted edge is negative;
- eight reading ints, per edge sign bit b and reading prong p: per
  interior edge, the sign of the p-th prong its curve may run on into
  when the edge has sign bit b (``SweepTables.readings``).

A lift's sign is its edge's sign XOR its ``seg_par``, so the edge sign
cancels out of four invariants, which ``_identities`` checks once when a
run starts: the signs descend (a merged lift has the ``seg_par`` of its
canonical lift, of the same edge); each edge has exactly two negative
lifts (the quadrant masks of ``seg_par`` A..D have ``A^B^C^D == 0``,
``A|B|C|D`` full and ``A&B&C&D == 0``, which flipping all four bits of
an edge keeps); each boundary edge U-turns in its negative class under
both edge signs; and E - 2T = 1 - V + L, the two Euler characteristics.
``_run`` checks per vector what the state decides: 0 or 2 negative edges
per lifted triangle (``sneg ^ sneg >> 8 ^ sneg >> 16`` clear on the
first byte of each), which also catches Gray-code edge signs that drift
from the point signs; arc pairings that agree at both negative lifts of
an interior edge, whose twist bits come from the same readings; the
walk; and D <= i + 1, by the Euler identity chi <= 2 when capped.  The
walk follows every component with its shadow strand on the ribbon
boundary, and checks the transitions, closure and that no two shadows
share a strand; the shadows are then all the boundary circles, so D is
the number of walks.  Every failure raises ``InvariantError``.  The walk
reads one successor table, the untwisted one (``SweepTables.succ``), and
a twist swaps a prong's two 'out' states.

One representation serves two drivers, with the same checks and the
same walk.  ``trace_vector(tab, mask)`` builds the state from scratch
(``kernel_state``) for ``TCurve``, and it alone records the walks
(``TFilling`` reads that run).  ``run_sweep`` (behind ``enumerate``)
runs the masks with bit V-1 clear in Gray-code order, ``g ^ g >> 1``,
and tallies (D, orientable); the complement of a mask (-delta) has the
same edge signs and so the same state, run and checks.  Each
step flips one point sign j, which XORs the state (affine in the mask
over GF(2)) with the change flipping j makes to mask 0's (``gray_states``).

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
from operator import itemgetter, ne, xor
from typing import NamedTuple

from .errors import InconsistentArcPairing, InvariantError
from .triangulation import Lifts, PrimitiveTriangulation


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
    readings: tuple      # per edge sign bit b and reading prong p, at 4*b + p:
                         # per edge id, the slot lift read (-1 at a boundary edge)
    u_turns: list        # per boundary edge, per sign bit: 2 lift ids, 2 slot lifts
    succ: list           # per strand state: its successor when untwisted


# <q, p> for quadrant index q = 2a + b and segment parity p = 2c + d; per
# segment parity 1..3 and edge sign bit: the two quadrants where a lift of
# that parity is negative
PAIRING = [[bin(q & p).count("1") & 1 for p in range(4)] for q in range(4)]
NEG = [[[q for q in range(4) if PAIRING[q][p] != b] for b in (0, 1)]
       for p in range(4)]


def compile_sweep(tri: PrimitiveTriangulation, lifts: Lifts) -> SweepTables:
    """The tables ``trace_vector`` reads, sharing the edge ends and the edge
    of each slot with ``tri``, and the midpoint of each lift and the prong
    across each midpoint with the lift table ``lifts`` of
    ``incidence_graphs``, which has checked that G(Pi) is connected.
    ``interior``, ``boundary`` and each slot's partner are read from
    ``across`` in quadrant 0, where an interior edge's two slots are across
    each other and a boundary edge's slot faces another quadrant."""
    T, E, T3 = tri.T, tri.E, 3 * tri.T
    edge_class, across = lifts.edge_class, lifts.across
    # one int object per value below 12T, shared by every table of lift
    # ids, slot lifts and strand states (fresh ints would take about four
    # times the memory): ``across`` is an involution, so these are its own
    ids = [across[w] for w in across]

    # the segment parity of a primitive edge, 2x + y, is the sum of the
    # parities of its ends
    par = [2 * (x & 1) + (y & 1) for x, y in tri.polygon.lattice_points]
    spar = [par[i] ^ par[j] for i, j in tri.edge_ends]
    if 0 in spar:
        raise InvariantError(f"edge {spar.index(0)}: 0 negative lifts")
    seg_par = [PAIRING[q][p] for q in range(4) for p in spar]
    merged = list(compress(ids, map(ne, edge_class, ids)))
    slots = tri.slot_edges
    partner = [w if w < T3 else s for s, w in zip(ids, across[:T3])]
    interior = sorted((ids[slots[s]], s, w) for s, w in zip(ids, partner) if s < w)
    boundary = sorted((ids[slots[s]], s) for s, w in zip(ids, partner) if s == w)

    # in a run of 3 slot lifts per lifted triangle, prong k's is entry k
    nxt = list(ids)
    for k in range(3):
        nxt[k::3] = ids[(k + 1) % 3::3]

    # per edge sign bit and interior edge: in the two quadrants where its
    # lift is negative, the slot lifts of the next prong in t_a and in t_b
    readings = tuple([-1] * E for _ in range(8))
    r0, r1, r2, r3, r4, r5, r6, r7 = readings
    for e, s_a, s_b in interior:
        (q1, q2), (q3, q4) = NEG[spar[e]]
        r0[e], r1[e] = nxt[q1 * T3 + s_a], nxt[q1 * T3 + s_b]
        r2[e], r3[e] = nxt[q2 * T3 + s_a], nxt[q2 * T3 + s_b]
        r4[e], r5[e] = nxt[q3 * T3 + s_a], nxt[q3 * T3 + s_b]
        r6[e], r7[e] = nxt[q4 * T3 + s_a], nxt[q4 * T3 + s_b]
    # per boundary edge and edge sign bit: its two negative lifts, as lift
    # ids and as slot lifts
    u_turns = [[(q1 * E + e, q2 * E + e, q1 * T3 + s, q2 * T3 + s)
                for q1, q2 in NEG[spar[e]]]
               for e, s in boundary]

    # untwisted strand transitions: 'in' turns to the neighboring prong of
    # the same thick-Y; 'out' crosses the prong's end onto the prong of the
    # other slot of its edge, its partner, or folds back at a boundary edge,
    # whose slot is its own partner.  In the run of 12 states of a triangle,
    # prong k's are entries 4k..4k+3.
    succ = list(ids)
    succ[0::4] = [ids[4 * p + 3] for p in partner]
    succ[2::4] = [ids[4 * p + 1] for p in partner]
    for k in range(3):
        succ[4 * k + 1::12] = ids[4 * ((k + 1) % 3) + 2::12]
        succ[4 * k + 3::12] = ids[4 * ((k - 1) % 3)::12]

    return SweepTables(tri.V, T, E, tri.L, tri.V - tri.L, tri.edge_ends,
                       seg_par, edge_class, merged,
                       [edge_class[x] for x in merged], slots, interior,
                       boundary, across, nxt, readings, u_turns, succ)


def _stars(tab: SweepTables) -> list:
    """Per interior lattice point, the ids of the edges that end at it.  Their
    links are a basis of the cycles of G(Pi), so twist bits are orientable
    iff every star holds an even number of them (README, "sweep")."""
    stars = [[] for _ in range(tab.V)]
    for e, (a, b) in enumerate(tab.edge_ends):
        stars[a].append(e)
        stars[b].append(e)
    rim = {p for e, _ in tab.boundary for p in tab.edge_ends[e]}
    return [star for p, star in enumerate(stars) if p not in rim]


def thick_y_spins(tab: SweepTables, tw) -> bytes | None:
    """Per triangle, 1 when its thick-Y's planar orientation is reversed
    relative to that of triangle 0 under twist bits ``tw``: kept across an
    untwisted edge, reversed across a twisted one, read off one
    breadth-first pass over G(Pi).  None when the filling is not
    orientable, by the twist parity of ``_stars``."""
    if any(sum(map(tw.__getitem__, star)) & 1 for star in _stars(tab)):
        return None
    T, across, slots = tab.T, tab.across, tab.slots
    spins = [0] + [2] * (T - 1)  # 2: not reached yet
    queue = [0]
    for t in queue:
        for s in range(3 * t, 3 * t + 3):
            w = across[s] // 3  # T or more at a boundary edge
            if w < T and spins[w] == 2:
                spins[w] = spins[t] ^ tw[slots[s]]
                queue.append(w)
    return bytes(spins)


class VectorTrace(NamedTuple):
    """What the kernel reads off one sign vector."""
    tw: bytes       # per edge id: 1 when the edge is glued with a twist
    walks: list     # per curve component, from its smallest slot lift and in
                    # that order: the slot lift entering each lifted triangle
    d: int          # boundary circles of the filling


def _ints(*rows) -> list:
    """Byte rows of 0/1 entries as ints, entry i in byte i."""
    return [int.from_bytes(row, "little") for row in rows]


def kernel_state(tab: SweepTables, mask: int) -> list:
    """The kernel state of ``mask`` built from scratch: (n, sneg, and the
    eight reading ints), as the module docstring describes."""
    E = tab.E
    # edge e = (p, r) has sign delta(p) delta(r); its lift to quadrant q
    # has that sign times (-1)^<q, parity of e>.  1 = negative.
    sign = format(mask, "b").zfill(tab.V)[::-1].encode()  # byte k: 48 + bit k
    n = bytes([sign[a] ^ sign[b] for a, b in tab.edge_ends])
    lift = (int.from_bytes(n * 4, "little") ^ int.from_bytes(
        bytes(tab.seg_par), "little")).to_bytes(4 * E, "little")
    # itemgetter of 3 or more indices gathers a tuple
    by_slot = itemgetter(*tab.slots)
    sneg = b"".join(bytes(by_slot(lift[q * E:q * E + E])) for q in range(4))
    read = sneg + b"\0"  # a boundary edge reads slot lift -1: 0
    return _ints(n, sneg,
                 *(bytes(itemgetter(*rd)(read)) for rd in tab.readings))


def _identities(tab: SweepTables) -> tuple:
    """Check the invariants that the tables alone decide, once when a run
    starts (module docstring), and return the constants the kernel state
    is checked against, one byte per entry as in the state: 1 per
    interior edge, and 1 on the first slot lift of each lifted triangle."""
    E, seg_par, edge_class, across = tab.E, tab.seg_par, tab.edge_class, tab.across
    by_lift = seg_par.__getitem__
    if any(map(ne, map(by_lift, tab.merged), map(by_lift, tab.canonical))):
        raise InvariantError("edge sign must descend to the surface")
    a, b, c, d, edges = _ints(*(bytes(seg_par[q * E:q * E + E]) for q in range(4)),
                              b"\1" * E)
    if a ^ b ^ c ^ d or a | b | c | d != edges or a & b & c & d:
        raise InvariantError("a downstairs edge lacks exactly two negative lifts")
    # under either edge sign, the one negative class of a boundary edge is
    # a U-turn: its two lifts meet at one midpoint, in the same triangle
    for by_sign, (e, _) in zip(tab.u_turns, tab.boundary):
        for l1, l2, u1, u2 in by_sign:
            if edge_class[l1] != edge_class[l2] or across[u1] != u2:
                raise InvariantError(f"boundary edge {e} must U-turn in one class")
    if E - 2 * tab.T != 1 - tab.V + tab.L:
        raise InvariantError("the two Euler characteristic computations must agree")
    interior = bytearray(b"\1") * E  # every edge off the boundary is interior
    for e, _ in tab.boundary:
        interior[e] = 0
    return _ints(interior, b"\1\0\0" * (4 * tab.T))


def _run(tab: SweepTables, identities: tuple, state: list,
         record: bool) -> VectorTrace:
    """Check one kernel state against ``_identities(tab)`` and walk its
    curve; the walks are recorded only with ``record``.  See the module
    docstring for the checks."""
    n, neg, r00, r01, r02, r03, r10, r11, r12, r13 = state
    interior, triangles = identities
    if (neg ^ neg >> 8 ^ neg >> 16) & triangles:
        raise InvariantError(
            "a lifted triangle has an odd number of negative edges")

    # twist bits: at each negative lift of an interior edge the curve runs
    # on into the next or the previous prong of t_a and of t_b; matching
    # turns mean a twist, and the two lifts must turn oppositely on both
    # sides
    i1 = r00 ^ (r00 ^ r10) & n
    j1 = r01 ^ (r01 ^ r11) & n
    agree = (i1 ^ r02 ^ (r02 ^ r12) & n) & (j1 ^ r03 ^ (r03 ^ r13) & n)
    if agree != interior:
        x = agree ^ interior  # the first edge that disagrees: its lowest set byte
        raise InconsistentArcPairing(
            f"edge {((x & -x).bit_length() - 1) >> 3}: arc pairings disagree")

    T, E, T3 = tab.T, tab.E, 3 * tab.T
    tw = (i1 ^ j1 ^ interior).to_bytes(E, "little")

    # walk each curve component through its lifted triangles, with the
    # shadow strand beside it: every lifted triangle it enters has exactly
    # one more negative edge to leave by, at the next prong (strand -1 in,
    # +1 out) or the previous one (the reverse).  The shadow must follow the
    # transitions of this twist vector and close up with the component, so
    # it is a whole orbit, and share no strand pair with another shadow.
    # Each edge has two negative lifts, so each triangle has exactly three
    # lifts with two negative edges, and each visit uses two of its six
    # strand pairs: the shadows use all 6T pairs.  They are all the
    # boundary circles, one per component, and D is the number of walks
    # a list: indexing it is faster than indexing bytes
    sneg = list(neg.to_bytes(12 * T, "little"))
    across, nxt, succ, slots = tab.across, tab.nxt, tab.succ, tab.slots
    walks = []
    d = 0
    seen = [0] * (12 * T)
    used = [0] * (6 * T)
    for u0 in compress(range(12 * T), sneg):
        if seen[u0]:
            continue
        walk = []
        # the state the shadow enters by; it must come round to it again
        first = 4 * (u0 % T3) + 3 - 2 * sneg[nxt[u0]]
        u, expected = u0, first
        while True:
            if not sneg[u]:
                raise InvariantError("a curve component must cross by negative edges")
            # the lifted triangle has one more negative edge, by the
            # identity; the shadow enters and leaves by the strand states
            # of prongs s and s_out beside it, 4s + 3 - 2 turn and 4 s_out +
            # 2 turn, and uses their strand pairs, the states halved
            w = nxt[u]
            if sneg[w]:
                x_in, x_out = 4 * (u % T3) + 1, 4 * (w % T3) + 2
            else:
                w = nxt[w]  # the previous prong, after the next
                x_in, x_out = 4 * (u % T3) + 3, 4 * (w % T3)
            if x_in != expected or succ[x_in] != x_out:
                raise InvariantError("shadow must follow the boundary transitions")
            p_in, p_out = x_in >> 1, x_out >> 1
            if used[p_in] or used[p_out]:
                raise InvariantError("one boundary circle per component")
            used[p_in] = used[p_out] = seen[u] = seen[w] = 1
            if record:
                walk.append(u)
            # a twist swaps the landings of the prong's two 'out' states
            expected = succ[x_out ^ 2 * tw[slots[x_out >> 2]]]
            u = across[w]
            if seen[u]:
                break
        if u != u0 or expected != first:
            raise InvariantError("a curve component must close up with its shadow")
        d += 1
        if record:
            walks.append(walk)

    if d > tab.interior_points + 1:
        raise InvariantError(
            f"component bound violated: {d} > {tab.interior_points + 1}")
    return VectorTrace(tw, walks, d)


def trace_vector(tab: SweepTables, mask: int) -> VectorTrace:
    """Run one sign vector from scratch and record the walk of each curve
    component."""
    return _run(tab, _identities(tab), kernel_state(tab, mask), True)


def gray_states(tab: SweepTables):
    """Yield (mask, kernel state) for the 2^(V-1) masks with bit V-1 clear,
    the first half of the Gray-code order.  Step g flips the sign of point
    j, the lowest set bit of g; as the state is affine in the mask, that
    XORs it with the state of mask 0 plus that of mask 1 << j."""
    state = kernel_state(tab, 0)
    flips = [list(map(xor, kernel_state(tab, 1 << j), state))
             for j in range(tab.V - 1)]
    yield 0, state
    for g in range(1, 1 << (tab.V - 1)):
        # a list: tuple() of a map grows by resizing, and each size-10
        # tuple it frees would stay on the interpreter's free list
        state = list(map(xor, state, flips[(g & -g).bit_length() - 1]))
        yield g ^ g >> 1, state


def run_sweep(tab: SweepTables) -> dict:
    """The tally {(D, orientable): vectors} over all 2^V masks: each state
    of ``gray_states`` serves its mask and the complement, and is
    orientable by the twist parity of ``_stars``, one int mask each.  A
    fault of the tables alone names no mask; any other failure names the
    first failing mask in Gray-code order, the one with bit V-1 clear."""
    identities = _identities(tab)
    stars = [sum(1 << 8 * e for e in star) for star in _stars(tab)]
    tally: dict = {}
    for mask, state in gray_states(tab):
        try:
            tw, _, d = _run(tab, identities, state, False)
        except InvariantError as exc:
            raise type(exc)(f"mask {mask}: {exc}") from None
        tw = int.from_bytes(tw, "little")
        key = d, not any((tw & star).bit_count() & 1 for star in stars)
        tally[key] = tally.get(key, 0) + 2
    return tally
