"""The strand kernel against the tuple oracles, through the sweep and the
single-shot TCurve -> TFilling, its Gray-code steps against its
from-scratch state, its thick-Y spins and the sweep's tally against the
parity union-finds of the oracles, the sweep's type-I total against the
GF(2) count, its D and the spins' orientability against the strand-state
orbits of the oracles, its shadows (``oracles.walk_states``) as a
partition of the strand pairs, its one successor table against the
untwisted and twisted definitions, and its invariant checks under
corrupted tables through both."""

import ast
import functools
import itertools
import random
from collections import Counter

import pytest

import tcurve_lab.sweep as sweep_module
from tcurve_lab.errors import InvariantError
from tcurve_lab.filling import build_filling
from tcurve_lab.oracles import (ParityUnionFind, spins_by_double_cover,
                                trace_by_comprehension, type_one_count,
                                walk_states)
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.sweep import (compile_sweep, gray_states, kernel_state,
                              run_sweep, thick_y_spins, trace_vector)
from tcurve_lab.tcurve import TCurve, harnack_distribution
from tcurve_lab.triangulation import (generate_grid_triangulation,
                                      incidence_graphs)

from conftest import standard_triangle
from helpers import (check_type_one_count, match_oracles,
                     primitive_triangulation, random_distribution,
                     random_flips, random_polygon, run_python, sweep)


def mask_signs(tri, mask):
    """The sign vector of ``mask``: bit k for the k-th sorted lattice point."""
    return {p: 1 if mask >> k & 1 else -1
            for k, p in enumerate(tri.polygon.lattice_points)}


def compiled(surface, tri):
    return compile_sweep(tri, incidence_graphs(surface, tri))


def by_mask(results):
    """mask -> (D, orientable) from the sweep's (mask, D, orientable)."""
    return {mask: (d, orientable) for mask, d, orientable in results}


def reference(surface, tri, tables, mask):
    """(D, orientable) of one sign vector by the tuple oracles, once the
    single-shot curve and filling on ``tables`` have matched them."""
    curve = TCurve(surface, tri, mask_signs(tri, mask), tables=tables)
    return match_oracles(curve, build_filling(curve))


def test_random_instances_match_reference():
    """200 seeded polygons with V <= 11 under random primitive
    triangulations: every vector when V <= 9, 64 sampled ones above; and
    the type-I total of each sweep against the GF(2) count.

    A sign vector and its negation have the same edge signs, so the
    reference builds one curve and one filling for both."""
    rng = random.Random(2024)
    instances = vectors = 0
    while instances < 200:
        poly = random_polygon(rng, box=3)
        v = len(poly.lattice_points)
        if v > 11:
            continue
        instances += 1
        tri = random_flips(rng, primitive_triangulation(poly), v)
        surface = build_ambient_surface(poly)
        got = by_mask(sweep(surface, tri))
        assert sorted(got) == list(range(1 << v))
        half = 1 << (v - 1)
        masks = range(half) if v <= 9 else rng.sample(range(half), 32)
        tables = compiled(surface, tri)
        check_type_one_count(tables, dict(Counter(got.values())))
        for mask in masks:
            want = reference(surface, tri, tables, mask)
            assert got[mask] == got[~mask % (1 << v)] == want, (poly, mask)
            vectors += 2
    assert vectors > 200 * 64


def test_walks_come_in_order_of_their_smallest_slot_lift():
    """The kernel starts each walk at the smallest slot lift it enters or
    leaves by and yields the walks in increasing order of that start, and
    ``TCurve`` keeps the order: its components come in increasing order of
    their first lifted triangle.  On T_1..T_6 and seeded random polygons
    under random primitive triangulations, with random signs."""
    rng = random.Random(41)
    instances = [(t, generate_grid_triangulation(t))
                 for t in map(standard_triangle, range(1, 7))]
    while len(instances) < 36:
        poly = random_polygon(rng, box=5)
        instances.append((poly, random_flips(rng, primitive_triangulation(poly), 10)))
    walks_seen = 0
    for poly, tri in instances:
        surface = build_ambient_surface(poly)
        tab = compiled(surface, tri)
        for _ in range(6):
            delta = random_distribution(rng, poly)
            mask = sum(1 << k for k, p in enumerate(poly.lattice_points)
                       if delta[p] > 0)
            walks = trace_vector(tab, mask).walks
            for walk in walks:
                exits = [tab.across[u] for u in walk[1:] + walk[:1]]
                assert walk[0] == min(walk + exits), (poly, mask)
            starts = [walk[0] for walk in walks]
            assert starts == sorted(set(starts)), (poly, mask)
            comps = TCurve(surface, tri, delta, tab).components
            lifted = [walk[0] // 3 for walk in comps]
            assert lifted == sorted(set(lifted)) == [u // 3 for u in starts]
            walks_seen += len(walks)
    assert walks_seen > 500


def test_t4_distribution():
    t4 = standard_triangle(4)
    surface = build_ambient_surface(t4)
    tri = generate_grid_triangulation(t4)
    got = by_mask(sweep(surface, tri))
    dist: dict = {}
    by_type: dict = {}
    for d, orientable in got.values():
        dist[d] = dist.get(d, 0) + 1
        per = by_type.setdefault("I" if orientable else "II", {})
        per[d] = per.get(d, 0) + 1
    # every multiplicity is a multiple of 512 (recorded, not explained)
    assert dist == {1: 14336, 2: 14336, 3: 3584, 4: 512}
    assert by_type == {"I": {2: 3584, 4: 512},
                       "II": {1: 14336, 2: 10752, 3: 3584}}
    tables = compiled(surface, tri)
    for mask in random.Random(4).sample(range(1 << 15), 32):
        assert got[mask] == reference(surface, tri, tables, mask)


def test_run_sweep_never_calls_thick_y_spins(monkeypatch):
    """The sweep decides orientability by the twist parity at each interior
    point, on every run, with no spins, memo or union-find."""
    calls = []
    spins = sweep_module.thick_y_spins

    def counted(tab, tw):
        calls.append(tw)
        return spins(tab, tw)

    monkeypatch.setattr(sweep_module, "thick_y_spins", counted)
    for d in (3, 4):
        tab = compiled_grid(d)
        assert sum(run_sweep(tab).values()) == 1 << tab.V
    assert calls == []


@functools.cache
def compiled_grid(d):
    poly = standard_triangle(d)
    return compiled(build_ambient_surface(poly), generate_grid_triangulation(poly))


def test_type_one_count_matches_the_grid_sweeps():
    """``oracles.type_one_count`` is the type-I total of ``run_sweep`` on
    grid T_2..T_4, and 2^L, L = 3d, on grid T_1..T_20 (ROADMAP item 11's
    law; it holds to d = 30, in about 10 s of CPU)."""
    for d in (2, 3, 4):
        tab = compiled_grid(d)
        check_type_one_count(tab, run_sweep(tab))
    for d in range(1, 21):
        poly = standard_triangle(d)
        tab = compiled(build_ambient_surface(poly), generate_grid_triangulation(poly))
        assert type_one_count(tab) == 1 << 3 * d, d


# ---------------------------------------------------------------------------
# Gray-code steps

def test_gray_steps_match_scratch_states():
    """T_3 and 20 seeded random polygons under random primitive
    triangulations: the Gray steps visit the masks with bit V-1 clear
    once each, in Gray-code order, with the state built from scratch;
    every mask has the state of its complement; and the sweep serves each
    of the 2^V masks once, its tally that of the runs one by one."""
    t3 = standard_triangle(3)
    instances = [(t3, generate_grid_triangulation(t3))]
    rng = random.Random(13)
    while len(instances) < 21:
        poly = random_polygon(rng, box=4)
        if len(poly.lattice_points) <= 11:
            instances.append(
                (poly, random_flips(rng, primitive_triangulation(poly), 8)))
    for poly, tri in instances:
        surface = build_ambient_surface(poly)
        tab = compiled(surface, tri)
        full = (1 << tab.V) - 1
        masks = []
        for mask, state in gray_states(tab):
            assert state == kernel_state(tab, mask), (poly, mask)
            masks.append(mask)
        assert masks == [g ^ g >> 1 for g in range(1 << (tab.V - 1))]
        for mask in range(full + 1):
            assert kernel_state(tab, mask) == kernel_state(tab, mask ^ full), \
                (poly, mask)
        assert sorted(mask for mask, _, _ in sweep(surface, tri)) == \
            list(range(full + 1))


def test_failure_names_its_mask_in_gray_order():
    """A boundary edge that fails its U-turn under one edge sign only: the
    sweep stops at the first mask in Gray order that gives the edge that
    sign, not at mask 0 nor at the first such mask in mask order, and
    ``trace_vector`` on that mask raises the same message."""
    t3 = standard_triangle(3)
    surface, tri = build_ambient_surface(t3), generate_grid_triangulation(t3)
    tab = compiled(surface, tri)
    gray = [g ^ g >> 1 for g in range(1 << tab.V)]
    for k, (e, _) in enumerate(tab.boundary):
        a, b = tab.edge_ends[e]
        first = [next(m for m in order if (m >> a ^ m >> b) & 1)
                 for order in (gray, range(1 << tab.V))]
        if first[0] != first[1]:
            break
    l1, _, _, _ = tab.u_turns[k][1]
    tab.edge_class[l1] = next(c for c in tab.edge_class if c != tab.edge_class[l1])
    message = f"boundary edge {e} must U-turn in one class"
    with pytest.raises(InvariantError) as swept:
        run_sweep(tab)
    assert first[0] not in (0, first[1])
    assert not first[0] >> (tab.V - 1) & 1
    assert str(swept.value) == f"mask {first[0]}: {message}"
    with pytest.raises(InvariantError) as single:
        trace_vector(tab, first[0])
    assert str(single.value) == message


# ---------------------------------------------------------------------------
# compiled successor tables

def successor_definitions(tri):
    """``nxt``, the previous prong of each slot lift (which the walk reads
    as ``nxt[nxt[u]]``) and the untwisted and twisted strand successors,
    one entry at a time: ``SweepTables.succ`` is the untwisted one, and the
    walk reads the twisted one through it."""
    nxt = [u - u % 3 + (u + 1) % 3 for u in range(12 * tri.T)]
    prv = [u - u % 3 + (u - 1) % 3 for u in range(12 * tri.T)]
    by_edge: dict = {}
    for s, e in enumerate(tri.slot_edges):
        by_edge.setdefault(e, []).append(s)
    other = {}
    for ss in by_edge.values():
        if len(ss) == 2:
            other[ss[0]], other[ss[1]] = ss[1], ss[0]
    plain, twisted = [], []
    for s in range(3 * tri.T):
        for sb in (0, 1):
            for db in (0, 1):  # state 4*s + 2*sb + db
                if db:  # in: on to the next prong (sb = 0) or the previous
                    x = 4 * (nxt[s] if sb == 0 else prv[s]) + 2 * (1 - sb)
                    plain.append(x)
                    twisted.append(x)
                elif s not in other:  # out at a boundary edge: fold back
                    plain.append(4 * s + 2 * (1 - sb) + 1)
                    twisted.append(4 * s + 2 * (1 - sb) + 1)
                else:  # out across an interior edge
                    plain.append(4 * other[s] + 2 * (1 - sb) + 1)
                    twisted.append(4 * other[s] + 2 * sb + 1)
    return nxt, prv, plain, twisted


def test_successor_tables_match_their_definitions():
    """Grid T_1..T_8 and 60 seeded random polygons with flips: the one
    table is the untwisted successor, and the walk's rule, ``succ[x ^ 2]``
    for an 'out' state x whose edge is twisted, gives the twisted one
    entry by entry with every interior edge twisted (the kernel's twist
    bit is 0 at a boundary edge).  Every entry is one of the 12T shared
    int objects."""
    instances = [(standard_triangle(d), None) for d in range(1, 9)]
    rng = random.Random(19)
    while len(instances) < 68:
        poly = random_polygon(rng, box=6)
        instances.append((poly, random_flips(rng, primitive_triangulation(poly), 12)))
    for poly, tri in instances:
        tri = tri or generate_grid_triangulation(poly)
        tab = compiled(build_ambient_surface(poly), tri)
        nxt, prv, plain, twisted = successor_definitions(tri)
        assert [tab.nxt, tab.succ] == [nxt, plain]
        tw = bytearray(tab.E)
        for e, _, _ in tab.interior:
            tw[e] = 1
        assert [tab.succ[x ^ 2 * tw[tab.slots[x >> 2]]] if not x & 1
                else tab.succ[x] for x in range(12 * tri.T)] == twisted
        assert [tab.nxt[u] for u in tab.nxt] == prv
        entries = {id(v) for table in (tab.nxt, tab.succ) for v in table}
        assert len(entries) <= 12 * tri.T, poly


# ---------------------------------------------------------------------------
# thick-Y spins

def spin_instances():
    """T_2..T_6 on the grid, then 100 seeded random polygons with flips."""
    for d in range(2, 7):
        poly = standard_triangle(d)
        yield poly, generate_grid_triangulation(poly)
    rng = random.Random(88)
    for _ in range(100):
        poly = random_polygon(rng, box=5)
        yield poly, random_flips(rng, primitive_triangulation(poly), 10)


def test_thick_y_spins_match_parity_union_find():
    """Twist vectors of real curves, random bits (mostly not orientable)
    and bits ``s[t_a] ^ s[t_b]`` of random spins s: the spins exist exactly
    when the oracle meets no contradiction, and then pin triangle 0 and
    differ across an edge exactly when it is twisted."""
    rng = random.Random(8)
    counts = [0, 0]
    for poly, tri in spin_instances():
        tab = compiled(build_ambient_surface(poly), tri)
        vectors = [trace_vector(tab, rng.getrandbits(tab.V)).tw
                   for _ in range(4)]
        vectors += [bytes(rng.getrandbits(1) for _ in range(tab.E))
                    for _ in range(4)]
        for _ in range(4):
            s = [rng.getrandbits(1) for _ in range(tab.T)]
            tw = bytearray(tab.E)
            for e, s_a, s_b in tab.interior:
                tw[e] = s[s_a // 3] ^ s[s_b // 3]
            vectors.append(tw)
        for tw in vectors:
            oracle = ParityUnionFind()
            consistent = all(oracle.union(s_a // 3, s_b // 3, tw[e])
                             for e, s_a, s_b in tab.interior)
            spins = thick_y_spins(tab, tw)
            assert (spins is not None) == consistent, (poly, tri, tw)
            assert spins == spins_by_double_cover(tab, tw)
            counts[consistent] += 1
            if spins is not None:
                assert len(spins) == tab.T and spins[0] == 0
                for e, s_a, s_b in tab.interior:
                    assert spins[s_a // 3] ^ spins[s_b // 3] == tw[e]
    assert min(counts) > 300


def test_parity_rule_matches_the_double_cover_on_every_vector():
    """Every sign vector of grid T_1..T_4 and of 20 seeded polygons under
    random flips: ``thick_y_spins`` (twist parity at each interior point,
    then spins by breadth-first search) gives exactly the spins of the
    double-cover union-find, and the sweep's tally is that of the union-find
    run by run."""
    instances = [compiled_grid(d) for d in range(1, 5)]
    rng = random.Random(3131)
    while len(instances) < 24:
        poly = random_polygon(rng, box=4)
        if len(poly.lattice_points) <= 10:
            tri = random_flips(rng, primitive_triangulation(poly), 20)
            instances.append(compiled(build_ambient_surface(poly), tri))
    counts = [0, 0]
    for tab in instances:
        identities, tally = sweep_module._identities(tab), Counter()
        for _, state in gray_states(tab):
            tw, _, d = sweep_module._run(tab, identities, state, False)
            spins = spins_by_double_cover(tab, tw)
            assert thick_y_spins(tab, tw) == spins, tw
            tally[d, spins is not None] += 2
            counts[spins is not None] += 1
        assert run_sweep(tab) == dict(tally)
    assert min(counts) > 1000


def planted_twists() -> tuple:
    """On grid T_3, whose one interior point ends the spokes: one more
    twist on a spoke and on a chord (an interior edge between two boundary
    points) of a twist vector with spins, whether ``thick_y_spins`` and the
    double cover find spins; then the sweep's tally with that twist planted
    on every run, and on a spoke in the first run only."""
    tab = compiled_grid(3)
    rim = {p for e, _ in tab.boundary for p in tab.edge_ends[e]}
    spoke, chord = (next(e for e, _, _ in tab.interior
                         if rim.issuperset(tab.edge_ends[e]) == on_rim)
                    for on_rim in (False, True))
    tw = next(tw for tw in (trace_vector(tab, m).tw for m in range(1 << tab.V))
              if spins_by_double_cover(tab, tw) is not None)

    def plant(tw, e):
        return tw[:e] + bytes([tw[e] ^ 1]) + tw[e + 1:]

    run = sweep_module._run

    def planted_sweep(e, runs):
        def planted(*args):
            nonlocal runs
            trace, runs = run(*args), runs - 1
            return trace._replace(tw=plant(trace.tw, e)) if runs >= 0 else trace
        sweep_module._run = planted
        try:
            return run_sweep(tab)
        finally:
            sweep_module._run = run
    return ([(thick_y_spins(tab, plant(tw, e)) is not None,
              spins_by_double_cover(tab, plant(tw, e)) is not None)
             for e in (spoke, chord)],
            planted_sweep(spoke, 1 << tab.V), planted_sweep(chord, 1 << tab.V),
            planted_sweep(spoke, 1))


PLANTED = ([(False, False), (True, True)],
           {(1, True): 512, (2, False): 512},
           {(1, False): 512, (2, True): 512},
           {(1, False): 512, (2, False): 2, (2, True): 510})


def test_a_planted_twist_makes_the_filling_non_orientable():
    """A twist planted on a spoke at T_3's interior point leaves no spins
    and turns every run's orientability over (type I vectors report type
    II); one on a chord, a bridge of G(Pi), changes nothing.  Planted on
    the first run only (mask 0, D = 2, type I), the tally's type-I total
    misses the GF(2) count."""
    got = planted_twists()
    assert got == PLANTED
    check_type_one_count(compiled_grid(3), run_sweep(compiled_grid(3)))
    with pytest.raises(AssertionError):
        check_type_one_count(compiled_grid(3), got[3])


def test_a_planted_twist_under_python_O():
    out = run_python("import test_sweep\nprint(test_sweep.planted_twists())\n", "-O")
    assert ast.literal_eval(out) == PLANTED


# ---------------------------------------------------------------------------
# D and orientability of the kernel runs

HARNACK_TYPES = list(itertools.product((0, 1), repeat=3))


@functools.cache
def harnack_runs(d):
    """[(tables, runs)]: the Harnack curves of grid T_d under all 8 types."""
    poly = standard_triangle(d)
    surface, tri = build_ambient_surface(poly), generate_grid_triangulation(poly)
    tab = compiled(surface, tri)
    return [(tab, [TCurve(surface, tri, harnack_distribution(poly, htype), tab).trace
                   for htype in HARNACK_TYPES])]


@functools.cache
def random_runs():
    """60 seeded polygons with flips, each with four random sign vectors."""
    rng = random.Random(2207)
    instances = []
    for _ in range(60):
        poly = random_polygon(rng, box=6)
        tri = random_flips(rng, primitive_triangulation(poly), poly.point_count)
        surface = build_ambient_surface(poly)
        tab = compiled(surface, tri)
        curve = TCurve(surface, tri, random_distribution(rng, poly), tab)
        instances.append((tab, [curve.trace] + [
            trace_vector(tab, rng.getrandbits(tab.V)) for _ in range(3)]))
    return instances


@functools.cache
def every_twist_vector_runs(d):
    """Every twist vector that a sign vector of grid T_d gives (2^(V-3) of
    them), each run from the first mask that gives it in Gray-code order."""
    poly = standard_triangle(d)
    surface, tri = build_ambient_surface(poly), generate_grid_triangulation(poly)
    tab = compiled(surface, tri)
    identities, masks = sweep_module._identities(tab), {}
    for mask, state in gray_states(tab):
        masks.setdefault(sweep_module._run(tab, identities, state, False).tw, mask)
    assert len(masks) == 1 << (tab.V - 3)
    return [(tab, [trace_vector(tab, mask) for mask in masks.values()])]


def assert_trace_matches(instances):
    for tab, runs in instances:
        for run in runs:
            orientable = thick_y_spins(tab, run.tw) is not None
            assert 2 * run.d + orientable == \
                trace_by_comprehension(tab, run.tw), run.tw


@pytest.mark.parametrize("d", range(1, 13))
def test_trace_matches_comprehension_on_harnack_curves(d):
    assert_trace_matches(harnack_runs(d))


def test_trace_matches_comprehension_on_random_instances():
    assert_trace_matches(random_runs())


@pytest.mark.parametrize("d", (3, 4))
def test_trace_matches_comprehension_on_every_twist_vector(d):
    assert_trace_matches(every_twist_vector_runs(d))


@pytest.mark.parametrize("runs", [
    *(pytest.param(functools.partial(harnack_runs, d), id=f"harnack-T{d}")
      for d in range(1, 13)),
    pytest.param(random_runs, id="random"),
    *(pytest.param(functools.partial(every_twist_vector_runs, d),
                   id=f"every-twist-vector-T{d}") for d in (3, 4))])
def test_shadows_partition_the_strand_pairs(runs):
    """The shadows of the walks, as the kernel counts D, use each of the 6T
    strand pairs (a state and its reverse, the state halved) exactly once:
    so they are all the boundary circles."""
    for tab, kernel_runs in runs():
        for run in kernel_runs:
            pairs = sorted(x >> 1 for walk in run.walks
                           for x in walk_states(tab, walk))
            assert pairs == list(range(6 * tab.T)), run.tw


# ---------------------------------------------------------------------------
# corrupted tables

def _corrupt_seg_par(tab):
    e = tab.boundary[0][0]
    tab.seg_par[tab.E + e] ^= 1


def _corrupt_edge_class(tab):
    e, f = tab.boundary[0][0], tab.boundary[1][0]
    tab.edge_class[tab.E + e] = tab.E + f


def _corrupt_edge_ends(tab):
    a, _ = tab.edge_ends[0]
    tab.edge_ends[0] = (a, a)


def _corrupt_across(tab):
    # re-pair two midpoints: u-w and x-y become u-x and w-y
    u, w = 0, tab.across[0]
    x = next(x for x, y in enumerate(tab.across) if {x, y}.isdisjoint({u, w}))
    y = tab.across[x]
    tab.across[u], tab.across[x], tab.across[w], tab.across[y] = x, u, y, w


def _corrupt_across_interior(tab):
    # the same between the prongs of two interior edges in quadrant (0,0)
    (_, u, w), (_, x, y) = tab.interior[:2]
    tab.across[u], tab.across[x], tab.across[w], tab.across[y] = x, u, y, w


def _corrupt_succ_pair(tab):
    # a permutation still, but not the ribbon's
    s, s2 = tab.interior[0][1], tab.interior[1][1]
    tab.succ[4 * s], tab.succ[4 * s2] = tab.succ[4 * s2], tab.succ[4 * s]


def _corrupt_succ(tab):
    tab.succ[0], tab.succ[2] = tab.succ[2], tab.succ[0]


def _corrupt_twisted_succ(tab):
    # where 'out' state 4s lands when its edge is twisted: its untwisted
    # landing instead of the other 'out' state's
    s = tab.interior[0][1]
    tab.succ[4 * s + 2] = tab.succ[4 * s]


def _corrupt_slots(tab):
    tab.slots[0], tab.slots[1] = tab.slots[1], tab.slots[0]


CORRUPTIONS = [_corrupt_seg_par, _corrupt_edge_class, _corrupt_edge_ends,
               _corrupt_across, _corrupt_across_interior, _corrupt_succ,
               _corrupt_succ_pair, _corrupt_twisted_succ, _corrupt_slots]
# on grid T_3, per corruption: the message of the sweep (which names the
# first failing mask) and of the single-shot driver.  Every vector reads
# the one successor table, twisted or not, so a corrupted entry shows at
# the first mask whose walk reads it.
CORRUPTION_MESSAGES = {
    _corrupt_seg_par: ("mask 0: edge sign must descend to the surface",
                       "edge sign must descend to the surface"),
    _corrupt_edge_class: ("mask 0: boundary edge 0 must U-turn in one class",
                          "boundary edge 0 must U-turn in one class"),
    _corrupt_edge_ends: (
        "mask 1: a lifted triangle has an odd number of negative edges",
        "a lifted triangle has an odd number of negative edges"),
    _corrupt_across: ("mask 1: boundary edge 1 must U-turn in one class",
                      "boundary edge 1 must U-turn in one class"),
    _corrupt_across_interior: (
        "mask 3: shadow must follow the boundary transitions",
        "a curve component must close up with its shadow"),
    _corrupt_succ: ("mask 0: shadow must follow the boundary transitions",
                    "shadow must follow the boundary transitions"),
    _corrupt_succ_pair: ("mask 0: shadow must follow the boundary transitions",
                         "shadow must follow the boundary transitions"),
    _corrupt_twisted_succ: (
        "mask 2: shadow must follow the boundary transitions",
        "shadow must follow the boundary transitions"),
    _corrupt_slots: ("mask 0: a curve component must cross by negative edges",
                     "a curve component must cross by negative edges"),
}


def sweep_driver(surface, tri, tab):
    run_sweep(tab)


def single_shot_driver(surface, tri, tab):
    """TCurve -> TFilling on the same tables, every vector in mask order."""
    for mask in range(1 << tab.V):
        build_filling(TCurve(surface, tri, mask_signs(tri, mask), tables=tab))


DRIVERS = [sweep_driver, single_shot_driver]


def corrupted_message(corrupt, driver) -> str:
    """The message with which ``driver`` fails on grid T_3 after
    ``corrupt``; "no failure" when it runs through."""
    t3 = standard_triangle(3)
    surface, tri = build_ambient_surface(t3), generate_grid_triangulation(t3)
    tab = compiled(surface, tri)
    corrupt(tab)
    try:
        driver(surface, tri, tab)
    except InvariantError as exc:
        return str(exc)
    return "no failure"


# the sweep keeps the bare ids
@pytest.mark.parametrize("corrupt, driver", [
    pytest.param(corrupt, driver, id=corrupt.__name__[9:] + suffix)
    for corrupt in CORRUPTIONS
    for driver, suffix in zip(DRIVERS, ("", "-single-shot"))])
def test_corrupted_table_raises(corrupt, driver):
    assert corrupted_message(corrupt, driver) == \
        CORRUPTION_MESSAGES[corrupt][DRIVERS.index(driver)]


def test_corrupted_table_messages_under_python_O():
    code = ("import test_sweep as t\n"
            "for c in t.CORRUPTIONS:\n"
            "    for d in t.DRIVERS:\n"
            "        print(t.corrupted_message(c, d))\n")
    out = run_python(code, "-O")
    assert out.split("\n")[:-1] == [m for c in CORRUPTIONS
                                    for m in CORRUPTION_MESSAGES[c]]


def test_checks_survive_python_O():
    """Both drivers, in one interpreter under -O."""
    code = ("import test_sweep\n"
            "from tcurve_lab.errors import InvariantError\n"
            "from tcurve_lab.lattice import validate_polygon\n"
            "from tcurve_lab.surface import build_ambient_surface\n"
            "from tcurve_lab.triangulation import generate_grid_triangulation\n"
            "t2 = validate_polygon([(0, 0), (2, 0), (0, 2)])\n"
            "surface = build_ambient_surface(t2)\n"
            "tri = generate_grid_triangulation(t2)\n"
            "for driver in test_sweep.DRIVERS:\n"
            "    tab = test_sweep.compiled(surface, tri)\n"
            "    tab.seg_par[tab.E + tab.boundary[0][0]] ^= 1\n"
            "    try:\n"
            "        driver(surface, tri, tab)\n"
            "    except InvariantError:\n"
            "        print(driver.__name__, 'raised')\n")
    out = run_python(code, "-O")
    assert out.split("\n") == [f"{d.__name__} raised" for d in DRIVERS] + [""]
