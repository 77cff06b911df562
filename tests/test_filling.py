import itertools
import random

import pytest

from tcurve_lab.errors import InvariantError, NotTypeI
from tcurve_lab.filling import (build_filling, classify_filling, harnack_check,
                                orient_curve)
from tcurve_lab.oracles import (classify_filling_by_cells, component_nodes,
                                components_by_adjacency, directed_projection,
                                midpoint_nodes, oriented_nodes, shadows,
                                surface_left)
from tcurve_lab.surface import QUADRANTS, build_ambient_surface
from tcurve_lab.tcurve import extract_curve, harnack_distribution

from conftest import pipeline, standard_triangle
from helpers import (match_oracles, primitive_triangulation,
                     random_distribution, random_flips, random_polygon,
                     run_python)


def test_single_thick_y():
    # one triangle, three folds: the filling is a disk with one boundary
    # circle, traced by hand in the strand model
    t1 = standard_triangle(1)
    _, _, curve = pipeline(t1, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
    filling = build_filling(curve)
    assert len(filling.folds) == 3
    assert not filling.twists
    assert filling.chi == 1
    assert filling.boundary_count == 1
    assert len(curve.components) == 1


def test_t3_harnack_arithmetic():
    t3 = standard_triangle(3)
    _, tri, curve = pipeline(t3, harnack_distribution(t3, (1, 0, 0)))
    filling = build_filling(curve)
    assert filling.chi == tri.E - 2 * tri.T == 0
    assert filling.boundary_count == 2
    cls = classify_filling(filling)
    assert cls.euler == 2
    assert cls.orientable and cls.genus == 0  # a sphere; the curve is of type I
    verdict = harnack_check(filling)
    assert verdict.maximal and verdict.bound_holds and verdict.identity_holds
    # the double of the filling has genus (d-1)(d-2)/2 = 1
    assert 2 * filling.chi == 2 - 2 * 1


def test_boundary_cycles_match_components():
    rng = random.Random(31)
    for d in (2, 3, 4):
        poly = standard_triangle(d)
        for _ in range(6):
            _, _, curve = pipeline(poly, random_distribution(rng, poly))
            filling = build_filling(curve)
            assert filling.boundary_count == len(curve.components)


def walked_curves():
    """Harnack curves of T_2..T_6 under all 8 types, then curves with
    random signs on 30 seeded random polygons with flips."""
    for d in range(2, 7):
        poly = standard_triangle(d)
        for htype in itertools.product((0, 1), repeat=3):
            yield pipeline(poly, harnack_distribution(poly, htype))[2]
    rng = random.Random(909)
    for _ in range(30):
        poly = random_polygon(rng, box=5)
        tri = random_flips(rng, primitive_triangulation(poly),
                           len(poly.lattice_points))
        yield extract_curve(build_ambient_surface(poly), tri,
                            random_distribution(rng, poly))


def test_walks_run_with_their_nodes():
    # visit v of a walk is the barycenter at node 2v, and the midpoint of
    # the next entry is node 2v + 1, against the oracle's components
    for curve in walked_curves():
        tab, tri = curve.tables, curve.tri
        T3, E = 3 * tab.T, tab.E

        def midpoint(u):
            q, s = divmod(u, T3)
            m_q, e = divmod(tab.edge_class[q * E + tab.slots[s]], E)
            return ("m", QUADRANTS[m_q], tri.edges[e])

        oracle = components_by_adjacency(tri, midpoint_nodes(curve.surface, tri),
                                          curve.delta)
        assert len(oracle) == len(curve.components)
        for walk, want in zip(curve.components, oracle):
            nodes = []
            for u, u_next in zip(walk, walk[1:] + walk[:1]):
                q, s = divmod(u, T3)
                nodes += (("b", QUADRANTS[q], tri.triangles[s // 3]),
                          midpoint(u_next))
            assert tuple(nodes) == want


def test_shadows_are_closed_orbits():
    # the strand states derived from each walk follow the transitions of
    # the run's twist bits and come round after two per visit: the
    # untwisted successor, or at an 'out' state of a twisted edge the
    # other 'out' state's
    for curve in walked_curves():
        tab, tw = curve.tables, curve.trace.tw
        views = shadows(curve)
        assert len(views) == len(curve.components)
        for shadow, walk in zip(views, curve.components):
            assert len(shadow) == 2 * len(walk) == len(set(shadow))
            for x, y in zip(shadow, shadow[1:] + shadow[:1]):
                twisted = tw[tab.slots[x >> 2]] and not x & 1
                assert tab.succ[x ^ 2 * twisted] == y


def test_chi_formulas_agree():
    rng = random.Random(37)
    poly = standard_triangle(3)
    _, tri, _ = pipeline(poly, random_distribution(rng, poly))
    for _ in range(10):
        _, _, curve = pipeline(poly, random_distribution(rng, poly))
        filling = build_filling(curve)
        cls = classify_filling(filling)
        d = filling.boundary_count
        assert cls.euler == filling.chi + d == d + 1 - tri.V + tri.L
        assert cls.euler <= 2


SHIFTED_D = """\
from tcurve_lab.errors import InvariantError
from tcurve_lab.filling import build_filling, classify_filling
from tcurve_lab.lattice import validate_polygon
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.tcurve import extract_curve, harnack_distribution
from tcurve_lab.triangulation import generate_grid_triangulation
t3 = validate_polygon([(0, 0), (3, 0), (0, 3)])
curve = extract_curve(build_ambient_surface(t3), generate_grid_triangulation(t3),
                      harnack_distribution(t3, (1, 0, 0)))
filling = build_filling(curve)
filling.boundary_count += 1  # the capped filling's chi: 3
try:
    classify_filling(filling)
except InvariantError as exc:
    print(exc)
"""


def test_shifted_boundary_count_refused():
    """An orientable filling whose D is one off caps to an odd chi, which
    no orientable closed surface has: refused, not floor-divided into a
    genus, also under python -O."""
    t3 = standard_triangle(3)
    _, _, curve = pipeline(t3, harnack_distribution(t3, (1, 0, 0)))
    filling = build_filling(curve)
    assert filling.orientable
    filling.boundary_count += 1
    with pytest.raises(InvariantError, match="chi = 2 - 2g"):
        classify_filling(filling)
    assert run_python(SHIFTED_D, "-O") == "chi = 2 - 2g, g >= 0\n"


def test_oracle_agreement_random_instances():
    rng = random.Random(41)
    for _ in range(10):
        poly = random_polygon(rng, box=6)
        tri = random_flips(rng, primitive_triangulation(poly), 4)
        surface = build_ambient_surface(poly)
        curve = extract_curve(surface, tri, random_distribution(rng, poly))
        filling = build_filling(curve)
        cls = classify_filling(filling)
        chi, d, orientable = classify_filling_by_cells(filling)
        assert chi == filling.chi
        assert d == filling.boundary_count
        assert orientable == cls.orientable
        assert match_oracles(curve, filling) == (d, orientable)
        assert d <= poly.census().interior_points + 1


def test_harnack_check_t5():
    t5 = standard_triangle(5)
    _, _, curve = pipeline(t5, harnack_distribution(t5, (1, 0, 0)))
    verdict = harnack_check(build_filling(curve))
    assert verdict.boundary_count == 7 == verdict.interior_points + 1
    assert verdict.maximal


def test_maximal_implies_type_one():
    rng = random.Random(43)
    found = 0
    for d in (2, 3):
        poly = standard_triangle(d)
        for _ in range(40):
            _, _, curve = pipeline(poly, random_distribution(rng, poly))
            filling = build_filling(curve)
            verdict = harnack_check(filling)
            if verdict.maximal:
                found += 1
                assert classify_filling(filling).orientable  # type I
    assert found > 0


# ---------------------------------------------------------------------------
# orientation

def test_orientation_reversal():
    # one bit per component; flip=True reverses every component
    for curve, filling in type_one_curves():
        bits = orient_curve(curve, filling)
        assert len(bits) == len(curve.components)
        assert orient_curve(curve, filling, flip=True) == bytes(b ^ 1 for b in bits)


def type_one_curves():
    """Harnack curves of T_2..T_5 under all 8 types, then 40 type I curves
    with random signs on seeded random polygons with flips."""
    for d in range(2, 6):
        poly = standard_triangle(d)
        for htype in itertools.product((0, 1), repeat=3):
            _, _, curve = pipeline(poly, harnack_distribution(poly, htype))
            yield curve, build_filling(curve)
    rng = random.Random(5150)
    found = 0
    while found < 40:
        poly = random_polygon(rng, box=5)
        tri = random_flips(rng, primitive_triangulation(poly),
                           len(poly.lattice_points))
        surface = build_ambient_surface(poly)
        for _ in range(20):
            curve = extract_curve(surface, tri, random_distribution(rng, poly))
            filling = build_filling(curve)
            if filling.orientable:
                found += 1
                yield curve, filling
                break


def test_orientation_pins_triangle_zero():
    # flip=False keeps the planar orientation of the thick-Y of triangle 0:
    # each circle runs along its shadow exactly where that shadow passes
    # triangle 0 with the planar orientation on its left
    for curve, filling in type_one_curves():
        bits = orient_curve(curve, filling)
        passes = 0
        for walk, shadow, bit in zip(curve.components, shadows(curve), bits):
            along = {surface_left(x) for x in shadow if x // 12 == 0}
            nodes = component_nodes(curve, walk)
            assert along <= {oriented_nodes(curve, walk, bit) == nodes}
            passes += len(along)
        assert passes > 0


def test_orientation_lift_rule():
    # the lifted direction of each projected segment is its reflection:
    # nodes of the oriented cycle project in traversal order, and each
    # projected segment ends where the next starts
    t3 = standard_triangle(3)
    _, _, curve = pipeline(t3, harnack_distribution(t3, (1, 0, 0)))
    filling = build_filling(curve)
    for walk, bit in zip(curve.components, orient_curve(curve, filling)):
        nodes = oriented_nodes(curve, walk, bit)
        projection = directed_projection(nodes)
        n = len(nodes)
        for i in range(n):
            lifted = (nodes[i], nodes[(i + 1) % n])
            assert projection[i] == tuple(x[:1] + x[2:] for x in lifted)
            assert projection[i][1] == projection[(i + 1) % n][0]


def t4_with_a_flipped_spin():
    """Harnack T_4 of type (1,0,0) and its filling, with the spin flipped
    of the first triangle that the first component visits; that component
    visits other triangles too."""
    t4 = standard_triangle(4)
    _, _, curve = pipeline(t4, harnack_distribution(t4, (1, 0, 0)))
    filling = build_filling(curve)
    walk, T3 = curve.components[0], 3 * curve.tables.T
    t = walk[0] % T3 // 3
    assert {u % T3 // 3 for u in walk} != {t}
    spins = bytearray(filling.spins)
    spins[t] ^= 1
    filling.spins = bytes(spins)
    return curve, filling


def test_flipped_spin_raises():
    # the induced orientation then turns within the circle, in process and
    # under python -O
    message = "induced orientation must be constant along a circle"
    curve, filling = t4_with_a_flipped_spin()
    with pytest.raises(InvariantError, match=f"^{message}$"):
        orient_curve(curve, filling)
    out = run_python("import tcurve_lab.filling as fill\n"
                     "from tcurve_lab.errors import InvariantError\n"
                     "from test_filling import t4_with_a_flipped_spin\n"
                     "curve, filling = t4_with_a_flipped_spin()\n"
                     "try:\n"
                     "    fill.orient_curve(curve, filling)\n"
                     "except InvariantError as exc:\n"
                     "    print(exc)\n", "-O")
    assert out.strip() == message


def test_not_type_one_rejected():
    rng = random.Random(47)
    poly = standard_triangle(3)
    for _ in range(200):
        _, _, curve = pipeline(poly, random_distribution(rng, poly))
        filling = build_filling(curve)
        if not classify_filling(filling).orientable:  # type II
            with pytest.raises(NotTypeI):
                orient_curve(curve, filling)
            return
    pytest.fail("no type II curve found")
