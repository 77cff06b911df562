import random
from collections import Counter

import pytest

from tcurve_lab.errors import (Gap, InvariantError, MissingLatticeVertex,
                               NonPrimitiveTriangle, Overlap, UnsupportedShape)
from tcurve_lab.lattice import validate_polygon
from tcurve_lab.oracles import midpoint_node
from tcurve_lab.surface import (QUADRANTS, AmbientSurface, build_ambient_surface,
                                quad_add)
from tcurve_lab.triangulation import (generate_grid_triangulation,
                                      incidence_graphs,
                                      validate_primitive_triangulation)

from conftest import standard_triangle
from helpers import (primitive_triangulation, random_flips, random_polygon,
                     run_python)


def test_grid_t3_counts():
    tri = generate_grid_triangulation(standard_triangle(3))
    assert (tri.T, tri.E, tri.V, tri.L) == (9, 18, 10, 9)
    assert tri.T - tri.E + tri.V == 1
    assert 3 * tri.T == 2 * tri.E - tri.L


def test_single_triangle():
    tri = generate_grid_triangulation(standard_triangle(1))
    assert (tri.T, tri.E, tri.V) == (1, 3, 3)


def test_grid_sizes():
    assert generate_grid_triangulation(standard_triangle(2)).T == 4
    rect = validate_polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert generate_grid_triangulation(rect).T == 4


def test_unsupported_shape():
    pent = validate_polygon([(0, 0), (2, 0), (3, 1), (1, 3), (0, 2)])
    with pytest.raises(UnsupportedShape):
        generate_grid_triangulation(pent)


def test_non_primitive_triangle_rejected():
    poly = validate_polygon([(0, 0), (2, 0), (0, 1)])
    with pytest.raises(NonPrimitiveTriangle):
        validate_primitive_triangulation(poly, [((0, 0), (2, 0), (0, 1))])


def test_missing_vertex_rejected():
    poly = standard_triangle(2)
    # primitive triangles but the midpoint (1,1) of nothing... leave out
    # lattice point (1,1) by triangulating a sub-area only
    with pytest.raises((MissingLatticeVertex, Gap)):
        validate_primitive_triangulation(poly, [
            ((0, 0), (1, 0), (0, 1)),
        ])


def test_overlap_rejected():
    poly = standard_triangle(1)
    with pytest.raises((Overlap, Gap)):
        validate_primitive_triangulation(
            poly, [((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (0, 1))])


def test_general_triangulator_is_primitive():
    pent = validate_polygon([(0, 0), (2, 0), (3, 1), (1, 3), (0, 2)])
    tri = primitive_triangulation(pent)
    assert tri.T == pent.double_area
    assert tri.T - tri.E + tri.V == 1


# ---------------------------------------------------------------------------
# the lift table

def lift_table(poly, tri=None):
    """The lift table as (quadrant, edge) -> midpoint node ("m", q', e),
    read off its integer ``edge_class``."""
    tri = tri or generate_grid_triangulation(poly)
    edge_class = incidence_graphs(build_ambient_surface(poly), tri).edge_class
    mid = {}
    for x, c in enumerate(edge_class):
        q, e = divmod(x, tri.E)
        mid[(QUADRANTS[q], tri.edges[e])] = ("m", QUADRANTS[c // tri.E],
                                             tri.edges[c % tri.E])
    return tri, mid


def prong_counts(tri, mid) -> Counter:
    """Midpoint node -> number of lifted-triangle prongs that end there."""
    return Counter(mid[(q, e)] for q in QUADRANTS
                   for t in tri.triangles for e in tri.slots[t])


def test_incidence_counts_t3():
    tri, mid = lift_table(standard_triangle(3))
    # every lift (q, e) has a node; the two lifts that the gluing
    # identifies over each boundary edge share one
    assert set(mid) == {(q, e) for q in QUADRANTS for e in tri.edges}
    assert len(set(mid.values())) == 4 * tri.E - 2 * tri.L == 54


def test_gs_over_t1():
    tri, mid = lift_table(standard_triangle(1))
    (t,) = tri.triangles
    assert len(mid) == 12 and len(set(mid.values())) == 6
    # each midpoint joins the copies of the one triangle in two quadrants
    for m in set(mid.values()):
        quads = {q for (q, e), n in mid.items() if n == m}
        assert len(quads) == 2 and min(quads) == m[1]
        assert m[2] in tri.slots[t]


def test_midpoint_degrees():
    for poly in (standard_triangle(2), standard_triangle(5),
                 validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])):
        tri, mid = lift_table(poly)
        for e in tri.edges:
            downstairs_degree = len(tri.edge_triangles[e])
            assert downstairs_degree == (1 if e in tri.boundary_edges else 2)
        counts = prong_counts(tri, mid)
        assert set(counts) == set(mid.values())
        assert set(counts.values()) == {2}


def test_lift_multiplicity():
    poly = standard_triangle(2)
    surface = build_ambient_surface(poly)
    tri, mid = lift_table(poly)
    for e in tri.edges:
        assert {q for q, f in mid if f == e} == set(QUADRANTS)
        nodes = {q: mid[(q, e)] for q in QUADRANTS}
        if e not in tri.boundary_edges:
            assert all(m == ("m", q, e) for q, m in nodes.items())
            continue
        off = surface.boundary_segment_offset[e]
        for q, m in nodes.items():
            assert m == nodes[quad_add(q, off)] == ("m", min(q, quad_add(q, off)), e)


def test_two_spheres_need_no_connected_gs():
    diamond = validate_polygon([(1, 0), (2, 1), (1, 2), (0, 1)])
    tri = primitive_triangulation(diamond)
    _, mid = lift_table(diamond, tri)
    assert set(prong_counts(tri, mid).values()) == {2}

    class ClaimsOneSheet(AmbientSurface):
        r = 2

    with pytest.raises(InvariantError, match="connected"):
        incidence_graphs(ClaimsOneSheet(diamond), tri)


def oracle_lifts(surface, tri):
    """``edge_class`` and ``across`` from ``oracles.midpoint_node``: the
    lift id of each lift's midpoint node, and the pairing of the two
    slot lifts whose prongs end on each node."""
    edge_id = {e: i for i, e in enumerate(tri.edges)}
    edge_class = []
    for q in QUADRANTS:
        for e in tri.edges:
            _, q_m, e_m = midpoint_node(surface, tri, q, e)
            edge_class.append(QUADRANTS.index(q_m) * tri.E + edge_id[e_m])
    prongs: dict = {}
    for k, q in enumerate(QUADRANTS):
        for t, tr in enumerate(tri.triangles):
            for j, e in enumerate(tri.slots[tr]):
                prongs.setdefault(midpoint_node(surface, tri, q, e), []).append(
                    (k * tri.T + t) * 3 + j)
    across = [None] * (12 * tri.T)
    for u, w in prongs.values():
        across[u], across[w] = w, u
    return edge_class, across


def test_lift_table_matches_oracle(t_polygons, square22, diamond):
    rng = random.Random(17)
    cases = [(p, generate_grid_triangulation(p))
             for p in (*t_polygons.values(), square22)]
    cases.append((diamond, primitive_triangulation(diamond)))
    for _ in range(100):
        poly = random_polygon(rng)
        cases.append((poly, random_flips(rng, primitive_triangulation(poly), 8)))
    for poly, tri in cases:
        surface = build_ambient_surface(poly)
        assert incidence_graphs(surface, tri) == oracle_lifts(surface, tri)


DROP_BOUNDARY_SEGMENT = """\
from tcurve_lab.errors import InvariantError
from tcurve_lab.lattice import validate_polygon
from tcurve_lab.oracles import midpoint_node
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.triangulation import generate_grid_triangulation, incidence_graphs
t3 = validate_polygon([(0, 0), (3, 0), (0, 3)])
surface = build_ambient_surface(t3)
del surface.boundary_segment_offset[((0, 0), (1, 0))]
try:
    incidence_graphs(surface, generate_grid_triangulation(t3))
except InvariantError as exc:
    print(exc)
"""


def test_unglued_boundary_segment_raises():
    # the lifts of (0,0)-(1,0) keep four midpoints, each on one prong
    t3 = standard_triangle(3)
    surface = build_ambient_surface(t3)
    del surface.boundary_segment_offset[((0, 0), (1, 0))]
    with pytest.raises(InvariantError, match="has degree 1"):
        incidence_graphs(surface, generate_grid_triangulation(t3))
    out = run_python(DROP_BOUNDARY_SEGMENT, "-O")
    assert "has degree 1" in out
