import random
from functools import reduce

import pytest

from tcurve_lab.errors import DegenerateAtlas, InvariantError
from tcurve_lab.lattice import validate_polygon
from tcurve_lab.oracles import (boundary_offset, classify_surface_by_cells,
                                point_class)
from tcurve_lab.surface import (A1, QUADRANTS, TopologyClass,
                                build_ambient_surface, glue_offset)

from conftest import standard_triangle
from helpers import (IDENTITY, gluing_matrix, mat_mul, random_polygon,
                     run_python, vec_mat)


def preimage_classes(surface, p) -> list:
    """Distinct surface points over p; lengths 4 / 2 / 1 for interior
    points, broken-edge interiors and odd vertices respectively."""
    offsets = boundary_offset(surface)
    return list(dict.fromkeys(point_class(offsets, q, p) for q in QUADRANTS))


def lifted_broken_edge(surface, j: int):
    """The lift of broken edge j (r >= 2): a cyclic point-class sequence,
    out in quadrant (0,0) and back in a quadrant not glued to it there (a
    circle, doubly covering the broken edge)."""
    b = surface.broken_edges[j]
    pts = [p for p, _ in b.primitive_segments] + [b.end]
    other = next(q for q in QUADRANTS
                 if q not in ((0, 0), glue_offset(b.segment_parity)))
    offsets = boundary_offset(surface)
    return tuple([point_class(offsets, (0, 0), p) for p in pts]
                 + [point_class(offsets, other, p) for p in pts[-2:0:-1]])


def test_boundary_identification_t5():
    s = build_ambient_surface(standard_triangle(5))
    # bottom edge has parity (1,0): copies pair across (0,1)
    cls = point_class(boundary_offset(s), (0, 0), (1, 0))
    assert cls == (((0, 0), (1, 0)), ((0, 1), (1, 0)))
    # an odd vertex lifts to a single point
    assert len(preimage_classes(s, (0, 0))) == 1
    # interior broken-edge points lift to two, interior points to four
    assert len(preimage_classes(s, (1, 0))) == 2
    assert len(preimage_classes(s, (1, 1))) == 4


def test_preimage_counts_everywhere():
    for poly in (standard_triangle(3),
                 validate_polygon([(0, 0), (4, 0), (0, 2)]),
                 validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])):
        s = build_ambient_surface(poly)
        odd = {poly.vertices[i] for i in poly.odd_vertex_indices}
        for p in poly.boundary_points:
            assert len(preimage_classes(s, p)) == (1 if p in odd else 2)
        for p in poly.interior_points:
            assert len(preimage_classes(s, p)) == 4


def test_lifted_broken_edge_is_a_circle():
    s = build_ambient_surface(standard_triangle(3))
    for j in range(3):
        circle = lifted_broken_edge(s, j)
        # twice the integral length, all classes distinct
        assert len(circle) == 2 * s.broken_edges[j].integral_length
        assert len(set(circle)) == len(circle)


def test_diamond_has_two_sheets():
    poly = validate_polygon([(1, 0), (2, 1), (1, 2), (0, 1)])
    topo = build_ambient_surface(poly).classify_topology()
    assert topo.components == 2
    assert topo.name == "two spheres"
    assert classify_surface_by_cells(poly) == topo


# ---------------------------------------------------------------------------
# atlas

def test_atlas_standard_triangle():
    s = build_ambient_surface(standard_triangle(4))
    atlas = s.canonical_atlas()
    assert s.eta == (1, 1, 1)
    assert mat_mul(A1, mat_mul(A1, A1)) == IDENTITY
    # the steps around the cycle, from chart 1 back to chart 0
    assert reduce(mat_mul, atlas.steps[1:] + atlas.steps[:1], IDENTITY) == IDENTITY
    for k in range(3):
        assert atlas.charts[k].matrix == \
            mat_mul(atlas.charts[k - 1].matrix, atlas.steps[k])


def test_gluing_matrix_products():
    atlas = build_ambient_surface(standard_triangle(5)).canonical_atlas()
    r = len(atlas.charts)
    for i in range(r):
        assert gluing_matrix(atlas, i, i) == IDENTITY
        for j in range(r):
            assert atlas.charts[j].matrix == mat_mul(
                atlas.charts[i].matrix, gluing_matrix(atlas, i, j))


def test_chart_quadrant_map():
    atlas = build_ambient_surface(standard_triangle(3)).canonical_atlas()
    for chart in atlas.charts:
        qm = {q: vec_mat(q, chart.matrix) for q in QUADRANTS}
        assert qm[(0, 0)] == (0, 0)
        assert sorted(qm.values()) == sorted(QUADRANTS)  # a bijection


def test_degenerate_atlas():
    wide = build_ambient_surface(validate_polygon([(0, 0), (4, 0), (0, 2)]))
    with pytest.raises(DegenerateAtlas):
        wide.canonical_atlas()
    with pytest.raises(DegenerateAtlas):
        wide.homology_basis()


def test_tubular_types():
    td = build_ambient_surface(standard_triangle(3))
    assert [td.tubular_type(j) for j in range(3)] == ["moebius"] * 3
    wide = build_ambient_surface(validate_polygon([(0, 0), (4, 0), (0, 2)]))
    assert wide.tubular_type(0) == "annulus"
    assert wide.tubular_type(1) == "annulus"


def test_homology_basis_sizes():
    td = build_ambient_surface(standard_triangle(2))
    assert len(td.homology_basis()) == 1  # matches dim H_1(RP^2; Z2)
    sq = build_ambient_surface(
        validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)]))
    assert len(sq.homology_basis()) == 2
    circles = [lifted_broken_edge(sq, j) for j in sq.homology_basis()]
    assert len(circles) == 2
    assert all(len(c) == 2 * sq.broken_edges[j].integral_length
               for c, j in zip(circles, sq.homology_basis()))


# ---------------------------------------------------------------------------
# topology

def test_classify_families():
    for d in range(1, 7):
        topo = build_ambient_surface(standard_triangle(d)).classify_topology()
        assert (topo.orientable, topo.crosscaps) == (False, 1)
    for d in range(1, 5):
        topo = build_ambient_surface(
            validate_polygon([(0, 0), (2 * d, 0), (0, d)])).classify_topology()
        assert topo.name == "sphere"
    sq = build_ambient_surface(
        validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])).classify_topology()
    assert (sq.orientable, sq.genus) == (True, 1)


def test_inconsistent_topology_class_raises():
    with pytest.raises(InvariantError, match="chi = 2 - 2g"):
        TopologyClass(1, True, 1, None, 2, "torus")
    with pytest.raises(InvariantError, match="chi = 2 - k"):
        TopologyClass(1, False, None, 2, 1, "Klein bottle")
    # two spheres are not checked against one chi formula
    assert TopologyClass(2, True, 0, None, 4, "two spheres").euler == 4


# a connected record must carry the field of its kind, an int, and not the
# other one
MALFORMED_RECORDS = (
    "TopologyClass(1, True, None, 2, 0, 'x')",
    "TopologyClass(1, False, 1, None, 0, 'y')",
    "TopologyClass(1, True, 1, 1, 0, 'torus')",
)


def test_malformed_connected_records_refused():
    for expr in MALFORMED_RECORDS:
        with pytest.raises(InvariantError, match="a genus if orientable"):
            eval(expr)
    code = ("from tcurve_lab.errors import InvariantError\n"
            "from tcurve_lab.surface import TopologyClass\n"
            f"for expr in {MALFORMED_RECORDS!r}:\n"
            "    try:\n"
            "        eval(expr)\n"
            "    except InvariantError as exc:\n"
            "        print(exc)\n")
    assert run_python(code, "-O").splitlines() == \
        ["a connected surface has a genus if orientable, else crosscaps"] * 3


def test_connected_names_and_refusals():
    names = {True: ["sphere", "torus", "orientable genus-2 surface",
                    "orientable genus-3 surface"],
             False: ["projective plane", "Klein bottle",
                     "nonorientable surface with 3 crosscaps",
                     "nonorientable surface with 4 crosscaps"]}
    for g, name in enumerate(names[True]):
        assert TopologyClass.connected(2 - 2 * g, True) == \
            (1, True, g, None, 2 - 2 * g, name)
    for k, name in enumerate(names[False], 1):
        assert TopologyClass.connected(2 - k, False) == \
            (1, False, None, k, 2 - k, name)
    for euler in (1, -1, 4):
        with pytest.raises(InvariantError, match="chi = 2 - 2g"):
            TopologyClass.connected(euler, True)
    for euler in (2, 3):
        with pytest.raises(InvariantError, match="chi = 2 - k"):
            TopologyClass.connected(euler, False)


def test_topology_check_survives_python_O():
    code = ("from tcurve_lab.errors import InvariantError\n"
            "from tcurve_lab.surface import TopologyClass\n"
            "try:\n"
            "    TopologyClass(1, True, 1, None, 2, 'torus')\n"
            "except InvariantError:\n"
            "    print('raised')\n")
    assert run_python(code, "-O").strip() == "raised"


MAKE_AND_REPLACE = (
    "TopologyClass(1, True, 1, None, 0, 'torus')._replace(euler=2)",
    "TopologyClass._make((1, True, 1, None, 2, 'torus'))",
)


def test_make_and_replace_are_checked():
    for expr in MAKE_AND_REPLACE:
        with pytest.raises(InvariantError, match="chi = 2 - 2g"):
            eval(expr)
    torus = TopologyClass(1, True, 1, None, 0, "torus")
    assert torus._replace(name="T") == (1, True, 1, None, 0, "T")
    assert type(TopologyClass._make(torus)) is TopologyClass


def test_make_and_replace_checks_survive_python_O():
    code = ("from tcurve_lab.errors import InvariantError\n"
            "from tcurve_lab.surface import TopologyClass\n"
            "for expr in %r:\n"
            "    try:\n"
            "        eval(expr)\n"
            "    except InvariantError:\n"
            "        print('raised')\n" % (MAKE_AND_REPLACE,))
    assert run_python(code, "-O").split() == ["raised", "raised"]


def test_classify_matches_cell_oracle_on_random_polygons():
    rng = random.Random(11)
    for _ in range(30):
        poly = random_polygon(rng)
        fast = build_ambient_surface(poly).classify_topology()
        assert fast == classify_surface_by_cells(poly)


def test_odd_broken_edge_lemmas():
    rng = random.Random(5)
    for _ in range(40):
        poly = random_polygon(rng)
        odd = [b.is_odd for b in poly.broken_edges]
        assert sum(odd) != 1
        r = len(odd)
        if r >= 2 and any(odd[k] and odd[(k + 1) % r] for k in range(r)):
            assert sum(odd) >= 3
        if build_ambient_surface(poly).classify_topology().orientable \
                and poly.r > 1:
            assert poly.r % 2 == 0
