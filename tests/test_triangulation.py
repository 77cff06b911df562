import random
from collections import Counter
from types import SimpleNamespace

import pytest

from tcurve_lab.errors import (DanglingEdge, Gap, InvariantError,
                               MissingLatticeVertex, NonPrimitiveTriangle,
                               Overlap, UnsupportedShape)
from tcurve_lab.geometry import cross
from tcurve_lab.lattice import segment_parity, validate_polygon
from tcurve_lab.oracles import (edge_triangles, lifted_triangle_components,
                                midpoint_node, quad_add)
from tcurve_lab.surface import (QUADRANTS, AmbientSurface, build_ambient_surface,
                                glue_offset)
from tcurve_lab.triangulation import (edge_key, generate_grid_triangulation,
                                      incidence_graphs)

from conftest import standard_triangle
from helpers import (primitive_triangulation, random_flips, random_polygon,
                     run_python, tri_key, validate_primitive_triangulation)


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
    """A pentagon, a translated triangle, a trapezoid and a comb."""
    for verts in ([(0, 0), (2, 0), (3, 1), (1, 3), (0, 2)],
                  [(1, 0), (4, 0), (1, 3)],
                  [(0, 0), (4, 0), (1, 3), (0, 3)],
                  [(0, 0), (4, 0), (4, 2), (3, 1), (2, 2), (1, 1), (0, 2)]):
        with pytest.raises(UnsupportedShape) as refused:
            generate_grid_triangulation(validate_polygon(verts))
        assert str(refused.value) == (
            "built-in generator covers the standard triangle and axis-aligned "
            "rectangles; supply the triangulation explicitly")


def test_non_primitive_triangle_rejected():
    poly = validate_polygon([(0, 0), (2, 0), (0, 1)])
    with pytest.raises(NonPrimitiveTriangle):
        validate_primitive_triangulation(poly, [((0, 0), (2, 0), (0, 1))])


def test_missing_vertex_rejected():
    poly = standard_triangle(2)
    # a sub-area only: three lattice points are left out
    with pytest.raises(MissingLatticeVertex,
                       match=r"^unused lattice points: \[\(0, 2\), \(1, 1\), \(2, 0\)\]$"):
        validate_primitive_triangulation(poly, [
            ((0, 0), (1, 0), (0, 1)),
        ])


def test_overlap_rejected():
    poly = standard_triangle(1)
    with pytest.raises(Overlap, match="^repeated triangle$"):
        validate_primitive_triangulation(
            poly, [((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (0, 1))])


# ---------------------------------------------------------------------------
# every rejection: one class and one message, in the library and as the
# one line a `tcurve-lab` process prints before it exits 2

GRID2 = [((0, 0), (0, 1), (1, 0)), ((0, 1), (0, 2), (1, 1)),
         ((0, 1), (1, 0), (1, 1)), ((1, 0), (1, 1), (2, 0))]
GRID3 = [((0, 0), (0, 1), (1, 0)), ((0, 1), (0, 2), (1, 1)),
         ((0, 1), (1, 0), (1, 1)), ((0, 2), (0, 3), (1, 2)),
         ((0, 2), (1, 1), (1, 2)), ((1, 0), (1, 1), (2, 0)),
         ((1, 1), (1, 2), (2, 1)), ((1, 1), (2, 0), (2, 1)),
         ((2, 0), (2, 1), (3, 0))]


def _without(tris, t):
    return [x for x in tris if x != t]


# name -> (d of T_d, triangles, error, message)
REJECTIONS = {
    # a hole at the boundary leaves its interior edges with one triangle
    "gap": (3, _without(GRID3, ((1, 0), (1, 1), (2, 0))), DanglingEdge,
            "interior edge ((1, 0), (1, 1)) belongs to one triangle only"),
    "dangling interior edge": (
        3, _without(GRID3, ((0, 1), (1, 0), (1, 1))), DanglingEdge,
        "interior edge ((0, 1), (1, 0)) belongs to one triangle only"),
    "unused lattice point": (
        3, _without(GRID3, ((0, 0), (0, 1), (1, 0))), MissingLatticeVertex,
        "unused lattice points: [(0, 0)]"),
    # two of the three lie on one side of the edge
    "edge shared by three triangles": (
        3, GRID3 + [((1, 0), (1, 1), (2, 1))], Overlap,
        "directed edge ((1, 1), (1, 0)) used twice"),
    "non-lattice vertex": (
        2, _without(GRID2, ((0, 1), (1, 0), (1, 1))) + [((1, 0), (2, 0), (2, 1))],
        MissingLatticeVertex,
        "triangle vertex (2, 1) is not a lattice point of the polygon"),
    "repeated triangle": (2, GRID2 + [GRID2[1]], Overlap, "repeated triangle"),
    "directed edge used twice": (
        2, _without(GRID2, ((0, 1), (1, 0), (1, 1))) + [((0, 0), (1, 0), (1, 1))],
        Overlap, "directed edge ((0, 0), (1, 0)) used twice"),
    "non-primitive triangle": (
        2, _without(GRID2, ((0, 1), (0, 2), (1, 1))) + [((0, 1), (0, 2), (2, 0))],
        NonPrimitiveTriangle, "triangle ((0, 1), (0, 2), (2, 0)) has area 2/2"),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_rejection_class_and_message(name):
    d, tris, error, message = REJECTIONS[name]
    with pytest.raises(error) as err:
        validate_primitive_triangulation(standard_triangle(d), tris)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("name", REJECTIONS)
def test_rejection_cli_line(name, tmp_path, capsys):
    from tcurve_lab.cli import main
    d, tris, _, message = REJECTIONS[name]
    points = standard_triangle(d).lattice_points
    # an index past the lattice points is how a problem file names a
    # vertex off them
    triples = [[points.index(p) if p in points else len(points) for p in t]
               for t in tris]
    if name == "non-lattice vertex":
        message = "triangulation[3]: index 6 out of range (have 6 lattice points)"
    path = tmp_path / "p.yaml"
    path.write_text(f"polygon: [[0, 0], [{d}, 0], [0, {d}]]\n"
                    f"triangulation: {triples}\nsigns: {{harnack: [1, 0, 0]}}\n")
    assert main(["curve", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_rejected_with_the_polygon_data_altered():
    """The two coverage checks that no valid polygon reaches once the edge
    checks pass: each boundary segment once, and the area sum."""
    poly = standard_triangle(2)
    poly.lattice_points  # listed before the data is altered
    poly.double_area = 5
    with pytest.raises(Gap, match="^triangle areas do not sum to the polygon area$"):
        validate_primitive_triangulation(poly, GRID2)
    poly = standard_triangle(2)
    extra = poly.broken_edges[0]._replace(primitive_segments=(((0, 0), (2, 0)),))
    poly.broken_edges = poly.broken_edges + (extra,)
    with pytest.raises(Gap, match=r"^boundary segment \(\(0, 0\), \(2, 0\)\) "
                                  "not covered exactly once$"):
        validate_primitive_triangulation(poly, GRID2)


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
        on_edge = edge_triangles(tri)
        for e in tri.edges:
            downstairs_degree = len(on_edge[e])
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
        off = glue_offset(segment_parity(*e))
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
    slot lifts whose prongs end on each node.  ``tri`` needs only the
    tuple forms: ``edges``, ``triangles``, ``slots``, ``boundary_edges``,
    ``E`` and ``T``."""
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


def test_wrong_broken_edge_parity_leaves_the_oracle(t_polygons):
    """The oracle glues each boundary edge by its own parity, so a wrong
    parity on one broken edge of the surface changes the lift table and
    not the oracle."""
    for d in (2, 3, 4):
        poly = t_polygons[d]
        tri = generate_grid_triangulation(poly)
        surface = build_ambient_surface(poly)
        # broken edge 0 has parity (1,0); (0,1) glues it across (1,0)
        first, *rest = surface.broken_edges
        surface.broken_edges = (first._replace(segment_parity=(0, 1)), *rest)
        assert incidence_graphs(surface, tri) != oracle_lifts(surface, tri)


def test_broken_edge_of_matches_the_segments(t_polygons, diamond, square22):
    """Per edge id, the broken edge whose primitive segments hold it, on
    grid, general and flipped triangulations."""
    rng = random.Random(29)
    rect32 = validate_polygon([(0, 0), (3, 0), (3, 2), (0, 2)])
    cases = [generate_grid_triangulation(p)
             for p in (*t_polygons.values(), square22, rect32)]
    for poly in (*t_polygons.values(), diamond,
                 *(random_polygon(rng, box=7) for _ in range(60))):
        cases.append(primitive_triangulation(poly))
        cases.append(random_flips(rng, cases[-1], 8))
    for tri in cases:
        poly = tri.polygon
        on = {edge_key(*seg): k for k, b in enumerate(poly.broken_edges)
              for seg in b.primitive_segments}
        assert tri.broken_edge_of == [on.get(e, -1) for e in tri.edges]
        assert [tri.broken_edge_of.count(k) for k in range(poly.r)] == \
            [b.integral_length for b in poly.broken_edges]


DROP_BOUNDARY_SEGMENT = """\
from tcurve_lab.errors import InvariantError
from tcurve_lab.lattice import segment_parity, validate_polygon
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.triangulation import generate_grid_triangulation, incidence_graphs
t3 = validate_polygon([(0, 0), (3, 0), (0, 3)])
tri = generate_grid_triangulation(t3)
tri.boundary.remove(tri.edges.index(((0, 0), (1, 0))))
try:
    incidence_graphs(build_ambient_surface(t3), tri)
except InvariantError as exc:
    print(exc)
"""


def test_unglued_boundary_segment_raises():
    # the lifts of (0,0)-(1,0) keep four midpoints, each on one prong
    t3 = standard_triangle(3)
    tri = generate_grid_triangulation(t3)
    tri.boundary.remove(tri.edges.index(((0, 0), (1, 0))))
    with pytest.raises(InvariantError, match="has degree 1"):
        incidence_graphs(build_ambient_surface(t3), tri)
    out = run_python(DROP_BOUNDARY_SEGMENT, "-O")
    assert "has degree 1" in out


GLUE_TWO_SHEETS = """\
from tcurve_lab.errors import InvariantError
from tcurve_lab.lattice import segment_parity, validate_polygon
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.triangulation import generate_grid_triangulation, incidence_graphs
t3 = validate_polygon([(0, 0), (3, 0), (0, 3)])
surface = build_ambient_surface(t3)
surface.broken_edges = tuple(b._replace(segment_parity=(1, 0))
                             for b in surface.broken_edges)
try:
    incidence_graphs(surface, generate_grid_triangulation(t3))
except InvariantError as exc:
    print(exc)
"""


def test_gs_in_two_sheets_raises():
    # every broken edge of T_3 (r = 3) given the parity (1,0), so glued by
    # the offset (0,1), as on the two spheres: each midpoint still joins
    # two prongs, but the copies (0,0), (0,1) and (1,0), (1,1) form two
    # sheets
    t3 = standard_triangle(3)
    surface = build_ambient_surface(t3)
    surface.broken_edges = tuple(b._replace(segment_parity=(1, 0))
                                 for b in surface.broken_edges)
    with pytest.raises(InvariantError, match=r"G\(S\) must be connected when S is"):
        incidence_graphs(surface, generate_grid_triangulation(t3))
    assert run_python(GLUE_TWO_SHEETS, "-O").strip() == \
        "G(S) must be connected when S is"


def two_islands():
    """A stub triangulation of two triangles that share no edge, on a
    surface stub with one broken edge: every midpoint joins two prongs,
    and G(Pi) has two components."""
    t1, t2 = ((0, 0), (1, 0), (0, 1)), ((2, 0), (3, 0), (2, 1))
    slots = [edge_key(t[k], t[(k + 1) % 3]) for t in (t1, t2) for k in range(3)]
    edges = sorted(slots)
    tri = SimpleNamespace(slot_edges=[edges.index(e) for e in slots], edges=edges,
                          boundary=list(range(6)), broken_edge_of=[0] * 6,
                          T=2, E=6)
    surface = SimpleNamespace(broken_edges=(SimpleNamespace(segment_parity=(1, 0)),),
                              r=1)
    return surface, tri


TWO_ISLANDS = """\
import test_triangulation
from tcurve_lab.errors import InvariantError
from tcurve_lab.triangulation import incidence_graphs
try:
    incidence_graphs(*test_triangulation.two_islands())
except InvariantError as exc:
    print(exc)
"""


def test_disconnected_g_pi_raises():
    with pytest.raises(InvariantError, match=r"^G\(Pi\) is connected, so the filling is$"):
        incidence_graphs(*two_islands())
    assert run_python(TWO_ISLANDS, "-O").strip() == \
        "G(Pi) is connected, so the filling is"


PARITIES = ((1, 0), (0, 1), (1, 1))


def test_connectivity_checks_match_the_walk(diamond, square22):
    """``incidence_graphs`` passes exactly the lift tables on which the
    walk of ``oracles.lifted_triangle_components`` finds G(Pi) connected,
    and G(S) too when r >= 2: on grid, general and flipped triangulations,
    under each surface's own gluing and under regluings of its broken
    edges by one parity (two sheets) or by random ones."""
    rng = random.Random(37)
    rect32 = validate_polygon([(0, 0), (3, 0), (3, 2), (0, 2)])
    cases = [generate_grid_triangulation(p) for p in (
        *(standard_triangle(d) for d in range(1, 9)), square22, rect32)]
    cases.append(primitive_triangulation(diamond))
    for _ in range(60):
        poly = random_polygon(rng)
        cases.append(random_flips(rng, primitive_triangulation(poly), 8))
    for tri in cases:
        surface = build_ambient_surface(tri.polygon)
        lifts = incidence_graphs(surface, tri)
        assert lifted_triangle_components(lifts.across, tri.T) == 1
        assert lifted_triangle_components(lifts.across, 4 * tri.T) == \
            (1 if surface.r >= 2 else 2)
        own = surface.broken_edges
        for pars in ([b.segment_parity for b in own], [(1, 0)] * len(own),
                     [rng.choice(PARITIES) for _ in own]):
            broken_edges = tuple(b._replace(segment_parity=p) for b, p in zip(own, pars))
            # with r = 1 the table is built without the G(S) check
            lifts = incidence_graphs(SimpleNamespace(broken_edges=broken_edges, r=1), tri)
            assert lifted_triangle_components(lifts.across, tri.T) == 1
            sheets = lifted_triangle_components(lifts.across, 4 * tri.T)
            assert sheets == (1 if len(set(pars)) >= 2 else 2)
            claims_r2 = SimpleNamespace(broken_edges=broken_edges, r=2)
            if sheets == 1:
                assert incidence_graphs(claims_r2, tri) == lifts
            else:
                with pytest.raises(InvariantError,
                                   match=r"^G\(S\) must be connected when S is$"):
                    incidence_graphs(claims_r2, tri)


def tuple_construction(triangles) -> SimpleNamespace:
    """The tuple forms of a triangulation built from its point triples
    alone: sorted triangles and edges, each triangle's edges
    counterclockwise from its smallest vertex, and the edges of one
    triangle."""
    tris = tuple(sorted(tri_key(*t) for t in triangles))
    slots, uses = {}, Counter()
    for a, b, c in tris:
        v = (a, b, c) if cross(a, b, c) > 0 else (a, c, b)
        slots[(a, b, c)] = tuple(edge_key(v[k], v[(k + 1) % 3]) for k in range(3))
        uses.update(slots[(a, b, c)])
    return SimpleNamespace(triangles=tris, edges=tuple(sorted(uses)), slots=slots,
                           boundary_edges=frozenset(e for e, n in uses.items() if n == 1),
                           T=len(tris), E=len(uses))


def test_numbering_matches_tuple_construction():
    """The views derived from ``slot_edges`` and ``edge_ends``, and the lift
    table built on them, equal the tuple construction on randomly flipped
    triangulations of random polygons, given in any order and orientation."""
    rng = random.Random(29)
    for _ in range(120):
        poly = random_polygon(rng, box=rng.choice((4, 7, 9)))
        flipped = random_flips(rng, primitive_triangulation(poly), 10).triangles
        triangles = [tuple(rng.sample(t, 3)) for t in flipped]
        rng.shuffle(triangles)
        tri, ref = validate_primitive_triangulation(poly, triangles), tuple_construction(triangles)
        assert (tri.triangles, tri.edges, tri.slots, tri.boundary_edges) == \
            (ref.triangles, ref.edges, ref.slots, ref.boundary_edges)
        points = poly.lattice_points
        assert [(points[i], points[j]) for i, j in tri.edge_ends] == list(ref.edges)
        assert [ref.edges[e] for e in tri.slot_edges] == \
            [e for t in ref.triangles for e in ref.slots[t]]
        surface = build_ambient_surface(poly)
        assert incidence_graphs(surface, tri) == oracle_lifts(surface, ref)


def test_grid_is_the_staircase():
    """The grid's index triples name the cells' NW-SE halves: on T_1..T_30
    and on rectangles 1 wide, 1 high, square and translated."""
    rects = [[(0, 0), (1, 0), (1, 5), (0, 5)], [(2, 3), (7, 3), (7, 4), (2, 4)],
             [(0, 0), (4, 0), (4, 4), (0, 4)], [(1, 1), (3, 1), (3, 3), (1, 3)],
             [(1, 2), (4, 2), (4, 4), (1, 4)], [(0, 0), (1, 0), (1, 1), (0, 1)]]
    for poly in [standard_triangle(d) for d in range(1, 31)] + [
            validate_polygon(r) for r in rects]:
        pts = set(poly.lattice_points)
        want = [t for x, y in pts
                for t in (((x, y), (x + 1, y), (x, y + 1)),
                          ((x + 1, y), (x + 1, y + 1), (x, y + 1)))
                if set(t) <= pts]
        assert generate_grid_triangulation(poly).triangles == \
            tuple_construction(want).triangles
