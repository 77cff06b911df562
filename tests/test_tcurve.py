import itertools
import random

import pytest

from tcurve_lab.errors import IncompleteDistribution, InvariantError
from tcurve_lab.lattice import pairing, point_parity, segment_parity, validate_polygon
from tcurve_lab.oracles import (classify_components_by_nesting, edge_signs,
                                midpoint_node, midpoint_nodes, quad_add,
                                svg_by_lines, translated_components, visits)
from tcurve_lab.surface import QUADRANTS, build_ambient_surface
from tcurve_lab.svg import render_svg
from tcurve_lab.tcurve import (check_distribution, extract_curve,
                               harnack_distribution, predicted_harnack_census,
                               verify_harnack_census)
from tcurve_lab.triangulation import generate_grid_triangulation

from conftest import pipeline, standard_triangle
from helpers import (LeavesNonnegativeQuadrant, WrongPolygon, all_nodes,
                     comparable, degree_parity_check, primitive_triangulation,
                     random_distribution, random_flips, run_python,
                     theta_action, transform_curve)


def all_plus(poly):
    return {p: 1 for p in poly.lattice_points}


# ---------------------------------------------------------------------------
# sign extension

def copy_sign(curve, q, p):
    """The sign of the copy of ``p`` in quadrant ``q``, read off the table."""
    V = len(curve.surface.polygon.lattice_points)
    k = curve.surface.polygon.lattice_points.index(p)
    return 1 if curve.copy_signs[QUADRANTS.index(q) * V + k] else -1


def test_extension_formula():
    t2 = standard_triangle(2)
    curve = pipeline(t2, all_plus(t2))[2]
    # odd point in a reflecting quadrant flips
    assert copy_sign(curve, (1, 0), (1, 1)) == -1
    # even points keep their sign in all four quadrants
    assert all(copy_sign(curve, q, (2, 0)) == 1 for q in QUADRANTS)
    # every copy: delta(p) times (-1)^<q, parity of p>
    rng = random.Random(1)
    for d in (1, 2, 3):
        poly = standard_triangle(d)
        delta = random_distribution(rng, poly)
        curve = pipeline(poly, delta)[2]
        assert len(curve.copy_signs) == 4 * len(poly.lattice_points)
        for q in QUADRANTS:
            for p in poly.lattice_points:
                assert copy_sign(curve, q, p) == \
                    delta[p] * (-1) ** pairing(q, point_parity(p))


def test_extension_agrees_on_identified_t2_edge_point():
    # the point (1,0) on the bottom edge: quadrants (0,0) and (0,1) are
    # identified and <(0,1),(1,0)> = 0, so both candidate values agree
    t2 = standard_triangle(2)
    rng = random.Random(0)
    for _ in range(8):
        curve = pipeline(t2, random_distribution(rng, t2))[2]
        assert copy_sign(curve, (0, 0), (1, 0)) == copy_sign(curve, (0, 1), (1, 0))
        assert copy_sign(curve, (1, 0), (1, 0)) == copy_sign(curve, (1, 1), (1, 0))


def test_incomplete_distribution():
    t1 = standard_triangle(1)
    with pytest.raises(IncompleteDistribution):
        check_distribution(t1, {(0, 0): 1, (1, 0): 1})


@pytest.mark.parametrize("sign", [1.9, 1.5, -1.2, 1.0, True, False, "1", None, 2, 0])
def test_signs_are_plus_or_minus_one(sign):
    # int() used to truncate 1.9 and 1.5 to +1, -1.2 to -1 and read True as +1
    t1 = standard_triangle(1)
    delta = {(0, 0): 1, (1, 0): -1, (0, 1): sign}
    with pytest.raises(IncompleteDistribution, match="signs must be \\+1 or -1"):
        check_distribution(t1, delta)
    with pytest.raises(IncompleteDistribution, match="signs must be \\+1 or -1"):
        pipeline(t1, delta)


@pytest.mark.parametrize("delta", [{(0, 0): 1, (1, 0): 1, (0, 1): 1, 5: 1},
                                   {(0, 0): 1, (1, 0): 1, (0, 1): 1, None: 1},
                                   [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)]],
                         ids=["int key", "None key", "list of pairs"])
def test_signs_not_a_mapping_of_points_refused(delta):
    # reading the keys used to raise TypeError or AttributeError
    with pytest.raises(IncompleteDistribution, match="^signs must map points to"):
        check_distribution(standard_triangle(1), delta)


@pytest.mark.parametrize("extra, named", [
    ({(2, 0): 1, (0, 5): 1}, "(0, 5)"),
    ({"ab": 1, (None, 0): 1}, "('a', 'b')"),
    ({(5, "x"): 1, (None, 0): 1}, "(5, 'x')"),
], ids=["orderable", "str and None", "int and None"])
def test_extra_points_refused(extra, named):
    # naming the first of keys that do not order used to raise TypeError
    delta = {(0, 0): 1, (1, 0): 1, (0, 1): 1, **extra}
    with pytest.raises(IncompleteDistribution) as err:
        check_distribution(standard_triangle(1), delta)
    assert str(err.value) == f"sign given for non-lattice point {named}"


@pytest.mark.parametrize("q", range(4))
def test_a_planted_quadrant_flip_is_seen_by_the_oracles(q):
    # the nesting oracle and the line-by-line picture state the sign rule
    # on their own, so a flipped quadrant of the table cannot pass them:
    # every oval of that quadrant changes sign, every disc of it its fill
    poly = standard_triangle(6)
    curve = pipeline(poly, harnack_distribution(poly, (1, 0, 0)))[2]
    V = len(poly.lattice_points)
    signs = bytearray(curve.copy_signs)
    signs[q * V:q * V + V] = bytes(1 - s for s in signs[q * V:q * V + V])
    curve.copy_signs = bytes(signs)
    ovals = {c: k for c, k in curve.classification.items() if k.kind == "oval"}
    assert any(k.quadrant == QUADRANTS[q] for k in ovals.values())
    oracle = classify_components_by_nesting(curve)
    for comp, got in ovals.items():
        assert (got.sign != oracle[comp].sign) == (got.quadrant == QUADRANTS[q])
    assert render_svg(curve) != svg_by_lines(curve)
    # and without the flip, both agree
    fresh = pipeline(poly, harnack_distribution(poly, (1, 0, 0)))[2]
    assert classify_components_by_nesting(fresh) == fresh.classification
    assert render_svg(fresh) == svg_by_lines(fresh)


def test_edge_sign_reflection_law():
    # sign(sigma_{c,d} e) = (-1)^(<parity(e),(c,d)>) sign(e) for every
    # triangulation edge, checked through the oracle's edge signs
    rng = random.Random(3)
    for d in (2, 3):
        poly = standard_triangle(d)
        surface, tri, curve = pipeline(poly, random_distribution(rng, poly))
        sign = edge_signs(midpoint_nodes(surface, tri), curve.delta)
        for e in tri.edges:
            base = sign[midpoint_node(surface, tri, (0, 0), e)]
            par = segment_parity(*e)
            for q in QUADRANTS:
                assert sign[midpoint_node(surface, tri, q, e)] == \
                    base * (-1) ** pairing(par, q)


WRONG_GLUING = """\
from tcurve_lab.errors import InvariantError
from tcurve_lab.lattice import validate_polygon
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.tcurve import extract_curve
from tcurve_lab.triangulation import generate_grid_triangulation
t2 = validate_polygon([(0, 0), (2, 0), (0, 2)])
surface = build_ambient_surface(t2)
first, *rest = surface.broken_edges
surface.broken_edges = (first._replace(segment_parity=(0, 1)), *rest)
try:
    extract_curve(surface, generate_grid_triangulation(t2),
                  {p: 1 for p in t2.lattice_points})
except InvariantError as exc:
    print(exc)
"""


def test_edge_sign_must_descend():
    # give broken edge 0, of parity (1,0), the parity (0,1): its segments
    # are glued across (1,0) instead of (0,1), and the two lifts that then
    # share a midpoint differ in sign
    t2 = standard_triangle(2)
    surface = build_ambient_surface(t2)
    first, *rest = surface.broken_edges
    surface.broken_edges = (first._replace(segment_parity=(0, 1)), *rest)
    with pytest.raises(InvariantError, match="descend"):
        extract_curve(surface, generate_grid_triangulation(t2), all_plus(t2))
    assert "descend" in run_python(WRONG_GLUING, "-O")


# ---------------------------------------------------------------------------
# extraction

def test_all_plus_unit_triangle_has_one_hexagon():
    # all-plus signs still produce negative edges in reflected quadrants:
    # the curve is a single hexagon through three quadrants, and it is
    # the nontrivial component demanded by odd degree
    t1 = standard_triangle(1)
    _, _, curve = pipeline(t1, all_plus(t1))
    assert len(curve.components) == 1
    (nodes,) = all_nodes(curve)
    assert len(nodes) == 6
    assert (0, 0) not in {b[1] for b in nodes[::2]}
    assert degree_parity_check(curve) == 0


def test_every_downstairs_edge_used_twice():
    # an interior edge has two negative lifts, each its own midpoint; the
    # two negative lifts of a boundary edge share one midpoint, a U-turn
    rng = random.Random(9)
    for d in (3, 4, 5):
        poly = standard_triangle(d)
        for _ in range(20):
            _, tri, curve = pipeline(poly, random_distribution(rng, poly))
            usage = {}
            for nodes in all_nodes(curve):
                for m in nodes[1::2]:  # its midpoints
                    usage[m[2]] = usage.get(m[2], 0) + 1
            assert usage == {e: 1 if e in tri.boundary_edges else 2
                             for e in tri.edges}
            lifted_uses = {}
            for nodes in all_nodes(curve):
                for q, t, e_in, e_out in visits(nodes):
                    for e in (e_in, e_out):
                        lifted_uses[(t, e)] = lifted_uses.get((t, e), 0) + 1
            for t in tri.triangles:
                for e in tri.slots[t]:
                    assert lifted_uses[(t, e)] == 2


def test_minus_delta_gives_same_curve():
    rng = random.Random(17)
    poly = standard_triangle(3)
    delta = random_distribution(rng, poly)
    _, _, c1 = pipeline(poly, delta)
    _, _, c2 = pipeline(poly, {p: -v for p, v in delta.items()})
    assert all_nodes(c1) == all_nodes(c2)


def test_harnack_component_counts():
    for d, expect in ((2, 1), (3, 2)):
        poly = standard_triangle(d)
        _, _, curve = pipeline(poly, harnack_distribution(poly, (1, 0, 0)))
        assert len(curve.components) == expect


# ---------------------------------------------------------------------------
# crossing parities and classification

def test_oval_crossing_vector_is_zero():
    t3 = standard_triangle(3)
    _, _, curve = pipeline(t3, harnack_distribution(t3, (1, 0, 0)))
    for comp, cls in curve.classification.items():
        if cls.kind == "oval":
            assert curve.regions.ovals[comp] == cls.quadrant
            assert comp not in curve.regions.crossings
            assert cls.crossing_vector is None


def test_harnack_t5_census():
    t5 = standard_triangle(5)
    _, _, curve = pipeline(t5, harnack_distribution(t5, (1, 0, 0)))
    assert len(curve.components) == 7
    census = curve.census
    assert census.quadrant_ovals[(0, 0)] == ((-1, 0),)
    assert census.quadrant_ovals[(1, 1)] == ((1, 0),) * 3
    assert census.quadrant_ovals[(1, 0)] == ((1, 0),)
    assert census.quadrant_ovals[(0, 1)] == ((1, 0),)
    assert census.boundary_kinds == ("nontrivial_rp2",)
    o = next(c for c, k in curve.classification.items() if k.kind != "oval")
    assert curve.classification[o].crossing_vector == (1,)
    assert verify_harnack_census(curve, (1, 0, 0))


def test_harnack_t6_census():
    t6 = standard_triangle(6)
    _, _, curve = pipeline(t6, harnack_distribution(t6, (1, 0, 0)))
    assert len(curve.components) == 11
    census = curve.census
    assert census.boundary_kinds == ("oval_rp2",)
    assert sum(len(v) for v in census.quadrant_ovals.values()) == 10
    o = next(c for c, k in curve.classification.items() if k.kind != "oval")
    disks = curve.regions.disks(o)
    assert len(disks) == 1
    inside = disks[0]
    assert len(inside) == 1
    assert curve.classification[inside[0]].quadrant == (0, 0)
    assert verify_harnack_census(curve, (1, 0, 0))


def test_degree_parity():
    rng = random.Random(23)
    for d in (2, 3):
        poly = standard_triangle(d)
        for _ in range(20):
            _, _, curve = pipeline(poly, random_distribution(rng, poly))
            witness = degree_parity_check(curve)
            assert (witness is not None) == (d % 2 == 1)
    with pytest.raises(WrongPolygon):
        _, _, curve = pipeline(validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
                               {p: 1 for p in
                                validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)]).lattice_points})
        degree_parity_check(curve)


# ---------------------------------------------------------------------------
# Harnack distributions and the group action

def test_harnack_distribution_type_100():
    t4 = standard_triangle(4)
    delta = harnack_distribution(t4, (1, 0, 0))
    for p, v in delta.items():
        assert v == (-1 if point_parity(p) == (0, 0) else 1)


SIGN_EXPONENT_TABLE = {
    # ((e,f), (g+a,h+b)) -> [(e,f) != 0] + <(e,f),(g+a,h+b)> mod 2;
    # in each column exactly one odd row flips against its neighbors,
    # which is what isolates one surrounded parity class per quadrant
    (0, 0): {(0, 0): 0, (1, 0): 0, (1, 1): 0, (0, 1): 0},
    (1, 0): {(0, 0): 1, (1, 0): 0, (1, 1): 0, (0, 1): 1},
    (1, 1): {(0, 0): 1, (1, 0): 0, (1, 1): 1, (0, 1): 0},
    (0, 1): {(0, 0): 1, (1, 0): 1, (1, 1): 0, (0, 1): 0},
}


def test_sign_exponent_table():
    for ef, row in SIGN_EXPONENT_TABLE.items():
        for gh, want in row.items():
            got = ((1 if ef != (0, 0) else 0) + pairing(ef, gh)) % 2
            assert got == want


def test_type_000_is_negated_type_100():
    t3 = standard_triangle(3)
    d0 = harnack_distribution(t3, (0, 0, 0))
    d1 = harnack_distribution(t3, (1, 0, 0))
    assert d0 == {p: -v for p, v in d1.items()}
    _, _, c0 = pipeline(t3, d0)
    _, _, c1 = pipeline(t3, d1)
    assert all_nodes(c0) == all_nodes(c1)


def test_theta_action_laws():
    t4 = standard_triangle(4)
    d = harnack_distribution(t4, (1, 0, 0))
    # global negation
    assert theta_action((1, 0, 0), d) == {p: -v for p, v in d.items()}
    # action on types is addition in (Z2)^3
    assert theta_action((0, 1, 0), d) == harnack_distribution(t4, (1, 1, 0))
    assert theta_action((1, 1, 1), d) == harnack_distribution(t4, (0, 1, 1))


def test_theta_census_permutation():
    t4 = standard_triangle(4)
    base = harnack_distribution(t4, (1, 0, 0))
    _, _, c_base = pipeline(t4, base)
    for theta in ((0, 1, 0), (0, 0, 1), (0, 1, 1)):
        _, _, c_theta = pipeline(t4, theta_action(theta, base))
        ab = (theta[1], theta[2])
        for q in QUADRANTS:
            assert c_theta.census.quadrant_ovals[q] == \
                c_base.census.quadrant_ovals[quad_add(q, ab)]


# ---------------------------------------------------------------------------
# predicted censuses

def test_predicted_census_t5():
    t5 = standard_triangle(5)
    pred = predicted_harnack_census(t5, (1, 0, 0))
    assert pred.total == 7
    assert pred.o_kind == "nontrivial"
    counts = {q: len(v) for q, v in pred.quadrant_ovals.items()}
    assert counts == {(0, 0): 1, (1, 1): 3, (1, 0): 1, (0, 1): 1}


def test_predicted_census_t6():
    pred = predicted_harnack_census(standard_triangle(6), (1, 0, 0))
    assert pred.total == 11
    assert pred.o_kind == "oval"
    assert pred.o_disks == ((0, 0),)


def test_predicted_census_t2():
    pred = predicted_harnack_census(standard_triangle(2), (1, 0, 0))
    assert pred.total == 1
    assert pred.o_kind == "oval"


# one polygon of each surface class on which O is predicted an oval, each
# with its odd vertices' parity P, or the two parities of the boundary
# points when there is no odd vertex (two spheres)
OVAL_O_POLYGONS = {
    "two spheres": ([(3, 5), (2, 0), (3, 1), (4, 0)], {(0, 0), (1, 1)}),
    "sphere": ([(3, 5), (1, 5), (5, 0), (5, 2)], {(1, 1)}),
    "torus": ([(4, 4), (1, 5), (0, 1), (1, 1), (2, 0), (3, 1), (5, 1)], {(1, 1)}),
    "projective plane": ([(3, 5), (3, 4), (2, 5), (1, 4), (4, 0), (5, 0), (5, 2)],
                         {(1, 0)}),
    "Klein bottle": ([(3, 4), (1, 4), (0, 5), (1, 0), (3, 0)], {(1, 0)}),
    "nonorientable surface with 3 crosscaps":
        ([(3, 4), (0, 5), (0, 3), (2, 1), (2, 3), (4, 3)], {(0, 1)}),
}


def assert_o_disks_law(poly, tri, parities):
    """Under every type (c,a,b), O is predicted an oval whose disk sides
    hold the ovals of the quadrants (a,b) + swap(P), one per parity P, and
    the extracted curve agrees."""
    surface = build_ambient_surface(poly)
    for htype in itertools.product((0, 1), repeat=3):
        _, a, b = htype
        pred = predicted_harnack_census(poly, htype)
        assert pred.o_kind == "oval"
        assert set(pred.o_disks) == {((a + y) % 2, (b + x) % 2) for x, y in parities}
        curve = extract_curve(surface, tri, harnack_distribution(poly, htype))
        assert verify_harnack_census(curve, htype), (poly, htype)


def test_o_disks_on_every_surface_class():
    rng = random.Random(2027)
    for name, (verts, parities) in OVAL_O_POLYGONS.items():
        poly = validate_polygon(verts)
        assert build_ambient_surface(poly).classify_topology().name == name
        assert (poly.odd_vertex_indices == ()) == (name == "two spheres")
        tri = random_flips(rng, primitive_triangulation(poly), poly.point_count)
        assert_o_disks_law(poly, tri, parities)


@pytest.mark.parametrize("v", [(0, 0), (1, 0), (0, 1), (1, 1)], ids="{0[0]}{0[1]}".format)
def test_o_disks_move_with_translation(v):
    """Translating T_4 by v moves P from (0,0) to parity(v), and so the
    predicted quadrant from (a,b) by swap(parity(v))."""
    poly = validate_polygon([(x + v[0], y + v[1]) for x, y in ((0, 0), (4, 0), (0, 4))])
    assert_o_disks_law(poly, primitive_triangulation(poly), {point_parity(v)})


def test_o_disks_on_the_translated_square():
    poly = validate_polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
    assert_o_disks_law(poly, generate_grid_triangulation(poly), {(1, 1)})


def test_harnack_census_independent_of_triangulation():
    # weak congruence: same polygon and type, any primitive triangulation
    from helpers import random_flips
    from tcurve_lab.triangulation import generate_grid_triangulation
    rng = random.Random(55)
    for d in (3, 4):
        poly = standard_triangle(d)
        surface = build_ambient_surface(poly)
        delta = harnack_distribution(poly, (1, 0, 0))
        base = extract_curve(surface, generate_grid_triangulation(poly), delta)
        for _ in range(3):
            tri2 = random_flips(rng, generate_grid_triangulation(poly), 8)
            other = extract_curve(surface, tri2, delta)
            assert comparable(other.census) == comparable(base.census)


# ---------------------------------------------------------------------------
# transforms

def test_translation_gives_identical_curve():
    t2 = standard_triangle(2)
    _, _, curve = pipeline(t2, harnack_distribution(t2, (1, 0, 0)))
    moved, relabel, flip = transform_curve(curve, translate=(1, 1))
    assert comparable(moved.census, relabel, flip) == comparable(curve.census)
    assert translated_components(curve, (1, 1)) == all_nodes(moved)


def test_translation_flips_oval_signs_by_shift_parity():
    # the 2x2 square shifted by (1,0): point signs in quadrants with
    # <q,(1,0)> = 1 flip, and so do the recorded oval signs there
    sq = validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    rng = random.Random(12)
    for _ in range(6):
        _, _, curve = pipeline(sq, random_distribution(rng, sq))
        moved, relabel, flip = transform_curve(curve, translate=(1, 0))
        assert [flip(q) for q in QUADRANTS] == [1, 1, -1, -1]
        assert comparable(moved.census, relabel, flip) == comparable(curve.census)
        assert translated_components(curve, (1, 0)) == all_nodes(moved)


def test_identity_transform():
    t2 = standard_triangle(2)
    _, _, curve = pipeline(t2, harnack_distribution(t2, (1, 0, 0)))
    same, relabel, _ = transform_curve(curve, unimodular=((1, 0), (0, 1)))
    assert all_nodes(same) == all_nodes(curve)
    assert [relabel(q) for q in QUADRANTS] == list(QUADRANTS)


def test_swap_on_harnack_t5():
    t5 = standard_triangle(5)
    _, _, curve = pipeline(t5, harnack_distribution(t5, (1, 0, 0)))
    swapped, relabel, _ = transform_curve(curve, unimodular=((0, 1), (1, 0)))
    assert comparable(swapped.census, relabel) == comparable(curve.census)
    # quadrant law (c,d) = (s,t) * A2: the swap exchanges (0,1) and (1,0)
    assert relabel((0, 1)) == (1, 0) and relabel((1, 1)) == (1, 1)


def test_transform_leaving_quadrant_rejected():
    t2 = standard_triangle(2)
    _, _, curve = pipeline(t2, harnack_distribution(t2, (1, 0, 0)))
    with pytest.raises(LeavesNonnegativeQuadrant):
        transform_curve(curve, translate=(-1, 0))
    with pytest.raises(LeavesNonnegativeQuadrant):
        transform_curve(curve, unimodular=((1, 0), (0, -1)))
