"""Component classification and the sides of the one non-oval from the
regions of S minus the curve, against the planar nesting oracle and the
per-component split, the batched regions against the one-find-at-a-time
ones, and their invariant checks."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tcurve_lab.tcurve as tcurve_module
from tcurve_lab.errors import InvariantError
from tcurve_lab.lattice import validate_polygon
from tcurve_lab.oracles import (boundary_offset, classify_components_by_nesting,
                                component_nodes, point_class, regions_by_find,
                                sides_by_split)
from tcurve_lab.surface import QUADRANTS, build_ambient_surface
from tcurve_lab.tcurve import (extract_curve, harnack_distribution,
                               verify_harnack_census)
from tcurve_lab.triangulation import generate_grid_triangulation

from conftest import pipeline, standard_triangle
from helpers import (primitive_triangulation, random_distribution,
                     random_flips, random_polygon, run_python)

SRC = Path(tcurve_module.__file__).resolve().parents[1]

HARNACK_TYPES = list(itertools.product((0, 1), repeat=3))


def nested_squares():
    """The 8x8 square with delta(x,y) = (-1)^max(|x-4|,|y-4|): concentric
    square rings of alternating sign, four nested ovals in quadrant (0,0)."""
    sq = validate_polygon([(0, 0), (8, 0), (8, 8), (0, 8)])
    delta = {p: (-1) ** max(abs(p[0] - 4), abs(p[1] - 4))
             for p in sq.lattice_points}
    return pipeline(sq, delta)[2]


def forest_sides(curve, k):
    """The sides of component k, the one non-oval, from the oval forest:
    the regions below each side region of k, as a set of surface point
    classes -> Euler characteristic of its closure."""
    regions = curve.regions
    regions.oval_classes  # the search that fills ``top``
    pts = curve.surface.polygon.lattice_points
    offsets = boundary_offset(curve.surface)
    out = {}
    for side in regions.sides[k]:
        below = {r for r, s in enumerate(regions.top) if s == side}
        classes = frozenset(
            point_class(offsets, QUADRANTS[x // len(pts)], pts[x % len(pts)])
            for x, r in enumerate(regions.region_of) if r in below)
        out[classes] = sum(regions.euler[r] for r in below)
    return out


def oracle_first_copy(surface) -> list:
    """``Regions.first_copy`` from the oracle's point classes: the copy of
    the smallest quadrant in each point's class."""
    offsets = boundary_offset(surface)
    pts = surface.polygon.lattice_points
    return [QUADRANTS.index(point_class(offsets, q, p)[0][0]) * len(pts) + i
            for q in QUADRANTS for i, p in enumerate(pts)]


def assert_matches_oracle(curve):
    """The point gluing of the regions and the oval classes equal the
    oracles'."""
    assert curve.regions.first_copy == oracle_first_copy(curve.surface)
    assert curve.classification == classify_components_by_nesting(curve)


def assert_o_sides_match_oracle(curve):
    """The curve has one non-oval O, and its sides from the oval forest,
    and so its disk sides, equal the per-component split's."""
    (o,) = [k for k, c in curve.classification.items() if c.kind != "oval"]
    assert forest_sides(curve, o) == sides_by_split(curve, o)


def assert_regions_match_find(curve):
    """The batched regions equal the one-find-at-a-time ones: the same
    point gluing, ``region_of`` the same partition (its labels correspond
    one to one), and under that correspondence the same sides, crossings
    and ovals."""
    fast, ref = curve.regions, regions_by_find(curve)
    assert fast.first_copy == ref.first_copy
    relabel = dict(zip(fast.region_of, ref.region_of))
    assert len(relabel) == len(set(relabel.values())) == fast.count == ref.count
    assert [relabel[r] for r in fast.region_of] == ref.region_of
    assert [tuple(sorted(relabel[r] for r in pair))
            for pair in fast.sides] == ref.sides
    assert fast.crossings == ref.crossings and fast.ovals == ref.ovals


@pytest.mark.parametrize("d", range(1, 13))
def test_regions_match_find_on_harnack_curves(d):
    poly = standard_triangle(d)
    surface = build_ambient_surface(poly)
    tri = generate_grid_triangulation(poly)
    for htype in HARNACK_TYPES:
        assert_regions_match_find(
            extract_curve(surface, tri, harnack_distribution(poly, htype)))


def test_regions_match_find_on_random_instances():
    rng = random.Random(2206)
    for _ in range(60):
        poly = random_polygon(rng, box=6)
        tri = random_flips(rng, primitive_triangulation(poly), poly.point_count)
        assert_regions_match_find(extract_curve(
            build_ambient_surface(poly), tri, random_distribution(rng, poly)))


@pytest.mark.parametrize("d", range(1, 16))
def test_harnack_types_match_oracle(d):
    poly = standard_triangle(d)
    surface = build_ambient_surface(poly)
    tri = generate_grid_triangulation(poly)
    for htype in HARNACK_TYPES:
        curve = extract_curve(surface, tri, harnack_distribution(poly, htype))
        assert_matches_oracle(curve)
        assert_o_sides_match_oracle(curve)


@pytest.mark.parametrize("d", (20, 25, 30))
def test_large_harnack_curves_match_oracle(d):
    poly = standard_triangle(d)
    _, _, curve = pipeline(poly, harnack_distribution(poly, (1, 0, 1)))
    assert_matches_oracle(curve)
    assert_o_sides_match_oracle(curve)


def test_rectangles_match_oracle():
    for x0, y0, x1, y1 in ((0, 0, 1, 1), (0, 0, 3, 2), (1, 0, 4, 2),
                           (0, 1, 3, 3), (2, 3, 4, 6), (0, 0, 5, 4)):
        poly = validate_polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
        for htype in HARNACK_TYPES:
            curve = pipeline(poly, harnack_distribution(poly, htype))[2]
            assert_matches_oracle(curve)
            assert_o_sides_match_oracle(curve)


def test_random_instances_match_oracle():
    rng = random.Random(4242)
    classes = set()
    for _ in range(200):
        poly = random_polygon(rng, box=6)
        tri = random_flips(rng, primitive_triangulation(poly), poly.point_count)
        curve = extract_curve(build_ambient_surface(poly), tri,
                              random_distribution(rng, poly))
        assert_matches_oracle(curve)
        topo = curve.surface.classify_topology()
        classes.add((topo.components, topo.orientable, min(topo.genus or 0, 1),
                     min(topo.crosscaps or 0, 2)))
    # two spheres, sphere, torus or more, projective plane, >= 2 crosscaps
    assert classes == {(2, True, 0, 0), (1, True, 0, 0), (1, True, 1, 0),
                       (1, False, 0, 1), (1, False, 0, 2)}


def test_nested_ovals():
    curve = nested_squares()
    for classes in (curve.classification, classify_components_by_nesting(curve)):
        ovals = sorted((c.sign, c.depth) for c in classes.values()
                       if c.kind == "oval" and c.quadrant == (0, 0))
        assert tuple(ovals) == ((-1, 0), (-1, 2), (1, 1), (1, 3))
        kinds = [c.kind for c in classes.values()]
        assert kinds.count("boundary") == 8 and len(kinds) == 12
    assert curve.census.quadrant_ovals[(0, 0)] == \
        ((-1, 0), (-1, 2), (1, 1), (1, 3))


def test_disks_need_the_only_non_oval():
    """``disks`` reads the sides of a component off the oval forest, which
    holds only when every other component is an in-quadrant oval: on each
    of the 8 boundary components of the nested squares it raises, also
    under ``python -O``."""
    curve = nested_squares()
    assert_matches_oracle(curve)
    others = [k for k, c in curve.classification.items() if c.kind != "oval"]
    assert len(others) == 8
    for k in others:
        with pytest.raises(InvariantError, match="in-quadrant oval"):
            curve.regions.disks(k)
    out = run_python("from tcurve_lab.errors import InvariantError\n"
                     "from test_classify import nested_squares\n"
                     "curve = nested_squares()\n"
                     "for k, c in curve.classification.items():\n"
                     "    if c.kind != 'oval':\n"
                     "        try:\n"
                     "            curve.regions.disks(k)\n"
                     "        except InvariantError as exc:\n"
                     "            print(exc)\n", "-O")
    assert out.splitlines() == ["every other component is an in-quadrant oval"] * 8


def test_sign_flip_inside_an_oval_raises():
    # (3, 3) lies in the ring of 8 points between the ovals of depth 2
    # and 3; the edge signs were taken before the flip, so the curve is
    # unchanged and only the sign check can see it (the other quadrants
    # hold no oval)
    curve = nested_squares()
    curve.delta[(3, 3)] *= -1
    with pytest.raises(InvariantError, match="sign of an oval"):
        curve.classification


def test_sign_check_survives_python_O():
    code = ("from tcurve_lab.errors import InvariantError\n"
            "from test_classify import nested_squares\n"
            "curve = nested_squares()\n"
            "curve.delta[(3, 3)] *= -1\n"
            "try:\n"
            "    curve.classification\n"
            "except InvariantError:\n"
            "    print('raised')\n")
    assert run_python(code, "-O").strip() == "raised"


def t6_with_a_misglued_point():
    """T_6 of type (1,0,0), classified, after which the regions claim that
    the boundary point (1, 0) is an odd vertex: the four copies of it
    point to its (0,0) copy, so its two point classes become one, and only
    the Euler characteristic sum can see it."""
    t6 = standard_triangle(6)
    _, _, curve = pipeline(t6, harnack_distribution(t6, (1, 0, 0)))
    curve.classification
    first_copy, V = curve.regions.first_copy, len(t6.lattice_points)
    i = t6.lattice_points.index((1, 0))
    for q in range(4):
        first_copy[q * V + i] = i
    return curve


def test_euler_sum_check_raises():
    curve = t6_with_a_misglued_point()
    with pytest.raises(InvariantError, match="sum to chi"):
        verify_harnack_census(curve, (1, 0, 0))


def test_euler_sum_check_survives_python_O():
    code = ("from tcurve_lab.errors import InvariantError\n"
            "from tcurve_lab.tcurve import verify_harnack_census\n"
            "from test_classify import t6_with_a_misglued_point\n"
            "try:\n"
            "    verify_harnack_census(t6_with_a_misglued_point(), (1, 0, 0))\n"
            "except InvariantError as exc:\n"
            "    print(exc)\n")
    path = os.pathsep.join((str(SRC), str(Path(__file__).resolve().parent)))
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert "sum to chi" in out


def t6_with_a_misglued_lift():
    """T_6 of type (1,0,0) whose lift table, after the curve is built,
    merges one lifted boundary edge into the copy of a third quadrant: the
    point classes at its ends then take three quadrants."""
    t6 = standard_triangle(6)
    _, _, curve = pipeline(t6, harnack_distribution(t6, (1, 0, 0)))
    tab = curve.tables
    x, c = tab.merged[0], tab.canonical[0]
    q = next(q for q in range(4) if q not in (x // tab.E, c // tab.E))
    tab.canonical[0] = q * tab.E + c % tab.E
    return curve


def test_misglued_lift_raises():
    with pytest.raises(InvariantError, match="2 on the boundary"):
        t6_with_a_misglued_lift().classification
    out = run_python("from tcurve_lab.errors import InvariantError\n"
                     "from test_classify import t6_with_a_misglued_lift\n"
                     "try:\n"
                     "    t6_with_a_misglued_lift().classification\n"
                     "except InvariantError as exc:\n"
                     "    print(exc)\n", "-O")
    assert "2 on the boundary" in out


def oval_walks(curve) -> list:
    """The walks of the components whose lifted triangles all lie in one
    quadrant, read off their nodes: the in-quadrant ovals."""
    return [walk for walk in curve.components
            if len({b[1] for b in component_nodes(curve, walk)[::2]}) == 1]


def move_a_visit(curve):
    """One visit moves from the first oval's walk to the second's: its
    midpoint stays crossed, so the second oval now borders the first's
    regions there and its own elsewhere."""
    a, b = oval_walks(curve)[:2]
    b.append(a.pop())


def drop_a_visit(curve):
    """One visit leaves an oval's walk: the lifted edge there is no longer
    crossed, so the regions inside and outside the oval merge."""
    oval_walks(curve)[0].pop()


def move_a_visit_up_a_quadrant(curve):
    """One visit of an oval of quadrant (0,0) enters the same prong in
    quadrant (0,1); it still crosses no boundary edge."""
    walk = next(w for w in oval_walks(curve) if w[0] < 3 * curve.tables.T)
    walk[-1] += 3 * curve.tables.T


def glue_the_center(curve):
    """The regions claim that the center (4, 4) is a glued boundary point,
    so the search for depths also starts inside the innermost oval and
    meets itself between the ovals."""
    curve.regions.first_copy[curve.surface.polygon.lattice_points.index((4, 4))] = 0


def glue_nothing(curve):
    """The regions claim that no point is glued, so the search for depths
    has nowhere to start."""
    first_copy = curve.regions.first_copy
    first_copy[:] = range(len(first_copy))


# message of the check that each fault trips -> the fault, planted in the
# classes of ``nested_squares`` after the trace
CLASSIFICATION_FAULTS = {
    "borders the same regions": move_a_visit,
    "an oval joins two regions": drop_a_visit,
    "stays in one quadrant": move_a_visit_up_a_quadrant,
    "regions and ovals form no tree": glue_the_center,
    "every region and oval is reached": glue_nothing,
}


@pytest.mark.parametrize("message", CLASSIFICATION_FAULTS)
def test_planted_fault_trips_its_check(message):
    curve = nested_squares()
    CLASSIFICATION_FAULTS[message](curve)
    with pytest.raises(InvariantError, match=message):
        curve.classification
    out = run_python("from tcurve_lab.errors import InvariantError\n"
                     "from test_classify import CLASSIFICATION_FAULTS, nested_squares\n"
                     "curve = nested_squares()\n"
                     f"CLASSIFICATION_FAULTS[{message!r}](curve)\n"
                     "try:\n"
                     "    curve.classification\n"
                     "except InvariantError as exc:\n"
                     "    print(exc)\n", "-O")
    assert message in out


def test_planted_crossing_count_fails_the_oracle():
    """The oracle counts crossings on its own: one more crossing of the
    basis circle makes the nontrivial component of T_5 look trivial to
    the classification only."""
    t5 = standard_triangle(5)
    _, _, curve = pipeline(t5, harnack_distribution(t5, (1, 0, 0)))
    assert_matches_oracle(curve)
    _, _, curve = pipeline(t5, harnack_distribution(t5, (1, 0, 0)))
    crossings = curve.regions.crossings
    (o,) = crossings  # the one component that crosses a broken edge
    crossings[o] = crossings[o][:2] + (crossings[o][2] + 1,)
    assert curve.classification[o].kind == "oval_rp2"
    with pytest.raises(AssertionError):
        assert_matches_oracle(curve)
