"""Component classification and component sides from the regions of S
minus the curve, against the planar nesting oracle and the per-component
split, and their invariant checks."""

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
from tcurve_lab.oracles import classify_components_by_nesting, sides_by_split
from tcurve_lab.surface import QUADRANTS, build_ambient_surface
from tcurve_lab.tcurve import (extract_curve, harnack_distribution,
                               verify_harnack_census)
from tcurve_lab.triangulation import generate_grid_triangulation

from conftest import pipeline, standard_triangle
from helpers import (primitive_triangulation, random_distribution,
                     random_flips, random_polygon)

SRC = Path(tcurve_module.__file__).resolve().parents[1]

HARNACK_TYPES = list(itertools.product((0, 1), repeat=3))


def nested_squares():
    """The 8x8 square with delta(x,y) = (-1)^max(|x-4|,|y-4|): concentric
    square rings of alternating sign, four nested ovals in quadrant (0,0)."""
    sq = validate_polygon([(0, 0), (8, 0), (8, 8), (0, 8)])
    delta = {p: (-1) ** max(abs(p[0] - 4), abs(p[1] - 4))
             for p in sq.lattice_points}
    return pipeline(sq, delta)[2]


def region_sides(curve, comp):
    """``Regions.split`` along one component: side as a set of surface
    point classes -> Euler characteristic of its closure."""
    regions = curve.regions
    pts = curve.surface.polygon.lattice_points
    out = {}
    for side in regions.split(comp):
        classes = frozenset(
            curve.surface.point_class(QUADRANTS[x // len(pts)], pts[x % len(pts)])
            for x, r in enumerate(regions.region_of) if r in side)
        out[classes] = sum(regions.euler[r] for r in side)
    return out


def assert_matches_oracle(curve):
    """Oval classes equal the nesting oracle's; the sides of every other
    component, and so its disk sides, equal the per-component split's."""
    assert curve.classification == classify_components_by_nesting(curve)
    for comp, c in curve.classification.items():
        if c.kind != "oval":
            assert region_sides(curve, comp) == sides_by_split(curve, comp)


@pytest.mark.parametrize("d", range(1, 16))
def test_harnack_types_match_oracle(d):
    poly = standard_triangle(d)
    surface = build_ambient_surface(poly)
    tri = generate_grid_triangulation(poly)
    for htype in HARNACK_TYPES:
        assert_matches_oracle(
            extract_curve(surface, tri, harnack_distribution(poly, htype)))


@pytest.mark.parametrize("d", (20, 25, 30))
def test_large_harnack_curves_match_oracle(d):
    poly = standard_triangle(d)
    _, _, curve = pipeline(poly, harnack_distribution(poly, (1, 0, 1)))
    assert_matches_oracle(curve)


def test_random_instances_match_oracle():
    rng = random.Random(4242)
    for _ in range(200):
        poly = random_polygon(rng, box=6)
        tri = random_flips(rng, primitive_triangulation(poly), poly.point_count)
        curve = extract_curve(build_ambient_surface(poly), tri,
                              random_distribution(rng, poly))
        assert_matches_oracle(curve)


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


def test_nested_ovals_sides_match_split():
    curve = nested_squares()
    assert_matches_oracle(curve)
    assert sum(1 for c in curve.classification.values() if c.kind != "oval") == 8


def test_sign_flip_inside_an_oval_raises():
    # (3, 3) lies in the ring of 8 points between the ovals of depth 2
    # and 3; the edge signs were taken before the flip, so the curve is
    # unchanged and only the sign check can see it (the other quadrants
    # hold no oval)
    curve = nested_squares()
    curve.ext.delta[(3, 3)] *= -1
    with pytest.raises(InvariantError, match="sign of an oval"):
        curve.classification


def test_sign_check_survives_python_O():
    code = ("from tcurve_lab.errors import InvariantError\n"
            "from tcurve_lab.lattice import validate_polygon\n"
            "from tcurve_lab.surface import build_ambient_surface\n"
            "from tcurve_lab.tcurve import extract_curve\n"
            "from tcurve_lab.triangulation import generate_grid_triangulation\n"
            "sq = validate_polygon([(0, 0), (8, 0), (8, 8), (0, 8)])\n"
            "delta = {p: (-1) ** max(abs(p[0] - 4), abs(p[1] - 4))\n"
            "         for p in sq.lattice_points}\n"
            "curve = extract_curve(build_ambient_surface(sq),\n"
            "                      generate_grid_triangulation(sq), delta)\n"
            "curve.ext.delta[(3, 3)] *= -1\n"
            "try:\n"
            "    curve.classification\n"
            "except InvariantError:\n"
            "    print('raised')\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "raised"


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
