"""``render_svg``, which joins its lines one section at a time and reads
the point signs off ``TCurve.copy_signs``, against the picture drawn one
line at a time (``oracles.svg_by_lines``), and the structure of its SVG."""

import itertools
import random
import xml.etree.ElementTree as ET

import pytest

from tcurve_lab.oracles import svg_by_lines
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.svg import render_svg
from tcurve_lab.tcurve import extract_curve, harnack_distribution
from tcurve_lab.triangulation import generate_grid_triangulation

from conftest import standard_triangle
from helpers import (primitive_triangulation, random_distribution,
                     random_flips, random_polygon)

SVG = "{http://www.w3.org/2000/svg}"


def assert_svg_matches(curve):
    text = render_svg(curve)
    assert text == svg_by_lines(curve)
    groups = ET.fromstring(text).findall(SVG + "g")
    assert [len(g) for g in groups[2:-1]] == [
        2 * len(walk) for walk in curve.components]
    assert len(groups) == len(curve.components) + 3


@pytest.mark.parametrize("d", range(1, 13))
def test_harnack_curves_match_the_line_by_line_picture(d):
    poly = standard_triangle(d)
    surface, tri = build_ambient_surface(poly), generate_grid_triangulation(poly)
    for htype in itertools.product((0, 1), repeat=3):
        assert_svg_matches(
            extract_curve(surface, tri, harnack_distribution(poly, htype)))


def test_random_instances_match_the_line_by_line_picture():
    rng = random.Random(2210)
    for _ in range(60):
        poly = random_polygon(rng, box=6)
        tri = random_flips(rng, primitive_triangulation(poly), poly.point_count)
        assert_svg_matches(extract_curve(
            build_ambient_surface(poly), tri, random_distribution(rng, poly)))
