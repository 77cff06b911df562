"""Every simple lattice polygon with at most 5 vertices in [0,3]^2
(``helpers.box_polygons``), and a seeded sample of them through the
surface oracle, the Harnack census under all 8 types, and the filling of
the (1,0,0) curve against the cell oracle, and a sample with V <= 12
through the sweep, whose type-I total must be the GF(2) count."""

import collections
import itertools
import random

import pytest

from tcurve_lab.cli import curve_report
from tcurve_lab.filling import build_filling, classify_filling
from tcurve_lab.oracles import (classify_filling_by_cells,
                                classify_surface_by_cells)
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.sweep import compile_sweep, run_sweep
from tcurve_lab.tcurve import (TCurve, harnack_distribution,
                               verify_harnack_census)
from tcurve_lab.triangulation import incidence_graphs

from helpers import (box_polygons, check_type_one_count, primitive_triangulation,
                     random_distribution)

HARNACK_TYPES = list(itertools.product((0, 1), repeat=3))


@pytest.fixture(scope="module")
def polygons():
    return box_polygons(3, 5)


def test_the_box_list_by_surface_class(polygons):
    classes = collections.Counter(
        build_ambient_surface(poly).classify_topology().name for poly in polygons)
    assert len(polygons) == 9882
    assert classes == {"two spheres": 106, "sphere": 1064,
                       "projective plane": 2292, "torus": 1716,
                       "Klein bottle": 3284,
                       "nonorientable surface with 3 crosscaps": 1420}
    assert len({poly.vertices for poly in polygons}) == 9882


def test_a_sample_of_the_box_list(polygons):
    """1,000 polygons: the surface class against the cell oracle, the
    census of the Harnack curve under every type, and on the (1,0,0)
    curve D = i + 1, with D, chi and orientability against the cell
    oracle of the filling."""
    for poly in random.Random(13).sample(polygons, 1000):
        surface = build_ambient_surface(poly)
        assert surface.classify_topology() == classify_surface_by_cells(poly), poly
        tri = primitive_triangulation(poly)
        tables = compile_sweep(tri, incidence_graphs(surface, tri))
        for htype in HARNACK_TYPES:
            curve = TCurve(surface, tri, harnack_distribution(poly, htype), tables)
            assert verify_harnack_census(curve, htype), (poly, htype)
            if htype == (1, 0, 0):
                filling = build_filling(curve)
                d = filling.boundary_count
                assert d == len(poly.interior_points) + 1, poly
                assert classify_filling_by_cells(filling) == \
                    (filling.chi, d, classify_filling(filling).orientable)


def test_one_component_numbering(polygons):
    """Component k is ``components[k]`` in every per-component record, on
    random-sign curves of a sample over every surface class: the
    classification runs 0..D-1 in order, each component has its side
    pair, crossings and ovals split 0..D-1, and the report's length of
    component k is twice its walk's."""
    rng = random.Random(17)
    classes = set()
    for poly in rng.sample(polygons, 300):
        surface = build_ambient_surface(poly)
        classes.add(surface.classify_topology().name)
        curve = TCurve(surface, primitive_triangulation(poly),
                       random_distribution(rng, poly))
        regions, d = curve.regions, len(curve.components)
        assert list(curve.classification) == list(range(d)), poly
        assert len(regions.sides) == d
        assert sorted([*regions.crossings, *regions.ovals]) == list(range(d))
        assert [c["length"] for c in curve_report(curve)["components"]] == \
            [2 * len(walk) for walk in curve.components]
    assert len(classes) == 6


def test_type_one_count_on_a_sample_of_the_box_list(polygons):
    """200 polygons with V <= 12: ``oracles.type_one_count`` is the type-I
    total of the sweep (ROADMAP item 11)."""
    small = [poly for poly in polygons if poly.point_count <= 12]
    for poly in random.Random(31).sample(small, 200):
        tri = primitive_triangulation(poly)
        tables = compile_sweep(tri, incidence_graphs(build_ambient_surface(poly), tri))
        check_type_one_count(tables, run_sweep(tables))
