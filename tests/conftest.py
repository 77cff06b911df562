import pytest

from tcurve_lab.lattice import validate_polygon
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.triangulation import generate_grid_triangulation


def standard_triangle(d):
    return validate_polygon([(0, 0), (d, 0), (0, d)])


@pytest.fixture(scope="session")
def t_polygons():
    return {d: standard_triangle(d) for d in range(1, 7)}


@pytest.fixture(scope="session")
def diamond():
    return validate_polygon([(1, 0), (2, 1), (1, 2), (0, 1)])


@pytest.fixture(scope="session")
def square22():
    return validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])


def pipeline(polygon, delta):
    """Surface, grid triangulation and extracted curve in one go."""
    from tcurve_lab.tcurve import extract_curve
    surface = build_ambient_surface(polygon)
    tri = generate_grid_triangulation(polygon)
    return surface, tri, extract_curve(surface, tri, delta)
