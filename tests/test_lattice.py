import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcurve_lab.errors import (CollinearConsecutiveEdges, DegenerateSegment,
                               NegativeCoordinate, NotSimple, TooFewVertices)
from tcurve_lab.geometry import segment_lattice_points
from tcurve_lab.lattice import (parity_sum, point_parity, segment_parity,
                                validate_polygon)

from conftest import standard_triangle
from helpers import random_polygon


def parity_by_enumeration(p, q):
    """Independent oracle: collect the parity values attained by all
    lattice points of the segment and add the two distinct ones."""
    values = {point_parity(x) for x in segment_lattice_points(p, q)}
    assert len(values) == 2
    a, b = values
    return parity_sum(a, b)


def test_point_parity():
    assert point_parity((3, 4)) == (1, 0)
    assert point_parity((0, 0)) == (0, 0)
    assert point_parity((-1, 2)) == (1, 0)


def test_segment_parity_matches_enumeration_oracle():
    assert parity_by_enumeration((0, 0), (2, 1)) == (0, 1)
    assert segment_parity((0, 0), (2, 1)) == (0, 1)
    assert parity_by_enumeration((0, 0), (2, 0)) == (1, 0)
    assert segment_parity((0, 0), (2, 0)) == (1, 0)


def test_degenerate_segment():
    with pytest.raises(DegenerateSegment):
        segment_parity((1, 2), (1, 2))


points = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


@given(points, points)
def test_segment_parity_properties(p, q):
    if p == q:
        return
    par = segment_parity(p, q)
    assert par != (0, 0)
    values = {point_parity(x) for x in segment_lattice_points(p, q)}
    assert len(values) == 2
    a, b = values
    assert parity_sum(a, b) == par


# ---------------------------------------------------------------------------
# polygon validation

def test_t5_vertex_parities():
    t5 = standard_triangle(5)
    assert t5.vertex_parities == ((1, 1), (0, 1), (1, 0))
    assert all(vp != (0, 0) for vp in t5.vertex_parities)
    # oracle: sum of the incident segment parities
    assert t5.edge_segment_parities == ((1, 0), (1, 1), (0, 1))
    for i in range(3):
        assert t5.vertex_parities[i] == parity_sum(
            t5.edge_segment_parities[i - 1], t5.edge_segment_parities[i])


def test_validation_errors():
    with pytest.raises(CollinearConsecutiveEdges):
        validate_polygon([(0, 0), (2, 0), (4, 0), (0, 3)])
    with pytest.raises(NegativeCoordinate):
        validate_polygon([(0, 0), (-1, 2), (2, 2)])
    with pytest.raises(TooFewVertices):
        validate_polygon([(0, 0), (1, 0)])
    with pytest.raises(NotSimple):
        validate_polygon([(0, 0), (2, 2), (2, 0), (0, 2)])  # bowtie


def test_clockwise_input_is_canonicalized():
    ccw = validate_polygon([(0, 0), (3, 0), (0, 3)])
    cw = validate_polygon([(0, 0), (0, 3), (3, 0)])
    assert set(ccw.vertices) == set(cw.vertices)
    assert cw.double_area > 0


# ---------------------------------------------------------------------------
# broken edges

def test_broken_edges_standard_triangle():
    for d in (1, 2, 3, 4):
        td = standard_triangle(d)
        assert td.r == 3
        assert [b.segment_parity for b in td.broken_edges] == \
            [(1, 0), (1, 1), (0, 1)]
        assert all(b.is_odd for b in td.broken_edges)
        # anchored at the lexicographically smallest odd vertex
        assert td.broken_edges[0].start == (0, 0)
        assert [b.integral_length for b in td.broken_edges] == [d, d, d]


def test_broken_edges_wide_triangle():
    for d in (1, 2, 3):
        poly = validate_polygon([(0, 0), (2 * d, 0), (0, d)])
        assert poly.r == 2
        bottom, rest = poly.broken_edges
        assert bottom.segment_parity == (1, 0)
        assert rest.segment_parity == (0, 1)
        assert not bottom.is_odd and not rest.is_odd
        assert poly.vertex_parities[poly.vertices.index((0, d))] == (0, 0)


def test_broken_edge_diamond():
    poly = validate_polygon([(1, 0), (2, 1), (1, 2), (0, 1)])
    assert poly.r == 1
    (b,) = poly.broken_edges
    assert b.segment_parity == (1, 1)
    assert b.start is None and b.end is None
    assert all(vp == (0, 0) for vp in poly.vertex_parities)


# ---------------------------------------------------------------------------
# census

def test_census_t3():
    c = standard_triangle(3).census()
    assert (c.total_points, c.boundary_length, c.interior_points) == (10, 9, 1)


def test_census_t5():
    # oracle: enumerate the six interior points and bucket by parity
    t5 = standard_triangle(5)
    interior = [(x, y) for x in range(1, 5) for y in range(1, 5) if x + y <= 4]
    assert sorted(interior) == sorted(t5.interior_points)
    c = t5.census()
    assert c.interior_points == 6
    assert c.by_parity == {(0, 0): 1, (1, 1): 3, (1, 0): 1, (0, 1): 1}


def test_census_unit_triangle():
    assert standard_triangle(1).census().interior_points == 0


def test_random_polygon_lemmas():
    rng = random.Random(2024)
    for _ in range(40):
        poly = random_polygon(rng)
        # a polygon never has exactly one odd vertex
        assert len(poly.odd_vertex_indices) != 1
        # broken parity equals the sum of the endpoint vertex parities
        for b in poly.broken_edges:
            if b.start is None:
                continue
            vp = {poly.vertices[i]: poly.vertex_parities[i]
                  for i in range(poly.n)}
            assert b.broken_parity == parity_sum(vp[b.start], vp[b.end])
        # boundary length equals the number of boundary lattice points
        c = poly.census()
        assert c.boundary_length == len(poly.boundary_points)
        assert c.interior_points == len(poly.interior_points)
        assert sum(c.by_parity.values()) == c.interior_points


def test_pick_point_count_matches_scan():
    rng = random.Random(61)
    polys = [standard_triangle(d) for d in range(1, 7)]
    polys += [random_polygon(rng) for _ in range(40)]
    for poly in polys:
        assert poly.point_count == len(poly.lattice_points)
