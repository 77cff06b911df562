import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcurve_lab.errors import (CollinearConsecutiveEdges, DegenerateSegment,
                               InputError, NegativeCoordinate, NotSimple,
                               TooFewVertices)
from tcurve_lab.geometry import segment_lattice_points
from tcurve_lab.lattice import (parity_sum, point_parity, segment_parity,
                                validate_polygon)
from tcurve_lab.oracles import lattice_points_by_box

from conftest import standard_triangle
from helpers import PYTHONPATH, random_polygon


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


@pytest.mark.parametrize("bad", [2.7, 2.0, False, True, "2", None, 2 + 0j])
def test_non_integer_coordinates_refused(bad):
    # int() used to truncate 2.7 to 2 and to read False as 0 and "0" as 0
    for k in range(3):
        verts = [[0, 0], [2, 0], [0, 2]]
        verts[k][k % 2] = bad
        with pytest.raises(InputError) as refused:
            validate_polygon(verts)
        assert str(refused.value) == \
            f"vertex {tuple(verts[k])!r}: expected two integer coordinates"


@pytest.mark.parametrize("bad", [(1,), (1, 0, 0), ()])
def test_vertices_of_other_lengths_refused(bad):
    # unpacking used to raise ValueError
    with pytest.raises(InputError, match="expected two integer coordinates"):
        validate_polygon([(0, 0), bad, (0, 2)])


@pytest.mark.parametrize("verts", [5, [5, (1, 0), (0, 1)], [(0, 0), (1, 0), None]],
                         ids=["int", "int vertex", "None vertex"])
def test_vertices_not_sequences_refused(verts):
    # iterating them used to raise TypeError
    with pytest.raises(InputError, match="^vertices must be a sequence of integer pairs$"):
        validate_polygon(verts)


class Index:
    """An integer type other than int, as NumPy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_types_other_than_int_accepted():
    poly = validate_polygon([(Index(0), 0), (2, Index(0)), (0, Index(2))])
    assert poly.vertices == ((0, 0), (2, 0), (0, 2))
    assert all(type(c) is int for v in poly.vertices for c in v)


def test_numpy_integers_accepted():
    np = pytest.importorskip("numpy")
    poly = validate_polygon(np.array([[0, 0], [2, 0], [0, 2]], dtype=np.int64))
    assert poly.vertices == ((0, 0), (2, 0), (0, 2))
    with pytest.raises(InputError, match="expected two integer coordinates"):
        validate_polygon(np.array([[0, 0], [2.5, 0], [0, 2]]))


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


def test_broken_edges_match_their_definitions():
    rng = random.Random(20)
    polys = [standard_triangle(d) for d in range(1, 9)]
    polys += [validate_polygon(v) for v in (
        [(1, 0), (2, 1), (1, 2), (0, 1)], [(0, 0), (2, 0), (2, 2), (0, 2)],
        [(0, 0), (3, 0), (3, 2), (0, 2)],
        [(0, 0), (4, 0), (4, 2), (3, 1), (2, 2), (1, 1), (0, 2)])]  # CI's comb
    polys += [random_polygon(rng, box=rng.choice((3, 6, 9, 14)))
              for _ in range(120)]
    for poly in polys:
        vs, n = poly.vertices, poly.n
        seg_par = [parity_by_enumeration(vs[i], vs[(i + 1) % n]) for i in range(n)]
        vp = [parity_sum(seg_par[i - 1], seg_par[i]) for i in range(n)]
        odd = [i for i in range(n) if vp[i] != (0, 0)]
        listed = []  # the primitive segments, edge by edge
        for i in range(n):
            pts = segment_lattice_points(vs[i], vs[(i + 1) % n])
            listed += zip(pts, pts[1:])
        bes = poly.broken_edges
        assert len(bes) == max(len(odd), 1), poly
        assert {b.start for b in bes} == ({vs[i] for i in odd} or {None}), poly
        # broken edge 0 starts at the smallest odd vertex, or at vertices[0]
        assert bes[0].start == (min(vs[i] for i in odd) if odd else None), poly
        for k, b in enumerate(bes):
            segs = b.primitive_segments
            # the segments chain from start to end, which are the odd
            # vertices in counterclockwise order
            assert all(s[1] == t[0] for s, t in zip(segs, segs[1:])), poly
            ends = (b.start, b.end) if odd else (vs[0], vs[0])
            assert (segs[0][0], segs[-1][1]) == ends, poly
            assert b.end == bes[(k + 1) % len(bes)].start, poly
            assert b.integral_length == len(segs)
            # its polygon edges: from start counterclockwise to end
            i0 = vs.index(segs[0][0])
            i1 = vs.index(segs[-1][1])
            edges = [(i0 + j) % n for j in range((i1 - i0 - 1) % n + 1)]
            assert all(seg_par[i] == b.segment_parity for i in edges), poly
            broken = (0, 0)
            for i in edges:
                broken = parity_sum(broken, parity_sum(vp[i], vp[(i + 1) % n]))
            assert b.broken_parity == broken, poly
        # together they cover each boundary segment exactly once
        walked = [seg for b in bes for seg in b.primitive_segments]
        assert sorted(walked) == sorted(listed)
        assert set(poly.boundary_points) == {p for p, _ in listed}
        assert len(poly.boundary_points) == poly.boundary_length


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


def test_random_polygon_in_the_smallest_boxes():
    """Box 1 holds 4 points, so the sampler returns the unit square; box 0
    holds 1 and raises.  In a fresh interpreter with a time limit: the
    sampler once drew more distinct points than a small box holds, and
    never returned."""
    code = ("import random\n"
            "from helpers import random_polygon\n"
            "rng = random.Random(5)\n"
            "print({tuple(sorted(random_polygon(rng, box=1).vertices))\n"
            "       for _ in range(20)})\n"
            "try:\n"
            "    random_polygon(rng, box=0)\n"
            "except ValueError:\n"
            "    print('ValueError')\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, timeout=5,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": PYTHONPATH}).stdout
    assert out.splitlines() == ["{((0, 0), (0, 1), (1, 0), (1, 1))}",
                                 "ValueError"]


def test_pick_point_count_matches_scan():
    rng = random.Random(61)
    polys = [standard_triangle(d) for d in range(1, 7)]
    polys += [random_polygon(rng) for _ in range(40)]
    for poly in polys:
        assert poly.point_count == len(poly.lattice_points)


def comb(teeth: int) -> list:
    """A comb: a flat base under a zigzag top of ``2 * teeth + 1`` vertices,
    non-convex at every valley."""
    return [(0, 0), (2 * teeth, 0)] + [(x, 2 - x % 2) for x in range(2 * teeth, -1, -1)]


def test_column_scan_matches_bounding_box_scan():
    rng = random.Random(67)
    polys = [standard_triangle(d) for d in range(1, 16)]
    polys += [random_polygon(rng, box=rng.choice((3, 6, 9, 14))) for _ in range(300)]
    polys += [validate_polygon(comb(k)) for k in (1, 2, 7, 30)]
    # thin slivers: long edges with few lattice points between them
    polys += [validate_polygon(v) for v in (
        [(0, 0), (7, 1), (13, 2)], [(0, 0), (9, 4), (2, 1)], [(1, 1), (30, 2), (1, 2)],
        [(0, 0), (5, 1), (10, 1), (5, 0)], [(0, 3), (17, 0), (18, 0), (1, 3)])]
    for poly in polys:
        assert poly.lattice_points == lattice_points_by_box(poly), poly
