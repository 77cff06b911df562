"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Everything is exact; there are no tolerances anywhere.
"""

import itertools
import random
import time
from functools import reduce

import pytest

from tcurve_lab.filling import build_filling, classify_filling, harnack_check
from tcurve_lab.lattice import validate_polygon
from tcurve_lab.oracles import (classify_components_by_nesting,
                                classify_filling_by_cells,
                                classify_surface_by_cells)
from tcurve_lab.surface import QUADRANTS, build_ambient_surface
from tcurve_lab.sweep import compile_sweep
from tcurve_lab.tcurve import (TCurve, extract_curve, harnack_distribution,
                               predicted_harnack_census, verify_harnack_census)
from tcurve_lab.triangulation import generate_grid_triangulation, incidence_graphs

from conftest import pipeline, standard_triangle
from helpers import (IDENTITY, comparable, degree_parity_check, mat_mul,
                     match_oracles, primitive_triangulation,
                     random_distribution, random_flips, random_polygon,
                     sweep, transform_curve)


def report(n, text):
    print(f"\nCRITERION {n} PASS: {text}")


# ---------------------------------------------------------------------------

def test_criterion_1_surface_classification():
    for d in range(1, 7):
        topo = build_ambient_surface(standard_triangle(d)).classify_topology()
        assert (topo.components, topo.orientable, topo.crosscaps) == (1, False, 1), \
            f"S(T_{d}) must be the projective plane"
    for d in range(1, 5):
        poly = validate_polygon([(0, 0), (2 * d, 0), (0, d)])
        topo = build_ambient_surface(poly).classify_topology()
        assert (topo.components, topo.orientable, topo.genus) == (1, True, 0), \
            "wide triangle must give a sphere"
    diamond = validate_polygon([(1, 0), (2, 1), (1, 2), (0, 1)])
    assert build_ambient_surface(diamond).classify_topology().components == 2
    square = validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    topo = build_ambient_surface(square).classify_topology()
    assert (topo.orientable, topo.genus) == (True, 1)
    report(1, "RP^2 for T_1..T_6, spheres, two spheres, torus (exact)")


def test_criterion_2_atlas_algebra():
    rng = random.Random(1202)
    checked = 0
    while checked < 50:
        poly = random_polygon(rng, min_r=3)
        surface = build_ambient_surface(poly)
        atlas = surface.canonical_atlas()
        r = len(atlas.charts)
        for k in range(r):
            assert atlas.charts[k].matrix == mat_mul(
                atlas.charts[(k - 1) % r].matrix, atlas.steps[k])
        assert reduce(mat_mul, atlas.steps[1:] + atlas.steps[:1],
                      IDENTITY) == IDENTITY
        odd = [b.is_odd for b in poly.broken_edges]
        assert sum(odd) != 1
        if any(odd[k] and odd[(k + 1) % r] for k in range(r)):
            assert sum(odd) >= 3
        checked += 1
    report(2, "gluing law, cyclic identity and odd-edge lemmas on 50 random polygons")


def test_criterion_3_harnack_census_degree_5():
    t5 = standard_triangle(5)
    _, _, curve = pipeline(t5, harnack_distribution(t5, (1, 0, 0)))
    assert len(curve.components) == 7
    counts = {q: len(v) for q, v in curve.census.quadrant_ovals.items()}
    assert counts == {(0, 0): 1, (1, 1): 3, (1, 0): 1, (0, 1): 1}
    for q, v in curve.census.quadrant_ovals.items():
        want = -1 if q == (0, 0) else 1
        assert all(sd == (want, 0) for sd in v), "empty ovals with the right signs"
    assert curve.census.boundary_kinds == ("nontrivial_rp2",)
    o = next(c for c, k in curve.classification.items() if k.kind != "oval")
    assert curve.classification[o].crossing_vector == (1,)
    assert verify_harnack_census(curve, (1, 0, 0))
    report(3, "degree-5 census 7 = 6 empty ovals (1,3,1,1) + 1 odd-crossing nontrivial")


def test_criterion_4_harnack_census_degree_6():
    t6 = standard_triangle(6)
    _, _, curve = pipeline(t6, harnack_distribution(t6, (1, 0, 0)))
    assert len(curve.components) == 11
    ovals = [c for c in curve.classification.values() if c.kind == "oval"]
    assert len(ovals) == 10 and all(c.depth == 0 for c in ovals)
    outer = [c for c in ovals if c.quadrant != (0, 0)]
    assert len(outer) == 9
    o = next(c for c, k in curve.classification.items() if k.kind != "oval")
    assert curve.classification[o].kind == "oval_rp2"
    disks = curve.regions.disks(o)
    assert len(disks) == 1
    inside = disks[0]
    assert len(inside) == 1
    assert curve.classification[inside[0]].quadrant == (0, 0)
    assert verify_harnack_census(curve, (1, 0, 0))
    report(4, "degree-6 census 11 = 9 outermost empty + outer oval over 1 empty oval")


@pytest.fixture(scope="module")
def exhaustive_sweeps():
    """Shared by criteria 5 and 7: sweep T_2 (64) and T_3 (1024) sign
    vectors; check the bound, both chi computations, the cell oracle and
    the tuple oracles."""
    stats = {}
    t0 = time.perf_counter()
    for d in (2, 3):
        poly = standard_triangle(d)
        surface = build_ambient_surface(poly)
        tri = generate_grid_triangulation(poly)
        tables = compile_sweep(tri, incidence_graphs(surface, tri))
        pts = poly.lattice_points
        i_count = poly.census().interior_points
        dist: dict = {}
        oracle_checked = 0
        per_vector = []
        for mask in range(1 << len(pts)):
            delta = {p: 1 if mask >> k & 1 else -1
                     for k, p in enumerate(pts)}
            curve = TCurve(surface, tri, delta, tables=tables)
            filling = build_filling(curve)
            cls = classify_filling(filling)
            d_count = filling.boundary_count
            assert d_count <= i_count + 1
            assert cls.euler == filling.chi + d_count == \
                d_count + 1 - tri.V + tri.L
            chi, bd, orientable = classify_filling_by_cells(filling)
            assert (chi, bd, orientable) == \
                (filling.chi, d_count, cls.orientable)
            assert match_oracles(curve, filling) == (d_count, orientable)
            oracle_checked += 1
            dist[d_count] = dist.get(d_count, 0) + 1
            per_vector.append((d_count, cls.orientable))
        stats[d] = {"runs": 1 << len(pts), "i": i_count,
                    "distribution": dist, "oracle_checked": oracle_checked,
                    "per_vector": per_vector}
    stats["elapsed"] = time.perf_counter() - t0
    return stats


def test_criterion_5_exhaustive_bound(exhaustive_sweeps):
    s2, s3 = exhaustive_sweeps[2], exhaustive_sweeps[3]
    assert s2["runs"] == 64 and max(s2["distribution"]) <= s2["i"] + 1
    assert s3["runs"] == 1024 and max(s3["distribution"]) <= s3["i"] + 1
    assert exhaustive_sweeps["elapsed"] < 60
    report(5, f"bound and chi identities over 1088 sign vectors "
              f"in {exhaustive_sweeps['elapsed']:.1f}s")


def test_compiled_sweep_matches_exhaustive_sweeps(exhaustive_sweeps):
    for d in (2, 3):
        poly = standard_triangle(d)
        got = {mask: (count, orientable) for mask, count, orientable in
               sweep(build_ambient_surface(poly), generate_grid_triangulation(poly))}
        assert [got[mask] for mask in range(len(got))] == \
            exhaustive_sweeps[d]["per_vector"]


def test_criterion_6_filling_arithmetic():
    t3 = standard_triangle(3)
    _, tri, curve = pipeline(t3, harnack_distribution(t3, (1, 0, 0)))
    filling = build_filling(curve)
    cls = classify_filling(filling)
    assert filling.chi == 0
    assert filling.boundary_count == 2
    assert cls.euler == 2
    assert cls.orientable and cls.genus == 0  # a sphere; the curve is of type I
    assert harnack_check(filling).maximal
    assert 2 * filling.chi == 0 == 2 - 2 * 1  # doubled surface has genus 1
    report(6, "degree-3 Harnack: chi(F)=0, D=2, chi(Sigma)=2, sphere, type I, maximal")


def test_criterion_7_oracle_equivalence(exhaustive_sweeps):
    # instances of criteria 3, 4 and 6
    fixed = 0
    for d in (3, 5, 6):
        poly = standard_triangle(d)
        _, _, curve = pipeline(poly, harnack_distribution(poly, (1, 0, 0)))
        filling = build_filling(curve)
        cls = classify_filling(filling)
        assert classify_filling_by_cells(filling) == \
            (filling.chi, filling.boundary_count, cls.orientable)
        match_oracles(curve, filling)
        fixed += 1
    # criterion 5 instances were oracle-checked inside the sweep fixture
    swept = exhaustive_sweeps[2]["oracle_checked"] + \
        exhaustive_sweeps[3]["oracle_checked"]
    assert swept == 1088
    # criterion 1 polygons against the polygon-identification oracle
    surf_polys = [standard_triangle(d) for d in range(1, 7)]
    surf_polys += [validate_polygon([(0, 0), (2 * d, 0), (0, d)])
                   for d in range(1, 5)]
    surf_polys += [validate_polygon([(1, 0), (2, 1), (1, 2), (0, 1)]),
                   validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])]
    for poly in surf_polys:
        assert build_ambient_surface(poly).classify_topology() == \
            classify_surface_by_cells(poly)
    # 100 randomized (polygon, triangulation, signs) instances
    rng = random.Random(777)
    for _ in range(100):
        poly = random_polygon(rng, box=6)
        assert build_ambient_surface(poly).classify_topology() == \
            classify_surface_by_cells(poly)
        tri = random_flips(rng, primitive_triangulation(poly), 3)
        surface = build_ambient_surface(poly)
        curve = extract_curve(surface, tri, random_distribution(rng, poly))
        filling = build_filling(curve)
        cls = classify_filling(filling)
        assert classify_filling_by_cells(filling) == \
            (filling.chi, filling.boundary_count, cls.orientable)
        match_oracles(curve, filling)
    report(7, f"cell-complex oracles agree on {fixed + swept + 12 + 100} instances")


def test_criterion_8_degree_parity():
    rng = random.Random(888)
    runs = 0
    for d in (2, 3, 4, 5):
        poly = standard_triangle(d)
        surface = build_ambient_surface(poly)
        tri = generate_grid_triangulation(poly)
        tables = compile_sweep(tri, incidence_graphs(surface, tri))
        for _ in range(200):
            curve = TCurve(surface, tri, random_distribution(rng, poly), tables)
            witness = degree_parity_check(curve)
            assert (witness is not None) == (d % 2 == 1)
            runs += 1
    report(8, f"nontrivial component iff odd degree over {runs} random curves")


def test_criterion_9_symmetry_laws():
    rng = random.Random(999)
    shapes = [standard_triangle(2), standard_triangle(3),
              validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
              validate_polygon([(0, 0), (3, 0), (3, 1), (0, 1)])]
    transforms = [("t", (1, 0)), ("t", (0, 2)), ("t", (3, 1)),
                  ("u", ((0, 1), (1, 0))), ("u", ((1, 0), (1, 1)))]
    curves = 0
    for k in range(20):
        poly = shapes[k % len(shapes)]
        tri = random_flips(rng, generate_grid_triangulation(poly), 3)
        surface = build_ambient_surface(poly)
        curve = extract_curve(surface, tri, random_distribution(rng, poly))
        curves += 1
        for kind, arg in transforms:
            if kind == "t":
                moved, relabel, flip = transform_curve(curve, translate=arg)
            else:
                moved, relabel, flip = transform_curve(curve, unimodular=arg)
            assert comparable(moved.census, relabel, flip) == \
                comparable(curve.census)
    report(9, f"translation and unimodular census laws over {curves} curves x 5 transforms")


def test_criterion_10_theta_action():
    t4 = standard_triangle(4)
    surface = build_ambient_surface(t4)
    tri = generate_grid_triangulation(t4)
    tables = compile_sweep(tri, incidence_graphs(surface, tri))
    census_of = {}
    for htype in itertools.product((0, 1), repeat=3):
        delta = harnack_distribution(t4, htype)
        curve = TCurve(surface, tri, delta, tables)
        assert verify_harnack_census(curve, htype), f"census mismatch for {htype}"
        assert curve.census.total == predicted_harnack_census(t4, htype).total
        census_of[htype] = curve.census
    # theta-translates are sigma-images: quadrants permute by (a,b); the
    # c-bit negates the distribution, flipping every recorded oval sign
    base = (1, 0, 0)
    for theta in itertools.product((0, 1), repeat=3):
        summed = tuple((x + y) % 2 for x, y in zip(base, theta))
        ab = (theta[1], theta[2])
        sign = (-1) ** theta[0]
        for q in QUADRANTS:
            shifted = ((q[0] + ab[0]) % 2, (q[1] + ab[1]) % 2)
            want = tuple(sorted((sign * s, dep) for s, dep in
                                census_of[base].quadrant_ovals[shifted]))
            assert census_of[summed].quadrant_ovals[q] == want
    report(10, "all 8 Harnack types on T_4 match predictions and the sigma law")


def test_classification_matches_nesting_oracle():
    """Component classes equal the planar nesting oracle's on the
    instances of criteria 3-10: every sign vector of T_2 and T_3, the
    random curves of criteria 8 and 9 with their transforms, and all 8
    Harnack types on T_3..T_6."""
    checked = 0

    def agree(curve):
        nonlocal checked
        assert curve.classification == classify_components_by_nesting(curve)
        checked += 1

    for d in (2, 3):
        poly = standard_triangle(d)
        surface = build_ambient_surface(poly)
        tri = generate_grid_triangulation(poly)
        tables = compile_sweep(tri, incidence_graphs(surface, tri))
        pts = poly.lattice_points
        for mask in range(1 << len(pts)):
            agree(TCurve(surface, tri, {p: 1 if mask >> k & 1 else -1
                                        for k, p in enumerate(pts)}, tables))
    for d in (3, 4, 5, 6):
        poly = standard_triangle(d)
        for htype in itertools.product((0, 1), repeat=3):
            agree(pipeline(poly, harnack_distribution(poly, htype))[2])
    rng = random.Random(888)
    for d in (2, 3, 4, 5):
        poly = standard_triangle(d)
        for _ in range(50):
            agree(pipeline(poly, random_distribution(rng, poly))[2])
    rng = random.Random(999)
    shapes = [standard_triangle(2), standard_triangle(3),
              validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
              validate_polygon([(0, 0), (3, 0), (3, 1), (0, 1)])]
    for k in range(20):
        poly = shapes[k % len(shapes)]
        tri = random_flips(rng, generate_grid_triangulation(poly), 3)
        curve = extract_curve(build_ambient_surface(poly), tri,
                              random_distribution(rng, poly))
        agree(curve)
        agree(transform_curve(curve, translate=(3, 1))[0])
        agree(transform_curve(curve, unimodular=((1, 0), (1, 1)))[0])
    report("3-10", f"component classes equal the nesting oracle's on "
                   f"{checked} curves")
