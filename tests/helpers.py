"""Shared test machinery: random polygons, a general primitive
triangulator (ear clipping plus refinement to area 1/2), random diagonal
flips, and the comparison of a curve and its filling with the tuple
oracles.  These are test-side oracles and generators, not part of the
library surface.
"""

import random
from functools import cmp_to_key

from tcurve_lab.errors import InputError
from tcurve_lab.geometry import cross, locate_in_polygon, on_segment
from tcurve_lab.lattice import Polygon, validate_polygon
from tcurve_lab.oracles import (components_by_adjacency, midpoint_nodes,
                                strands_by_tuples, twists_by_arc_pairing)
from tcurve_lab.triangulation import (PrimitiveTriangulation, edge_key,
                                      tri_key,
                                      validate_primitive_triangulation)


def random_polygon(rng: random.Random, *, box=9, min_r=0, max_tries=500) -> Polygon:
    """A random simple lattice polygon (star-shaped construction),
    optionally with at least ``min_r`` broken edges."""
    for _ in range(max_tries):
        n = rng.randint(4, 9)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(0, box), rng.randint(0, box)))
        pts = sorted(pts)
        cx = sum(p[0] for p in pts)
        cy = sum(p[1] for p in pts)
        m = len(pts)
        # exact angular sort around the centroid (scaled by m)
        vecs = {p: (m * p[0] - cx, m * p[1] - cy) for p in pts}
        if any(v == (0, 0) for v in vecs.values()):
            continue

        def half(v):
            return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

        def cmp(p, q):
            vp, vq = vecs[p], vecs[q]
            if half(vp) != half(vq):
                return half(vp) - half(vq)
            c = vp[0] * vq[1] - vp[1] * vq[0]
            return -1 if c > 0 else (1 if c < 0 else 0)

        ordered = sorted(pts, key=cmp_to_key(cmp))
        # drop all but the farthest of any equal-angle group
        pruned = []
        for p in ordered:
            if pruned and cmp(pruned[-1], p) == 0:
                vp, vl = vecs[p], vecs[pruned[-1]]
                if vp[0] ** 2 + vp[1] ** 2 > vl[0] ** 2 + vl[1] ** 2:
                    pruned[-1] = p
            else:
                pruned.append(p)
        if len(pruned) < 3:
            continue
        try:
            poly = validate_polygon(pruned)
        except InputError:
            continue
        if poly.r >= min_r:
            return poly
    raise RuntimeError("could not sample a polygon")


# ---------------------------------------------------------------------------
# a primitive triangulation of an arbitrary polygon

def _ear_clip(polygon: Polygon):
    ring = list(polygon.vertices)
    tris = []
    while len(ring) > 3:
        n = len(ring)
        for i in range(n):
            a, b, c = ring[(i - 1) % n], ring[i], ring[(i + 1) % n]
            if cross(a, b, c) <= 0:
                continue
            blocked = False
            for p in ring:
                if p in (a, b, c):
                    continue
                if locate_in_polygon(p, (a, b, c)) != "exterior":
                    blocked = True
                    break
            if not blocked:
                tris.append((a, b, c))
                del ring[i]
                break
        else:
            raise RuntimeError("no ear found")
    tris.append(tuple(ring))
    return tris


def primitive_triangulation(polygon: Polygon) -> PrimitiveTriangulation:
    """Refine an ear-clipping of the polygon until every triangle has
    lattice area 1/2; the vertex set is then exactly the lattice points."""
    tris = {tri_key(*t) for t in _ear_clip(polygon)}
    while True:
        big = next((t for t in tris if abs(cross(*t)) > 1), None)
        if big is None:
            break
        extra = _contained_lattice_point(big)
        a, b, c = big
        onside = [e for e in ((a, b), (a, c), (b, c)) if on_segment(extra, *e)]
        if not onside:
            tris.remove(big)
            tris.update(tri_key(a, b, extra) for a, b in ((a, b), (a, c), (b, c)))
        else:
            u, v = onside[0]
            # split every triangle having that edge (at most two)
            for t in [t for t in tris
                      if u in t and v in t]:
                w = next(x for x in t if x not in (u, v))
                tris.remove(t)
                tris.add(tri_key(u, extra, w))
                tris.add(tri_key(v, extra, w))
    return validate_primitive_triangulation(polygon, tris)


def _contained_lattice_point(t):
    (ax, ay), (bx, by), (cx, cy) = t
    for x in range(min(ax, bx, cx), max(ax, bx, cx) + 1):
        for y in range(min(ay, by, cy), max(ay, by, cy) + 1):
            p = (x, y)
            if p in t:
                continue
            if locate_in_polygon(p, t) != "exterior":
                return p
    raise AssertionError(f"triangle {t} of area > 1/2 must contain a lattice point")


def random_flips(rng: random.Random, tri: PrimitiveTriangulation,
                 attempts: int) -> PrimitiveTriangulation:
    """Random diagonal flips; primitivity is preserved because the two
    halves of a unit-area strictly convex quadrilateral have area 1/2."""
    tris = set(tri.triangles)
    for _ in range(attempts):
        edges = {}
        for t in tris:
            a, b, c = t
            for e in ((a, b), (a, c), (b, c)):
                edges.setdefault(edge_key(*e), []).append(t)
        interior = sorted(e for e, ts in edges.items() if len(ts) == 2)
        if not interior:
            break
        e = rng.choice(interior)
        t1, t2 = edges[e]
        u, v = e
        c1 = next(x for x in t1 if x not in e)
        c2 = next(x for x in t2 if x not in e)
        s1, s2 = cross(c1, c2, u), cross(c1, c2, v)
        if s1 == 0 or s2 == 0 or (s1 > 0) == (s2 > 0):
            continue  # quadrilateral not strictly convex
        tris -= {t1, t2}
        tris |= {tri_key(c1, c2, u), tri_key(c1, c2, v)}
    return validate_primitive_triangulation(tri.polygon, tris)


def random_distribution(rng: random.Random, polygon: Polygon) -> dict:
    return {p: rng.choice((1, -1)) for p in polygon.lattice_points}


def tuple_state(tri: PrimitiveTriangulation, x: int) -> tuple:
    """The oracles' (triangle, prong, strand, heading) form of the strand
    state ``x`` of ``tcurve_lab.sweep``."""
    return (tri.triangles[x // 12], (x >> 2) % 3, 1 if x & 2 else -1,
            "in" if x & 1 else "out")


def match_oracles(curve, filling) -> tuple[int, bool]:
    """Assert that the components, twist bits, folds, boundary circles,
    orientability and shadows of ``curve`` and ``filling`` equal the tuple
    oracles' on the same signs; return the oracles' (D, orientable)."""
    tri = curve.tri
    mid = midpoint_nodes(curve.surface, tri)
    components = components_by_adjacency(tri, mid, curve.ext)
    assert list(components) == [c.nodes for c in curve.components]
    twists, folds = twists_by_arc_pairing(tri, mid, components)
    assert (twists, folds) == (filling.twists, filling.folds)
    d, orientable, shadows = strands_by_tuples(tri, twists, folds, components)
    assert (d, orientable) == (filling.boundary_count, filling.orientable)
    assert [shadows[c] for c in components] == \
        [tuple(tuple_state(tri, x) for x in seq) for seq in filling.shadows]
    return d, orientable
