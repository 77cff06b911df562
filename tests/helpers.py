"""Shared test machinery: random polygons, a general primitive
triangulator (ear clipping plus refinement to area 1/2), random diagonal
flips, the full sweep of a triangulation mask by mask and its type-I
total against the GF(2) count, the comparison of a curve and
its filling with the tuple oracles, the Z2 matrix algebra of the atlas,
the (Z2)^3 action on sign distributions, the degree parity law, and
translated or unimodularly transformed curves with their census
comparison, and every simple polygon of a small box.  These are test-side
oracles and generators, not part of the library surface.
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cmp_to_key
from pathlib import Path

import tcurve_lab
from tcurve_lab.errors import (InputError, MissingLatticeVertex,
                               NonPrimitiveTriangle, Overlap, check)
from tcurve_lab.geometry import cross, on_segment
from tcurve_lab.lattice import (Point, Polygon, is_standard_triangle, pairing,
                                point_parity, validate_polygon)
from tcurve_lab.oracles import (component_nodes, components_by_adjacency,
                                locate_in_polygon, midpoint_nodes, shadows,
                                strands_by_tuples, twists_by_arc_pairing,
                                type_one_count)
from tcurve_lab.surface import (AmbientSurface, Atlas, Mat2, Quadrant,
                                build_ambient_surface)
from tcurve_lab.sweep import (SweepTables, _identities, _run, compile_sweep,
                              gray_states, run_sweep, thick_y_spins)
from tcurve_lab.tcurve import CurveCensus, HarnackType, TCurve
from tcurve_lab.triangulation import (PrimitiveTriangulation, edge_key,
                                      incidence_graphs)


# the package and this directory, importable in a fresh interpreter
PYTHONPATH = os.pathsep.join((str(Path(tcurve_lab.__file__).resolve().parents[1]),
                              str(Path(__file__).resolve().parent)))


def run_python(code: str, *flags: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter with
    ``flags`` (``-O`` strips ``assert``)."""
    return subprocess.run([sys.executable, *flags, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH}).stdout


def random_polygon(rng: random.Random, *, box=9, min_r=0, max_tries=500) -> Polygon:
    """A random simple lattice polygon (star-shaped construction) with
    vertices in [0, box]^2, optionally with at least ``min_r`` broken
    edges.  Raises ValueError when the box holds fewer than 3 points."""
    if box < 1:
        raise ValueError(f"the box [0, {box}]^2 holds fewer than 3 lattice points")
    for _ in range(max_tries):
        n = min(rng.randint(4, 9), (box + 1) ** 2)
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
# triangulations given by point triples

def box_polygons(size: int, max_vertices: int) -> list[Polygon]:
    """Every simple lattice polygon with at most ``max_vertices`` vertices
    in [0, size]^2, one per vertex cycle: each vertex set is tried in every
    cyclic order from its smallest vertex, one direction per cycle, and
    kept when ``Polygon`` accepts it."""
    points = list(itertools.product(range(size + 1), repeat=2))
    polygons = []
    for k in range(3, max_vertices + 1):
        for first, *rest in itertools.combinations(points, k):
            for order in itertools.permutations(rest):
                if order[0] < order[-1]:
                    try:
                        polygons.append(Polygon((first, *order)))
                    except InputError:
                        pass
    return polygons


def tri_key(a: Point, b: Point, c: Point) -> tuple:
    return tuple(sorted((a, b, c)))


def validate_primitive_triangulation(polygon: Polygon, triangles) -> PrimitiveTriangulation:
    """The triangulation with these point triples: their index triples into
    the sorted lattice points go through the library's one pass.  A vertex
    off the lattice points is reported where the pass would meet it: after
    a repeated triangle, and after the area of its own and every earlier
    sorted triangle."""
    point_id = {p: i for i, p in enumerate(polygon.lattice_points)}
    if any(p not in point_id for t in triangles for p in t):
        tris = sorted(tri_key(*t) for t in triangles)
        if len(set(tris)) != len(tris):
            raise Overlap("repeated triangle")
        for t in tris:
            if abs(cross(*t)) != 1:
                raise NonPrimitiveTriangle(f"triangle {t} has area {abs(cross(*t))}/2")
            for v in t:
                if v not in point_id:
                    raise MissingLatticeVertex(
                        f"triangle vertex {v} is not a lattice point of the polygon")
    return PrimitiveTriangulation(polygon, [[point_id[p] for p in t] for t in triangles])


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


def sweep(surface: AmbientSurface, tri: PrimitiveTriangulation) -> list:
    """(mask, D, orientable) for each of the 2^V sign vectors, in the order
    in which ``enumerate`` runs them: the kernel run of each state of
    ``gray_states`` serves its mask, then the complement, and the filling is
    orientable when ``thick_y_spins`` finds spins.  Their tally must be
    ``run_sweep``'s."""
    tab = compile_sweep(tri, incidence_graphs(surface, tri))
    identities, full, out = _identities(tab), (1 << tab.V) - 1, []
    for mask, state in gray_states(tab):
        tw, _, d = _run(tab, identities, state, False)
        orientable = thick_y_spins(tab, tw) is not None
        out += [(mask, d, orientable), (mask ^ full, d, orientable)]
    assert dict(Counter((d, o) for _, d, o in out)) == run_sweep(tab)
    return out


def check_type_one_count(tab: SweepTables, tally: dict) -> None:
    """``oracles.type_one_count`` against the type-I total of a sweep's
    tally {(D, orientable): vectors}; the tally with one run (a mask and
    its complement) moved to the other type must fail the comparison."""
    count = type_one_count(tab)
    assert type_one_total(tally) == count, (tally, count)
    (d, orientable), _ = next(iter(tally.items()))
    flipped = dict(tally)
    flipped[d, orientable] -= 2
    flipped[d, not orientable] = flipped.get((d, not orientable), 0) + 2
    assert type_one_total(flipped) != count


def type_one_total(tally: dict) -> int:
    return sum(v for (_, orientable), v in tally.items() if orientable)


def tuple_state(tri: PrimitiveTriangulation, x: int) -> tuple:
    """The oracles' (triangle, prong, strand, heading) form of the strand
    state ``x`` of ``tcurve_lab.sweep``."""
    return (tri.triangles[x // 12], (x >> 2) % 3, 1 if x & 2 else -1,
            "in" if x & 1 else "out")


def all_nodes(curve: TCurve) -> list:
    """The G(S) nodes of every component, which compare across curves."""
    return [component_nodes(curve, walk) for walk in curve.components]


def match_oracles(curve, filling) -> tuple[int, bool]:
    """Assert that the components, twist bits, folds, boundary circles and
    orientability of ``curve`` and ``filling``, and the shadows of its walks
    (``oracles.shadows``), equal the tuple oracles' on the same signs;
    return the oracles' (D, orientable)."""
    tri = curve.tri
    mid = midpoint_nodes(curve.surface, tri)
    components = components_by_adjacency(tri, mid, curve.delta)
    assert list(components) == all_nodes(curve)
    twists, folds = twists_by_arc_pairing(tri, mid, components)
    assert (twists, folds) == (filling.twists, filling.folds)
    d, orientable, by_tuples = strands_by_tuples(tri, twists, folds, components)
    assert (d, orientable) == (filling.boundary_count, filling.orientable)
    assert [by_tuples[c] for c in components] == \
        [tuple(tuple_state(tri, x) for x in seq) for seq in shadows(curve)]
    return d, orientable


# ---------------------------------------------------------------------------
# Z2 matrices of the atlas

IDENTITY: Mat2 = ((1, 0), (0, 1))


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    return (((m[0][0] * n[0][0] + m[0][1] * n[1][0]) & 1,
             (m[0][0] * n[0][1] + m[0][1] * n[1][1]) & 1),
            ((m[1][0] * n[0][0] + m[1][1] * n[1][0]) & 1,
             (m[1][0] * n[0][1] + m[1][1] * n[1][1]) & 1))


def vec_mat(v: Quadrant, m: Mat2) -> Quadrant:
    """Row vector times matrix over Z2."""
    return ((v[0] * m[0][0] + v[1] * m[1][0]) & 1,
            (v[0] * m[0][1] + v[1] * m[1][1]) & 1)


def gluing_matrix(atlas: Atlas, i: int, j: int) -> Mat2:
    """The matrix G with M_j = M_i * G, walking forward from chart i to
    chart j.  ``gluing_matrix(atlas, i, i)`` is the identity."""
    g, r = IDENTITY, len(atlas.steps)
    for k in range(i + 1, i + 1 + (j - i) % r):
        g = mat_mul(g, atlas.steps[k % r])
    return g


# ---------------------------------------------------------------------------
# laws of curves: the (Z2)^3 action, degree parity, transforms

class WrongPolygon(InputError):
    pass


class LeavesNonnegativeQuadrant(InputError):
    pass


def theta_action(theta: HarnackType, delta: dict) -> dict:
    """(theta . delta)(x,y) = (-1)^(c + <(a,b),(x,y)>) delta(x,y).  On
    Harnack types the action is addition in (Z2)^3."""
    c, a, b = theta
    return {p: v * (-1) ** ((c + a * p[0] + b * p[1]) % 2)
            for p, v in delta.items()}


def degree_parity_check(curve: TCurve):
    """On the standard triangle, return the number of the nontrivial
    component when the degree is odd, None when even; raises WrongPolygon
    elsewhere."""
    d = is_standard_triangle(curve.surface.polygon)
    if d is None:
        raise WrongPolygon("degree parity applies to the standard triangle only")
    nontrivial = [k for k, c in curve.classification.items()
                  if c.kind == "nontrivial_rp2"]
    check(len(nontrivial) == d % 2,
          f"degree {d} must have {d % 2} nontrivial components, found {len(nontrivial)}")
    return nontrivial[0] if nontrivial else None


def comparable(census: CurveCensus, relabel=None, sign_flip=None):
    """Canonical form of a census; ``relabel`` maps its quadrants onto the
    reference census's quadrants and ``sign_flip`` multiplies the oval
    signs of a quadrant (translations flip the extended point signs of
    quadrant q by (-1)^<q, parity of the shift>)."""
    relabel = relabel or (lambda q: q)
    sign_flip = sign_flip or (lambda q: 1)
    return (tuple(sorted(
                (relabel(q), tuple(sorted((s * sign_flip(q), dep)
                                          for s, dep in v)))
                for q, v in census.quadrant_ovals.items())),
            census.boundary_kinds, census.total)


def transform_curve(curve: TCurve, *, translate: Point | None = None,
                    unimodular=None):
    """Translated or unimodularly transformed curve: the problem's image
    under p -> A p + shift.

    Returns (curve', quadrant_map, sign_flip).  quadrant_map sends a
    quadrant of the new curve to the corresponding quadrant of the old
    one: identity for translations, (s,t) -> (s,t)*A2 for a unimodular
    map A.  Under a translation the curve is identical but the extended
    point signs of quadrant q all flip by (-1)^<q, parity of the shift>,
    which flips the recorded oval signs accordingly; unimodular maps
    preserve them.  Raises LeavesNonnegativeQuadrant when A is not
    unimodular or the image polygon leaves the nonnegative quadrant.
    """
    if (translate is None) == (unimodular is None):
        raise ValueError("pass exactly one of translate= or unimodular=")
    matrix = unimodular if translate is None else IDENTITY
    shift = translate or (0, 0)
    (a, b), (c, d) = matrix
    if abs(a * d - b * c) != 1:
        raise LeavesNonnegativeQuadrant(f"matrix {matrix} is not unimodular")

    def image(p: Point) -> Point:
        return (a * p[0] + b * p[1] + shift[0], c * p[0] + d * p[1] + shift[1])

    verts = [image(v) for v in curve.tri.polygon.vertices]
    if any(x < 0 or y < 0 for x, y in verts):
        raise LeavesNonnegativeQuadrant("image polygon leaves the quadrant")
    poly2 = validate_polygon(verts)
    tri2 = validate_primitive_triangulation(
        poly2, [tuple(image(v) for v in tr) for tr in curve.tri.triangles])
    curve2 = TCurve(build_ambient_surface(poly2), tri2,
                    {image(p): v for p, v in curve.delta.items()})
    if translate is not None:
        shift_par = point_parity(translate)
        return curve2, (lambda q: q), (lambda q: (-1) ** pairing(q, shift_par))
    a2 = tuple(tuple(x & 1 for x in row) for row in matrix)
    return curve2, (lambda q: vec_mat(q, a2)), (lambda q: 1)
