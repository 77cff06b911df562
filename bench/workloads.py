"""Seeded workloads and the checks on their outputs.

Each workload writes YAML problem files from a seed and lists the
`tcurve-lab` invocations to run on them.  Every invocation carries a check
built from computations made apart from the program's main path: Pick's
theorem and parity counts from the vertices, the cell-complex oracles, and
properties the method must have.  The program sees only the YAML files.
"""

import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

from tcurve_lab.filling import build_filling
from tcurve_lab.oracles import (classify_filling_by_cells,
                                classify_surface_by_cells)
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.tcurve import extract_curve

from helpers import primitive_triangulation, random_flips, random_polygon

LADDER = (7, 10, 15, 20, 25, 30, 40)
HARNACK_TYPES = tuple((c, a, b) for c in (0, 1) for a in (0, 1) for b in (0, 1))
# random-curves: four polygons of each surface class, one per size band
SURFACE_CLASSES = ("two spheres", "sphere", "orientable genus >= 1",
                   "projective plane", "crosscaps >= 2")
SIZE_BANDS = ((10, 19), (20, 29), (30, 39), (40, 49))
SWEEP_V, SWEEP_L = 10, 6   # the sweep's orientable polygon: i = 4, T = 12


@dataclass
class Invocation:
    """One `tcurve-lab` process: subcommand, problem file, output file,
    the number of sign vectors it handles, and the check on its output
    text (raises CheckFailed)."""
    label: str
    subcommand: str
    problem: str
    out: str
    vectors: int
    check: Callable[[str], None]

    def passes(self, text: str, log) -> bool:
        """Run the check; a malformed output fails it too."""
        try:
            self.check(text)
        except Exception as exc:  # any fault in the output is one failed operation
            log(f"{self.label}: check failed: {type(exc).__name__}: {exc}")
            return False
        return True


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# independent arithmetic

def pick(vertices):
    """(V, L, i) of a lattice polygon from its vertices alone."""
    n = len(vertices)
    area2 = abs(sum(vertices[k][0] * vertices[(k + 1) % n][1]
                    - vertices[(k + 1) % n][0] * vertices[k][1]
                    for k in range(n)))
    length = sum(math.gcd(vertices[(k + 1) % n][0] - vertices[k][0],
                          vertices[(k + 1) % n][1] - vertices[k][1])
                 for k in range(n))
    interior = (area2 - length + 2) // 2
    return interior + length, length, interior


def ladder_quadrant_ovals(d: int, htype) -> dict:
    """Ovals per quadrant of the maximal Harnack curve of type (c,a,b) on
    T_d: interior points of parity (s,t) give ovals in quadrant
    (a,b) + (t,s), counted here point by point."""
    _, a, b = htype
    count = {}
    for x in range(1, d):
        for y in range(1, d - x):
            s, t = x % 2, y % 2
            q = f"{(t + a) % 2},{(s + b) % 2}"
            count[q] = count.get(q, 0) + 1
    return count


def svg_curve_groups(text: str) -> int:
    root = ET.fromstring(text)
    return sum(1 for g in root.iter("{http://www.w3.org/2000/svg}g")
               if g.get("stroke-width") == "4")


# ---------------------------------------------------------------------------
# checks

def check_ladder_harnack(d: int, htype) -> Callable[[str], None]:
    i = (d - 1) * (d - 2) // 2
    want_ovals = ladder_quadrant_ovals(d, htype)

    def check(text: str):
        rep = json.loads(text)
        curve, filling = rep["curve"], rep["filling"]
        expect(rep["harnack_census"]["match"] is True, "harnack_census.match")
        expect(curve["component_count"] == i + 1, "component_count = i+1")
        got = {q: len(v) for q, v in curve["quadrant_ovals"].items() if v}
        expect(got == want_ovals, "ovals per quadrant = interior points by parity")
        expect(rep["surface"]["topology"]["name"] == "projective plane",
               "surface is RP^2")
        expect(filling["curve_type"] == "I" and filling["genus"] == 0
               and filling["chi_capped"] == 2, "type I, capped genus 0")
        expect(("nontrivial_rp2" in curve["boundary_kinds"]) == (d % 2 == 1),
               "nontrivial component exactly when d is odd")
    return check


def check_render(components: int) -> Callable[[str], None]:
    def check(text: str):
        expect(svg_curve_groups(text) == components,
               "one SVG curve group per component")
    return check


def check_random_filling(vertices, topo, oracle) -> Callable[[str], None]:
    big_v, big_l, i = pick(vertices)
    chi, circles, orientable = oracle

    def check(text: str):
        rep = json.loads(text)
        t, curve, filling = rep["surface"]["topology"], rep["curve"], rep["filling"]
        expect((t["components"], t["orientable"], t["genus"], t["crosscaps"],
                t["euler_characteristic"], t["name"])
               == (topo.components, topo.orientable, topo.genus,
                   topo.crosscaps, topo.euler, topo.name),
               "surface agrees with the cell-complex oracle")
        expect((filling["chi_filling"], filling["boundary_components"],
                filling["orientable"]) == (chi, circles, orientable),
               "filling agrees with the cell-complex oracle")
        expect(filling["curve_type"] == ("I" if orientable else "II"),
               "type I exactly when the filling is orientable")
        d = filling["boundary_components"]
        expect(d <= i + 1, "D <= i+1")
        expect(filling["chi_capped"] == d + 1 - big_v + big_l,
               "chi_capped = D+1-V+L")
        ovals = sum(len(v) for v in curve["quadrant_ovals"].values())
        expect(ovals + len(curve["boundary_kinds"])
               == curve["component_count"] == d,
               "ovals + boundary kinds = component_count = boundary_components")
    return check


def check_sweep(vertices) -> Callable[[str], None]:
    big_v, _, i = pick(vertices)

    def check(text: str):
        rep = json.loads(text)["enumerate"]
        dist = {int(k): v for k, v in rep["distribution"].items()}
        expect(rep["runs"] == sum(dist.values()) == 1 << big_v,
               "runs = sum of distribution = 2^V")
        expect(rep["max_components"] == max(dist) <= i + 1, "max <= i+1")
        expect(all(v % 8 == 0 for v in dist.values()),
               "every multiplicity of D divisible by 8")
    return check


# ---------------------------------------------------------------------------
# problem files

def _yaml_problem(vertices, triangulation, signs) -> str:
    """Flow-style YAML, as a user would write it."""
    lines = [f"polygon: {json.dumps([list(v) for v in vertices])}"]
    if triangulation is not None:
        lines.append(f"triangulation: {json.dumps(triangulation)}")
    if signs == "enumerate":
        lines.append("signs: enumerate")
    elif isinstance(signs, tuple):
        lines.append(f"signs: {{harnack: {json.dumps(list(signs))}}}")
    else:
        body = ", ".join(f'"{x},{y}": {v}' for (x, y), v in sorted(signs.items()))
        lines.append(f"signs: {{explicit: {{{body}}}}}")
    return "\n".join(lines) + "\n"


def _index_triples(polygon, tri):
    index = {p: k for k, p in enumerate(sorted(polygon.lattice_points))}
    return sorted(sorted(index[p] for p in t) for t in tri.triangles)


def _surface_class(topo) -> str:
    if topo.components == 2:
        return "two spheres"
    if topo.orientable:
        return "sphere" if topo.genus == 0 else "orientable genus >= 1"
    return "projective plane" if topo.crosscaps == 1 else "crosscaps >= 2"


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def harnack_ladder(rng: random.Random, work: str) -> list[Invocation]:
    """`harnack` and `render` on T_d up to d = 40, one seeded Harnack type
    per rung."""
    out = []
    for d in LADDER:
        htype = rng.choice(HARNACK_TYPES)
        path = f"{work}/t{d}.yaml"
        _write(path, _yaml_problem([(0, 0), (d, 0), (0, d)], None, htype))
        label = f"T_{d} {''.join(map(str, htype))}"
        i = (d - 1) * (d - 2) // 2
        out.append(Invocation(f"harnack {label}", "harnack", path,
                              f"{work}/t{d}.json", 1,
                              check_ladder_harnack(d, htype)))
        out.append(Invocation(f"render {label}", "render", path,
                              f"{work}/t{d}.svg", 1, check_render(i + 1)))
    return out


def random_curves(rng: random.Random, work: str) -> list[Invocation]:
    """`filling` and `render` on random polygons of every surface class and
    size band, each with a random primitive triangulation (index triples)
    and random explicit signs."""
    slots = {(c, band) for c in SURFACE_CLASSES for band in SIZE_BANDS}
    chosen = []
    while slots:
        poly = random_polygon(rng, box=10)
        v = len(poly.lattice_points)
        band = next((b for b in SIZE_BANDS if b[0] <= v <= b[1]), None)
        topo = classify_surface_by_cells(poly)
        if (_surface_class(topo), band) in slots:
            slots.remove((_surface_class(topo), band))
            chosen.append((poly, topo))
    out = []
    for k, (poly, topo) in enumerate(chosen):
        tri = random_flips(rng, primitive_triangulation(poly),
                           len(poly.lattice_points))
        signs = {p: rng.choice((1, -1)) for p in poly.lattice_points}
        path = f"{work}/r{k}.yaml"
        _write(path, _yaml_problem(poly.vertices, _index_triples(poly, tri), signs))
        # the oracle reads the filling's twist bits and folds, nothing else
        filling = build_filling(extract_curve(build_ambient_surface(poly), tri, signs))
        oracle = classify_filling_by_cells(filling)
        label = f"r{k} V={len(poly.lattice_points)} {topo.name}"
        out.append(Invocation(f"filling {label}", "filling", path,
                              f"{work}/r{k}.json", 1,
                              check_random_filling(poly.vertices, topo, oracle)))
        out.append(Invocation(f"render {label}", "render", path,
                              f"{work}/r{k}.svg", 1, check_render(oracle[1])))
    return out


def sweep(rng: random.Random, work: str) -> list[Invocation]:
    """`enumerate` on T_3 (grid) and on one orientable polygon with
    V = SWEEP_V, L = SWEEP_L under a random primitive triangulation."""
    t3 = [(0, 0), (3, 0), (0, 3)]
    _write(f"{work}/t3.yaml", _yaml_problem(t3, None, "enumerate"))
    while True:
        poly = random_polygon(rng, box=4)
        topo = classify_surface_by_cells(poly)
        if (topo.components, topo.orientable) == (1, True) and \
                pick(poly.vertices)[:2] == (SWEEP_V, SWEEP_L):
            break
    tri = random_flips(rng, primitive_triangulation(poly), 2 * SWEEP_V)
    _write(f"{work}/p.yaml", _yaml_problem(poly.vertices,
                                           _index_triples(poly, tri), "enumerate"))
    return [
        Invocation("enumerate T_3", "enumerate", f"{work}/t3.yaml",
                   f"{work}/t3.json", 1 << 10, check_sweep(t3)),
        Invocation(f"enumerate {topo.name} V={SWEEP_V}", "enumerate",
                   f"{work}/p.yaml", f"{work}/p.json", 1 << SWEEP_V,
                   check_sweep(poly.vertices)),
    ]


WORKLOADS = {
    "harnack-ladder": harnack_ladder,
    "random-curves": random_curves,
    "sweep": sweep,
}
