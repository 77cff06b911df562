"""Command line interface.

Problem files are YAML with three fields:

    polygon: [[0,0], [5,0], [0,5]]
    triangulation: grid            # or a list of index triples into the
                                   # lexicographically sorted lattice points
    signs: {harnack: [1, 0, 0]}    # or {explicit: {"x,y": 1, ...}}
                                   # or enumerate

Exit codes: 0 all checks passed, 1 an invariant failed, 2 bad input.
"""

import argparse
import json
import sys
import time

import yaml

from .errors import (CapExceeded, InputError, InvariantError, ParseError,
                     TCurveLabError, ValidationError)
from .filling import build_filling, classify_filling, harnack_check
from .lattice import Polygon, validate_polygon
from .surface import AmbientSurface, build_ambient_surface
from .svg import render_svg
from .sweep import sweep
from .tcurve import (TCurve, extract_curve, harnack_distribution,
                     predicted_harnack_census, verify_harnack_census)
# incidence_graphs stays importable from here: bench/tracing.py wraps it
from .triangulation import (generate_grid_triangulation, incidence_graphs,
                            validate_primitive_triangulation)

# libyaml's loader when PyYAML was built with it: the same data, faster
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class Problem:
    def __init__(self, polygon: Polygon, triangulation, signs):
        self.polygon = polygon
        self.triangulation = triangulation  # 'grid' | list of index triples
        self.signs = signs  # ('harnack', (c,a,b)) | ('explicit', dict) | ('enumerate',)

    def data(self) -> dict:
        sig: object
        if self.signs[0] == "harnack":
            sig = {"harnack": list(self.signs[1])}
        elif self.signs[0] == "explicit":
            sig = {"explicit": {f"{x},{y}": v
                                for (x, y), v in sorted(self.signs[1].items())}}
        else:
            sig = "enumerate"
        return {
            "polygon": [list(v) for v in self.polygon.vertices],
            "triangulation": self.triangulation if self.triangulation == "grid"
            else [list(t) for t in self.triangulation],
            "signs": sig,
        }

    def build_triangulation(self):
        if self.triangulation == "grid":
            return generate_grid_triangulation(self.polygon)
        pts = sorted(self.polygon.lattice_points)
        tris = []
        for k, triple in enumerate(self.triangulation):
            bad = next((i for i in triple if not 0 <= i < len(pts)), None)
            if bad is not None:
                raise ValidationError(
                    f"triangulation[{k}]: index {bad} out of range "
                    f"(have {len(pts)} lattice points)")
            tris.append(tuple(pts[i] for i in triple))
        return validate_primitive_triangulation(self.polygon, tris)

    def distribution(self, override_type=None):
        if override_type is not None:
            return harnack_distribution(self.polygon, override_type)
        if self.signs[0] == "harnack":
            return harnack_distribution(self.polygon, self.signs[1])
        if self.signs[0] == "explicit":
            return self.signs[1]
        raise ValidationError(
            "signs: enumerate is only valid for the enumerate subcommand "
            "(or pass --type)")


def parse_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {' '.join(str(exc).split())}")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a mapping at the top level")
    return problem_from_data(raw)


def _check_ints(field: str, rows: list):
    """Only plain ints: YAML also yields bools, floats and strings."""
    for k, row in enumerate(rows):
        bad = next((v for v in row if type(v) is not int), None)
        if bad is not None:
            raise ValidationError(
                f"{field}[{k}]: expected integers, got {bad!r}")


def problem_from_data(raw: dict) -> Problem:
    if "polygon" not in raw:
        raise ValidationError("missing field: polygon")
    poly_field = raw["polygon"]
    if (not isinstance(poly_field, list)
            or any(not isinstance(v, list) or len(v) != 2 for v in poly_field)):
        raise ValidationError("polygon: expected a list of [x, y] pairs")
    _check_ints("polygon", poly_field)
    polygon = validate_polygon([tuple(v) for v in poly_field])

    tri_field = raw.get("triangulation", "grid")
    if tri_field != "grid":
        if not isinstance(tri_field, list) or any(
                not isinstance(t, list) or len(t) != 3 for t in tri_field):
            raise ValidationError(
                "triangulation: expected 'grid' or a list of index triples")
        _check_ints("triangulation", tri_field)
        tri_field = [tuple(t) for t in tri_field]

    signs_field = raw.get("signs", "enumerate")
    if signs_field == "enumerate":
        signs = ("enumerate",)
    elif isinstance(signs_field, dict) and "harnack" in signs_field:
        t = signs_field["harnack"]
        if not isinstance(t, list) or len(t) != 3 or any(
                type(v) is not int or v not in (0, 1) for v in t):
            raise ValidationError("signs.harnack: expected [c, a, b] with bits")
        signs = ("harnack", tuple(t))
    elif isinstance(signs_field, dict) and "explicit" in signs_field:
        mapping = signs_field["explicit"]
        if not isinstance(mapping, dict):
            raise ValidationError("signs.explicit: expected a mapping 'x,y' -> sign")
        parsed = {}
        for key, v in mapping.items():
            try:
                x, y = (int(s) for s in str(key).split(","))
            except ValueError:
                raise ValidationError(f"signs.explicit: bad point key {key!r}")
            if type(v) is not int or v not in (1, -1):
                raise ValidationError(f"signs.explicit[{key!r}]: sign must be 1 or -1")
            parsed[(x, y)] = v
        missing = set(polygon.lattice_points) - set(parsed)
        if missing:
            raise ValidationError(
                f"signs.explicit: no sign for lattice point {sorted(missing)[0]}")
        signs = ("explicit", parsed)
    else:
        raise ValidationError("signs: expected {harnack: [c,a,b]}, "
                              "{explicit: {...}} or enumerate")
    return Problem(polygon, tri_field, signs)


# ---------------------------------------------------------------------------
# reports

def surface_report(surface: AmbientSurface) -> dict:
    topo = surface.classify_topology()
    rep = {
        "broken_edges": [
            {
                "segment_parity": list(b.segment_parity),
                "broken_parity": list(b.broken_parity),
                "length": b.integral_length,
                "endpoints": [list(b.start), list(b.end)] if b.start else None,
                "tubular_neighborhood": surface.tubular_type(i) if surface.r >= 2 else None,
            }
            for i, b in enumerate(surface.broken_edges)
        ],
        "eta": list(surface.eta),
        "topology": {
            "components": topo.components,
            "orientable": topo.orientable,
            "genus": topo.genus,
            "crosscaps": topo.crosscaps,
            "euler_characteristic": topo.euler,
            "name": topo.name,
        },
    }
    if surface.r >= 3:
        atlas = surface.canonical_atlas()
        rep["charts"] = [
            {"center": list(c.center), "matrix": [list(r) for r in c.matrix]}
            for c in atlas.charts
        ]
    return rep


def curve_report(curve: TCurve) -> dict:
    comps = []
    for comp in curve.components:
        c = curve.classification[comp]
        comps.append({
            "kind": c.kind,
            "quadrant": list(c.quadrant) if c.quadrant else None,
            "sign": c.sign,
            "nesting_depth": c.depth,
            "crossing_vector": list(c.crossing_vector)
            if c.crossing_vector is not None else None,
            "length": len(comp.nodes),
        })
    census = curve.census
    return {
        "components": comps,
        "component_count": len(curve.components),
        "quadrant_ovals": {
            f"{q[0]},{q[1]}": [list(sd) for sd in v]
            for q, v in sorted(census.quadrant_ovals.items())
        },
        "boundary_kinds": list(census.boundary_kinds),
    }


def filling_report(curve: TCurve, filling) -> dict:
    cls = classify_filling(filling)
    verdict = harnack_check(curve, filling)
    return {
        "chi_filling": filling.chi,
        "boundary_components": filling.boundary_count,
        "twists": sum(1 for v in filling.twists.values() if v),
        "folds": len(filling.folds),
        "chi_capped": cls.capped.chi,
        "orientable": cls.capped.orientable,
        "genus": cls.capped.genus,
        "crosscaps": cls.capped.crosscaps,
        "curve_type": cls.curve_type,
        "harnack": {
            "components": verdict.boundary_count,
            "interior_points": verdict.interior_points,
            "bound_holds": verdict.bound_holds,
            "maximal": verdict.maximal,
            "identity_holds": verdict.identity_holds,
        },
    }


# ---------------------------------------------------------------------------
# subcommands

def run_subcommand(name: str, problem: Problem, *, htype=None, cap=16,
                   seed=None) -> dict | str:
    t0 = time.perf_counter()
    polygon = problem.polygon
    report: dict = {"subcommand": name, "problem": problem.data()}
    if seed is not None:
        report["seed"] = seed

    surface = build_ambient_surface(polygon)
    if name == "surface":
        report["surface"] = surface_report(surface)
    elif name in ("curve", "filling", "harnack", "render"):
        tri = problem.build_triangulation()
        delta = problem.distribution(htype)
        curve = extract_curve(surface, tri, delta)
        if name == "render":
            return render_svg(curve)
        report["surface"] = surface_report(surface)
        report["curve"] = curve_report(curve)
        if name in ("filling", "harnack"):
            filling = build_filling(curve)
            report["filling"] = filling_report(curve, filling)
        if name == "harnack":
            if htype is None:
                if problem.signs[0] != "harnack":
                    raise ValidationError("harnack subcommand needs a type "
                                          "(signs.harnack or --type)")
                htype = problem.signs[1]
            pred = predicted_harnack_census(polygon, htype)
            report["harnack_census"] = {
                "type": list(htype),
                "predicted_total": pred.total,
                "predicted_quadrant_ovals": {
                    f"{q[0]},{q[1]}": [list(sd) for sd in v]
                    for q, v in sorted(pred.quadrant_ovals.items())
                },
                "predicted_boundary": pred.o_kind,
                "match": verify_harnack_census(curve, htype),
            }
            if not report["harnack_census"]["match"]:
                raise InvariantError("extracted census differs from prediction")
    elif name == "enumerate":
        # refuse before any lattice point or triangle is built
        v_count = polygon.point_count
        if v_count > cap:
            raise CapExceeded(
                f"{v_count} lattice points exceed the cap {cap}; "
                "raise it with --cap")
        tri = problem.build_triangulation()
        i_count = polygon.census().interior_points
        dist: dict = {}
        for d, _ in sweep(surface, tri):
            dist[d] = dist.get(d, 0) + 1
        report["enumerate"] = {
            "runs": 1 << tri.V,
            "interior_points": i_count,
            "max_components": max(dist),
            "distribution": {str(k): v for k, v in sorted(dist.items())},
            "bound_violations": 0,
        }
    else:
        raise ValidationError(f"unknown subcommand {name}")
    report["timing_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tcurve-lab",
        description="Patchwork curves on glued lattice-polygon surfaces")
    parser.add_argument("subcommand",
                        choices=["surface", "curve", "filling", "harnack",
                                 "enumerate", "render"])
    parser.add_argument("--input", required=True, help="problem file (YAML)")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--type", dest="htype",
                        help="Harnack type c,a,b overriding the signs field")
    parser.add_argument("--cap", type=int, default=16,
                        help="max lattice points for enumerate (default 16)")
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded in the report for reproducibility")
    args = parser.parse_args(argv)

    try:
        htype = None
        if args.htype is not None:
            parts = args.htype.split(",")
            if len(parts) != 3 or any(p.strip() not in ("0", "1") for p in parts):
                raise ValidationError("--type expects bits c,a,b")
            htype = tuple(int(p) for p in parts)
        problem = parse_problem(args.input)
        result = run_subcommand(args.subcommand, problem, htype=htype,
                                cap=args.cap, seed=args.seed)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (InputError, TCurveLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = result if isinstance(result, str) else json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
