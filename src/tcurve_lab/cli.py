"""Command line interface.

Problem files are YAML with these three fields and no other:

    polygon: [[0,0], [5,0], [0,5]]
    triangulation: grid            # or a list of index triples into the
                                   # lexicographically sorted lattice points
    signs: {harnack: [1, 0, 0]}    # or {explicit: {"x,y": 1, ...}}
                                   # or enumerate

Exit codes: 0 all checks passed, 1 an invariant failed, 2 bad input.
"""

import atexit
import gc
import io
import os
import re
import sys
import time
from collections import Counter

from .errors import (CapExceeded, InputError, InvariantError, ParseError,
                     TCurveLabError, TooLarge, ValidationError, check)
from .filling import TFilling, build_filling, classify_filling, harnack_check
from .lattice import Polygon, validate_polygon
from .surface import AmbientSurface, build_ambient_surface
from .svg import render_svg
from .sweep import compile_sweep, run_sweep
from .tcurve import (TCurve, extract_curve, harnack_distribution,
                     predicted_harnack_census, verify_harnack_census)
from .triangulation import (PrimitiveTriangulation,
                            generate_grid_triangulation, incidence_graphs)

# the most lattice points a problem may have, counted from the vertices
# before any point is listed: on the boundary for every subcommand, in all
# for those that triangulate.  A `harnack` process on T_139 (9870 points)
# took 1.0-1.8 s of wall time and 84-88 MiB of VmHWM in five runs on a
# shared 2-vCPU x86-64 VM with CPython 3.11.
MAX_POINTS = 10_000
# the largest problem file read, checked before the read.  A problem within
# MAX_POINTS lists at most MAX_POINTS vertices, one explicit sign per
# lattice point and fewer than 2 * MAX_POINTS triangles (a primitive
# triangulation of V lattice points, B of them on the boundary, has
# 2V - B - 2): at most 4 * MAX_POINTS items.  Flow style spends about 20
# bytes on one (`"9999,9999": -1, `, `[9998,9999,10000],`); 64 bytes per
# item leave room for block style, indentation and a comment on each line.
MAX_FILE_BYTES = 4 * 64 * MAX_POINTS
# the most lattice points `enumerate` takes, whatever --cap says.  Its sweep
# keeps V - 1 kernel states before the first vector: 2.7 kB each for the
# 64 points of the 7 x 7 square, but 36.7 kB on T_40 and 435 kB on T_139
# (about 4 GB in all), by sys.getsizeof.  2^63 kernel runs could never
# finish anyway.
MAX_SWEEP_POINTS = 64


def check_size(polygon: Polygon, triangulates: bool = True):
    """Raise TooLarge when the polygon has more than MAX_POINTS lattice
    points on its boundary, or, when ``triangulates``, more than MAX_POINTS
    in all or a bounding box of more than 2 * MAX_POINTS lattice points,
    whose columns the lattice point scan walks."""
    if polygon.boundary_length > MAX_POINTS:
        raise TooLarge(f"{polygon.boundary_length} boundary lattice points "
                       f"exceed the size limit {MAX_POINTS}")
    if triangulates and polygon.point_count > MAX_POINTS:
        raise TooLarge(f"{polygon.point_count} lattice points exceed the "
                       f"size limit {MAX_POINTS}")
    xs, ys = zip(*polygon.vertices)
    box = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
    if triangulates and box > 2 * MAX_POINTS:
        raise TooLarge(f"a bounding box of {box} lattice points exceeds the "
                       f"size limit {2 * MAX_POINTS}")


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
        return PrimitiveTriangulation(self.polygon, self.triangulation)

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


# the characters at which str.splitlines breaks a line, each mapped to its
# escape in a Python string literal
_LINE_BREAKS = {0xA: r"\n", 0xD: r"\r", 0xB: r"\x0b", 0xC: r"\x0c",
                0x1C: r"\x1c", 0x1D: r"\x1d", 0x1E: r"\x1e", 0x85: r"\x85",
                0x2028: r"\u2028", 0x2029: r"\u2029"}


def one_line(path: str) -> str:
    """``path`` as messages name it: with its line breaks escaped, so that
    every error stays on one line."""
    return path.translate(_LINE_BREAKS)


def parse_problem(path: str) -> Problem:
    name = one_line(path)
    try:
        with open(path, encoding="utf-8") as fh:
            size = os.fstat(fh.fileno()).st_size
            # a read of n characters takes an n-byte buffer first, so a
            # file is read by its size; st_size reads 0 for a pipe, hence
            # the bounded read.  A file that grew since fstat fills the
            # first read and is read on to the bound.
            limit = size + 1 if size else MAX_FILE_BYTES + 1
            text = "" if size > MAX_FILE_BYTES else fh.read(limit)
            if len(text) == limit:
                text += fh.read(MAX_FILE_BYTES + 1 - limit)
    except OSError as exc:
        raise ParseError(f"cannot read {name}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: {exc}")
    if max(size, len(text)) > MAX_FILE_BYTES:
        raise TooLarge(f"{name}: larger than the size limit of "
                       f"{MAX_FILE_BYTES} bytes")
    raw = read_flow_problem(text)
    if raw is None:
        raw = load_yaml(text, name)
    if not isinstance(raw, dict):
        raise ParseError(f"{name}: expected a mapping at the top level")
    return problem_from_data(raw)


_POINT_KEY = r"-?[0-9]+,-?[0-9]+"  # "x,y", the key of an explicit sign
# one token of a flow-style value, after optional spaces: a flow indicator,
# a decimal int, or a word or double-quoted point key with a key's colon
# right after it (a space after that); any other character matches alone
# as "".  PyYAML's plain scalars `010`, `1:20`, `1_0`, `0x1` or `grid1`
# come apart into side-by-side tokens, which no flow value holds.
_TOKEN = re.compile(
    r' *([][{},]|-?(?:0|[1-9][0-9]*)|(?:[a-z]+|"' + _POINT_KEY
    + r'")(?::(?= ))?)|.')


def read_flow_problem(text: str):
    """The data of a problem file written in the flow style the examples
    use, one ``field: value`` line per field, with the same values and
    types that PyYAML's safe loaders give; None for any text outside that
    grammar.  A value line within it is JSON once its words are quoted."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    data = {}
    for line in lines:
        field, _, value = line.partition(": ")  # no ": ", no value
        if field not in ("polygon", "triangulation", "signs") or field in data:
            return None
        tokens = iter(_TOKEN.findall(value) + ["\n"])  # "\n": the line's end
        # ValueError: not JSON, a repeated key, an int past int()'s digit
        # limit, or nested past MAX_NESTING
        try:
            data[field] = _flow_node(next(tokens), tokens, 2)
        except ValueError:
            return None
        if next(tokens) != "\n":  # a token after the value
            return None
    return data or None


def _flow_node(token: str, tokens, depth: int):
    """The node that starts with ``token`` and reads on from the iterator
    ``tokens``, as json.loads reads it once its words are quoted;
    ValueError for any other text, "" and "\\n" included, and for a
    collection at ``depth`` past ``MAX_NESTING`` (the top mapping is 1)."""
    if token != "[" and token != "{":  # int() refuses any other token
        return token.strip('"') if token[-1:] == '"' or token in (
            "grid", "enumerate", "harnack", "explicit") else int(token)
    if depth > MAX_NESTING:
        raise ValueError
    node, close = ([], "]") if token == "[" else ({}, "}")
    token = next(tokens)
    while token != close:
        if close == "]":
            node.append(_flow_node(token, tokens, depth + 1))
        elif token[-1:] != ":" or token[:-1].strip('"') in node:
            raise ValueError  # not a key, or a repeated one (PyYAML keeps the last)
        else:
            node[_flow_node(token[:-1], tokens, depth)] = _flow_node(
                next(tokens), tokens, depth + 1)
        token = next(tokens)
        # a comma before the next node, or the close
        if token != close and (token != "," or (token := next(tokens)) == close):
            raise ValueError
    return node


def yaml_loader():
    """libyaml's safe loader when PyYAML was built with it: the same data,
    faster; PyYAML's own safe loader otherwise."""
    import yaml
    return yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


# how deep a problem file may nest; a valid problem nests 3 deep (a
# mapping of lists of lists, or of mappings of mappings).  libyaml's loader
# overflows the C stack tens of thousands of levels down and PyYAML's own
# the recursion limit some hundreds down, so deeper text is refused before
# either composes it.
MAX_NESTING = 16


def nesting_depth(text: str) -> int:
    """How deep YAML ``text`` nests, counted from the parser's events until
    it passes ``MAX_NESTING`` or the text stops parsing (where the loader
    stops too).  The parser keeps its own stack, so unlike the loader it
    reads any depth without recursing."""
    import yaml
    depth = deepest = 0
    try:
        for event in yaml.parse(io.StringIO(text), Loader=yaml_loader()):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                deepest = max(deepest, depth)
                if deepest > MAX_NESTING:
                    break
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    except yaml.YAMLError:
        pass  # the loader reports it
    return deepest


def load_yaml(text: str, name: str):
    """PyYAML's reading of a problem file, for text the flow reader
    declines; imported here so that flow-style files never pay for it.
    Messages name the file ``name``."""
    if nesting_depth(text) > MAX_NESTING:
        raise ParseError(f"{name}: nested deeper than {MAX_NESTING} levels")
    import yaml
    stream = io.StringIO(text)
    stream.name = name  # PyYAML's messages name the file
    try:
        return yaml.load(stream, Loader=yaml_loader())
    # ValueError: an int of more digits than int() converts, or a date
    # such as 2020-13-01
    except (yaml.YAMLError, ValueError) as exc:
        raise ParseError(f"{name}: {' '.join(str(exc).split())}")


def _check_ints(field: str, rows: list):
    """Only plain ints: YAML also yields bools, floats, strings and null."""
    for k, row in enumerate(rows):
        for v in row:
            if type(v) is not int:
                raise ValidationError(
                    f"{field}[{k}]: expected integers, got {v!r}")


def problem_from_data(raw: dict) -> Problem:
    unknown = [k for k in raw if k not in ("polygon", "triangulation", "signs")]
    if unknown:
        raise ValidationError(f"unknown field: {unknown[0]!r}")
    if "polygon" not in raw:
        raise ValidationError("missing field: polygon")
    poly_field = raw["polygon"]
    if (not isinstance(poly_field, list)
            or any(not isinstance(v, list) or len(v) != 2 for v in poly_field)):
        raise ValidationError("polygon: expected a list of [x, y] pairs")
    _check_ints("polygon", poly_field)
    # every vertex is a boundary lattice point; refused before the
    # quadratic simplicity test
    if len(poly_field) > MAX_POINTS:
        raise TooLarge(f"{len(poly_field)} vertices exceed the size limit "
                       f"{MAX_POINTS}")
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
    elif isinstance(signs_field, dict) and len(signs_field) != 1:
        raise ValidationError("signs: expected exactly one of harnack or "
                              f"explicit, got {list(signs_field)!r}")
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
            try:  # int() alone reads "+1", " 1", "1_0" and non-ASCII digits too
                if not re.fullmatch(_POINT_KEY, str(key)):
                    raise ValueError
                x, y = map(int, str(key).split(","))
            except ValueError:  # also for more digits than int() converts
                raise ValidationError(f"signs.explicit: bad point key {key!r}")
            if (x, y) in parsed:
                raise ValidationError(f"signs.explicit: point {(x, y)} given twice")
            if type(v) is not int or v not in (1, -1):
                raise ValidationError(f"signs.explicit[{key!r}]: sign must be 1 or -1")
            parsed[(x, y)] = v
        check_size(polygon)  # before the lattice points are listed
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
    for walk, c in zip(curve.components, curve.classification.values()):
        comps.append({
            "kind": c.kind,
            "quadrant": list(c.quadrant) if c.quadrant else None,
            "sign": c.sign,
            "nesting_depth": c.depth,
            "crossing_vector": list(c.crossing_vector)
            if c.crossing_vector is not None else None,
            "length": 2 * len(walk),
        })
    census = curve.census
    return {
        "components": comps,
        "component_count": len(curve.components),
        "quadrant_ovals": quadrant_table(census.quadrant_ovals),
        "boundary_kinds": list(census.boundary_kinds),
    }


def quadrant_table(quadrant_ovals: dict) -> dict:
    return {f"{a},{b}": [list(sd) for sd in v]
            for (a, b), v in sorted(quadrant_ovals.items())}


def filling_report(filling: TFilling) -> dict:
    cls = classify_filling(filling)
    verdict = harnack_check(filling)
    return {
        "chi_filling": filling.chi,
        "boundary_components": filling.boundary_count,
        "twists": sum(1 for v in filling.twists.values() if v),
        "folds": len(filling.folds),
        "chi_capped": cls.euler,
        "orientable": cls.orientable,
        "genus": cls.genus,
        "crosscaps": cls.crosscaps,
        "curve_type": "I" if cls.orientable else "II",
        "harnack": {
            "components": verdict.boundary_count,
            "interior_points": verdict.interior_points,
            "bound_holds": verdict.bound_holds,
            "maximal": verdict.maximal,
            "identity_holds": verdict.identity_holds,
        },
    }


# ---------------------------------------------------------------------------
# report text: json.dumps(report, indent=2), written directly.  CPython
# 3.10 and 3.11 run their pure-Python encoder whenever ``indent`` is set,
# which yields every key, separator and value as a chunk of its own.


def report_text(report) -> str:
    """``json.dumps(report, indent=2)``, byte for byte, for values built of
    dicts with str keys, lists, tuples and the scalars json writes;
    TypeError for any other key or value."""
    global _ESCAPE  # json.encoder's C escape, which `render` never imports
    from _json import encode_basestring_ascii as _ESCAPE
    return _text(report, "\n")


def _text(value, newline: str) -> str:
    """The text of ``value``, its lines after the first started by
    ``newline``.  The common scalars, str, int and null in a dict and int
    in a list, are written inline; json writes only non-finite floats and
    subclasses of the scalar types."""
    t, inner, items = type(value), newline + "  ", []
    if t is dict and value:
        for key, item in value.items():
            t = type(item)  # _ESCAPE raises TypeError for a key not a str
            items.append(f"{_ESCAPE(key)}: " + (
                _ESCAPE(item) if t is str else f"{item}" if t is int
                else "null" if item is None else _text(item, inner)))
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if (t is list or t is tuple) and value:
        for item in value:
            items.append(f"{item}" if type(item) is int else _text(item, inner))
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if t in (dict, list, tuple):  # empty
        return "{}" if t is dict else "[]"
    if isinstance(value, (dict, list, tuple)):
        raise TypeError(f"cannot indent a {t.__name__}")  # json.dumps would not indent it
    if t is str:
        return _ESCAPE(value)
    if t is int or t is float and value - value == 0:  # not inf or nan
        return repr(value)
    if value is None or t is bool:
        return "null" if value is None else "true" if value else "false"
    import json
    return json.dumps(value)


# ---------------------------------------------------------------------------
# subcommands

def run_subcommand(name: str, problem: Problem, *, htype=None, cap=16,
                   seed=None) -> dict | str:
    t0 = time.perf_counter()
    polygon = problem.polygon
    report: dict = {"subcommand": name, "problem": problem.data()}
    if seed is not None:
        report["seed"] = seed

    # refuse before any lattice point or triangle is built
    if name == "enumerate" and polygon.point_count > MAX_SWEEP_POINTS:
        raise TooLarge(f"{polygon.point_count} lattice points exceed the "
                       f"enumerate limit {MAX_SWEEP_POINTS}, whatever "
                       "--cap says")
    if name == "enumerate" and polygon.point_count > cap:
        raise CapExceeded(f"{polygon.point_count} lattice points exceed the "
                          f"cap {cap}; raise it with --cap")
    check_size(polygon, triangulates=name != "surface")
    # a missing sign distribution or Harnack type too, before any set-up
    if name in ("curve", "filling", "harnack", "render"):
        delta = problem.distribution(htype)
    if name == "harnack" and htype is None:
        if problem.signs[0] != "harnack":
            raise ValidationError("harnack subcommand needs a type "
                                  "(signs.harnack or --type)")
        htype = problem.signs[1]
    surface = build_ambient_surface(polygon)
    if name == "surface":
        report["surface"] = surface_report(surface)
    elif name in ("curve", "filling", "harnack", "render"):
        tri = problem.build_triangulation()
        curve = extract_curve(surface, tri, delta)
        if name == "render":
            return render_svg(curve)
        report["surface"] = surface_report(surface)
        report["curve"] = curve_report(curve)
        if name in ("filling", "harnack"):
            filling = build_filling(curve)
            report["filling"] = filling_report(filling)
        if name == "harnack":
            pred = predicted_harnack_census(polygon, htype)
            report["harnack_census"] = {
                "type": list(htype),
                "predicted_total": pred.total,
                "predicted_quadrant_ovals": quadrant_table(pred.quadrant_ovals),
                "predicted_boundary": pred.o_kind,
                "predicted_o_disks": [list(q) for q in pred.o_disks] or None,
                "match": verify_harnack_census(curve, htype),
            }
            if not report["harnack_census"]["match"]:
                raise InvariantError("extracted census differs from prediction")
    elif name == "enumerate":
        tri = problem.build_triangulation()
        tables = compile_sweep(tri, incidence_graphs(surface, tri))
        i_count = tables.interior_points
        # per curve type (I when the filling is orientable): D -> vectors
        by_type = {"I": Counter(), "II": Counter()}
        for (d, orientable), vectors in run_sweep(tables).items():
            by_type["I" if orientable else "II"][d] += vectors
        dist = by_type["I"] + by_type["II"]
        runs = sum(dist.values())
        check(runs == 1 << tri.V, f"{runs} sign vectors swept, not 2^{tri.V}")
        report["enumerate"] = {
            "runs": runs,
            "interior_points": i_count,
            "max_components": max(dist),
            "distribution": {str(k): v for k, v in sorted(dist.items())},
            "distribution_by_type": {
                kind: {str(k): v for k, v in sorted(per.items())}
                for kind, per in by_type.items() if per},
            "maximal_vectors": dist.get(i_count + 1, 0),
            "bound_violations": 0,
        }
    else:
        raise ValidationError(f"unknown subcommand {name}")
    report["timing_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return report


SUBCOMMANDS = ("surface", "curve", "filling", "harnack", "enumerate", "render")
# README's synopsis, which -h and --help print
SYNOPSIS = """\
tcurve-lab <surface|curve|filling|harnack|enumerate|render> --input FILE
           [--out FILE] [--type c,a,b] [--cap N] [--seed N]
"""
# option -> what reads its value
OPTIONS = {"--input": str, "--out": str, "--type": str, "--cap": int,
           "--seed": int}


def parse_args(argv: list) -> dict | None:
    """The subcommand (key ``"subcommand"``) and the options (keys
    ``"--input"`` and so on) of a command line; None when it asks for help.
    An option takes ``--name value`` or ``--name=value``, anywhere on the
    line, and a repeated one keeps its last value.  Prefixes of option
    names are not options.  Raises ValidationError, with one line, for any
    other command line."""
    args = {"subcommand": None, **dict.fromkeys(OPTIONS), "--cap": 16}
    rest = iter(argv)
    for arg in rest:
        if arg in ("-h", "--help"):
            return None
        if arg[:1] != "-" or arg == "-":
            if args["subcommand"] is not None:
                raise ValidationError(f"unexpected argument {arg!r}")
            if arg not in SUBCOMMANDS:
                raise ValidationError(f"unknown subcommand {arg!r}; expected "
                                      f"one of {', '.join(SUBCOMMANDS)}")
            args["subcommand"] = arg
            continue
        name, eq, value = arg.partition("=")
        if name not in OPTIONS:
            raise ValidationError(f"unknown option {name!r}")
        if not eq:
            value = next(rest, None)
            # a separate value may be '-' or a negative number, as in argparse
            if value is None or (value[:1] == "-" and value != "-" and not
                                 re.fullmatch(r"-[0-9]*\.?[0-9]+", value)):
                raise ValidationError(f"{name} expects a value")
        try:
            args[name] = OPTIONS[name](value)
        except ValueError:
            raise ValidationError(f"{name} expects an integer, got {value!r}")
    if args["subcommand"] is None:
        raise ValidationError("no subcommand; expected one of "
                              f"{', '.join(SUBCOMMANDS)}")
    if args["--input"] is None:
        raise ValidationError("--input FILE is required")
    return args


# whether ``main`` has registered gc.freeze to run at exit in this process
_freeze_at_exit = False


def main(argv=None) -> int:
    """Run one command line; the exit code.  A run makes no reference
    cycles (``tests/test_cli.py`` checks it): reference counts free every
    object, so the cyclic collector, which would only traverse the live
    ones, is off until the run ends.

    ``gc.freeze`` also runs at exit, registered once per process, so that
    the interpreter's last collections skip every object still alive,
    the module-level cycles of all that the CLI imported, instead of
    tearing them down one by one: a shutdown that costs more than the run
    on a small problem.  It is registered here, not on import, and runs
    at exit, not here, so that importing the CLI has no side effect and
    in-process callers keep their objects within the collector's reach."""
    global _freeze_at_exit
    if not _freeze_at_exit:
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(SYNOPSIS)
            return 0
        htype = None
        if args["--type"] is not None:
            parts = args["--type"].split(",")
            if len(parts) != 3 or any(p.strip() not in ("0", "1") for p in parts):
                raise ValidationError("--type expects bits c,a,b")
            htype = tuple(int(p) for p in parts)
        problem = parse_problem(args["--input"])
        result = run_subcommand(args["subcommand"], problem, htype=htype,
                                cap=args["--cap"], seed=args["--seed"])
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (InputError, TCurveLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = result if isinstance(result, str) else report_text(result)
    text = text if text.endswith("\n") else text + "\n"
    if args["--out"]:
        try:
            with open(args["--out"], "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {one_line(args['--out'])}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
