"""The command line's contract on malformed problem files: every
subcommand exits 0, 1 or 2, writes exactly one stderr line when it exits
1 or 2, lets no exception escape and finishes within a time bound.

The files come from a seeded generator: polygons from
``helpers.random_polygon`` with harnack, explicit or enumerate signs and
a grid or an explicit triangulation, then damaged (fields dropped, added
or misspelled, values replaced by other types, huge ints, deep nesting,
moved or repeated vertices, bad signs and point keys), written in flow or
in block style and now and then cut short."""

import copy
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from tcurve_lab.cli import SUBCOMMANDS, main

from tcurve_lab.lattice import validate_polygon

from helpers import PYTHONPATH, primitive_triangulation, random_polygon

SCALARS = (None, True, False, 0, 1, -1, 2, 1.5, -0.0, "", "a", "grid",
           "enumerate", "1,0", "yes", [], {})
HUGE = (10 ** 20, -(10 ** 20), 2 ** 63, 10 ** 300)
BAD_SIGNS = (0, 2, -2, 1.0, 1.5, True, False, "1", None, [1], 10 ** 30)
BAD_KEYS = ("01,0", "1, 0", "+1,0", "x", "1,0,0", "-1,0", "99,99", "")
SECONDS = 5  # per run; the runs take some milliseconds


def base_problem(rng: random.Random) -> dict:
    """A valid problem as data, on a polygon of at most 25 lattice points:
    a standard triangle or a rectangle, which the grid triangulates, or a
    random polygon with an explicit triangulation."""
    if rng.random() < 0.4:
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        poly = validate_polygon([(0, 0), (w, 0), (0, w)] if rng.random() < 0.5
                                else [(0, 0), (w, 0), (w, h), (0, h)])
        data: dict = {"polygon": [list(v) for v in poly.vertices]}
        if rng.random() < 0.5:
            data["triangulation"] = "grid"
    else:
        poly = random_polygon(rng, box=rng.randint(1, 4))
        index = {p: k for k, p in enumerate(poly.lattice_points)}
        data = {"polygon": [list(v) for v in poly.vertices],
                "triangulation": [[index[p] for p in t] for t in
                                  primitive_triangulation(poly).triangles]}
    pts = poly.lattice_points
    kind = rng.randrange(4)
    if kind == 0:
        data["signs"] = {"harnack": [rng.randint(0, 1) for _ in range(3)]}
    elif kind == 1:
        data["signs"] = {"explicit": {f"{x},{y}": rng.choice((1, -1))
                                      for x, y in pts}}
    elif kind == 2:
        data["signs"] = "enumerate"
    return data


def paths(value, path=()):
    """Every position in ``value``, as a tuple of keys and indices."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        yield from paths(v, path + (k,))


def put(data, path, value):
    """``data`` with ``value`` put at ``path``, in place; the empty path
    replaces the whole of it."""
    if not path:
        return value
    node = data
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return data


def get(data, path):
    for k in path:
        data = data[k]
    return data


def mutate(rng: random.Random, data):
    """``data`` with one defect."""
    kind = rng.randrange(8)
    fields = list(data) if isinstance(data, dict) else []
    if kind == 0 and fields:  # a field dropped
        del data[rng.choice(fields)]
    elif kind == 1 and isinstance(data, dict):  # a field added or misspelled
        name = rng.choice(("sign", "triangulations", "Polygon", "extra"))
        data[name] = data.pop(fields[0]) if fields and rng.random() < 0.5 \
            else rng.choice(SCALARS)
    elif kind == 2:  # a value of another type
        data = put(data, rng.choice(list(paths(data))),
                   copy.deepcopy(rng.choice(SCALARS)))
    elif kind == 3:  # a huge int in place of an int
        ints = [p for p in paths(data) if type(get(data, p)) is int]
        if ints:
            data = put(data, rng.choice(ints), rng.choice(HUGE))
    elif kind == 4:  # a value nested some levels deeper
        where = rng.choice(list(paths(data)))
        value = get(data, where)
        for _ in range(rng.randint(1, 20)):
            value = [value]
        data = put(data, where, value)
    elif kind == 5 and isinstance(data, dict) \
            and isinstance(data.get("polygon"), list) \
            and data["polygon"]:  # a vertex moved, repeated or swapped
        verts = data["polygon"]
        k = rng.randrange(len(verts))
        how = rng.randrange(3)
        if how == 0 and isinstance(verts[k], list) and verts[k] \
                and type(verts[k][0]) is int:
            verts[k][0] += rng.choice((-1, 1))
        elif how == 1:
            verts.insert(k, copy.deepcopy(verts[k]))
        else:
            j = rng.randrange(len(verts))
            verts[j], verts[k] = verts[k], verts[j]
    elif kind == 6:  # a bad sign or point key
        signs = data.get("signs") if isinstance(data, dict) else None
        explicit = signs.get("explicit") if isinstance(signs, dict) else None
        if isinstance(explicit, dict) and explicit:
            key = rng.choice(list(explicit))
            if rng.random() < 0.5:
                explicit[key] = rng.choice(BAD_SIGNS)
            elif rng.random() < 0.5:
                explicit[rng.choice(BAD_KEYS)] = explicit.pop(key)
            else:
                del explicit[key]
    elif kind == 7 and isinstance(data, dict):  # bad harnack bits
        data["signs"] = {"harnack": [rng.choice((0, 1, 2, -1, True))
                                     for _ in range(rng.randint(2, 4))]}
    return data


def scalar(value) -> str:
    """A scalar or empty collection in flow style: lower-case words bare,
    as the examples write them."""
    if isinstance(value, str) and re.fullmatch("[a-z]+", value):
        return value
    return json.dumps(value)


def flow(value) -> str:
    if isinstance(value, dict) and value:
        return "{" + ", ".join(f"{scalar(k)}: {flow(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, list) and value:
        return "[" + ", ".join(map(flow, value)) + "]"
    return scalar(value)


def block(value, indent="") -> str:
    """``value`` in block style: mappings one key a line and lists one item
    a line, the items of lists and the scalars in flow style."""
    if isinstance(value, dict) and value:
        return "".join(
            f"{indent}{scalar(k)}:\n{block(v, indent + '  ')}"
            if isinstance(v, (dict, list)) and v
            else f"{indent}{scalar(k)}: {flow(v)}\n" for k, v in value.items())
    if isinstance(value, list) and value:
        return "".join(f"{indent}- {flow(v)}\n" for v in value)
    return f"{indent}{flow(value)}\n"


def problem_text(rng: random.Random) -> str:
    data = base_problem(rng)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        data = mutate(rng, data)
    if isinstance(data, dict) and rng.random() < 0.5:
        # one `field: value` line per field, the style the examples use
        text = "".join(f"{scalar(k)}: {flow(v)}\n" for k, v in data.items())
    else:
        text = block(data)
    if rng.random() < 0.15:
        text = text[:rng.randrange(len(text) + 1)]
    return text


def arguments(rng: random.Random, subcommand: str) -> list:
    extra = ["--cap", "10"] if subcommand == "enumerate" else []
    if subcommand != "enumerate" and rng.random() < 0.2:
        extra += ["--type", "0,1,1"]
    return [subcommand, *extra]


@pytest.mark.parametrize("seed", range(8))
def test_every_subcommand_keeps_the_contract(tmp_path, capsys, seed):
    rng = random.Random(seed)
    codes = set()
    for k in range(15):
        path = tmp_path / f"p{k}.yaml"
        path.write_text(problem_text(rng))
        for subcommand in SUBCOMMANDS:
            args = [*arguments(rng, subcommand), "--input", str(path),
                    "--out", str(tmp_path / "out")]
            start = time.perf_counter()
            try:
                code = main(args)
            except (Exception, SystemExit) as exc:  # the contract: nothing escapes
                pytest.fail(f"{args} on {path.read_text()!r} raised {exc!r}")
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            context = f"{args} on {path.read_text()!r}: exit {code}, {err!r}"
            assert code in (0, 1, 2), context
            assert err.count("\n") == (code != 0) and err.endswith("\n") == \
                (code != 0), context
            assert elapsed < SECONDS, context
            codes.add(code)
    assert {0, 2} <= codes  # the generator makes good files and bad ones


def test_the_contract_holds_under_python_O(tmp_path):
    rng = random.Random(99)
    for k in range(6):
        path = tmp_path / f"p{k}.yaml"
        path.write_text(problem_text(rng))
        subcommand = SUBCOMMANDS[k]
        run = subprocess.run(
            [sys.executable, "-O", "-m", "tcurve_lab.cli",
             *arguments(rng, subcommand), "--input", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": PYTHONPATH})
        context = f"{subcommand} on {path.read_text()!r}: {run.stderr!r}"
        assert run.returncode in (0, 1, 2), context
        assert run.stderr.count("\n") == (run.returncode != 0), context
