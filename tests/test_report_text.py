"""``cli.report_text`` writes exactly what ``json.dumps(obj, indent=2)``
writes: on the report of every subcommand over the instance sets of the
other tests, on generated values and through ``main``, also under
``python -O``.  A key or value that json would write otherwise (or that
it refuses) raises TypeError."""

import enum
import itertools
import json
import random
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tcurve_lab.cli import (main, parse_problem, problem_from_data,
                            report_text, run_subcommand)
from tcurve_lab.errors import InvariantError

from helpers import (primitive_triangulation, random_distribution,
                     random_flips, random_polygon, run_python)

DATA = Path(__file__).resolve().parent / "data"
HARNACK_TYPES = [list(t) for t in itertools.product((0, 1), repeat=3)]


def random_problems(rng, count, box):
    """Problem data of random polygons, each with a random primitive
    triangulation as index triples and random explicit signs."""
    for _ in range(count):
        poly = random_polygon(rng, box=box)
        tri = random_flips(rng, primitive_triangulation(poly), poly.point_count)
        index = {p: i for i, p in enumerate(poly.lattice_points)}
        yield {"polygon": [list(v) for v in poly.vertices],
               "triangulation": [[index[p] for p in t] for t in tri.triangles],
               "signs": {"explicit": {f"{x},{y}": v for (x, y), v in
                                      random_distribution(rng, poly).items()}}}


def instances():
    """(subcommand, problem) pairs: surface, curve, filling and harnack on
    grid T_1..T_8 and on rectangles under every Harnack type, on the sphere
    of ``tests/data`` and on random polygons; enumerate on small polygons."""
    single = ("surface", "curve", "filling", "harnack")
    for d, htype in itertools.product(range(1, 9), HARNACK_TYPES):
        data = {"polygon": [[0, 0], [d, 0], [0, d]], "signs": {"harnack": htype}}
        for name in single:
            yield name, problem_from_data(data)
    for (x1, y1), htype in itertools.product(((1, 1), (3, 2), (5, 4)),
                                             HARNACK_TYPES):
        data = {"polygon": [[0, 0], [x1, 0], [x1, y1], [0, y1]],
                "signs": {"harnack": htype}}
        for name in single:
            yield name, problem_from_data(data)
    for name in single:
        yield name, parse_problem(str(DATA / "harnack_sphere.yaml"))
    for data in random_problems(random.Random(2208), 20, 7):
        for name in ("surface", "curve", "filling"):
            yield name, problem_from_data(data)
    for data in ({"polygon": [[0, 0], [2, 0], [0, 2]]},
                 {"polygon": [[0, 0], [3, 0], [0, 3]]},
                 {"polygon": [[0, 0], [2, 0], [2, 2], [0, 2]]},
                 {"polygon": [[1, 0], [2, 1], [1, 2], [0, 1]],  # two spheres
                  "triangulation": [[0, 1, 2], [0, 2, 3], [1, 4, 2], [2, 4, 3]]}):
        yield "enumerate", problem_from_data({**data, "signs": "enumerate"})
    for data in random_problems(random.Random(2209), 3, 3):
        yield "enumerate", problem_from_data({**data, "signs": "enumerate"})


def test_reports_match_json():
    written = 0
    for name, problem in instances():
        try:
            report = run_subcommand(name, problem, seed=written % 3 or None)
        except InvariantError:
            continue  # no report to write
        assert report_text(report) == json.dumps(report, indent=2), (name, problem.data())
        written += 1
    assert written > 400


# the values of a report, and what a generated value adds: non-ASCII and
# control characters, "x,y" keys, ints of any size, floats of any kind
KEYS = st.text() | st.sampled_from(["x,y", "0,0", "-3,12", "timing_ms", "",
                                    "é中\U0001f600", "\n\t\x00\"\\"])
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2 ** 80, max_value=2 ** 80) | st.floats()
           | st.floats(min_value=0, max_value=1e6).map(lambda x: round(x, 3))
           | st.text() | st.sampled_from(["x,y", "  \x7f", "\x1f"])
           | st.sampled_from([[], {}, [[]], [{}], {"": []}, ()]))
VALUES = st.recursive(
    SCALARS, lambda inner: (st.lists(inner, max_size=5)
                            | st.lists(inner, max_size=3).map(tuple)
                            | st.dictionaries(KEYS, inner, max_size=5)),
    max_leaves=40)


@given(VALUES)
@settings(max_examples=400, deadline=None)
def test_generated_values_match_json(value):
    assert report_text(value) == json.dumps(value, indent=2)


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


@pytest.mark.parametrize("value", [
    Level.LOW, [Level.LOW, True, 1.5], {"a": Name("x"), Name("k"): [None]},
    {"nan": float("nan"), "inf": [float("inf"), -float("inf")]}, "é\u2028"],
    ids=repr)
def test_subclasses_and_special_floats_match_json(value):
    assert report_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1: 2}, {None: 1}, {True: 0}, {1.5: 0}, {(1, 2): 3}, {"a": {2: "b"}},
    [b"x"], [{1, 2}], pytest.param([object()], id="[object()]"),
    {"a": 1j}, [Fraction(1, 2)],
    OrderedDict(a=1), [OrderedDict(a=1)], {"a": [frozenset()]}],
    ids=repr)
def test_refuses_what_json_writes_otherwise(value):
    with pytest.raises(TypeError):
        report_text(value)


T5 = "polygon: [[0,0],[5,0],[0,5]]\nsigns: {harnack: [1,0,0]}\n"


def test_main_writes_what_json_writes(tmp_path, capsys):
    problem = tmp_path / "t5.yaml"
    problem.write_text(T5)
    out = tmp_path / "t5.json"
    assert main(["harnack", "--input", str(problem), "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert main(["curve", "--input", str(problem)]) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_main_writes_what_json_writes_under_python_O(tmp_path):
    problem = tmp_path / "t5.yaml"
    problem.write_text(T5)
    out = tmp_path / "t5.json"
    run_python("import sys\n"
               "from tcurve_lab.cli import main\n"
               f"sys.exit(main(['filling', '--input', {str(problem)!r}, "
               f"'--out', {str(out)!r}]))\n", "-O")
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
