"""The flow-style problem reader against PyYAML's safe loaders: on every
text it accepts it gives the same data, with the same types, as both
loaders; every other text it declines, and `parse_problem` hands it to
PyYAML."""

import json
import random
from pathlib import Path

import pytest
import yaml

from hypothesis import given, settings
from hypothesis import strategies as st

from tcurve_lab.cli import MAX_NESTING, main, read_flow_problem

from helpers import primitive_triangulation, random_flips, random_polygon

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__
                               else [])


def same(a, b) -> bool:
    """Equal with equal types throughout, so that True != 1 != 1.0, and
    with mapping keys in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same(ka, kb) and same(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    return a == b


def read_as_loaders_do(text: str):
    """The reader's data for ``text``, after checking it against every
    loader; None when the reader declines."""
    data = read_flow_problem(text)
    if data is not None:
        for loader in LOADERS:
            assert same(yaml.load(text, Loader=loader), data), \
                (loader.__name__, text)
    return data


def flow_problem(polygon, triples, signs) -> str:
    """A problem file in the flow style of the examples and the benchmark."""
    body = ", ".join(f'"{x},{y}": {v}' for (x, y), v in sorted(signs.items()))
    return (f"polygon: {json.dumps([list(v) for v in polygon.vertices])}\n"
            f"triangulation: {json.dumps(triples)}\n"
            f"signs: {{explicit: {{{body}}}}}\n")


def test_random_flow_problems_accepted():
    rng = random.Random(15)
    for _ in range(20):
        poly = random_polygon(rng)
        tri = random_flips(rng, primitive_triangulation(poly), 10)
        index = {p: k for k, p in enumerate(poly.lattice_points)}
        triples = sorted(sorted(index[p] for p in t) for t in tri.triangles)
        signs = {p: rng.choice((1, -1)) for p in poly.lattice_points}
        assert read_as_loaders_do(flow_problem(poly, triples, signs)) \
            is not None


@pytest.mark.parametrize("text", [
    "polygon: [[0,0],[3,0],[0,3]]\nsigns: {harnack: [1,0,0]}\n",
    "polygon: [[0, 0], [2, 0], [2, 2], [0, 2]]\nsigns: enumerate",
    "polygon:  [ [0 ,0] , [1,0],[0,1] ]\ntriangulation: grid\n"
    'signs: {explicit: {"0,0": 1,  "1,0": -1, "0,1": -1}}\n',
    Path(__file__).with_name("data").joinpath("harnack_sphere.yaml")
    .read_text(),
    "polygon: []\ntriangulation: [{}]\nsigns: {}\n",
], ids=["t3", "no-final-newline", "spaces", "sphere-file", "empty-nodes"])
def test_examples_accepted(text):
    assert read_as_loaders_do(text) is not None


T3 = "polygon: [[0,0],[3,0],[0,3]]\n"


# each reads differently in PyYAML from how it looks, or is YAML the
# reader does not take apart; PyYAML's reading is given where it differs
@pytest.mark.parametrize("text, pyyaml", [
    ("polygon: [[010,0],[3,0],[0,3]]\n", [8, 0]),
    ("polygon: [[1:20,0],[3,0],[0,3]]\n", [80, 0]),
    ("polygon: [[+1,0],[3,0],[0,3]]\n", [1, 0]),
    ("polygon: [[1_0,0],[3,0],[0,3]]\n", [10, 0]),
    ("polygon: [[0x1,0],[3,0],[0,3]]\n", [1, 0]),
    ("signs: {a:1}\n", {"a:1": None}),
    ("signs: {harnack:1}\n", {"harnack:1": None}),
    (T3 + "polygon: [[0,0],[1,0],[0,1]]\n", None),
    ("signs: {harnack: [1,0,0], harnack: [0,1,1]}\n", {"harnack": [0, 1, 1]}),
    ('signs: {explicit: {"0,0": 1, "0,0": -1}}\n', {"explicit": {"0,0": -1}}),
    ("signs: {harnack: [true,0,0]}\n", {"harnack": [True, 0, 0]}),
    ("signs: {harnack: [yes,0,0]}\n", {"harnack": [True, 0, 0]}),
    ("signs: {harnack: [~,0,0]}\n", {"harnack": [None, 0, 0]}),
    (T3 + "# T_3\n", None),
    ("polygon: [[0,0],[3,0],[0,3]]  # T_3\n", None),
    ("polygon:\t[[0,0],[3,0],[0,3]]\n", None),
    ("polygon: [[0,\t0],[3,0],[0,3]]\n", None),
    ("polygon: [[0,0],[3,0],[0,3]]\r\nsigns: enumerate\r\n", None),
    ("\ufeff" + T3, None),
    ("---\n" + T3, None),
    ('signs: {explicit: {"0\\x2c0": 1}}\n', {"explicit": {"0,0": 1}}),
    ('signs: {explicit: {"0\\u002c0": 1}}\n', {"explicit": {"0,0": 1}}),
    ("", None),
    ("polygon: [[0,0],[3,0],[0,3],]\n", [0, 0]),
    ("polygon: [[0,0],,[3,0],[0,3]]\n", None),
    ("signs: {harnack [1,0,0]}\n", None),
    ("polygon: [[0,0],[3,0],[0,3]\n", None),
    ("polygon: [[0,0],[3,0],[0," + "1" * 4301 + "]]\n", None),
], ids=["octal", "sexagesimal", "plus", "underscore", "hex", "colon-key",
        "colon-word-key", "duplicate-field", "duplicate-key",
        "duplicate-point", "true", "yes", "tilde", "comment-line", "comment",
        "tab", "tab-in-flow", "crlf", "bom", "document-start", "escape",
        "unicode-escape", "empty", "trailing-comma", "empty-element",
        "key-without-colon", "unbalanced-bracket", "int-of-4301-digits"])
def test_near_misses_declined(text, pyyaml):
    assert read_flow_problem(text) is None
    if pyyaml is not None:
        data = yaml.load(text, Loader=yaml.SafeLoader)
        field = next(iter(data))
        got = data[field][0] if field == "polygon" else data[field]
        assert same(got, pyyaml)


@pytest.mark.parametrize("depth", [20, 2000])
def test_deep_flow_nesting_exits_with_one_message(tmp_path, capsys, depth):
    # the reader takes 20 levels, which validation then refuses, and
    # declines 2,000, past the recursion limit, which the loader's nesting
    # limit refuses
    path = tmp_path / "deep.yaml"
    path.write_text("polygon: " + "[" * depth + "]" * depth + "\n")
    assert (read_flow_problem(path.read_text()) is None) == (depth > 1000)
    assert main(["surface", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: polygon: expected a list of [x, y] pairs\n" if depth == 20
        else f"error: {path}: nested deeper than {MAX_NESTING} levels\n")


# generated flow-style problems, each with at most one near-miss: in
# about half of the places it can go, so that a reader which wrongly takes
# it also takes the whole text
SPACE = st.sampled_from(["", "", " ", "  "])
QUOTED = st.builds(lambda x, y: f'"{x},{y}"', st.integers(-12, 12),
                   st.integers(-12, 12))
WORD = st.sampled_from(["grid", "enumerate", "harnack", "explicit"])
GOOD = {
    "scalar": st.integers(-20, 20).map(str) | st.integers().map(str)
    | st.just("-0") | WORD | QUOTED,
    "key": WORD | QUOTED,
    "sep": st.builds(lambda a, b: f"{a},{b}", SPACE, SPACE),
    "colon": st.sampled_from([": ", ":  "]),
    "field": st.sampled_from(["polygon", "triangulation", "signs"]),
    "end": st.just("\n"),
}
NEAR_SCALARS = [
    "010", "-010", "00", "1:20", "+1", "1_0", "0x1", "0o7", "0b1", "1.5",
    "1e3", ".inf", "-", "true", "True", "yes", "no", "on", "~", "null", "a",
    "a:1", "harnack:1", "gridx", "Grid", "grid1", "polygon", "<<", "=",
    '"0\\x2c0"', '"0\\u002c0"', "'0,0'", '"0, 0"', '"a"', '""', "2020-01-01",
    "&a 1", "*a", "!!int 1", "? 1", "1 2"]
NEAR = {
    "scalar": NEAR_SCALARS,
    "key": NEAR_SCALARS + ["0", "-1"],
    "sep": [",,", ", ,", "\t,", ",\t"],
    "colon": [":", " : ", ":\t", "::"],
    "field": ["polygons", "Signs", "a:1", " polygon"],
    "end": ["\r\n", " \n", "\t\n", " # c\n", "\n\n", "\r"],
    "prefix": ["---\n", "\ufeff", "# c\n", "%YAML 1.1\n---\n", " ", "\n"],
    "insert": ["\t", "\r", "#", "\\", "&a ", "*a", "!", "? ", "- ", "'", "|",
               ">", "%", "@", "`", "\x00", " ", "\x85"],
    "duplicate": [None],
}
NEAR_MISSES = [(kind, bad) for kind, values in NEAR.items() for bad in values]


def _list(items, sep, pad):
    return "[" + pad + sep.join(items) + pad + "]"


def _mapping(pairs, sep, pad):
    return "{" + pad + sep.join(k + c + v for k, c, v in pairs) + pad + "}"


@st.composite
def flow_texts(draw, kind=None, bad=None):
    """Flow-style problem texts with near-miss ``bad`` of ``kind``."""
    one = dict(GOOD)
    if kind in GOOD:
        one[kind] = st.just(bad) | GOOD[kind]
    unique = (lambda t: t[0]) if kind != "duplicate" else None
    node = st.recursive(one["scalar"], lambda inner: st.builds(
        _list, st.lists(inner, max_size=4), one["sep"], SPACE) | st.builds(
        _mapping, st.lists(st.tuples(one["key"], one["colon"], inner),
                           max_size=4, unique_by=unique), one["sep"], SPACE),
        max_leaves=16)
    lines = draw(st.lists(st.tuples(one["field"], one["colon"], node,
                                    one["end"]), min_size=1, max_size=3,
                          unique_by=unique))
    text = "".join(f + c + v + e for f, c, v, e in lines)
    if draw(st.booleans()):
        text = text[:-len(lines[-1][3])]  # no final line end
    if kind == "prefix":
        text = bad + text
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + bad + text[at:]
    return text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(flow_texts())
def test_generated_texts_agree_with_both_loaders(text):
    assert read_as_loaders_do(text) is not None


@pytest.mark.parametrize("kind, bad", NEAR_MISSES, ids=[
    f"{kind}-{k}" for k, (kind, _) in enumerate(NEAR_MISSES)])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_reader_declines_or_agrees_with_both_loaders(kind, bad, data):
    read_as_loaders_do(data.draw(flow_texts(kind, bad)))
