"""The problem reader against PyYAML's safe loaders, its reference: on
every text it accepts, in flow or block style and with comments, it gives
the same data, with the same types and key order, as both loaders; every
other text it refuses with a ParseError naming the line."""

import json
import os
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
import yaml

from hypothesis import given, settings
from hypothesis import strategies as st

from tcurve_lab.cli import MAX_NESTING, main, problem_from_data, read_problem
from tcurve_lab.errors import InputError, ParseError

from helpers import (PYTHONPATH, primitive_triangulation, random_flips,
                     random_polygon)
from test_contract import base_problem, problem_text

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


def read_as_loaders_do(text: str) -> bool:
    """Whether the reader accepts ``text``, after checking that the data it
    then gives are every loader's."""
    try:
        data = read_problem(text)
    except ParseError:
        return False
    for loader in LOADERS:
        assert same(yaml.load(text, Loader=loader), data), \
            (loader.__name__, text)
    return True


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
        assert read_as_loaders_do(flow_problem(poly, triples, signs))


T3 = "polygon: [[0,0],[3,0],[0,3]]\n"


@pytest.mark.parametrize("text", [
    "polygon: [[0,0],[3,0],[0,3]]\nsigns: {harnack: [1,0,0]}\n",
    "polygon: [[0, 0], [2, 0], [2, 2], [0, 2]]\nsigns: enumerate",
    "polygon:  [ [0 ,0] , [1,0],[0,1] ]\ntriangulation: grid\n"
    'signs: {explicit: {"0,0": 1,  "1,0": -1, "0,1": -1}}\n',
    Path(__file__).with_name("data").joinpath("harnack_sphere.yaml")
    .read_text(),
    "polygon: []\ntriangulation: [{}]\nsigns: {}\n",
    T3 + "# T_3\n",
    "polygon: [[0,0],[3,0],[0,3]]  # T_3\n",
    (Path(__file__).parents[1] / "README.md").read_text()
    .split("```yaml\n", 1)[1].split("```", 1)[0],
    "polygon:\n  - [0, 0]\n  - [4, 0]\n  - [0, 4]\nsigns:\n  harnack: [0, 1, 1]\n",
    "polygon:\n-   - 0\n    - 0\n-   - 3\n    - 0\n-   - 0\n    - 3\n"
    "signs:\n    explicit:\n        0,0: 1\n        -1,0: -1\n",
    "\n  # a comment\n\n   \nsigns:  # a comment\n  -\n    - -  - 1  # c\n"
    "      - 2   \n    -   3\n",
], ids=["t3", "no-final-newline", "spaces", "sphere-file", "empty-nodes",
        "comment-line", "comment", "readme", "block", "block-indent-4",
        "blank-lines-spaces-and-entries"])
def test_examples_accepted(text):
    assert read_as_loaders_do(text)


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
        "duplicate-point", "true", "yes", "tilde", "tab", "tab-in-flow",
        "crlf", "bom", "document-start", "escape", "unicode-escape", "empty", "trailing-comma", "empty-element",
        "key-without-colon", "unbalanced-bracket", "int-of-4301-digits"])
def test_near_misses_declined(text, pyyaml):
    try:
        assert read_problem(text) is None  # the empty text: no mapping
    except ParseError:
        pass
    if pyyaml is not None:
        data = yaml.load(text, Loader=yaml.SafeLoader)
        field = next(iter(data))
        got = data[field][0] if field == "polygon" else data[field]
        assert same(got, pyyaml)


def deep_message(path, depth: int) -> str:
    """The one stderr line for a polygon of ``depth`` brackets: the mapping
    and 15 brackets nest 16 deep, which the reader takes and validation
    refuses; one more and the reader refuses it, whatever the caller's
    stack."""
    return ("error: polygon: expected a list of [x, y] pairs\n" if depth < MAX_NESTING
            else f"error: {path}: nested deeper than {MAX_NESTING} levels\n")


@pytest.mark.parametrize("depth", [15, 16, 17, 20, 500, 2000, 5000])
def test_deep_flow_nesting_exits_with_one_message(tmp_path, capsys, depth):
    path = tmp_path / "deep.yaml"
    path.write_text("polygon: " + "[" * depth + "]" * depth + "\n")
    assert read_as_loaders_do(path.read_text()) == (depth < MAX_NESTING)
    assert main(["surface", "--input", str(path)]) == 2
    assert capsys.readouterr().err == deep_message(path, depth)


@pytest.mark.parametrize("depth", [17, 992])
def test_deep_flow_nesting_through_the_command_line(tmp_path, depth):
    # 992 levels the reader once read from here, below the recursion limit
    path = tmp_path / "deep.yaml"
    path.write_text("polygon: " + "[" * depth + "]" * depth + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tcurve_lab.cli", "surface", "--input", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", deep_message(path, depth))


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


def flow_nodes(one: dict, unique, max_leaves: int):
    """Flow values from the parts in ``one``, mapping keys ``unique``."""
    return st.recursive(one["scalar"], lambda inner: st.builds(
        _list, st.lists(inner, max_size=4), one["sep"], SPACE) | st.builds(
        _mapping, st.lists(st.tuples(one["key"], one["colon"], inner),
                           max_size=4, unique_by=unique), one["sep"], SPACE),
        max_leaves=max_leaves)


@cache
def flow_lines(kind, bad):
    """The `field: value` lines of a flow-style text, with near-miss ``bad``
    of ``kind``; built once, since building takes longer than drawing."""
    one = dict(GOOD)
    if kind in GOOD:
        one[kind] = st.just(bad) | GOOD[kind]
    unique = (lambda t: t[0]) if kind != "duplicate" else None
    return st.lists(st.tuples(one["field"], one["colon"],
                              flow_nodes(one, unique, 16), one["end"]),
                    min_size=1, max_size=3, unique_by=unique)


@st.composite
def flow_texts(draw, kind=None, bad=None):
    """Flow-style problem texts with near-miss ``bad`` of ``kind``."""
    lines = draw(flow_lines(kind, bad))
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
    assert read_as_loaders_do(text)


@pytest.mark.parametrize("kind, bad", NEAR_MISSES, ids=[
    f"{kind}-{k}" for k, (kind, _) in enumerate(NEAR_MISSES)])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_reader_declines_or_agrees_with_both_loaders(kind, bad, data):
    read_as_loaders_do(data.draw(flow_texts(kind, bad)))


# generated block-style problems: mappings one key a line and `- ` entries,
# each value a flow node, a compact sequence (`- - 0`) or, after a line
# ending at its dash or colon, the block collection of the next lines,
# indented by any step or, under a key, a sequence at the key's column;
# each with at most one near-miss, as above
PLAIN = st.builds(lambda x, y: f"{x},{y}", st.integers(-12, 12),
                  st.integers(-12, 12))
OTHER_WORD = st.sampled_from(["a", "sign", "y", "polygons"])
BLOCK_GOOD = {
    "field": GOOD["field"] | OTHER_WORD,  # any word is read as a field
    "key": WORD | QUOTED | PLAIN | OTHER_WORD,
    "colon": st.just(":"),  # before " value" or the line's end
    "dash": st.just("-"),
    "gap": st.sampled_from([" ", " ", "  ", "   "]),  # after a dash
    "step": st.sampled_from([1, 2, 2, 4]),  # of a nested collection
    "end": st.just("\n"),
}
BLOCK_NEAR = {
    "field": ["yes", "no", "on", "off", "true", "null", "Signs", '"signs"',
              "'signs'", "~", "<<", "=", "? signs", "&a signs", "!!str signs"],
    "key": ["false", "Yes", "'a'", '"a"', "a b", "0", "-1", "010,0", "+1,0",
            "0, 0", "1.5", ".inf", "2020-01-01", "[a]", "*a", "-", '"0,0'],
    "colon": [" :", "::", ":\t", ""],
    "dash": ["--", "-\t", "\u2010", "+", "*"],
    "gap": ["", "\t"],
    "step": [0, -1, -2],
    "end": [" \n", "\t\n", "\n\n", ":\n", "\x85", "\u2028", " |\n"],
    "prefix": ["---\n", "%YAML 1.1\n---\n", "\ufeff", " ", "- ", "? "],
    "suffix": ["...\n", "---\n", "  extra\n", "- 1\n", "extra\n", "  - 1\n"],
    "insert": ["\n", " ", "  ", "#", "-", ":", ": ", "[", "{", ",", '"', "'",
               "&a ", "!", "|", ">", "\t", "\x00"],
    "duplicate": [None],
}
BLOCK_NEAR_MISSES = [(kind, bad) for kind, values in BLOCK_NEAR.items()
                     for bad in values]


BLOCK_NODE = flow_nodes(GOOD, lambda t: t[0], 6)
ENTRIES = st.integers(1, 3)
# a value: a flow node, the block collection of the next lines or, after a
# dash, a compact sequence
HOW = {False: st.sampled_from(["flow", "block"]),
       True: st.sampled_from(["flow", "block", "compact"])}


@cache
def block_parts(kind, bad) -> dict:
    """The parts of block_texts(kind, bad), built once."""
    one = dict(BLOCK_GOOD)
    if kind in BLOCK_GOOD:
        one[kind] = st.just(bad) | BLOCK_GOOD[kind]
    if kind == "key":  # at the top level too, where most keys are
        one["field"] = one["key"]
    unique = (lambda key: key.strip('"')) if kind != "duplicate" else None
    for name in ("field", "key"):
        one[name + "s"] = st.lists(one[name], min_size=1, max_size=3,
                                   unique_by=unique)
    return one


def _block(draw, one: dict, col: int, depth: int, seq: bool,
           lead: str = "") -> str:
    """A block sequence, or mapping, at column ``col``: keys are fields at
    depth 0; the first line starts with ``lead`` (the outer dash of a
    compact sequence) when there is one."""
    if seq:
        heads = [draw(one["dash"]) for _ in range(draw(ENTRIES))]
    else:
        heads = [key + draw(one["colon"])
                 for key in draw(one["keys" if depth else "fields"])]
    text = ""
    for k, head in enumerate(heads):
        line = (lead if k == 0 and lead else " " * col) + head
        how = draw(HOW[seq]) if depth < 4 else "flow"
        if how == "flow":
            text += line + " " + draw(BLOCK_NODE) + draw(one["end"])
        elif how == "compact":
            gap = draw(one["gap"])
            text += _block(draw, one, len(line + gap), depth + 1, True,
                           line + gap)
        else:
            inner = draw(st.booleans())
            step = 0 if inner and not seq and draw(st.booleans()) \
                else draw(one["step"])
            text += line + draw(one["end"]) + _block(
                draw, one, max(0, col + step), depth + 1, inner)
    return text


@st.composite
def block_texts(draw, kind=None, bad=None):
    """Block-style problem texts with near-miss ``bad`` of ``kind``."""
    text = _block(draw, block_parts(kind, bad),
                  draw(st.sampled_from([0, 0, 0, 2])), 0, False)
    if draw(st.booleans()):
        text = text[:-1]  # no final line end
    if kind in ("prefix", "suffix"):
        text = bad + text if kind == "prefix" else text + bad
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + bad + text[at:]
    return text


# comments: printable text after `#`, which starts a line or follows a space
COMMENT = st.text(st.sampled_from(list('ab #:-[]{},"\'&*!|>%@`\u00e9\u2014')),
                  max_size=6)
COMMENT_NEAR = ["\t", "\x85", "\u2028", "\u2029", "\x00", "\x0b", "\x1c",
                "\ufeff", "\r"]


@st.composite
def commented_texts(draw, bad=None):
    """Flow- or block-style texts with full-line and trailing comments and
    blank lines; near-miss ``bad`` right after one ``#``, or at the end of
    a text without any."""
    out = []
    for line in draw(flow_texts() | block_texts()).split("\n"):
        if draw(st.booleans()):  # a comment line or a blank one
            out.append(" " * draw(st.integers(0, 4)) + draw(
                st.just("") | COMMENT.map(lambda c: "#" + c)))
        if line.strip() and draw(st.booleans()):
            line += draw(st.sampled_from([" ", "  "])) + "#" + draw(COMMENT)
        out.append(line)
    text = "\n".join(out)
    if bad is not None:
        cuts = [k + 1 for k, c in enumerate(text) if c == "#"] or [len(text)]
        at = draw(st.sampled_from(cuts))
        text = text[:at] + bad + text[at:]
    return text


@settings(max_examples=75, deadline=None, derandomize=True)
@given(block_texts())
def test_generated_block_texts_agree_with_both_loaders(text):
    assert read_as_loaders_do(text)


@settings(max_examples=75, deadline=None, derandomize=True)
@given(commented_texts())
def test_generated_commented_texts_agree_with_both_loaders(text):
    assert read_as_loaders_do(text)


@pytest.mark.parametrize("kind, bad", BLOCK_NEAR_MISSES, ids=[
    f"{kind}-{k}" for k, (kind, _) in enumerate(BLOCK_NEAR_MISSES)])
@settings(max_examples=2, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_reader_declines_or_agrees_with_both_loaders(kind, bad, data):
    read_as_loaders_do(data.draw(block_texts(kind, bad)))


@pytest.mark.parametrize("bad", COMMENT_NEAR)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_comment_reader_declines_or_agrees_with_both_loaders(bad, data):
    read_as_loaders_do(data.draw(commented_texts(bad)))


def gives_a_problem(text: str) -> bool:
    """Whether PyYAML reads ``text`` as a valid problem."""
    try:
        data = yaml.load(text, Loader=yaml.SafeLoader)
        return isinstance(data, dict) and bool(problem_from_data(data))
    except (yaml.YAMLError, ValueError, InputError):
        return False


def test_dumps_and_contract_texts_agree_with_both_loaders():
    # 300 block dumps of valid problems, at indent 2 and 4, and the
    # contract's texts: flow or block style, valid or damaged
    rng = random.Random(36)
    dumps = [yaml.safe_dump(base_problem(rng), default_flow_style=False,
                            indent=indent)
             for _ in range(150) for indent in (2, 4)]
    for text in dumps:
        assert read_as_loaders_do(text), text
    for seed in range(200):
        text = problem_text(random.Random(seed))
        assert read_as_loaders_do(text) or not gives_a_problem(text), text
