import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tcurve_lab.cli import (MAX_NESTING, Problem, main, nesting_depth,
                            one_line, parse_problem, problem_from_data,
                            yaml_loader)
from tcurve_lab.errors import (CapExceeded, InputError, ParseError, TooLarge,
                               ValidationError)

from helpers import PYTHONPATH, random_polygon, run_python


def write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


T3_HARNACK = """\
polygon: [[0,0],[3,0],[0,3]]
signs: {harnack: [1,0,0]}
"""
T40_HARNACK = "polygon: [[0,0],[40,0],[0,40]]\nsigns: {harnack: [1,0,0]}\n"


def test_parse_harnack(tmp_path):
    prob = parse_problem(write(tmp_path, "t3.yaml", T3_HARNACK))
    assert prob.signs == ("harnack", (1, 0, 0))
    assert prob.triangulation == "grid"


def test_parse_roundtrip(tmp_path):
    import yaml
    prob = parse_problem(write(tmp_path, "t3.yaml", T3_HARNACK))
    again = problem_from_data(yaml.safe_load(yaml.safe_dump(prob.data())))
    assert again.data() == prob.data()


def test_parse_explicit_missing_sign():
    with pytest.raises(ValidationError) as err:
        problem_from_data({
            "polygon": [[0, 0], [1, 0], [0, 1]],
            "signs": {"explicit": {"0,0": 1, "1,0": -1}},
        })
    assert "(0, 1)" in str(err.value)


def test_parse_triangulation_index_error():
    prob = problem_from_data({
        "polygon": [[0, 0], [1, 0], [0, 1]],
        "triangulation": [[0, 1, 99]],
        "signs": {"harnack": [1, 0, 0]},
    })
    with pytest.raises(ValidationError) as err:
        prob.build_triangulation()
    assert "triangulation[0]" in str(err.value)


def test_parse_syntax_error(tmp_path):
    with pytest.raises(ParseError):
        parse_problem(write(tmp_path, "bad.yaml", "polygon: [[0,0"))


def test_explicit_triangulation_by_indices():
    # indices refer to the lexicographically sorted lattice points
    prob = problem_from_data({
        "polygon": [[0, 0], [1, 0], [0, 1]],
        "triangulation": [[0, 1, 2]],
        "signs": {"harnack": [1, 0, 0]},
    })
    tri = prob.build_triangulation()
    assert tri.T == 1


# ---------------------------------------------------------------------------
# subcommands through main()

def run_main(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_filling_subcommand(tmp_path, capsys):
    path = write(tmp_path, "t3.yaml", T3_HARNACK)
    code, out = run_main(capsys, ["filling", "--input", path])
    assert code == 0
    rep = json.loads(out)
    f = rep["filling"]
    assert (f["chi_filling"], f["boundary_components"], f["chi_capped"]) == (0, 2, 2)
    assert f["curve_type"] == "I" and f["harnack"]["maximal"]


def test_surface_subcommand(tmp_path, capsys):
    path = write(tmp_path, "sq.yaml",
                 "polygon: [[0,0],[2,0],[2,2],[0,2]]\nsigns: enumerate\n")
    code, out = run_main(capsys, ["surface", "--input", path])
    assert code == 0
    assert json.loads(out)["surface"]["topology"]["name"] == "torus"


def test_enumerate_subcommand(tmp_path, capsys):
    path = write(tmp_path, "t2.yaml",
                 "polygon: [[0,0],[2,0],[0,2]]\nsigns: enumerate\n")
    code, out = run_main(capsys, ["enumerate", "--input", path])
    assert code == 0
    rep = json.loads(out)["enumerate"]
    assert rep["runs"] == 64
    assert rep["max_components"] == 1
    assert rep["bound_violations"] == 0


@pytest.mark.parametrize("d, dist, by_type, maximal", [
    (2, {"1": 64}, {"I": {"1": 64}}, 64),
    (3, {"1": 512, "2": 512}, {"I": {"2": 512}, "II": {"1": 512}}, 512)])
def test_enumerate_type_split(tmp_path, capsys, d, dist, by_type, maximal):
    path = write(tmp_path, "t.yaml",
                 f"polygon: [[0,0],[{d},0],[0,{d}]]\nsigns: enumerate\n")
    code, out = run_main(capsys, ["enumerate", "--input", path])
    assert code == 0
    rep = json.loads(out)["enumerate"]
    assert rep["distribution"] == dist
    assert rep["distribution_by_type"] == by_type
    assert rep["maximal_vectors"] == maximal


def test_enumerate_cap(tmp_path, capsys):
    path = write(tmp_path, "t5.yaml",
                 "polygon: [[0,0],[5,0],[0,5]]\nsigns: enumerate\n")
    code, _ = run_main(capsys, ["enumerate", "--input", path])
    assert code == 2  # 21 lattice points exceed the default cap


# T_139 (9870 lattice points) under a cap far above MAX_SWEEP_POINTS:
# refused before the sweep tables are compiled
T139_LIMIT_ERROR = ("error: 9870 lattice points exceed the enumerate limit "
                    "64, whatever --cap says\n")


def refuse_to_compile(*args):
    raise RuntimeError("compile_sweep called")


def test_enumerate_limit_holds_whatever_the_cap(tmp_path, capsys, monkeypatch):
    import tcurve_lab.cli as cli
    path = write(tmp_path, "t139.yaml",
                 "polygon: [[0,0],[139,0],[0,139]]\nsigns: enumerate\n")
    monkeypatch.setattr(cli, "compile_sweep", refuse_to_compile)
    # no cap admits more than MAX_SWEEP_POINTS, so even a cap within it
    # names the limit, not the cap
    for cap in ("16", "64", "100000"):
        argv = ["enumerate", "--cap", cap, "--input", path]
        assert main(argv) == 2
        assert capsys.readouterr().err == T139_LIMIT_ERROR
    code = ("import sys\n"
            "import tcurve_lab.cli as cli\n"
            "from test_cli import refuse_to_compile\n"
            "cli.compile_sweep = refuse_to_compile\n"
            f"sys.exit(cli.main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", T139_LIMIT_ERROR)


def test_harnack_subcommand_with_type_flag(tmp_path, capsys):
    path = write(tmp_path, "t4.yaml",
                 "polygon: [[0,0],[4,0],[0,4]]\nsigns: enumerate\n")
    code, out = run_main(capsys, ["harnack", "--input", path, "--type", "0,1,1"])
    assert code == 0
    assert json.loads(out)["harnack_census"]["match"]


def test_harnack_census_on_the_sphere(capsys):
    # both sides of the non-oval component are disks on the sphere; the
    # census holds because one of them carries the predicted ovals
    path = str(Path(__file__).parent / "data" / "harnack_sphere.yaml")
    code, out = run_main(capsys, ["harnack", "--input", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["surface"]["topology"]["name"] == "sphere"
    assert rep["curve"]["component_count"] == 2
    assert rep["harnack_census"]["match"]


def test_render_deterministic(tmp_path):
    path = write(tmp_path, "t3.yaml", T3_HARNACK)
    out1, out2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    assert main(["render", "--input", path, "--out", out1]) == 0
    assert main(["render", "--input", path, "--out", out2]) == 0
    a, b = open(out1, "rb").read(), open(out2, "rb").read()
    assert a == b
    assert a.startswith(b"<?xml")


def test_render_draws_one_group_per_component(tmp_path):
    path = write(tmp_path, "t5.yaml",
                 "polygon: [[0,0],[5,0],[0,5]]\nsigns: {harnack: [1,0,0]}\n")
    out = str(tmp_path / "t5.svg")
    assert main(["render", "--input", path, "--out", out]) == 0
    svg = open(out).read()
    assert svg.count('stroke-width="4"') == 7  # matches the census


def test_exit_code_input_error(tmp_path, capsys):
    path = write(tmp_path, "bad.yaml", "polygon: [[0,0],[1,1],[2,2]]\n")
    code, _ = run_main(capsys, ["surface", "--input", path])
    assert code == 2


def test_exit_code_unwritable_output(tmp_path, capsys):
    path = write(tmp_path, "t2.yaml", "polygon: [[0,0],[2,0],[0,2]]\n"
                 "signs: {harnack: [1,0,0]}\n")
    out = str(tmp_path / "missing" / "x.json")
    assert main(["curve", "--input", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_exit_code_invariant_violation(tmp_path, capsys, monkeypatch):
    """A census that differs from its prediction exits 1 with one line and
    writes no report, also under -O."""
    import tcurve_lab.cli as cli
    monkeypatch.setattr(cli, "verify_harnack_census", lambda *a: False)
    path = write(tmp_path, "t4.yaml", "polygon: [[0,0],[4,0],[0,4]]\n"
                 "signs: {harnack: [1,0,0]}\n")
    out = str(tmp_path / "t4.json")
    message = "invariant violation: extracted census differs from prediction"
    assert main(["harnack", "--input", path, "--out", out]) == 1
    assert capsys.readouterr() == ("", message + "\n")
    assert not os.path.exists(out)
    code = ("import contextlib, io, os\n"
            "import tcurve_lab.cli as cli\n"
            "cli.verify_harnack_census = lambda *a: False\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = cli.main(['harnack', '--input', {path!r}, '--out', {out!r}])\n"
            f"print(repr((code, err.getvalue(), os.path.exists({out!r}))))\n")
    assert run_python(code, "-O").strip() == repr((1, message + "\n", False))


def test_enumerate_counts_its_runs(tmp_path, capsys, monkeypatch):
    """A sweep that counts each run for its mask but not the complement
    leaves half the 2^V vectors untallied: exit 1 with one line, also
    under -O."""
    import tcurve_lab.cli as cli
    from tcurve_lab.sweep import run_sweep

    def half(tab):
        return {key: vectors // 2 for key, vectors in run_sweep(tab).items()}

    monkeypatch.setattr(cli, "run_sweep", half)
    path = write(tmp_path, "t3.yaml",
                 "polygon: [[0,0],[3,0],[0,3]]\nsigns: enumerate\n")
    assert main(["enumerate", "--input", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "invariant violation: 512 sign vectors swept, not 2^10"]
    code = ("import contextlib, io\n"
            "import tcurve_lab.cli as cli\n"
            "run_sweep = cli.run_sweep\n"
            "cli.run_sweep = lambda tab: {key: vectors // 2 for key, vectors\n"
            "                             in run_sweep(tab).items()}\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = cli.main(['enumerate', '--input', {path!r}])\n"
            "print(code, len(err.getvalue().splitlines()))\n")
    assert run_python(code, "-O").split() == ["1", "1"]


def test_reports_deterministic_up_to_timing(tmp_path, capsys):
    path = write(tmp_path, "t3.yaml", T3_HARNACK)
    _, out1 = run_main(capsys, ["curve", "--input", path])
    _, out2 = run_main(capsys, ["curve", "--input", path])
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2


# ---------------------------------------------------------------------------
# YAML loading

PROBLEMS = [
    T3_HARNACK,
    "polygon: [[0,0],[2,0],[2,2],[0,2]]\nsigns: enumerate\n",
    "polygon: [[0, 0], [1, 0], [0, 1]]\ntriangulation: [[0, 1, 2]]\n"
    'signs: {explicit: {"0,0": 1, "1,0": -1, "0,1": -1}}\n',
    "polygon:\n  - [0, 0]\n  - [4, 0]\n  - [0, 4]\nsigns:\n  harnack: [0, 1, 1]\n",
]


def test_libyaml_and_python_loaders_agree(tmp_path):
    import yaml
    for text in PROBLEMS:
        data = yaml.load(text, Loader=yaml.SafeLoader)
        if yaml.__with_libyaml__:
            assert yaml.load(text, Loader=yaml.CSafeLoader) == data
        assert problem_from_data(data).data() == \
            problem_from_data(yaml.load(text, Loader=yaml_loader())).data() == \
            parse_problem(write(tmp_path, "p.yaml", text)).data()


def test_syntax_error_with_either_loader(tmp_path, monkeypatch):
    import yaml
    import tcurve_lab.cli as cli
    path = write(tmp_path, "bad.yaml", "polygon: [[0,0")
    for loader in (yaml.SafeLoader, yaml_loader()):
        monkeypatch.setattr(cli, "yaml_loader", lambda: loader)
        with pytest.raises(ParseError) as err:
            parse_problem(path)
        assert "\n" not in str(err.value)


def test_flow_style_runs_without_yaml(tmp_path):
    # PROBLEMS[3] in block style and its flow twin
    flow = write(tmp_path, "flow.yaml", "polygon: [[0, 0], [4, 0], [0, 4]]\n"
                 "signs: {harnack: [0, 1, 1]}\n")
    block = write(tmp_path, "block.yaml", PROBLEMS[3])
    out = str(tmp_path / "out.json")
    code = ("import sys\n"
            "from tcurve_lab.cli import main, parse_problem\n"
            f"print(main(['filling', '--input', {flow!r}, '--out', {out!r}]))\n"
            "print('yaml' in sys.modules)\n"
            f"flow = parse_problem({flow!r}).data()\n"
            "print('yaml' in sys.modules)\n"
            f"print(parse_problem({block!r}).data() == flow)\n"
            "print('yaml' in sys.modules)\n")
    assert run_python(code).split() == ["0", "False", "False", "True", "True"]
    assert json.loads(Path(out).read_text())["filling"]["boundary_components"] > 0


def test_file_over_the_size_limit_refused_before_reading(tmp_path, capsys):
    from tcurve_lab.cli import MAX_FILE_BYTES
    # sparse: the size is known without a byte written or read
    sparse = tmp_path / "sparse.yaml"
    with open(sparse, "wb") as fh:
        fh.truncate(MAX_FILE_BYTES + 1)
    # a flow polygon of 300,000 vertices, refused before the vertex count
    many = write(tmp_path, "many.yaml", "polygon: [" + ",".join(
        f"[{k},{k % 2}]" for k in range(300_000)) + "]\n")
    assert os.path.getsize(many) > MAX_FILE_BYTES
    for path in (str(sparse), many):
        assert main(["surface", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: larger than the size limit of "
                       f"{MAX_FILE_BYTES} bytes\n")


def test_problem_file_read_with_a_buffer_sized_to_it(tmp_path):
    # a text read of n characters asks for an n-byte buffer first: the
    # bounded read once cost 2.56 MB for this 57-byte file
    import tracemalloc
    path = write(tmp_path, "t40.yaml", T40_HARNACK)
    tracemalloc.start()
    try:
        parse_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_file_grown_since_fstat_read_whole_or_refused(tmp_path, capsys,
                                                      monkeypatch):
    import types
    import tcurve_lab.cli as cli
    from tcurve_lab.cli import MAX_FILE_BYTES
    # fstat saw 10 bytes; the file has grown since
    monkeypatch.setattr(cli, "os", types.SimpleNamespace(
        fstat=lambda fd: types.SimpleNamespace(st_size=10)))
    t3 = write(tmp_path, "t3.yaml", T3_HARNACK)
    assert parse_problem(t3).data() == problem_from_data(
        {"polygon": [[0, 0], [3, 0], [0, 3]],
         "signs": {"harnack": [1, 0, 0]}}).data()
    big = write(tmp_path, "big.yaml", T3_HARNACK + "#" * MAX_FILE_BYTES + "\n")
    assert main(["surface", "--input", big]) == 2
    assert capsys.readouterr().err == (f"error: {big}: larger than the size "
                                       f"limit of {MAX_FILE_BYTES} bytes\n")


def test_problem_file_read_from_a_pipe_under_python_O():
    # st_size reads 0 for a pipe: the read is bounded by the size limit
    from tcurve_lab.cli import MAX_FILE_BYTES
    argv = [sys.executable, "-O", "-m", "tcurve_lab.cli", "surface",
            "--input", "/dev/stdin"]
    env = {**os.environ, "PYTHONPATH": PYTHONPATH}
    proc = subprocess.run(argv, input=T3_HARNACK, capture_output=True,
                          text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["problem"]["polygon"] == [[0, 0], [3, 0], [0, 3]]
    proc = subprocess.run(argv, input=T3_HARNACK + "#" * MAX_FILE_BYTES + "\n",
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: /dev/stdin: larger than the size limit of "
               f"{MAX_FILE_BYTES} bytes\n")


# nested 50,000 deep: libyaml's loader used to overflow the C stack
# (SIGSEGV, exit 139), and PyYAML's own loader to end in a RecursionError
# traceback from 5,000 levels on
DEEP = {
    "brackets": "polygon: " + "[" * 50_000 + "]" * 50_000 + "\n",
    "mappings": "polygon: " + "{a: " * 50_000 + "1" + "}" * 50_000 + "\n",
    "entries": "polygon:\n" + "- " * 50_000 + "1\n",
    "indentation": "".join(" " * k + "a:\n" for k in range(2_000)),
    # NEL, LS and PS break YAML lines: the comment ends at them
    **{f"brackets after {name}": f"#{br}polygon: " + "[" * 50_000 + "]" * 50_000
       for name, br in (("NEL", "\x85"), ("LS", "\u2028"), ("PS", "\u2029"))},
    "entries after NEL": "polygon:\x85" + "- " * 50_000 + "1\n",
}


@pytest.mark.parametrize("loader", ["SafeLoader", "yaml_loader()"])
@pytest.mark.parametrize("kind", DEEP)
def test_deep_nesting_refused_with_one_line(tmp_path, kind, loader):
    # in a fresh interpreter under python -O, which a crash cannot take down
    path = write(tmp_path, "deep.yaml", DEEP[kind])
    code = ("import sys, yaml\n"
            "import tcurve_lab.cli as cli\n"
            "loader = yaml.SafeLoader if sys.argv[2] == 'SafeLoader' "
            "else cli.yaml_loader()\n"
            "cli.yaml_loader = lambda: loader\n"
            "sys.exit(cli.main(['surface', '--input', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, path, loader],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", f"error: {path}: nested deeper than {MAX_NESTING} levels\n")


def test_valid_problems_nest_shallow(tmp_path):
    import yaml
    for text in PROBLEMS:
        block = yaml.safe_dump(yaml.safe_load(text), default_flow_style=False)
        for t in (text, block):
            assert nesting_depth(t) <= 3
            assert parse_problem(write(tmp_path, "p.yaml", t)).data() == \
                parse_problem(write(tmp_path, "q.yaml", text)).data()
    # each `- key:` opens a sequence and a mapping
    assert nesting_depth("- a:\n  - b:\n    - c: [1]\n") == 7
    # as deep as allowed: PyYAML reads it, and validation refuses it
    path = write(tmp_path, "p.yaml", "polygon: " + "[" * 15 + "]" * 15 + "\n")
    with pytest.raises(ValidationError, match="polygon: expected a list"):
        parse_problem(path)


# ---------------------------------------------------------------------------
# strict input: each defect exits 2 with one line on stderr

def exit_and_stderr(tmp_path, capsys, text, subcommand="curve"):
    path = write(tmp_path, "p.yaml", text)
    code = main([subcommand, "--input", path])
    return code, capsys.readouterr().err


# a point key that int() reads but the flow reader's grammar refuses used
# to pass: "+1,0" and " 0,1" as (1, 0) and (0, 1), "1_0,0" as (10, 0) and
# an Arabic-Indic one as (1, 0).  Each respells one key of a complete
# mapping, written in flow and in block style.
RESPELLED_KEYS = {"plus": ("+1,0", "1,0"), "space": (" 0,1", "0,1"),
                  "underscore": ("1_0,0", "1,0"),
                  "arabic-indic": ("\u0661,0", "1,0")}


def respelled_problem(key, respells, block):
    """T_1 with a sign on every lattice point, ``key`` in place of the key
    ``respells``, in flow or in block style."""
    items = [f"{json.dumps(k)}: 1" for k in [key] + [
        k for k in ("0,0", "1,0", "0,1") if k != respells]]
    if block:
        signs = "signs:\n  explicit:\n" + "".join(f"    {i}\n" for i in items)
    else:
        signs = "signs: {explicit: {" + ", ".join(items) + "}}\n"
    return "polygon: [[0,0],[1,0],[0,1]]\n" + signs


@pytest.mark.parametrize("text, words", [
    # a negative index used to wrap around to the last lattice point
    ("polygon: [[0,0],[1,0],[0,1]]\ntriangulation: [[1,2,-3]]\n"
     "signs: {harnack: [1,0,0]}\n", "index -3 out of range"),
    # a string coordinate used to escape as a ValueError traceback
    ('polygon: [[0,0],[3,0],["a",3]]\nsigns: {harnack: [1,0,0]}\n', "'a'"),
    # a float coordinate used to be truncated
    ("polygon: [[0,0],[2.7,0],[0,3]]\nsigns: {harnack: [1,0,0]}\n", "2.7"),
    # a boolean coordinate used to be read as 1
    ("polygon: [[0,0],[true,0],[0,1]]\nsigns: {harnack: [1,0,0]}\n", "True"),
    # boolean and float sign fields used to pass, or to end in a TypeError
    ('polygon: [[0,0],[1,0],[0,1]]\nsigns: {explicit: {"0,0": true, '
     '"1,0": -1, "0,1": 1}}\n', "sign must be 1 or -1"),
    ("polygon: [[0,0],[3,0],[0,3]]\nsigns: {harnack: [true, 0.0, 0]}\n",
     "expected [c, a, b] with bits"),
    # a YAML null used to pass the integer check and end in a TypeError
    ("polygon: [[0,0],[2,0],[0,~]]\nsigns: {harnack: [1,0,0]}\n",
     "polygon[2]: expected integers, got None"),
    ("polygon: [[0,0],[1,0],[0,1]]\ntriangulation: [[0,1,null]]\n"
     "signs: {harnack: [1,0,0]}\n",
     "triangulation[0]: expected integers, got None"),
    # a byte that is not UTF-8 used to end in a UnicodeDecodeError traceback
    (b"polygon: [[0,0],[1,0],[0,1]]\n# \xff\n", "can't decode byte 0xff"),
    # two spellings of one point used to pass, the later sign silently winning
    ('polygon: [[0,0],[2,0],[0,2]]\nsigns: {explicit: {"0,0": 1, "00,0": -1, '
     '"1,0": 1, "2,0": 1, "0,1": 1, "1,1": 1, "0,2": 1}}\n',
     "signs.explicit: point (0, 0) given twice"),
    # a misspelled field used to be ignored: the grid triangulation ran
    ("polygon: [[0,0],[1,0],[0,1]]\ntriangulations: [[0,1,2]]\n"
     "signs: {harnack: [1,0,0]}\n", "unknown field: 'triangulations'"),
    # ... or to be read as a missing one, with a misleading message
    ("polygon: [[0,0],[1,0],[0,1]]\nsign: {harnack: [1,0,0]}\n",
     "unknown field: 'sign'"),
    # both kinds of signs used to pass, harnack silently winning
    ('polygon: [[0,0],[1,0],[0,1]]\nsigns: {harnack: [1,0,0], explicit: '
     '{"0,0": 1, "1,0": -1, "0,1": 1}}\n',
     "signs: expected exactly one of harnack or explicit"),
    # an int longer than int() converts, or a date that does not exist,
    # used to end in a ValueError traceback from PyYAML's constructor
    ("polygon: [[0,0],[1,0],[0," + "1" * 5000 + "]]\n", "Exceeds the limit"),
    ("polygon: 2020-13-01\n", "month must be in 1..12"),
    # a key of more digits than int() converts (in flow style: YAML's
    # block keys end at 1024 characters)
    (respelled_problem("1" * 5000 + ",0", None, False),
     "signs.explicit: bad point key '111"),
] + [(respelled_problem(key, respells, block),
      f"signs.explicit: bad point key {key!r}\n")
     for key, respells in RESPELLED_KEYS.values() for block in (False, True)],
    ids=["negative-index", "string", "float", "bool", "bool-sign",
         "bool-harnack-bit", "null-coordinate", "null-index", "non-utf8",
         "duplicate-point", "misspelled-field", "misspelled-signs",
         "two-kinds-of-signs", "long-int", "bad-date", "long-key"]
    + [f"{name}-key-{style}" for name in RESPELLED_KEYS
       for style in ("flow", "block")])
def test_strict_input(tmp_path, capsys, text, words):
    code, err = exit_and_stderr(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err


# any data in the three fields yields a Problem or an InputError

SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
           | st.floats(-3, 12) | st.text(max_size=4))
ANY = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4) | st.integers(-3, 12),
                                     inner, max_size=3), max_leaves=12)


def rows(width, good):
    return st.lists(st.lists(good | SCALARS, min_size=width, max_size=width),
                     min_size=1, max_size=5)


POLYGON = ANY | rows(2, st.integers(0, 6))
TRIANGULATION = st.just("grid") | ANY | rows(3, st.integers(0, 9))
POINT_KEY = st.builds(lambda x, y: f"{x},{y}", st.integers(-1, 6),
                      st.integers(-1, 6))
SIGNS = (st.just("enumerate") | ANY
         | st.fixed_dictionaries({"harnack": ANY | st.lists(
             st.integers(0, 1) | SCALARS, min_size=3, max_size=3)})
         | st.fixed_dictionaries({"explicit": ANY | st.dictionaries(
             POINT_KEY | st.text(max_size=4),
             st.sampled_from([1, -1]) | SCALARS, max_size=30)}))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({}, optional={"polygon": POLYGON,
                                           "triangulation": TRIANGULATION,
                                           "signs": SIGNS}))
def test_problem_from_data_fuzz(raw):
    try:
        problem = problem_from_data(raw)
    except InputError:
        return
    assert isinstance(problem, Problem)
    for step in (problem.build_triangulation, problem.distribution):
        try:
            step()
        except InputError:
            pass


# one key "x,y" respelled: in the digits of another script, which int()
# reads as ASCII ones, with an underscore, a plus sign or a space, which
# int() reads too, or with a full-width comma
DIGITS = ["\u0660", "\u06f0", "\u0966", "\uff10", "\U0001d7ce"]  # zeros
RESPELLINGS = [
    lambda x, y, zero: f"{x},{y}".translate(
        {ord("0") + d: ord(zero) + d for d in range(10)}),
    lambda x, y, zero: f"0_{x},{y}",
    lambda x, y, zero: f"{x},+{y}",
    lambda x, y, zero: f" {x},{y}",
    lambda x, y, zero: f"{x}, {y}",
    lambda x, y, zero: f"{x}\uff0c{y}",
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.sampled_from(RESPELLINGS),
       st.sampled_from(DIGITS))
def test_respelled_point_keys_refused(seed, respell, zero):
    rng = random.Random(seed)
    poly = random_polygon(rng, box=3)
    signs = {f"{x},{y}": rng.choice((1, -1)) for x, y in poly.lattice_points}
    data = {"polygon": [list(v) for v in poly.vertices],
            "signs": {"explicit": signs}}
    problem_from_data(data)  # complete as written
    x, y = rng.choice(poly.lattice_points)
    key = respell(x, y, zero)
    signs[key] = signs.pop(f"{x},{y}")
    with pytest.raises(ValidationError) as refused:
        problem_from_data(data)
    assert str(refused.value) == f"signs.explicit: bad point key {key!r}"


def test_strict_triangulation_indices():
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValidationError):
            problem_from_data({"polygon": [[0, 0], [1, 0], [0, 1]],
                               "triangulation": [[0, bad, 2]]})


# ---------------------------------------------------------------------------
# the enumerate cap is checked first

HUGE = 10 ** 20


def triangle(side):
    return [[0, 0], [side, 0], [0, side]]


# (subcommand, polygon, error, start of the message): the cap and the
# enumerate limit, then the size limit, all counted from the vertices alone
THIN = [[0, 0], [10 ** 9, 1], [1, 0]]  # 3 lattice points in a huge box
REFUSED = [
    ("enumerate", triangle(5), CapExceeded,
     "21 lattice points exceed the cap 16; raise it with --cap"),
    ("enumerate", triangle(300), TooLarge,
     "45451 lattice points exceed the enumerate limit 64"),
    ("enumerate", triangle(HUGE), TooLarge,
     f"{(HUGE + 1) * (HUGE + 2) // 2} lattice points exceed the enumerate "
     "limit 64"),
    ("surface", triangle(HUGE), TooLarge,
     f"{3 * HUGE} boundary lattice points exceed the size limit 10000"),
    ("curve", triangle(200_000), TooLarge, "600000 boundary lattice points exceed"),
    # three primitive edges around a large area
    ("harnack", [[0, 0], [200, 1], [1, 201]], TooLarge,
     "20102 lattice points exceed the size limit 10000"),
    ("curve", THIN, TooLarge, "a bounding box of 2000000002 lattice points "
                              "exceeds the size limit 20000"),
    ("enumerate", THIN, TooLarge, "a bounding box of 2000000002 lattice "
                                  "points exceeds the size limit 20000"),
]


def test_enumerate_cap_before_any_work(monkeypatch):
    import tcurve_lab.cli as cli
    called = []
    monkeypatch.setattr(cli.Problem, "build_triangulation",
                        lambda self: called.append(self))
    for name, polygon, error, words in REFUSED:
        prob = problem_from_data({"polygon": polygon,
                                  "signs": {"harnack": [1, 0, 0]}})
        with pytest.raises(error) as err:
            cli.run_subcommand(name, prob)
        assert str(err.value).startswith(words)
        assert called == []
        assert "lattice_points" not in vars(prob.polygon)
        assert "broken_edges" not in vars(prob.polygon)


NO_TYPE_ERROR = "error: harnack subcommand needs a type (signs.harnack or --type)\n"
ENUMERATE_ERROR = ("error: signs: enumerate is only valid for the enumerate "
                   "subcommand (or pass --type)\n")


def test_missing_type_refused_before_any_set_up(tmp_path, capsys, monkeypatch):
    """``harnack`` on explicit signs without --type, and the curve
    subcommands on ``signs: enumerate``, exit 2 with one line before the
    triangulation is built."""
    import tcurve_lab.cli as cli
    called = []
    monkeypatch.setattr(cli.Problem, "build_triangulation",
                        lambda self: called.append(self))
    explicit = write(tmp_path, "t1.yaml", "polygon: [[0,0],[1,0],[0,1]]\n"
                     'signs: {explicit: {"0,0": 1, "1,0": -1, "0,1": 1}}\n')
    swept = write(tmp_path, "t3.yaml", "polygon: [[0,0],[3,0],[0,3]]\n"
                  "signs: enumerate\n")
    cases = [("harnack", explicit, NO_TYPE_ERROR)] + [
        (name, swept, ENUMERATE_ERROR)
        for name in ("curve", "filling", "harnack", "render")]
    for name, path, error in cases:
        assert main([name, "--input", path]) == 2
        assert capsys.readouterr().err == error
    assert called == []


def test_long_vertex_list_refused_before_validation(monkeypatch):
    # a comb: its zigzag top has more than MAX_POINTS vertices, each a
    # boundary lattice point; the simplicity test is quadratic in them
    import tcurve_lab.cli as cli

    def validate_polygon(vertices):
        raise AssertionError("the vertex list should be refused first")

    monkeypatch.setattr(cli, "validate_polygon", validate_polygon)
    n = cli.MAX_POINTS // 2 + 1
    comb = [[0, 0], [2 * n, 0]] + [[x, 2 - x % 2] for x in range(2 * n, -1, -1)]
    with pytest.raises(TooLarge, match=f"^{2 * n + 3} vertices exceed the "
                                       "size limit 10000$"):
        problem_from_data({"polygon": comb})


def test_size_limit_admits_t139():
    from tcurve_lab.cli import MAX_POINTS, check_size
    from tcurve_lab.errors import TooLarge
    t139, t140 = (problem_from_data({"polygon": triangle(d)}).polygon
                  for d in (139, 140))
    check_size(t139)
    assert t139.point_count == 9870 <= MAX_POINTS < t140.point_count
    with pytest.raises(TooLarge):
        check_size(t140)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every `tcurve-lab` process pays for what importing the CLI loads;
    # `dataclasses` alone would pull in `inspect`, `ast`, `dis` and
    # `tokenize`
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import tcurve_lab.cli\n"
            "new = set(sys.modules) - before\n"
            "print(sorted({'dataclasses', 'inspect'} & new))\n")
    assert run_python(code).strip() == "[]"


def torus_problem():
    """Harnack signs on a seeded random polygon whose surface is a torus,
    with an index triangulation."""
    import random
    from helpers import primitive_triangulation, random_polygon
    from tcurve_lab.surface import build_ambient_surface
    poly = random_polygon(random.Random(23), box=6)
    assert build_ambient_surface(poly).classify_topology().name == "torus"
    index = {p: k for k, p in enumerate(sorted(poly.lattice_points))}
    triples = [sorted(index[p] for p in t)
               for t in primitive_triangulation(poly).triangles]
    return problem_from_data({"polygon": [list(v) for v in poly.vertices],
                              "triangulation": triples,
                              "signs": {"harnack": [1, 0, 0]}})


def test_reports_build_no_nodes():
    # `curve`, `filling`, `harnack` and `render` read component walks only:
    # a component is its walk, a list of slot-lift ints, and the G(S) node
    # view is in `oracles`, which no subcommand imports
    from tcurve_lab.surface import build_ambient_surface
    from tcurve_lab.tcurve import extract_curve
    prob = torus_problem()
    curve = extract_curve(build_ambient_surface(prob.polygon),
                          prob.build_triangulation(), prob.distribution())
    assert {type(walk) for walk in curve.components} == {list}
    assert {type(u) for walk in curve.components for u in walk} == {int}
    sphere = Path(__file__).parent / "data" / "harnack_sphere.yaml"
    problems = [
        {"polygon": triangle(7), "signs": {"harnack": [1, 0, 0]}},
        parse_problem(str(sphere)).data(),
        torus_problem().data(),
    ]
    code = ("import sys\n"
            "from tcurve_lab.cli import problem_from_data, run_subcommand\n"
            f"for raw in {problems!r}:\n"
            "    prob = problem_from_data(raw)\n"
            "    for name in ('curve', 'filling', 'harnack'):\n"
            "        rep = run_subcommand(name, prob)\n"
            "        print(rep['curve']['component_count'] >= 2)\n"
            "    print(run_subcommand('render', prob).endswith('</svg>\\n'))\n"
            "print('tcurve_lab.oracles' in sys.modules)\n")
    assert run_python(code).split() == ["True"] * 12 + ["False"]


# ---------------------------------------------------------------------------
# the command line itself

# every malformed command line; "{path}" stands for a valid problem file
BAD_COMMAND_LINES = {
    "nothing": [],
    "no subcommand": ["--input", "{path}"],
    "unknown subcommand": ["bogus", "--input", "{path}"],
    "two positionals": ["curve", "surface", "--input", "{path}"],
    "unknown option": ["curve", "--input", "{path}", "--bogus", "1"],
    "abbreviated option": ["curve", "--inp", "{path}"],
    "unknown short option": ["curve", "-i", "{path}"],
    "missing value at the end": ["curve", "--input"],
    "missing value before an option": ["curve", "--out", "--input", "{path}"],
    "non-integer --cap": ["enumerate", "--input", "{path}", "--cap", "abc"],
    "empty --cap": ["enumerate", "--input={path}", "--cap="],
    "non-integer --seed": ["curve", "--input", "{path}", "--seed=1.5"],
    "no --input": ["curve"],
    "no --input among options": ["curve", "--out", "x.json", "--cap", "3"],
}


def command_line(tmp_path, kind):
    path = write(tmp_path, "t3.yaml", T3_HARNACK)
    return [arg.replace("{path}", path) for arg in BAD_COMMAND_LINES[kind]]


@pytest.mark.parametrize("kind", BAD_COMMAND_LINES)
def test_bad_command_line_exits_2_with_one_line(tmp_path, capsys, kind):
    assert main(command_line(tmp_path, kind)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", BAD_COMMAND_LINES)
def test_bad_command_line_exits_2_with_one_line_under_python_O(tmp_path, kind):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tcurve_lab.cli",
         *command_line(tmp_path, kind)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, \
        proc.stderr


def readme_synopsis() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_readme_synopsis(capsys, flag):
    assert main([flag]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (readme_synopsis(), "")
    assert main(["curve", "--input", "missing.yaml", flag]) == 0
    assert capsys.readouterr().out == readme_synopsis()


def test_help_exits_0_in_a_process():
    proc = subprocess.run([sys.executable, "-O", "-m", "tcurve_lab.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, readme_synopsis(), "")


def test_accepted_option_forms(tmp_path, capsys):
    # either form, in any order, the last of a repeated option winning; a
    # separate value may be a negative number
    path = write(tmp_path, "t3.yaml", T3_HARNACK)
    out = tmp_path / "out.json"
    code = main(["--seed=7", f"--input={path}", "--type", "1,1,1", "harnack",
                 "--out", str(tmp_path / "first.json"), "--seed", "-5",
                 "--type=0,1,1", "--out", str(out)])
    assert code == 0 and capsys.readouterr() == ("", "")
    rep = json.loads(out.read_text())
    assert rep["seed"] == -5
    assert rep["harnack_census"]["type"] == [0, 1, 1]
    assert not (tmp_path / "first.json").exists()
    # --cap takes the same forms; 10 lattice points exceed --cap=9
    t3 = write(tmp_path, "t3e.yaml", "polygon: [[0,0],[3,0],[0,3]]\nsigns: enumerate\n")
    assert main(["enumerate", "--input", t3, "--cap=9"]) == 2
    assert "cap 9" in capsys.readouterr().err
    assert main(["enumerate", "--cap", "9", "--input", t3, "--cap", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["enumerate"]["runs"] == 1024


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_cli_process_loads_no_json_escape_codec_or_yaml(tmp_path, flags):
    # what `tcurve-lab` processes on flow-style problem files import: the
    # reader, the report writer and one_line's table need none of these
    t3 = write(tmp_path, "t3.yaml", T3_HARNACK)
    t3e = write(tmp_path, "t3e.yaml", PROBLEMS[1])
    runs = [["filling", "--input", t3, "--out", str(tmp_path / "t3.json")],
            ["render", "--input", t3, "--out", str(tmp_path / "t3.svg")],
            ["enumerate", "--input", t3e, "--out", str(tmp_path / "e.json")]]
    code = ("import sys\n"
            "import tcurve_lab.cli\n"
            f"for argv in {runs!r}:\n"
            "    print(tcurve_lab.cli.main(argv))\n"
            "print(sorted({'argparse', 'gettext', 'json', 'yaml', "
            "'encodings.unicode_escape'} & set(sys.modules)))\n")
    assert run_python(code, *flags).split() == ["0", "0", "0", "[]"]
    assert json.loads((tmp_path / "e.json").read_text())["enumerate"][
        "runs"] == 512


# line breaks a file name may hold, and how an error message shows them
LINE_BREAKS = {"LF": ("\n", "\\n"), "CR": ("\r", "\\r"), "LS": ("\u2028", "\\u2028")}
PATH_ERRORS = ("cannot read", "size limit", "nesting limit", "not a mapping",
               "PyYAML", "cannot write")


def path_error_command_line(tmp_path, kind, br):
    """A command line whose error message names a path in a directory
    whose name holds the line break ``br``, and that directory."""
    folder = tmp_path / f"a{br}b"
    folder.mkdir()
    if kind == "cannot write":
        return ["curve", "--input", write(folder, "t3.yaml", T3_HARNACK),
                "--out", str(folder / "missing" / "x.json")], str(folder)
    if kind == "size limit":
        from tcurve_lab.cli import MAX_FILE_BYTES
        path = folder / "sparse.yaml"
        with open(path, "wb") as fh:
            fh.truncate(MAX_FILE_BYTES + 1)
    else:
        path = folder / "p.yaml"
        if kind != "cannot read":
            path.write_text({
                "nesting limit": "polygon:\n" + "- " * 50 + "1\n",
                "not a mapping": "- 1\n",
                "PyYAML": "polygon: [[0,0\n"}[kind])
    return ["surface", "--input", str(path)], str(folder)


def test_one_line_escapes_every_line_break():
    breaks = [c for c in map(chr, range(0x110000))
              if len(f"a{c}b".splitlines()) == 2]
    shown = one_line("/a" + "".join(breaks) + "b c.yaml")
    assert shown == "/a" + "".join(
        c.encode("unicode_escape").decode() for c in breaks) + "b c.yaml"
    assert len(shown.splitlines()) == 1


def assert_one_line_naming(err: str, folder: str, br: str, shown: str):
    assert err.startswith("error: ") and err.endswith("\n"), err
    assert len(err.splitlines()) == 1, err
    assert folder.replace(br, shown) in err, err


@pytest.mark.parametrize("name", LINE_BREAKS)
@pytest.mark.parametrize("kind", PATH_ERRORS)
def test_path_with_a_line_break_named_on_one_line(tmp_path, capsys, kind, name):
    br, shown = LINE_BREAKS[name]
    argv, folder = path_error_command_line(tmp_path, kind, br)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line_naming(err, folder, br, shown)


@pytest.mark.parametrize("name", LINE_BREAKS)
@pytest.mark.parametrize("kind", PATH_ERRORS)
def test_path_with_a_line_break_named_on_one_line_under_python_O(tmp_path, kind, name):
    br, shown = LINE_BREAKS[name]
    argv, folder = path_error_command_line(tmp_path, kind, br)
    # bytes: text mode would read a lone CR as a line break of its own
    proc = subprocess.run([sys.executable, "-O", "-m", "tcurve_lab.cli", *argv],
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH})
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert_one_line_naming(proc.stderr.decode(), folder, br, shown)


BLOCK_T4 = "polygon:\n  - [0, 0]\n  - [4, 0]\n  - [0, 4]\nsigns:\n  harnack: [0, 1, 1]\n"


@pytest.mark.parametrize("name", ["surface", "curve", "filling", "harnack",
                                  "enumerate", "render", "missing file"])
def test_a_run_leaves_no_reference_cycles(tmp_path, name):
    """``main`` keeps the cyclic collector off during a run, so every
    object of a run must be freed by its reference count: with the
    collector off, nothing is left for it to find, on a flow-style file, a
    block-style one (read by PyYAML) and a missing one; and the collector
    is on again after the run."""
    flow = write(tmp_path, "t4.yaml", "polygon: [[0,0],[4,0],[0,4]]\n"
                 "signs: {harnack: [1,0,0]}\n")
    block = write(tmp_path, "block.yaml", BLOCK_T4)
    out = str(tmp_path / "out")
    runs = ([["surface", "--input", str(tmp_path / "none.yaml")]]
            if name == "missing file" else
            [[name, "--input", path, "--out", out] for path in (flow, block)])
    gc.collect()
    gc.disable()
    try:
        for argv in runs:
            assert main(argv) == (2 if name == "missing file" else 0)
            assert gc.collect() == 0
    finally:
        gc.enable()
    assert main(runs[0]) in (0, 2) and gc.isenabled()


def spin_pass_counts(path: str) -> dict:
    """Per subcommand on the problem at ``path``, the calls of
    ``thick_y_spins``, looked up through ``sweep`` or through ``filling``;
    under "orient", the calls that ``orient_curve`` makes, both ways, once
    ``build_filling`` has run."""
    import tcurve_lab.filling as fill
    import tcurve_lab.sweep as sweep
    from tcurve_lab.lattice import validate_polygon
    from tcurve_lab.surface import build_ambient_surface
    from tcurve_lab.tcurve import extract_curve, harnack_distribution
    from tcurve_lab.triangulation import generate_grid_triangulation
    calls, spins, counts = [], sweep.thick_y_spins, {}

    def counted(tab, tw):
        calls.append(tw)
        return spins(tab, tw)
    sweep.thick_y_spins = fill.thick_y_spins = counted
    try:
        for name in ("curve", "render", "filling", "harnack"):
            calls.clear()
            # not inside an assert, which python -O strips
            code = main([name, "--input", path, "--out", os.devnull])
            counts[name] = len(calls) if code == 0 else f"exit {code}"
        t40 = validate_polygon([(0, 0), (40, 0), (0, 40)])
        curve = extract_curve(build_ambient_surface(t40),
                              generate_grid_triangulation(t40),
                              harnack_distribution(t40, (1, 0, 0)))
        filling = fill.build_filling(curve)
        calls.clear()
        fill.orient_curve(curve, filling)
        fill.orient_curve(curve, filling, flip=True)
        counts["orient"] = len(calls)
    finally:
        sweep.thick_y_spins = fill.thick_y_spins = spins
    return counts


def test_spin_pass_runs_once_per_filling(tmp_path):
    """On T_40, ``curve`` and ``render`` never decide orientability;
    ``filling`` and ``harnack`` do once, when the filling is built, and
    ``orient_curve`` reads the filling's spins.  In process and under
    python -O."""
    path = write(tmp_path, "t40.yaml", T40_HARNACK)
    want = {"curve": 0, "render": 0, "filling": 1, "harnack": 1, "orient": 0}
    assert spin_pass_counts(path) == want
    out = run_python(f"from test_cli import spin_pass_counts\n"
                     f"print(spin_pass_counts({path!r}))\n", "-O")
    assert out == f"{want}\n"


def test_stdout_matches_the_out_file_under_python_O(tmp_path):
    """Frozen at exit, a process still writes its whole output to a pipe:
    the T_40 ``harnack`` report (220,360 bytes, more than the 64 KiB a
    pipe holds) and its ``render`` SVG, each against its ``--out`` file."""
    path = write(tmp_path, "t40.yaml", T40_HARNACK)
    env = {**os.environ, "PYTHONPATH": PYTHONPATH}
    for name in ("harnack", "render"):
        argv = [sys.executable, "-O", "-m", "tcurve_lab.cli", name, "--input", path]
        out = tmp_path / f"{name}.out"
        assert subprocess.run(argv + ["--out", str(out)], env=env,
                              timeout=60).returncode == 0
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        piped, written = proc.stdout, out.read_bytes()
        if name == "harnack":
            assert len(piped) > 1 << 16
            piped, written = (json.loads(text) for text in (piped, written))
            assert piped.pop("timing_ms") >= 0 and written.pop("timing_ms") >= 0
        assert piped == written


def test_main_registers_the_exit_freeze_once_under_python_O(tmp_path):
    """Importing the CLI registers nothing; ``main`` registers ``gc.freeze``
    at exit once, however often it runs, and freezes nothing itself."""
    path = write(tmp_path, "t3.yaml", T3_HARNACK)
    argv = ["curve", "--input", path, "--out", str(tmp_path / "out.json")]
    code = ("import atexit, gc\n"
            "before = atexit._ncallbacks()\n"
            "import tcurve_lab.cli as cli\n"
            "imported = atexit._ncallbacks()\n"
            f"codes = [cli.main({argv!r}) for _ in range(2)]\n"
            "print(imported - before, atexit._ncallbacks() - before,\n"
            "      gc.get_freeze_count(), *codes)\n"
            "atexit._run_exitfuncs()\n"
            "print(gc.get_freeze_count() > 0)\n")
    assert run_python(code, "-O").split() == ["0", "1", "0", "0", "0", "True"]
