import json

import pytest

from tcurve_lab.cli import YAML_LOADER, main, parse_problem, problem_from_data
from tcurve_lab.errors import ParseError, ValidationError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


T3_HARNACK = """\
polygon: [[0,0],[3,0],[0,3]]
signs: {harnack: [1,0,0]}
"""


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


def test_enumerate_cap(tmp_path, capsys):
    path = write(tmp_path, "t5.yaml",
                 "polygon: [[0,0],[5,0],[0,5]]\nsigns: enumerate\n")
    code, _ = run_main(capsys, ["enumerate", "--input", path])
    assert code == 2  # 21 lattice points exceed the default cap


def test_harnack_subcommand_with_type_flag(tmp_path, capsys):
    path = write(tmp_path, "t4.yaml",
                 "polygon: [[0,0],[4,0],[0,4]]\nsigns: enumerate\n")
    code, out = run_main(capsys, ["harnack", "--input", path, "--type", "0,1,1"])
    assert code == 0
    assert json.loads(out)["harnack_census"]["match"]


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


def test_exit_code_invariant_violation(tmp_path, capsys, monkeypatch):
    # force a census mismatch to exercise the exit-1 path
    import tcurve_lab.cli as cli
    monkeypatch.setattr(cli, "verify_harnack_census", lambda *a: False)
    path = write(tmp_path, "t3.yaml", T3_HARNACK)
    code, _ = run_main(capsys, ["harnack", "--input", path])
    assert code == 1


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


def test_libyaml_and_python_loaders_agree():
    import yaml
    for text in PROBLEMS:
        data = yaml.load(text, Loader=yaml.SafeLoader)
        if yaml.__with_libyaml__:
            assert yaml.load(text, Loader=yaml.CSafeLoader) == data
        assert problem_from_data(data).data() == \
            problem_from_data(yaml.load(text, Loader=YAML_LOADER)).data()


def test_syntax_error_with_either_loader(tmp_path, monkeypatch):
    import yaml
    import tcurve_lab.cli as cli
    path = write(tmp_path, "bad.yaml", "polygon: [[0,0")
    for loader in (yaml.SafeLoader, YAML_LOADER):
        monkeypatch.setattr(cli, "YAML_LOADER", loader)
        with pytest.raises(ParseError) as err:
            parse_problem(path)
        assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# strict input: each defect exits 2 with one line on stderr

def exit_and_stderr(tmp_path, capsys, text, subcommand="curve"):
    path = write(tmp_path, "p.yaml", text)
    code = main([subcommand, "--input", path])
    return code, capsys.readouterr().err


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
], ids=["negative-index", "string", "float", "bool", "bool-sign",
        "bool-harnack-bit"])
def test_strict_input(tmp_path, capsys, text, words):
    code, err = exit_and_stderr(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err


def test_strict_triangulation_indices():
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValidationError):
            problem_from_data({"polygon": [[0, 0], [1, 0], [0, 1]],
                               "triangulation": [[0, bad, 2]]})


# ---------------------------------------------------------------------------
# the enumerate cap is checked first

def test_enumerate_cap_before_any_work(monkeypatch):
    import tcurve_lab.cli as cli
    from tcurve_lab.errors import CapExceeded
    called = []
    monkeypatch.setattr(cli.Problem, "build_triangulation",
                        lambda self: called.append(self))
    prob = problem_from_data({"polygon": [[0, 0], [300, 0], [0, 300]],
                              "signs": "enumerate"})
    with pytest.raises(CapExceeded) as err:
        cli.run_subcommand("enumerate", prob)
    assert str(err.value).startswith("45451 lattice points exceed the cap 16")
    assert called == []
    assert "lattice_points" not in vars(prob.polygon)
