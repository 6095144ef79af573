import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from boolelim.cli import (
    EXIT_DISAGREE,
    EXIT_INCOMPATIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SHAPE,
    EXIT_SIZE,
    EXIT_UNRESOLVED,
    _parse_gaussian,
    _parse_grid,
    _parse_point,
    main,
)
from boolelim.exactnum import gaussian
from boolelim.fixtures import CROSS_NEQ, CROSS_ORDER
from boolelim.poly import Field


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


ALL_FORMS = [
    ("ea", "c", CROSS_NEQ),
    ("ae", "c", CROSS_NEQ),
    ("e", "r", CROSS_NEQ),
    ("e", "q", CROSS_NEQ),
    ("ed", "r", CROSS_ORDER),
    ("ae", "r", CROSS_ORDER),
    ("e3d", "q", CROSS_ORDER),
    ("ae3", "q", CROSS_ORDER),
]


def test_eliminate_all_forms_text(tmp_path):
    for form, fld, text in ALL_FORMS:
        f = write(tmp_path, "f.txt", text)
        code, got = run(["eliminate", "--field", fld, "--form", form, "--input", f])
        assert code == EXIT_OK, (form, fld, got)
        assert "= 0" in got
        assert "degrees " in got and "satisfied True" in got


def test_eliminate_json_schema(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    code, got = run(
        ["eliminate", "--field", "c", "--form", "ea", "--input", f, "--output", "json"]
    )
    assert code == EXIT_OK
    obj = json.loads(got)
    assert set(obj) == {"equation", "report"}
    eq = obj["equation"]
    assert eq["shape"] == "EA_C"
    assert eq["prefix"] == [["exists", "a"], ["forall", "b"]]
    assert eq["counts"]["d"] == 2
    assert obj["report"]["satisfied"] is True


def test_eliminate_latex(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    code, got = run(
        ["eliminate", "--field", "c", "--form", "ea", "--input", f, "--output", "latex"]
    )
    assert code == EXIT_OK
    assert got.startswith("\\exists a")


def test_eliminate_rejects_wrong_field_for_form(tmp_path):
    f = write(tmp_path, "f.txt", "y = 0")
    assert run(["eliminate", "--field", "r", "--form", "ea", "--input", f])[0] == EXIT_INCOMPATIBLE
    assert run(["eliminate", "--field", "c", "--form", "e", "--input", f])[0] == EXIT_INCOMPATIBLE
    assert run(["eliminate", "--field", "q", "--form", "ed", "--input", f])[0] == EXIT_INCOMPATIBLE


def test_eliminate_exits_0_on_exactly_the_documented_form_field_pairs(tmp_path):
    f = write(tmp_path, "f.txt", "y = 0")
    codes = {
        (form, fld): run(["eliminate", "--field", fld, "--form", form, "--input", f])[0]
        for form in ("ea", "ae", "e", "ed", "e3d", "ae3")
        for fld in ("c", "r", "q")
    }
    documented = {(form, fld) for form, fld, _ in ALL_FORMS}
    assert len(codes) == 18 and len(documented) == 8
    assert {pair for pair, code in codes.items() if code == EXIT_OK} == documented
    assert {codes[pair] for pair in codes.keys() - documented} == {EXIT_INCOMPATIBLE}


def test_eliminate_rejects_neq_for_order_form(tmp_path):
    # ed over R takes NEQ input only via the order rewrite, which is applied
    # automatically; a direct complex order literal is a parse-stage error
    f = write(tmp_path, "f.txt", "y > 0")
    code, _ = run(["eliminate", "--field", "c", "--form", "ea", "--input", f])
    assert code == EXIT_INCOMPATIBLE
    # and order input to a =/!= form over R is incompatible
    code2, _ = run(["eliminate", "--field", "r", "--form", "e", "--input", f])
    assert code2 == EXIT_INCOMPATIBLE


def test_eliminate_syntax_error(tmp_path):
    f = write(tmp_path, "f.txt", "y == 0")
    code, _ = run(["eliminate", "--field", "c", "--form", "ea", "--input", f])
    assert code == EXIT_PARSE


def test_eliminate_clause_limit(tmp_path):
    parts = [rf"(x{i} = 0 \/ y{i} = 0)" for i in range(1, 11)]
    f = write(tmp_path, "f.txt", " /\\ ".join(parts))
    code, _ = run(
        ["eliminate", "--field", "c", "--form", "ea", "--input", f, "--clause-limit", "64"]
    )
    assert code == EXIT_SIZE


def test_report_text(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_ORDER)
    code, got = run(["report", "--field", "r", "--form", "ae", "--input", f])
    assert code == EXIT_OK
    assert "satisfied" in got
    assert "r: " in got and "s: " in got


def test_decide_true_false_roundtrip(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    _, payload = run(
        ["eliminate", "--field", "c", "--form", "ea", "--input", f, "--output", "json"]
    )
    eq = write(tmp_path, "eq.json", json.dumps(json.loads(payload)["equation"]))
    code, got = run(["decide", "--input", eq, "--point", "y=0,z=3"])
    assert code == EXIT_OK and got.strip() == "TRUE"
    code, got = run(["decide", "--input", eq, "--point", "y=1,z=1"])
    assert code == EXIT_OK and got.strip() == "FALSE"
    # gaussian coordinates
    code, got = run(["decide", "--input", eq, "--point", "y=0,z=1+2i"])
    assert code == EXIT_OK and got.strip() == "TRUE"


def test_decide_bad_json(tmp_path):
    eq = write(tmp_path, "eq.json", "{not json")
    assert run(["decide", "--input", eq, "--point", "y=0"])[0] == EXIT_PARSE


def test_decide_refute_paths(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    _, payload = run(
        ["eliminate", "--field", "c", "--form", "ae", "--input", f, "--output", "json"]
    )
    eq = write(tmp_path, "eq.json", json.dumps(json.loads(payload)["equation"]))
    # refute needs a seed
    assert run(["decide", "--input", eq, "--refute", "--point", "y=1,z=1"])[0] == EXIT_PARSE
    code, got = run(
        ["decide", "--input", eq, "--refute", "--seed", "5", "--point", "y=1,z=1"]
    )
    assert code == EXIT_OK
    assert got.startswith("REFUTED at ")
    code, got = run(
        ["decide", "--input", eq, "--refute", "--seed", "5", "--points", "12",
         "--point", "y=0,z=3"]
    )
    assert code == EXIT_UNRESOLVED
    assert "UNRESOLVED after 12 samples" in got


def test_decide_refute_rejects_exists_equation(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    _, payload = run(
        ["eliminate", "--field", "r", "--form", "e", "--input", f, "--output", "json"]
    )
    eq = write(tmp_path, "eq.json", json.dumps(json.loads(payload)["equation"]))
    code, _ = run(["decide", "--input", eq, "--refute", "--seed", "1", "--point", "y=0,z=1"])
    assert code == EXIT_SHAPE


def test_verify_agreement(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    code, got = run(
        ["verify", "--field", "c", "--form", "ea", "--input", f, "--seed", "42",
         "--points", "40"]
    )
    assert code == EXIT_OK
    assert got.strip() == "40/40 agree (seed 42)"


def test_verify_corrupt_control(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    code, got = run(
        ["verify", "--field", "c", "--form", "ea", "--input", f, "--seed", "42",
         "--points", "20", "--corrupt"]
    )
    assert code == EXIT_DISAGREE
    lines = got.strip().splitlines()
    assert lines[0] == "0/20 agree (seed 42)"
    rec = json.loads(lines[1])
    assert set(rec) == {"point", "expected", "got", "seed", "index"}


def test_verify_all_forms_small(tmp_path):
    for form, fld, text in ALL_FORMS:
        f = write(tmp_path, "f.txt", text)
        code, got = run(
            ["verify", "--field", fld, "--form", form, "--input", f, "--seed", "3",
             "--points", "12"]
        )
        assert code == EXIT_OK, (form, fld, got)
        assert got.strip() == "12/12 agree (seed 3)"


def test_selftest_green():
    code, got = run(["selftest"])
    assert code == EXIT_OK
    assert "FAIL" not in got
    assert "ok golden ea_c_cross" in got


def test_selftest_corrupt_control():
    code, got = run(["selftest", "--corrupt"])
    assert code == 1
    assert "FAIL golden ea_c_cross" in got
    assert "failing:" in got


def test_plot_fixture_csv():
    code, got = run(["plot", "--fixture", "quadrant", "--grid=-1:1:1/2"])
    assert code == EXIT_OK
    lines = got.strip().splitlines()
    assert lines[0] == "y,z,has_real_root"
    assert len(lines) == 1 + 25
    rows = {tuple(l.split(",")[:2]): l.split(",")[2] for l in lines[1:]}
    assert rows[("1", "1")] == "1"
    assert rows[("1", "-1")] == "0"
    assert rows[("1/2", "1/2")] == "1"


def test_plot_agrees_between_fixture_variants():
    _, a = run(["plot", "--fixture", "quadrant", "--grid=-1:1:1/2"])
    _, b = run(["plot", "--fixture", "quadrant-raw", "--grid=-1:1:1/2"])
    assert a == b


def test_plot_rejects_multi_exists(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_ORDER)
    _, payload = run(
        ["eliminate", "--field", "r", "--form", "ed", "--input", f, "--output", "json"]
    )
    eq = write(tmp_path, "eq.json", json.dumps(json.loads(payload)["equation"]))
    code, _ = run(["plot", "--input", eq])
    assert code == EXIT_SHAPE


def test_plot_needs_some_input():
    assert run(["plot"])[0] == EXIT_PARSE


def test_parse_gaussian_forms():
    assert _parse_gaussian("3") == gaussian(3)
    assert _parse_gaussian("-2/3") == gaussian(Fraction(-2, 3))
    assert _parse_gaussian("i") == gaussian(0, 1)
    assert _parse_gaussian("-i") == gaussian(0, -1)
    assert _parse_gaussian("2i") == gaussian(0, 2)
    assert _parse_gaussian("1+2i") == gaussian(1, 2)
    assert _parse_gaussian("1-2/3i") == gaussian(1, Fraction(-2, 3))
    with pytest.raises(ValueError):
        _parse_gaussian("2+x")


def test_parse_point_and_grid():
    pt = _parse_point("y=1/2,z=-3", Field.R)
    assert pt == {"y": Fraction(1, 2), "z": Fraction(-3)}
    pt_c = _parse_point("y=1-1i", Field.C)
    assert pt_c["y"] == gaussian(1, -1)
    assert _parse_point("", Field.R) == {}
    with pytest.raises(ValueError):
        _parse_point("y", Field.R)
    lo, hi, step = _parse_grid("-2:2:1/4")
    assert (lo, hi, step) == (Fraction(-2), Fraction(2), Fraction(1, 4))
    with pytest.raises(ValueError):
        _parse_grid("2:1:1")
    with pytest.raises(ValueError):
        _parse_grid("0:1:0")


def test_decide_reads_the_whole_eliminate_payload(tmp_path):
    """The README workflow: eliminate --output json > eq.json, then decide."""
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    _, payload = run(
        ["eliminate", "--field", "c", "--form", "ea", "--input", f, "--output", "json"]
    )
    eq = write(tmp_path, "eq.json", payload)
    assert run(["decide", "--input", eq, "--point", "y=0,z=3"]) == (EXIT_OK, "TRUE\n")
    assert run(["decide", "--input", eq, "--point", "y=1,z=1"]) == (EXIT_OK, "FALSE\n")
    _, payload = run(
        ["eliminate", "--field", "r", "--form", "e", "--input", f, "--output", "json"]
    )
    eq = write(tmp_path, "eq.json", payload)
    code, got = run(["plot", "--input", eq, "--grid=-1:1:1"])
    assert code == EXIT_OK and got.splitlines()[0] == "y,z,has_real_root"


def _bare_e_r_equation(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    _, payload = run(
        ["eliminate", "--field", "r", "--form", "e", "--input", f, "--output", "json"]
    )
    return write(tmp_path, "eq.json", json.dumps(json.loads(payload)["equation"]))


def test_decide_point_missing_a_variable_is_an_input_error(tmp_path):
    eq = _bare_e_r_equation(tmp_path)
    assert run(["decide", "--input", eq, "--point", "y=1"])[0] == EXIT_PARSE


def test_decide_point_with_zero_denominator_is_an_input_error(tmp_path):
    eq = _bare_e_r_equation(tmp_path)
    assert run(["decide", "--input", eq, "--point", "y=1,z=1/0"])[0] == EXIT_PARSE


def test_free_variable_named_like_a_quantifier_is_incompatible(tmp_path):
    f = write(tmp_path, "f.txt", "a = 0")
    assert run(["eliminate", "--field", "c", "--form", "ea", "--input", f])[0] == EXIT_INCOMPATIBLE


def test_q_tagged_e_equation_not_from_the_construction_is_refused(tmp_path):
    """r^2 = 2y has a real root but no rational one at y = 1; over Q only an
    equation that re-derives from its provenance is decided."""
    eq = write(tmp_path, "eq.json", json.dumps({
        "field": "Q", "prefix": [["exists", "r"]], "vars": ["y"],
        "equation": "r^2 - 2*y", "shape": "E_R", "counts": {},
    }))
    assert run(["decide", "--input", eq, "--point", "y=1"])[0] == EXIT_SHAPE


def test_equation_of_huge_degree_hits_the_size_limit(tmp_path):
    """Deciding reads a univariate view in a, one coefficient per power; a
    degree above the limit is refused instead of allocated."""
    eq = write(tmp_path, "eq.json", json.dumps({
        "field": "C", "prefix": [["exists", "a"], ["forall", "b"]], "vars": ["y"],
        "equation": "a^100000000*b - y", "shape": "EA_C", "counts": {},
    }))
    assert run(["decide", "--input", eq, "--point", "y=1"])[0] == EXIT_SIZE


def test_q_tagged_e_equation_from_eliminate_is_decided(tmp_path):
    f = write(tmp_path, "f.txt", CROSS_NEQ)
    _, payload = run(
        ["eliminate", "--field", "q", "--form", "e", "--input", f, "--output", "json"]
    )
    eq = write(tmp_path, "eq.json", payload)
    assert run(["decide", "--input", eq, "--point", "y=0,z=3"]) == (EXIT_OK, "TRUE\n")
    assert run(["decide", "--input", eq, "--point", "y=1,z=1"]) == (EXIT_OK, "FALSE\n")


@pytest.mark.parametrize("text,verdict", [("true", "TRUE"), ("false", "FALSE")])
def test_constant_formula_keeps_the_requested_field(tmp_path, text, verdict):
    """A constant names no ring, so only the requested field can tag its
    matrix; the Q file then re-derives from its provenance when decided."""
    f = write(tmp_path, "f.txt", text)
    code, payload = run(
        ["eliminate", "--field", "q", "--form", "e", "--input", f, "--output", "json"]
    )
    assert code == EXIT_OK
    assert json.loads(payload)["equation"]["field"] == "Q"
    eq = write(tmp_path, "eq.json", payload)
    assert run(["decide", "--input", eq]) == (EXIT_OK, verdict + "\n")


def test_plot_counts_real_roots_of_a_q_tagged_equation(tmp_path):
    eq = write(tmp_path, "eq.json", json.dumps({
        "field": "Q", "prefix": [["exists", "r"]], "vars": ["y", "z"],
        "equation": "r^2 - 2*y*z", "shape": "E_R", "counts": {},
    }))
    code, got = run(["plot", "--input", eq, "--grid=1:1:1"])
    assert (code, got) == (EXIT_OK, "y,z,has_real_root\n1,1,1\n")


@pytest.mark.parametrize("argv", [
    ["decide", "--output", "json"],
    ["decide", "--clause-limit", "5"],
    ["verify", "--field", "c", "--form", "ea", "--seed", "1", "--output", "json"],
    ["report", "--field", "c", "--form", "ea", "--output", "latex"],
])
def test_options_a_subcommand_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("form", ["e3d", "ae3"])
@pytest.mark.parametrize("refute", [False, True])
def test_q_structured_decide_at_a_point_missing_a_variable(tmp_path, form, refute):
    """The deciders evaluate the recorded literals at the point, which lacks x:
    an input error, or for the exists-only form the refuter's shape refusal."""
    f = write(tmp_path, "f.txt", "x > 0 \\/ y = 0")
    _, payload = run(
        ["eliminate", "--field", "q", "--form", form, "--input", f, "--output", "json"]
    )
    eq = write(tmp_path, "eq.json", payload)
    argv = ["decide", "--input", eq, "--point", "y=1"]
    if refute:
        argv += ["--refute", "--seed", "1"]
    want = EXIT_SHAPE if refute and form == "e3d" else EXIT_PARSE
    assert run(argv)[0] == want


def test_closed_stdout_ends_the_run_with_exit_0(tmp_path):
    # a reader that stops early (`| head`) closes the pipe before the output
    # is written; that is not an input error
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "boolelim.cli", "eliminate", "--field", "q", "--form", "e",
             "--output", "json"],
            input=b"true", stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""
