"""Characterization of the command line outputs, recorded once and compared
byte for byte: `eliminate` as text, JSON and LaTeX, and `report --output
json`, for one small formula (d = 2..3) per form/field pair. Any change to a
construction, its layout, the rendering or the degree report shows here."""

import io
import json
import sys
from pathlib import Path

import pytest

from boolelim.cli import main
from boolelim.elim import degree_report, from_json, to_json

CASES = json.loads((Path(__file__).parent / "data" / "characterization.json").read_text())

COMMANDS = {
    "eliminate_text": ["eliminate"],
    "eliminate_json": ["eliminate", "--output", "json"],
    "eliminate_latex": ["eliminate", "--output", "latex"],
    "report_json": ["report", "--output", "json"],
}


def run_stdin(argv, text, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_every_form_field_pair_is_covered():
    assert sorted((c["form"], c["field"]) for c in CASES) == sorted([
        ("ea", "c"), ("ae", "c"), ("ae", "r"), ("e", "r"),
        ("e", "q"), ("ed", "r"), ("e3d", "q"), ("ae3", "q"),
    ])


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['form']}-{c['field']}")
def test_outputs_byte_identical(case, monkeypatch):
    for name, cmd in COMMANDS.items():
        argv = [*cmd, "--field", case["field"], "--form", case["form"]]
        code, got = run_stdin(argv, case["formula"], monkeypatch)
        assert code == 0, name
        assert got == case["outputs"][name], name


RAW_COUNT_REPRO = r"(x = 0 \/ y != 0) /\ (x != 0 \/ y = 0) /\ (z = 0 \/ z != 0 \/ x = 0)"


@pytest.mark.parametrize(
    "field,form,formula",
    [("c", "ea", RAW_COUNT_REPRO), *((c["field"], c["form"], c["formula"]) for c in CASES)],
    ids=["raw-count-repro", *(f"{c['form']}-{c['field']}" for c in CASES)],
)
def test_json_round_trip_is_byte_identical(field, form, formula, monkeypatch):
    """A loaded equation keeps the recorded raw clause count, which its
    already pruned formula no longer shows."""
    code, got = run_stdin(
        ["eliminate", "--output", "json", "--field", field, "--form", form], formula, monkeypatch
    )
    assert code == 0
    text = json.dumps(json.loads(got)["equation"])
    assert to_json(from_json(text)) == text
    assert degree_report(from_json(text)).counts["raw_d"] == json.loads(text)["counts"]["raw_d"]
