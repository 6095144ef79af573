"""What the benchmark's per-layer tracer relies on: it rebinds the entries
of the decider and builder tables, so every shape must have an entry and
every caller must look the entry up at call time."""

import io
import sys

from boolelim import cli, decide, elim
from boolelim.elim import Shape
from boolelim.formula import parse, to_dnf
from boolelim.poly import Field


def test_decider_table_has_one_entry_per_shape():
    assert set(decide.DECIDER_FOR_SHAPE) == set(Shape)
    assert set(elim._BUILDERS) == set(Shape)


def test_decider_for_shape_reads_the_table_at_call_time(monkeypatch):
    calls = []
    original = decide.DECIDER_FOR_SHAPE[Shape.E_R]

    def patched(qe, x):
        calls.append(qe.shape)
        return original(qe, x)

    monkeypatch.setitem(decide.DECIDER_FOR_SHAPE, Shape.E_R, patched)
    assert decide.decider_for_shape(Shape.E_R) is patched
    qe = elim.build_for_shape(Shape.E_R, to_dnf(parse("y = 0", Field.R)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(elim.to_json(qe)))
    out = io.StringIO()
    assert cli.main(["decide", "--point", "y=0"], out=out) == 0
    assert out.getvalue() == "TRUE\n"
    assert calls == [Shape.E_R]


def test_build_for_shape_calls_the_builder_table_at_call_time(monkeypatch):
    calls = []
    original = elim._BUILDERS[Shape.E_R]

    def patched(m):
        calls.append(m.d)
        return original(m)

    monkeypatch.setitem(elim._BUILDERS, Shape.E_R, patched)
    qe = elim.build_for_shape(Shape.E_R, to_dnf(parse("y = 0", Field.R)))
    assert qe.shape is Shape.E_R and calls == [1]
    monkeypatch.setattr(sys, "stdin", io.StringIO("y = 0 \\/ z = 0"))
    assert cli.main(["eliminate", "--field", "r", "--form", "e"], out=io.StringIO()) == 0
    assert calls == [1, 2]
