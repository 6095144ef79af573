"""Checks on the benchmark itself: run with `python3 -m pytest perfbench -q`.

The negative controls show the correctness gate is not vacuous; the
determinism checks show a seed fixes the inputs and the traced counts.
"""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "decide_small": lambda seed: gen.decide_small(seed, per_cell=1),
    "decide_wide": lambda seed: gen.decide_wide(seed, rounds=1),
    "compile_json": lambda seed: gen.compile_json(seed, per_shape=1),
    "witness": lambda seed: gen.witness(seed, per_shape=1, lo_bits=10, hi_bits=16),
}


def _failures(name, cases, bx=None):
    _, prepare, op = workloads.WORKLOADS[name]
    bx = bx or workloads.load_boolelim()
    ops = [(op, item) for item in prepare(bx, cases)]
    return run.run_ops(bx, ops, 0, count=len(ops)).failed


def test_every_small_corpus_passes():
    for name, make in SMALL.items():
        assert _failures(name, make(3)) == 0, name


def test_flipped_verdict_fails():
    cases = SMALL["decide_small"](3)
    cases[5].expected = not cases[5].expected
    assert _failures("decide_small", cases) == 1
    cases = SMALL["decide_wide"](3)
    cases[1].expected = not cases[1].expected
    assert _failures("decide_wide", cases) == 1
    cases = SMALL["compile_json"](3)
    cases[2].expected[1] = not cases[2].expected[1]
    assert _failures("compile_json", cases) == 1


def test_corrupted_witness_fails():
    bx = workloads.load_boolelim()
    extract = bx.elim.extract_witness
    done = []

    def corrupt(*args, **kwargs):
        w = extract(*args, **kwargs)
        name = next((k for k, v in w.items() if isinstance(v, Fraction)), None)
        if name is not None and not done:
            w[name] += 1
            done.append(name)
        return w

    bx.elim.extract_witness = corrupt
    assert _failures("witness", SMALL["witness"](3), bx) == 1


def test_reference_times_follow_the_probe():
    """Ops between two probes are scaled by their mean; each op by its own pair."""
    ops = [(lambda bx, item: True, None)] * 3
    r = run.run_ops(None, ops, 0, count=3)
    assert len(r.ref) == 3 and all(t > 0 for t in r.ref)
    assert run.scale(2 * run.PROBE_REF_S, 2 * run.PROBE_REF_S) == 0.5


def test_inputs_repeat_byte_for_byte():
    for name, (generate, _, _) in workloads.WORKLOADS.items():
        a, b = gen.fingerprint(generate(11)), gen.fingerprint(generate(11))
        assert a == b, name
        assert a != gen.fingerprint(generate(12)), name


def test_traced_counts_repeat():
    def counts(name):
        _, prepare, op = workloads.WORKLOADS[name]
        bx = workloads.load_boolelim()
        ops = [(op, item) for item in prepare(bx, SMALL[name](5))]
        tracer = Tracer()
        tracer.install(bx)
        run.run_ops(bx, ops, 0, count=len(ops))
        tracer.uninstall()
        keys = ("terms", "sturm_length", "sturm_chains", "true", "decisions")
        return {k: tracer.sums[k] for k in keys}, dict(tracer.maxima)

    for name in SMALL:
        assert counts(name) == counts(name), name
    sums, maxima = counts("decide_small")
    assert sums["decisions"] == 28 and sums["sturm_chains"] > 0 and maxima["coeff_bits"] > 0
    assert counts("witness")[1]["three_squares_bits"] > 0
    assert counts("compile_json")[0]["terms"] > 0


def test_planted_verdicts_match_the_formula():
    """The generator's verdicts agree with boolelim's own formula evaluator."""
    bx = workloads.load_boolelim()
    for name in ("decide_small", "decide_wide", "witness"):
        for c in SMALL[name](7):
            field = gen.SHAPES[c.shape][0]
            phi = bx.formula.parse(c.formula, bx.poly.Field(field.upper()))
            point = {n: workloads._scalar(bx, field, v) for n, v in c.point.items()}
            want = getattr(c, "expected", True)
            assert bx.formula.eval_formula(phi, point) == want, (name, c)
    for c in SMALL["compile_json"](7):
        phi = bx.formula.parse(c.formula, bx.poly.Field(c.field.upper()))
        for p, want in zip(c.points, c.expected):
            point = {n: workloads._scalar(bx, c.field, v) for n, v in p.items()}
            assert bx.formula.eval_formula(phi, point) == want, c


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "decide_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
