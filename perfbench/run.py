"""Benchmark harness for boolelim.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the root of a checkout: boolelim is imported from `src/`. Each
workload sets up several times (fresh import, input generation, compile,
warm-up) and reports the median as `setup_s`, and runs a closed loop, one
op at a time in this single thread, cycling through its ops for `--seconds`;
every result is checked against a reference that does not come from the
code under test. Times are scaled to a reference machine speed with a fixed
probe timed between ops (see `probe`). The last line of stdout is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics from the
tracer with `--trace 1`. perfbench/NOTES.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# set-ups per run: two before the timed loop, the rest after it, so the
# median spans the machine's speed over the whole run
SETUP_REPS = 3
# share of a traced run spent alternating untraced and traced blocks of the
# same ops to measure the tracing overhead, and the ops in one block
OVERHEAD_SHARE = 0.5
BLOCK = 28
# seconds between speed probes in the timed loop
PROBE_EVERY = 0.1
# reported times are seconds on a machine on which the probe takes this long
PROBE_REF_S = 0.001
END_TO_END = (("ops_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# the probe: a product of two fixed sparse polynomials with Fraction
# coefficients, the kind of interpreter and small-bigint work boolelim does
_P = {(i, j): Fraction(i - 3, j + 2) for i in range(5) for j in range(4)}
_Q = {(i, j): Fraction(2 * i + 1, 3 * j + 1) for i in range(4) for j in range(5)}


def _probe_work() -> dict:
    out: dict = {}
    for (a, b), c in _P.items():
        for (e, f), g in _Q.items():
            key = (a + e, b + f)
            out[key] = out.get(key, 0) + c * g
    return out


def probe() -> float:
    """Seconds the probe takes now: best of two, with the cyclic GC off.

    On the shared 2-core VM this benchmark was written on, CPU speed moves
    between levels about 1.8x apart, for a second to half a minute at a
    time, and process CPU time moves with wall time, so neither clock
    removes it. The probe's time moves with the ops' time (within about 7%
    across the levels); dividing by it measures the program against a fixed
    piece of work instead of against the clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work timed between
    two probes."""
    return 2 * PROBE_REF_S / (before + after)


@dataclass
class Run:
    lat: list  # wall seconds per op
    ref: list  # the same in reference seconds
    failed: int

    def ops_per_s(self) -> float:
        return len(self.ref) / sum(self.ref)


def run_ops(bx, ops, seconds: float, start: int = 0, count: int | None = None) -> Run:
    """Closed loop over ops (cycling) from `start`, until `seconds` have
    passed or `count` ops are done, probing the machine's speed every
    PROBE_EVERY seconds between ops."""
    gc.collect()
    lat, marks, failed = [], [], 0  # marks: (ops done, probe seconds)
    deadline = time.perf_counter() + seconds
    next_probe = 0.0
    i = start
    while True:
        if time.perf_counter() >= next_probe:
            marks.append((len(lat), probe()))
            next_probe = time.perf_counter() + PROBE_EVERY
        fn, item = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            ok = fn(bx, item)
        except Exception:  # a crash of the code under test is a failed op
            ok = False
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        failed += not ok
        i += 1
        if (count is not None and len(lat) >= count) or (count is None and t1 >= deadline):
            break
    marks.append((len(lat), probe()))
    ref = []
    for (k0, p0), (k1, p1) in zip(marks, marks[1:]):
        f = scale(p0, p1)
        ref += [t * f for t in lat[k0:k1]]
    return Run(lat, ref, failed)


def set_up(name: str, seed: int, tracer=None):
    """One set-up: import boolelim afresh, generate, compile and warm.
    Returns (reference seconds, boolelim namespace, ops)."""
    generate, prepare, op = workloads.WORKLOADS[name]
    gc.collect()
    p0 = probe()
    t0 = time.perf_counter()
    bx = workloads.load_boolelim()
    if tracer is not None:
        tracer.install(bx)
    items = prepare(bx, generate(seed))
    dt = time.perf_counter() - t0
    return dt * scale(p0, probe()), bx, [(op, item) for item in items]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(2):
        bx = ops = None  # free the previous set-up's package and corpus first
        dt, bx, ops = set_up(name, seed)
        setups.append(dt)
    run = run_ops(bx, ops, seconds)
    # the peak of the timed phase, before the later set-ups
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del bx, ops
    setups += [set_up(name, seed)[0] for _ in range(SETUP_REPS - 2)]
    cuts = statistics.quantiles(run.ref, n=100, method="inclusive")
    values = {
        "ops_per_s": run.ops_per_s(),
        "p50_ms": 1000 * statistics.median(run.ref),
        "p90_ms": 1000 * cuts[89],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"correct": run.failed == 0, "attempted": len(run.lat), "failed": run.failed,
            "metrics": {k: _metric(values[k], unit) for k, unit in END_TO_END}}


def _ratio(a, b):
    return a / b if b else 0.0


def traced(name: str, seed: int, seconds: float) -> dict:
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    # set-up traced once, for the build time it spends
    p0 = probe()
    _, bx, ops = set_up(name, seed, tracer)
    setup_build_s = tracer.self_s["elim.build"] * scale(p0, probe())
    tracer.uninstall()
    tracer.reset()

    # overhead: blocks of the same ops untraced and traced, in turn, the
    # order swapped every block so neither side always runs warm
    plain, spanned = [], []
    overhead_end = time.perf_counter() + seconds * OVERHEAD_SHARE
    i = 0
    while time.perf_counter() < overhead_end:
        for on in ((False, True) if (i // BLOCK) % 2 == 0 else (True, False)):
            if on:
                tracer.install(bx)
            run = run_ops(bx, ops, 0, start=i, count=BLOCK)
            if on:
                tracer.uninstall()
            (spanned if on else plain).append(run)
        i += BLOCK
    rest = deadline - time.perf_counter()
    if rest > 0:
        tracer.install(bx)
        spanned.append(run_ops(bx, ops, rest, start=i))
        tracer.uninstall()

    n = sum(len(r.lat) for r in spanned)
    wall = sum(sum(r.lat) for r in spanned)
    # layer self times in reference seconds, by the traced ops' own factor
    f = sum(sum(r.ref) for r in spanned) / wall
    blocks = spanned[:len(plain)]
    s, c, sums, mx = tracer.self_s, tracer.calls, tracer.sums, tracer.maxima
    values = {f"{layer}_s": s[layer] * f / n for layer in LAYERS}
    values.update({
        "setup.build_s": setup_build_s,
        "formula.clauses_kept_ratio": _ratio(sums["clauses_kept"], sums["clauses_raw"]),
        "elim.terms": _ratio(sums["terms"], sums["expansions"]),
        "elim.json_bytes": _ratio(sums["json_bytes"], c["elim.to_json"]),
        "decide.true_share": _ratio(sums["true"], sums["decisions"]),
        "poly.coeff_bits_max": mx["coeff_bits"],
        "poly.sturm_length": _ratio(sums["sturm_length"], sums["sturm_chains"]),
        "exactnum.three_squares_bits_max": mx["three_squares_bits"],
        "exactnum.is_sum_three_squares_calls": c["exactnum.is_sum_three_squares"] / n,
        "cli.documented_pipe_failures": 0,
        "trace.coverage": _ratio(tracer.total_self_s(), wall),
        "trace.ops_per_s": _ratio(sum(len(r.ref) for r in blocks), sum(sum(r.ref) for r in blocks)),
        "trace.untraced_ops_per_s": _ratio(sum(len(r.ref) for r in plain),
                                           sum(sum(r.ref) for r in plain)),
    })
    if name == "compile_json":
        # the first round of ops holds one formula per form
        items = [item for _, item in ops[:len(workloads.gen.SHAPES)]]
        values["cli.documented_pipe_failures"] = workloads.documented_pipe_failures(bx, items)
    failed = sum(r.failed for r in plain + spanned)
    attempted = sum(len(r.lat) for r in plain) + n
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: _metric(values[k], unit) for k, unit in PER_LAYER}}


# layers timed by the tracer, reported as self seconds per op
LAYERS = (
    "formula.parse", "formula.normal_form",
    "elim.build", "elim.expand", "elim.substitute", "elim.to_json", "elim.from_json",
    "elim.degree_report", "elim.extract_witness",
    "decide.EA_C", "decide.AE_C", "decide.E_R", "decide.Ed_R", "decide.AE_R",
    "decide.E3d_Q", "decide.AE3_Q", "decide.check_witness",
    "poly.gcd", "poly.squarefree", "poly.as_univariate", "poly.real_roots", "poly.sturm",
    "exactnum.positivity_witness", "exactnum.is_sum_three_squares",
    "cli.eliminate", "cli.decide",
)
PER_LAYER = tuple((f"{layer}_s", "s/op") for layer in LAYERS) + (
    ("setup.build_s", "s"),
    ("formula.clauses_kept_ratio", "ratio"),
    ("elim.terms", "count"),
    ("elim.json_bytes", "bytes"),
    ("decide.true_share", "ratio"),
    ("poly.coeff_bits_max", "bits"),
    ("poly.sturm_length", "count"),
    ("exactnum.three_squares_bits_max", "bits"),
    ("exactnum.is_sum_three_squares_calls", "1/op"),
    ("cli.documented_pipe_failures", "count"),
    ("trace.coverage", "ratio"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
)


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=args.seconds * 4 + 600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        print(f"{name}: fail_ratio {res['failed'] / res['attempted']:.4g} "
              f"({res['failed']} failed of {res['attempted']} attempted)")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "boolelim" / "__init__.py").is_file():
        print(f"error: no boolelim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    if args.trace == 0:
        print(f"fail_ratio {result['failed'] / result['attempted']:.4g} "
              f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
